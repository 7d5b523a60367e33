//! One cluster node: a board-owning `VnpuManager` plus the node identity and
//! inventory reporting the fleet layer needs.

use neu10::VnpuManager;
use npu_sim::NpuConfig;

use crate::inventory::NodeInventory;
use crate::NodeId;

/// A node of the cluster: one host driving one NPU board.
#[derive(Debug)]
pub struct ClusterNode {
    id: NodeId,
    manager: VnpuManager,
}

impl ClusterNode {
    /// Brings up a node with a freshly initialized board.
    pub fn new(id: NodeId, npu: &NpuConfig) -> Self {
        ClusterNode {
            id,
            manager: VnpuManager::new(npu),
        }
    }

    /// The node id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The node's vNPU manager.
    pub fn manager(&self) -> &VnpuManager {
        &self.manager
    }

    /// Mutable access to the node's vNPU manager.
    pub fn manager_mut(&mut self) -> &mut VnpuManager {
        &mut self.manager
    }

    /// The node's board configuration.
    pub fn npu_config(&self) -> &NpuConfig {
        self.manager.npu_config()
    }

    /// A snapshot of the node's free and total capacity. The four free
    /// totals come from one pass over the board's cores
    /// ([`PnpuMapper::free_totals`](neu10::PnpuMapper::free_totals)), so
    /// every placement scan, failover re-placement and fragmentation check
    /// reads a board once.
    pub fn inventory(&self) -> NodeInventory {
        let npu = self.manager.npu_config();
        let cores = npu.total_cores();
        let (free_mes, free_ves, free_sram_segments, free_hbm_segments) =
            self.manager.mapper().free_totals();
        NodeInventory {
            node: self.id,
            total_mes: npu.mes_per_core * cores,
            free_mes,
            total_ves: npu.ves_per_core * cores,
            free_ves,
            total_sram_segments: npu.sram_segments_per_core() * cores as u32,
            free_sram_segments,
            total_hbm_segments: npu.hbm_segments_per_core() * cores as u32,
            free_hbm_segments,
            resident_vnpus: self.manager.vnpu_count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neu10::{MappingMode, VnpuConfig};

    #[test]
    fn inventory_tracks_manager_state() {
        let npu = NpuConfig::single_core();
        let mut node = ClusterNode::new(NodeId(3), &npu);
        let empty = node.inventory();
        assert_eq!(empty.node, NodeId(3));
        assert_eq!(empty.free_mes, 4);
        assert_eq!(empty.resident_vnpus, 0);
        assert_eq!(empty.free_hbm_segments, empty.total_hbm_segments);

        let config = VnpuConfig::single_core(2, 2, npu.sram_bytes_per_core / 2, 8 << 30);
        let id = node
            .manager_mut()
            .create_vnpu(config, MappingMode::HardwareIsolated, 1)
            .unwrap();
        let loaded = node.inventory();
        assert_eq!(loaded.free_mes, 2);
        assert_eq!(loaded.resident_vnpus, 1);
        assert!(loaded.free_hbm_segments < loaded.total_hbm_segments);

        node.manager_mut().destroy_vnpu(id).unwrap();
        assert_eq!(node.inventory(), empty);
    }
}
