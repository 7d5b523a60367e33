//! The fleet defragmenter.
//!
//! Long-lived fleets fragment: after enough scale-ups and scale-downs the
//! free MEs/VEs/SRAM/HBM are scattered in slivers across every board, so the
//! fleet *in aggregate* could host another vNPU but **no single board can**
//! — and the next scale-up fails even though capacity exists. The
//! defragmenter watches for exactly that state and issues **consolidation
//! migrations** ([`cluster::ControlAction::Migrate`], priced by the run's
//! [`cluster::MigrationCostModel`] and therefore by the interconnect) that
//! pack free capacity back into a board-sized hole — cold by default, or
//! live pre-copy ([`Defragmenter::with_mode`]) so the migrant keeps serving
//! and continuous defragmentation stays affordable.
//!
//! The planner is deliberately conservative: it only acts when the fleet is
//! fragmented with respect to its *target shape* (the canonical vNPU it must
//! keep placeable), it moves the least-loaded replica whose departure opens
//! a hole, it packs the migrant into the fullest board that still fits it
//! (so the move does not smear fragmentation elsewhere), and a cooldown
//! spaces moves out so one migration's downtime is absorbed before the next
//! begins.

use cluster::{
    ControlAction, DeploySpec, MigrationMode, NodeInventory, NpuCluster, ResourceDemand,
    TelemetryFrame,
};

/// Detects fragmentation and plans consolidation migrations.
#[derive(Debug, Clone, PartialEq)]
pub struct Defragmenter {
    /// The canonical vNPU shape the fleet must keep placeable.
    pub target: DeploySpec,
    /// Cycles between consolidation moves.
    pub cooldown: u64,
    /// Most migrations issued per telemetry tick.
    pub max_moves_per_tick: usize,
    /// How consolidation moves migrate state. Live pre-copy keeps the
    /// migrant serving through the transfer, which is what makes running the
    /// defragmenter continuously affordable.
    pub mode: MigrationMode,
    last_move_at: Option<u64>,
}

impl Defragmenter {
    /// A defragmenter keeping one `target`-shaped hole available, moving at
    /// most one replica per tick by cold migration.
    ///
    /// # Example
    ///
    /// ```
    /// use autopilot::Defragmenter;
    /// use cluster::{DeploySpec, MigrationMode};
    /// use workloads::ModelId;
    ///
    /// let target = DeploySpec::replica(ModelId::Bert, 4, 4);
    /// let defrag = Defragmenter::new(target, 100_000)
    ///     .with_mode(MigrationMode::PreCopy); // consolidate without downtime
    /// assert_eq!(defrag.max_moves_per_tick, 1);
    /// ```
    pub fn new(target: DeploySpec, cooldown: u64) -> Self {
        Defragmenter {
            target,
            cooldown,
            max_moves_per_tick: 1,
            mode: MigrationMode::Cold,
            last_move_at: None,
        }
    }

    /// Overrides the per-tick migration budget.
    pub fn with_max_moves(mut self, moves: usize) -> Self {
        self.max_moves_per_tick = moves.max(1);
        self
    }

    /// Selects how consolidation moves migrate state (live pre-copy makes
    /// continuous defragmentation cheap: the migrant keeps serving).
    pub fn with_mode(mut self, mode: MigrationMode) -> Self {
        self.mode = mode;
        self
    }

    /// Whether the fleet is fragmented with respect to the target shape: no
    /// single node can host it, yet the fleet-wide free capacity could.
    pub fn is_fragmented(&self, cluster: &NpuCluster) -> bool {
        let mut aggregate_fits = (0usize, 0usize, 0u32, 0u32);
        let mut any_demand = None;
        for node in cluster.nodes() {
            let npu = node.npu_config();
            let demand = ResourceDemand::of(&self.target.vnpu_config(npu), npu);
            let inventory = node.inventory();
            if inventory.can_host(&demand) {
                return false;
            }
            aggregate_fits.0 += inventory.free_mes;
            aggregate_fits.1 += inventory.free_ves;
            aggregate_fits.2 += inventory.free_sram_segments;
            aggregate_fits.3 += inventory.free_hbm_segments;
            any_demand = Some(demand);
        }
        // Board-shape heterogeneity makes "aggregate demand" approximate;
        // comparing against the last node's demand is exact for homogeneous
        // fleets and a sane proxy otherwise.
        match any_demand {
            Some(demand) => {
                aggregate_fits.0 >= demand.mes
                    && aggregate_fits.1 >= demand.ves
                    && aggregate_fits.2 >= demand.sram_segments
                    && aggregate_fits.3 >= demand.hbm_segments
            }
            None => false,
        }
    }

    /// Plans the consolidation migrations for one telemetry tick: the
    /// least-loaded replica whose departure opens a target-shaped hole moves
    /// to the fullest other board that can absorb it.
    pub fn plan(&mut self, frame: &TelemetryFrame, cluster: &NpuCluster) -> Vec<ControlAction> {
        let now = frame.at.get();
        if let Some(last) = self.last_move_at {
            if now.saturating_sub(last) < self.cooldown {
                return Vec::new();
            }
        }
        if !self.is_fragmented(cluster) {
            return Vec::new();
        }

        // Working copy of the per-node inventories: each planned move is
        // deducted immediately, so a multi-move tick never plans two
        // migrants into capacity only one of them can have (or misses the
        // capacity an earlier move just freed).
        let mut inventories: Vec<NodeInventory> = cluster.inventories();
        let mut moves = Vec::new();
        // Donor candidates: the least disruptive first (fewest outstanding
        // requests, then the smallest footprint — cheapest state transfer).
        let mut donors: Vec<_> = frame
            .replicas
            .iter()
            .filter(|r| !r.draining)
            .filter_map(|r| cluster.deployment(r.handle).map(|d| (r, *d)))
            .collect();
        donors.sort_by_key(|(r, d)| {
            (
                r.outstanding(),
                d.config.num_mes_per_core + d.config.num_ves_per_core,
                r.handle,
            )
        });

        for (replica, deployment) in donors {
            if moves.len() >= self.max_moves_per_tick {
                break;
            }
            let source = replica.handle.node;
            let Some(source_at) = inventories.iter().position(|i| i.node == source) else {
                continue;
            };
            let source_npu = match cluster.node(source) {
                Some(node) => node.npu_config(),
                None => continue,
            };
            let migrant_demand = ResourceDemand::of(&deployment.config, source_npu);
            let target_demand =
                ResourceDemand::of(&self.target.vnpu_config(source_npu), source_npu);
            // Would the source fit the target once this replica leaves?
            let freed = Self::credit(&inventories[source_at], &migrant_demand);
            if !freed.can_host(&target_demand) {
                continue;
            }
            // Destination: the fullest other board that still fits the
            // migrant (best-fit — consolidating, not re-scattering).
            let destination = inventories
                .iter()
                .enumerate()
                .filter(|(_, inventory)| inventory.node != source)
                .filter(|(_, inventory)| {
                    let Some(node) = cluster.node(inventory.node) else {
                        return false;
                    };
                    let npu = node.npu_config();
                    let demand = ResourceDemand::of(&deployment.spec().vnpu_config(npu), npu);
                    inventory.can_host(&demand)
                })
                .min_by(|(_, a), (_, b)| {
                    let free_a = a.free_mes + a.free_ves;
                    let free_b = b.free_mes + b.free_ves;
                    free_a.cmp(&free_b).then(a.node.cmp(&b.node))
                })
                .map(|(index, inventory)| (index, inventory.node));
            if let Some((dest_at, dest_node)) = destination {
                moves.push(ControlAction::Migrate {
                    handle: replica.handle,
                    to: dest_node,
                    mode: self.mode,
                });
                self.last_move_at = Some(now);
                // Deduct the planned move from the working inventories.
                inventories[source_at] = freed;
                let dest_npu = cluster
                    .node(dest_node)
                    .expect("destination filtered above") // simlint::allow(P1, reason = "defrag candidates are drawn from cluster.nodes() in this scan")
                    .npu_config();
                let dest_demand =
                    ResourceDemand::of(&deployment.spec().vnpu_config(dest_npu), dest_npu);
                inventories[dest_at] = Self::debit(&inventories[dest_at], &dest_demand);
            }
        }
        moves
    }

    /// An inventory with `demand` returned to the free pool (clamped to the
    /// node's totals).
    fn credit(inventory: &NodeInventory, demand: &ResourceDemand) -> NodeInventory {
        NodeInventory {
            free_mes: (inventory.free_mes + demand.mes).min(inventory.total_mes),
            free_ves: (inventory.free_ves + demand.ves).min(inventory.total_ves),
            free_sram_segments: (inventory.free_sram_segments + demand.sram_segments)
                .min(inventory.total_sram_segments),
            free_hbm_segments: (inventory.free_hbm_segments + demand.hbm_segments)
                .min(inventory.total_hbm_segments),
            ..*inventory
        }
    }

    /// An inventory with `demand` taken out of the free pool.
    fn debit(inventory: &NodeInventory, demand: &ResourceDemand) -> NodeInventory {
        NodeInventory {
            free_mes: inventory.free_mes.saturating_sub(demand.mes),
            free_ves: inventory.free_ves.saturating_sub(demand.ves),
            free_sram_segments: inventory
                .free_sram_segments
                .saturating_sub(demand.sram_segments),
            free_hbm_segments: inventory
                .free_hbm_segments
                .saturating_sub(demand.hbm_segments),
            ..*inventory
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{ModelSample, PlacementPolicy, ReplicaSample};
    use npu_sim::{Cycles, NpuConfig};
    use std::collections::BTreeMap;
    use workloads::ModelId;

    /// Builds the canonical fragmented fleet: every board half-occupied so a
    /// full-board vNPU fits nowhere, though the fleet has a board's worth of
    /// free engines in total.
    fn fragmented_fleet() -> (NpuCluster, Vec<cluster::VnpuHandle>) {
        let mut fleet = NpuCluster::homogeneous(2, &NpuConfig::single_core());
        let spec = DeploySpec::replica(ModelId::Mnist, 2, 2);
        let handles = vec![
            fleet.deploy(spec, PlacementPolicy::WorstFit).unwrap(),
            fleet.deploy(spec, PlacementPolicy::WorstFit).unwrap(),
        ];
        assert_ne!(handles[0].node, handles[1].node, "worst-fit spread them");
        (fleet, handles)
    }

    fn frame_for(fleet: &NpuCluster) -> TelemetryFrame {
        TelemetryFrame {
            at: Cycles(1_000_000),
            window: Cycles(1_000_000),
            replicas: fleet
                .deployments()
                .map(|d| ReplicaSample {
                    handle: d.handle,
                    model: d.model,
                    queue_len: 0,
                    in_flight: 0,
                    draining: false,
                    utilization: 0.0,
                })
                .collect(),
            models: BTreeMap::<ModelId, ModelSample>::new(),
        }
    }

    #[test]
    fn detects_scattered_capacity() {
        let (fleet, _) = fragmented_fleet();
        let whole_board = DeploySpec::replica(ModelId::Bert, 4, 4);
        let defrag = Defragmenter::new(whole_board, 0);
        assert!(
            defrag.is_fragmented(&fleet),
            "no board fits 4+4 but the fleet has 4+4 free in total"
        );
        // A half-board target fits on either node: not fragmented.
        let half = DeploySpec::replica(ModelId::Bert, 2, 2);
        assert!(!Defragmenter::new(half, 0).is_fragmented(&fleet));
    }

    #[test]
    fn plans_a_consolidating_migration() {
        let (fleet, handles) = fragmented_fleet();
        let whole_board = DeploySpec::replica(ModelId::Bert, 4, 4);
        let mut defrag = Defragmenter::new(whole_board, 500_000);
        let frame = frame_for(&fleet);
        let moves = defrag.plan(&frame, &fleet);
        assert_eq!(moves.len(), 1, "one move suffices to open a hole");
        match moves[0] {
            ControlAction::Migrate { handle, to, mode } => {
                assert!(handles.contains(&handle));
                assert_ne!(handle.node, to, "the migrant changes boards");
                assert_eq!(mode, MigrationMode::Cold, "cold is the default");
            }
            ref other => panic!("expected a migration, got {other:?}"),
        }
        // The cooldown gates an immediate second plan.
        assert!(defrag.plan(&frame, &fleet).is_empty());
    }

    #[test]
    fn with_mode_plans_live_migrations() {
        let (fleet, _) = fragmented_fleet();
        let whole_board = DeploySpec::replica(ModelId::Bert, 4, 4);
        let mut defrag = Defragmenter::new(whole_board, 500_000).with_mode(MigrationMode::PreCopy);
        let moves = defrag.plan(&frame_for(&fleet), &fleet);
        assert_eq!(moves.len(), 1);
        assert!(matches!(
            moves[0],
            ControlAction::Migrate {
                mode: MigrationMode::PreCopy,
                ..
            }
        ));
    }

    #[test]
    fn unfragmented_fleets_are_left_alone() {
        let mut fleet = NpuCluster::homogeneous(2, &NpuConfig::single_core());
        let spec = DeploySpec::replica(ModelId::Mnist, 2, 2);
        fleet.deploy(spec, PlacementPolicy::BestFit).unwrap();
        fleet.deploy(spec, PlacementPolicy::BestFit).unwrap();
        let whole_board = DeploySpec::replica(ModelId::Bert, 4, 4);
        let mut defrag = Defragmenter::new(whole_board, 0);
        assert!(!defrag.is_fragmented(&fleet), "best-fit left a whole board");
        assert!(defrag.plan(&frame_for(&fleet), &fleet).is_empty());
    }
}
