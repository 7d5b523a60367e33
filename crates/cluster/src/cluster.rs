//! [`NpuCluster`]: the fleet of `VnpuManager`-backed nodes, the deploy path
//! through the placement engine, and cold migration between nodes.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use neu10::scheduler::VnpuContext;
use neu10::{MappingMode, Neu10Error, VnpuConfig, VnpuId};
use npu_sim::NpuConfig;
use workloads::ModelId;

use crate::inventory::{NodeInventory, ResourceDemand};
use crate::migration::{MigrationCostModel, MigrationOutcome, MigrationRecord};
use crate::node::ClusterNode;
use crate::placement::{rank_nodes, PlacementCandidate, PlacementPolicy};
use crate::NodeId;

/// Cluster-wide identity of a deployed vNPU: vNPU ids are node-local, so the
/// pair (node, vnpu) names a deployment. Migration changes the handle; the
/// new handle is returned in the [`MigrationOutcome`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VnpuHandle {
    /// The hosting node.
    pub node: NodeId,
    /// The node-local vNPU id.
    pub vnpu: VnpuId,
}

impl fmt::Display for VnpuHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.node, self.vnpu)
    }
}

/// What the operator asks the cluster to deploy: a serving replica of one
/// model with an engine allocation and (optionally explicit) memory sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeploySpec {
    /// The model the replica serves.
    pub model: ModelId,
    /// Matrix engines per replica.
    pub mes: usize,
    /// Vector engines per replica.
    pub ves: usize,
    /// SRAM bytes; `None` sizes to half the hosting core's SRAM.
    pub sram_bytes: Option<u64>,
    /// HBM bytes; `None` sizes to a quarter of the hosting core's HBM.
    pub hbm_bytes: Option<u64>,
    /// Scheduling priority (≥ 1).
    pub priority: u32,
    /// Isolation mode of the placement.
    pub mode: MappingMode,
}

impl DeploySpec {
    /// A hardware-isolated serving replica with default memory sizing.
    pub fn replica(model: ModelId, mes: usize, ves: usize) -> Self {
        DeploySpec {
            model,
            mes,
            ves,
            sram_bytes: None,
            hbm_bytes: None,
            priority: 1,
            mode: MappingMode::HardwareIsolated,
        }
    }

    /// Overrides the memory sizing.
    pub fn with_memory(mut self, sram_bytes: u64, hbm_bytes: u64) -> Self {
        self.sram_bytes = Some(sram_bytes);
        self.hbm_bytes = Some(hbm_bytes);
        self
    }

    /// Overrides the isolation mode.
    pub fn with_mode(mut self, mode: MappingMode) -> Self {
        self.mode = mode;
        self
    }

    /// Overrides the scheduling priority.
    pub fn with_priority(mut self, priority: u32) -> Self {
        self.priority = priority.max(1);
        self
    }

    /// Resolves the spec into a concrete vNPU configuration for a node type.
    pub fn vnpu_config(&self, npu: &NpuConfig) -> VnpuConfig {
        VnpuConfig::single_core(
            self.mes,
            self.ves,
            self.sram_bytes.unwrap_or(npu.sram_bytes_per_core / 2),
            self.hbm_bytes.unwrap_or(npu.hbm_bytes_per_core / 4),
        )
    }
}

/// The cluster's record of one live deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeployedVnpu {
    /// Where the vNPU lives.
    pub handle: VnpuHandle,
    /// The model the replica serves.
    pub model: ModelId,
    /// The resolved vNPU configuration.
    pub config: VnpuConfig,
    /// Scheduling priority.
    pub priority: u32,
    /// Isolation mode.
    pub mode: MappingMode,
}

impl DeployedVnpu {
    /// The deploy request that reproduces this deployment's shape — engines,
    /// memory, priority and isolation mode — on another board.
    pub fn spec(&self) -> DeploySpec {
        DeploySpec {
            model: self.model,
            mes: self.config.num_mes_per_core,
            ves: self.config.num_ves_per_core,
            sram_bytes: Some(self.config.sram_size_per_core),
            hbm_bytes: Some(self.config.mem_size_per_core),
            priority: self.priority,
            mode: self.mode,
        }
    }
}

/// Fleet-layer errors.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterError {
    /// No node can host the requested deployment.
    NoCapacity(String),
    /// The node id does not exist in this cluster.
    UnknownNode(NodeId),
    /// The handle does not name a live deployment.
    UnknownVnpu(VnpuHandle),
    /// Migration source and destination are the same node.
    SameNode(NodeId),
    /// An error surfaced by a node's vNPU manager.
    Node(Neu10Error),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::NoCapacity(reason) => write!(f, "no capacity: {reason}"),
            ClusterError::UnknownNode(node) => write!(f, "unknown node {node}"),
            ClusterError::UnknownVnpu(handle) => write!(f, "unknown vNPU {handle}"),
            ClusterError::SameNode(node) => {
                write!(f, "migration source and destination are both {node}")
            }
            ClusterError::Node(err) => write!(f, "node error: {err}"),
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<Neu10Error> for ClusterError {
    fn from(err: Neu10Error) -> Self {
        ClusterError::Node(err)
    }
}

/// A fleet of NPU boards with cluster-level placement and migration.
#[derive(Debug)]
pub struct NpuCluster {
    nodes: Vec<ClusterNode>,
    deployments: BTreeMap<VnpuHandle, DeployedVnpu>,
    /// Boards fenced off from placement (declared dead or administratively
    /// cordoned). Existing deployments stay visible until undeployed.
    offline: BTreeSet<NodeId>,
}

impl NpuCluster {
    /// Builds a cluster from explicit per-node board configurations.
    pub fn new(configs: Vec<NpuConfig>) -> Self {
        let nodes = configs
            .into_iter()
            .enumerate()
            .map(|(index, config)| ClusterNode::new(NodeId(index as u32), &config))
            .collect();
        NpuCluster {
            nodes,
            deployments: BTreeMap::new(),
            offline: BTreeSet::new(),
        }
    }

    /// Builds a homogeneous cluster of `count` identical boards.
    pub fn homogeneous(count: usize, npu: &NpuConfig) -> Self {
        NpuCluster::new(vec![npu.clone(); count.max(1)])
    }

    /// Number of nodes in the fleet.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Looks up a node by id.
    pub fn node(&self, id: NodeId) -> Option<&ClusterNode> {
        self.nodes.iter().find(|n| n.id() == id)
    }

    fn node_mut(&mut self, id: NodeId) -> Option<&mut ClusterNode> {
        self.nodes.iter_mut().find(|n| n.id() == id)
    }

    /// All nodes, in id order.
    pub fn nodes(&self) -> &[ClusterNode] {
        &self.nodes
    }

    /// Per-node inventory snapshots, in node order.
    pub fn inventories(&self) -> Vec<NodeInventory> {
        self.nodes.iter().map(|n| n.inventory()).collect()
    }

    /// Live deployments, in handle order.
    pub fn deployments(&self) -> impl Iterator<Item = &DeployedVnpu> {
        self.deployments.values()
    }

    /// The deployment behind a handle.
    pub fn deployment(&self, handle: VnpuHandle) -> Option<&DeployedVnpu> {
        self.deployments.get(&handle)
    }

    /// Total live vNPUs across the fleet.
    pub fn total_vnpus(&self) -> usize {
        debug_assert_eq!(
            self.deployments.len(),
            self.nodes
                .iter()
                .map(|n| n.manager().vnpu_count())
                .sum::<usize>(),
            "deployment records must mirror the per-node managers"
        );
        self.deployments.len()
    }

    /// Fences a board off from (or readmits it to) the placement engine.
    ///
    /// Offline boards are skipped by [`deploy`](NpuCluster::deploy) and by
    /// migration re-placement; deployments already on the board remain
    /// visible so failover can enumerate and tear them down. Unknown node
    /// ids are ignored.
    pub fn set_offline(&mut self, node: NodeId, offline: bool) {
        if offline {
            if self.nodes.iter().any(|n| n.id() == node) {
                self.offline.insert(node);
            }
        } else {
            self.offline.remove(&node);
        }
    }

    /// Bytes of SRAM + HBM state resident on a deployment — the volume a
    /// migration must move. `None` for stale handles.
    pub fn resident_state_bytes(&self, handle: VnpuHandle) -> Option<u64> {
        let node = self.node(handle.node)?;
        let placement = node.manager().placement(handle.vnpu)?;
        let npu = node.npu_config();
        Some(
            placement.sram_segments as u64 * npu.sram_segment_bytes
                + placement.hbm_segments as u64 * npu.hbm_segment_bytes,
        )
    }

    /// Replicas of `model` resident on `node`: a range over its handles.
    pub fn replicas_on(&self, node: NodeId, model: ModelId) -> usize {
        let on_node = |vnpu| VnpuHandle {
            node,
            vnpu: VnpuId(vnpu),
        };
        self.deployments
            .range(on_node(0)..=on_node(u32::MAX))
            .filter(|(_, d)| d.model == model)
            .count()
    }

    /// Places and starts a new vNPU replica, returning its handle.
    ///
    /// Nodes are tried in placement-score order: board-level admission can
    /// pass while per-core packing refuses (a fragmented multi-core board),
    /// in which case the next-ranked node is attempted.
    ///
    /// # Example
    ///
    /// ```
    /// use cluster::{DeploySpec, NpuCluster, PlacementPolicy};
    /// use npu_sim::NpuConfig;
    /// use workloads::ModelId;
    ///
    /// let mut fleet = NpuCluster::homogeneous(4, &NpuConfig::single_core());
    /// let spec = DeploySpec::replica(ModelId::Mnist, 2, 2);
    /// let handle = fleet.deploy(spec, PlacementPolicy::WorstFit)?;
    /// assert_eq!(fleet.replicas_on(handle.node, ModelId::Mnist), 1);
    /// // Worst-fit spreads: the next replica lands on a different board.
    /// let second = fleet.deploy(spec, PlacementPolicy::WorstFit)?;
    /// assert_ne!(handle.node, second.node);
    /// # Ok::<(), cluster::ClusterError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::NoCapacity`] when no node admits the demand
    /// and propagates manager errors otherwise.
    pub fn deploy(
        &mut self,
        spec: DeploySpec,
        policy: PlacementPolicy,
    ) -> Result<VnpuHandle, ClusterError> {
        for node_id in rank_nodes(policy, &self.candidates(&spec)) {
            let node = self.node_mut(node_id).expect("ranked node exists"); // simlint::allow(P1, reason = "rank_nodes returns only ids from the candidate scan above")
            let config = spec.vnpu_config(node.npu_config());
            let vnpu = match node
                .manager_mut()
                .create_vnpu(config, spec.mode, spec.priority)
            {
                Ok(vnpu) => vnpu,
                // Board totals admitted the demand but no single core can
                // pack it; fall through to the next-ranked node.
                Err(Neu10Error::InsufficientResources { .. }) => continue,
                Err(err) => return Err(err.into()),
            };
            node.manager_mut().start_vnpu(vnpu)?;

            let handle = VnpuHandle {
                node: node_id,
                vnpu,
            };
            self.deployments.insert(
                handle,
                DeployedVnpu {
                    handle,
                    model: spec.model,
                    config,
                    priority: spec.priority,
                    mode: spec.mode,
                },
            );
            return Ok(handle);
        }
        Err(ClusterError::NoCapacity(format!(
            "no node can host {} MEs / {} VEs for {:?}",
            spec.mes, spec.ves, spec.model
        )))
    }

    /// Every online node as a placement candidate for `spec`, in id order,
    /// each scored against its *own* demand (boards may be heterogeneous, so
    /// segment rounding differs per node). Deployments are keyed by handle,
    /// node first, so one pass over them, merged with the id-ordered nodes,
    /// counts each board's replicas of the model.
    fn candidates(&self, spec: &DeploySpec) -> Vec<(PlacementCandidate, ResourceDemand)> {
        debug_assert!(
            self.nodes
                .windows(2)
                .all(|pair| pair[0].id() < pair[1].id()),
            "the replica count merge needs the nodes in id order"
        );
        let mut deployments = self.deployments.values().peekable();
        let mut candidates = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let mut model_replicas = 0;
            while let Some(deployed) = deployments.next_if(|d| d.handle.node <= node.id()) {
                model_replicas +=
                    usize::from(deployed.handle.node == node.id() && deployed.model == spec.model);
            }
            if self.offline.contains(&node.id()) {
                continue;
            }
            let npu = node.npu_config();
            candidates.push((
                PlacementCandidate {
                    inventory: node.inventory(),
                    model_replicas,
                },
                ResourceDemand::of(&spec.vnpu_config(npu), npu),
            ));
        }
        candidates
    }

    /// Places and starts a new vNPU replica on one specific node, bypassing
    /// the placement engine — for fleet builders that pin replicas to boards
    /// and for the sharded runner's import path, where the destination was
    /// chosen (and scored) before the replica crossed the partition boundary.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownNode`] for a node not in this cluster
    /// and [`ClusterError::NoCapacity`] when the node is offline or refuses
    /// the demand.
    pub fn deploy_pinned(
        &mut self,
        spec: DeploySpec,
        node_id: NodeId,
    ) -> Result<VnpuHandle, ClusterError> {
        if self.offline.contains(&node_id) {
            return Err(ClusterError::NoCapacity(format!(
                "node {node_id} is offline"
            )));
        }
        let node = self
            .node_mut(node_id)
            .ok_or(ClusterError::UnknownNode(node_id))?;
        let config = spec.vnpu_config(node.npu_config());
        let vnpu = node
            .manager_mut()
            .create_vnpu(config, spec.mode, spec.priority)
            .and_then(|vnpu| node.manager_mut().start_vnpu(vnpu).map(|()| vnpu))
            .map_err(|err| {
                ClusterError::NoCapacity(format!("node {node_id} rejected the vNPU: {err}"))
            })?;
        let handle = VnpuHandle {
            node: node_id,
            vnpu,
        };
        self.deployments.insert(
            handle,
            DeployedVnpu {
                handle,
                model: spec.model,
                config,
                priority: spec.priority,
                mode: spec.mode,
            },
        );
        Ok(handle)
    }

    /// Moves the whole fleet out, leaving an empty cluster behind. The
    /// sharded runner swaps the fleet out of the caller's `&mut NpuCluster`,
    /// splits it across partitions, and absorbs it back at the end.
    pub(crate) fn take(&mut self) -> NpuCluster {
        NpuCluster {
            nodes: std::mem::take(&mut self.nodes),
            deployments: std::mem::take(&mut self.deployments),
            offline: std::mem::take(&mut self.offline),
        }
    }

    /// Splits the fleet into per-partition sub-clusters by node ownership.
    /// Nodes, deployments and offline fences move (never clone) to the
    /// partition owning their node; nodes missing from `owner_of` land in
    /// partition 0. The inverse is [`NpuCluster::absorb`].
    pub(crate) fn split(
        self,
        owner_of: &BTreeMap<NodeId, usize>,
        partitions: usize,
    ) -> Vec<NpuCluster> {
        let mut parts: Vec<NpuCluster> = (0..partitions.max(1))
            .map(|_| NpuCluster {
                nodes: Vec::new(),
                deployments: BTreeMap::new(),
                offline: BTreeSet::new(),
            })
            .collect();
        let last = parts.len() - 1;
        let owner = |node: NodeId| owner_of.get(&node).copied().unwrap_or(0).min(last);
        let NpuCluster {
            nodes,
            deployments,
            offline,
        } = self;
        for node in nodes {
            let to = owner(node.id());
            parts[to].nodes.push(node);
        }
        for (handle, deployment) in deployments {
            let to = owner(handle.node);
            parts[to].deployments.insert(handle, deployment);
        }
        for node in offline {
            let to = owner(node);
            parts[to].offline.insert(node);
        }
        parts
    }

    /// Reassembles a fleet split by [`NpuCluster::split`], restoring the
    /// id-ordered node vector so placement scans rank nodes exactly as an
    /// unsplit cluster would.
    pub(crate) fn absorb(parts: Vec<NpuCluster>) -> NpuCluster {
        let mut nodes = Vec::new();
        let mut deployments = BTreeMap::new();
        let mut offline = BTreeSet::new();
        for part in parts {
            nodes.extend(part.nodes);
            deployments.extend(part.deployments);
            offline.extend(part.offline);
        }
        nodes.sort_by_key(|node| node.id());
        NpuCluster {
            nodes,
            deployments,
            offline,
        }
    }

    /// Tears down a deployment and releases its resources.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownVnpu`] for a stale handle.
    pub fn undeploy(&mut self, handle: VnpuHandle) -> Result<(), ClusterError> {
        let deployment = self
            .deployments
            .remove(&handle)
            .ok_or(ClusterError::UnknownVnpu(handle))?;
        let node = self
            .node_mut(deployment.handle.node)
            .ok_or(ClusterError::UnknownNode(deployment.handle.node))?;
        node.manager_mut().destroy_vnpu(handle.vnpu)?;
        Ok(())
    }

    /// Cold-migrates a deployment to `to`: drain → snapshot → transfer →
    /// re-place → resume. `drain_cycles` is the caller's live estimate of the
    /// in-flight work (the serving simulator passes the actual remaining
    /// service time); `None` charges the cost model's grace budget.
    ///
    /// The destination placement is established *before* the source is torn
    /// down (both live briefly, like the real transfer window), so a refused
    /// migration leaves the source untouched and the caller's handle valid.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownVnpu`] / [`ClusterError::UnknownNode`] /
    /// [`ClusterError::SameNode`] for bad arguments and
    /// [`ClusterError::NoCapacity`] when the destination cannot host the vNPU.
    pub fn migrate(
        &mut self,
        handle: VnpuHandle,
        to: NodeId,
        cost: &MigrationCostModel,
        drain_cycles: Option<u64>,
    ) -> Result<MigrationOutcome, ClusterError> {
        let deployment = *self
            .deployments
            .get(&handle)
            .ok_or(ClusterError::UnknownVnpu(handle))?;
        if to == handle.node {
            return Err(ClusterError::SameNode(to));
        }
        if self.node(to).is_none() {
            return Err(ClusterError::UnknownNode(to));
        }

        // Snapshot the context and compute the state volume while the source
        // placement is still live.
        let source = self
            .node(handle.node)
            .ok_or(ClusterError::UnknownNode(handle.node))?;
        let placement = *source
            .manager()
            .placement(handle.vnpu)
            .ok_or(ClusterError::UnknownVnpu(handle))?;
        let src_npu = source.npu_config().clone();
        let context = VnpuContext::new(handle.vnpu, placement.mes, placement.ves);
        let state_bytes = self
            .resident_state_bytes(handle)
            .expect("placement resolved above"); // simlint::allow(P1, reason = "resident_state_bytes is Some for the deployment resolved above")

        // Establish the destination placement first: if it is refused, the
        // source deployment is untouched and the handle stays valid.
        let dest_config = {
            let dest = self.node(to).expect("destination checked above"); // simlint::allow(P1, reason = "destination node membership checked at entry")
            deployment.spec().vnpu_config(dest.npu_config())
        };
        let dest_result = {
            let dest = self.node_mut(to).expect("destination checked above"); // simlint::allow(P1, reason = "destination node membership checked at entry")
            dest.manager_mut()
                .create_vnpu(dest_config, deployment.mode, deployment.priority)
                .and_then(|vnpu| dest.manager_mut().start_vnpu(vnpu).map(|()| vnpu))
        };
        let dest_vnpu = match dest_result {
            Ok(vnpu) => vnpu,
            Err(err) => {
                return Err(ClusterError::NoCapacity(format!(
                    "destination {to} rejected the vNPU: {err}"
                )));
            }
        };

        // Tear down the source mapping now that the destination is live.
        self.deployments.remove(&handle);
        self.node_mut(handle.node)
            .expect("source node exists") // simlint::allow(P1, reason = "handle.node held a deployment, so the source node exists")
            .manager_mut()
            .destroy_vnpu(handle.vnpu)?;

        let new_handle = VnpuHandle {
            node: to,
            vnpu: dest_vnpu,
        };
        self.deployments.insert(
            new_handle,
            DeployedVnpu {
                handle: new_handle,
                ..deployment
            },
        );

        // The record is priced as a cold stop-and-copy; the serving
        // simulator's pre-copy path overwrites the mode, transfer window and
        // round accounting after the switch-over.
        let record = MigrationRecord {
            source_vnpu: handle.vnpu,
            dest_vnpu,
            from: handle.node,
            to,
            mode: crate::migration::MigrationMode::Cold,
            state_bytes,
            drain_cycles: drain_cycles.unwrap_or(cost.drain_grace_cycles),
            transfer_cycles: cost.transfer_cycles(state_bytes, src_npu.frequency).get(),
            remap_cycles: cost.remap_cycles,
            precopy_rounds: 0,
            round_bytes: Vec::new(),
            precopy_bytes: 0,
            precopy_cycles: 0,
            converged: true,
        };
        Ok(MigrationOutcome { record, context })
    }
}

impl MigrationOutcome {
    /// The handle of the vNPU after the migration.
    pub fn new_handle(&self) -> VnpuHandle {
        VnpuHandle {
            node: self.record.to,
            vnpu: self.record.dest_vnpu,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn small_fleet(nodes: usize) -> NpuCluster {
        NpuCluster::homogeneous(nodes, &NpuConfig::single_core())
    }

    /// The placement candidates built node by node: `replicas_on` for the
    /// model count and the manager's per-field `free_*` sums for the
    /// inventory. The reference for [`NpuCluster::candidates`]' merged pass.
    fn reference_candidates(
        fleet: &NpuCluster,
        spec: &DeploySpec,
    ) -> Vec<(PlacementCandidate, ResourceDemand)> {
        let online = fleet
            .nodes
            .iter()
            .filter(|node| !fleet.offline.contains(&node.id()));
        online
            .map(|node| {
                let (npu, manager) = (node.npu_config(), node.manager());
                let cores = npu.total_cores();
                let inventory = NodeInventory {
                    node: node.id(),
                    total_mes: npu.mes_per_core * cores,
                    free_mes: manager.free_mes(),
                    total_ves: npu.ves_per_core * cores,
                    free_ves: manager.free_ves(),
                    total_sram_segments: npu.sram_segments_per_core() * cores as u32,
                    free_sram_segments: manager.free_sram_segments(),
                    total_hbm_segments: npu.hbm_segments_per_core() * cores as u32,
                    free_hbm_segments: manager.free_hbm_segments(),
                    resident_vnpus: manager.vnpu_count(),
                };
                let candidate = PlacementCandidate {
                    inventory,
                    model_replicas: fleet.replicas_on(node.id(), spec.model),
                };
                (candidate, ResourceDemand::of(&spec.vnpu_config(npu), npu))
            })
            .collect()
    }

    /// Random heterogeneous fleets under deploys by every policy, undeploys,
    /// migrations, offline boards and `split`/`absorb` round trips: before
    /// every deploy, the candidates `deploy` ranks equal the per-node
    /// reference, on the whole fleet and on every part of a split, and so
    /// does their topology-aware ranking, the one policy that reads the
    /// replica counts.
    #[test]
    fn placement_candidates_match_the_per_node_reference() {
        let mut rng = StdRng::seed_from_u64(29);
        let models = [ModelId::Mnist, ModelId::Bert, ModelId::Ncf];
        let (mut deployed, mut migrated, mut local) = (0, 0, 0);
        for _ in 0..40 {
            let boards = rng.gen_range(1..=7usize);
            let configs = (0..boards)
                .map(|_| {
                    if rng.gen_bool(0.7) {
                        NpuConfig::single_core()
                    } else {
                        NpuConfig::tpu_v4_like()
                    }
                })
                .collect();
            let mut fleet = NpuCluster::new(configs);
            let mut handles: Vec<VnpuHandle> = Vec::new();
            let check = |fleet: &NpuCluster, spec: &DeploySpec| {
                let (got, want) = (fleet.candidates(spec), reference_candidates(fleet, spec));
                assert_eq!(got, want);
                let topology = PlacementPolicy::TopologyAware;
                assert_eq!(rank_nodes(topology, &got), rank_nodes(topology, &want));
                got.iter().filter(|(c, _)| c.model_replicas > 0).count()
            };
            for _ in 0..rng.gen_range(10..60) {
                let model = models[rng.gen_range(0..models.len())];
                let spec = DeploySpec::replica(model, rng.gen_range(1..=2), rng.gen_range(1..=2));
                local += check(&fleet, &spec);
                match rng.gen_range(0..10u32) {
                    0..=4 => {
                        let policy = PlacementPolicy::all()[rng.gen_range(0..3usize)];
                        if let Ok(handle) = fleet.deploy(spec, policy) {
                            handles.push(handle);
                            deployed += 1;
                        }
                    }
                    5 if !handles.is_empty() => {
                        let handle = handles.swap_remove(rng.gen_range(0..handles.len()));
                        fleet.undeploy(handle).unwrap();
                    }
                    6 if !handles.is_empty() => {
                        let index = rng.gen_range(0..handles.len());
                        let to = NodeId(rng.gen_range(0..boards as u32));
                        let cost = MigrationCostModel::default();
                        if let Ok(outcome) = fleet.migrate(handles[index], to, &cost, None) {
                            handles[index] = outcome.new_handle();
                            migrated += 1;
                        }
                    }
                    7 => {
                        let node = NodeId(rng.gen_range(0..boards as u32));
                        fleet.set_offline(node, !fleet.offline.contains(&node));
                    }
                    8 => {
                        let partitions = rng.gen_range(1..=3usize);
                        let owners = (0..boards as u32)
                            .map(|id| (NodeId(id), rng.gen_range(0..partitions)))
                            .collect();
                        let parts = fleet.split(&owners, partitions);
                        for part in &parts {
                            check(part, &spec);
                        }
                        fleet = NpuCluster::absorb(parts);
                    }
                    _ => {}
                }
            }
        }
        assert!(
            deployed > 300 && migrated > 20 && local > 300,
            "{deployed} deploys, {migrated} migrations, {local} boards with local replicas"
        );
    }

    /// Every part of a split fleet finds each board it holds by id, and no
    /// other, though its ids are not dense; the reassembled fleet finds
    /// every board.
    #[test]
    fn split_parts_find_exactly_their_own_boards() {
        let mut rng = StdRng::seed_from_u64(30);
        for _ in 0..40 {
            let boards = rng.gen_range(1..=9u32);
            let partitions = rng.gen_range(1..=4usize);
            let owners = (0..boards)
                .map(|id| (NodeId(id), rng.gen_range(0..partitions)))
                .collect();
            let mut parts = small_fleet(boards as usize).split(&owners, partitions);
            for (index, part) in parts.iter_mut().enumerate() {
                for id in (0..boards + 2).map(NodeId) {
                    let want = (owners.get(&id) == Some(&index)).then_some(id);
                    assert_eq!(part.node(id).map(ClusterNode::id), want);
                    assert_eq!(part.node_mut(id).map(|node| node.id()), want);
                }
            }
            let fleet = NpuCluster::absorb(parts);
            for id in (0..boards + 2).map(NodeId) {
                assert_eq!(fleet.node(id).is_some(), id.0 < boards);
            }
        }
    }

    #[test]
    fn deploy_places_starts_and_accounts() {
        let mut fleet = small_fleet(2);
        let handle = fleet
            .deploy(
                DeploySpec::replica(ModelId::Mnist, 2, 2),
                PlacementPolicy::BestFit,
            )
            .unwrap();
        assert_eq!(fleet.total_vnpus(), 1);
        assert_eq!(fleet.replicas_on(handle.node, ModelId::Mnist), 1);
        let node = fleet.node(handle.node).unwrap();
        assert_eq!(node.manager().vnpu_count(), 1);
        assert!(node.manager().placement(handle.vnpu).is_some());
        fleet.undeploy(handle).unwrap();
        assert_eq!(fleet.total_vnpus(), 0);
    }

    #[test]
    fn best_fit_fills_a_node_before_spilling() {
        let mut fleet = small_fleet(2);
        let spec = DeploySpec::replica(ModelId::Mnist, 2, 2);
        let a = fleet.deploy(spec, PlacementPolicy::BestFit).unwrap();
        let b = fleet.deploy(spec, PlacementPolicy::BestFit).unwrap();
        assert_eq!(a.node, b.node, "best-fit packs the same board");
        let c = fleet.deploy(spec, PlacementPolicy::BestFit).unwrap();
        assert_ne!(c.node, a.node, "full board spills to the next");
    }

    #[test]
    fn worst_fit_spreads_replicas() {
        let mut fleet = small_fleet(2);
        let spec = DeploySpec::replica(ModelId::Mnist, 2, 2);
        let a = fleet.deploy(spec, PlacementPolicy::WorstFit).unwrap();
        let b = fleet.deploy(spec, PlacementPolicy::WorstFit).unwrap();
        assert_ne!(a.node, b.node, "worst-fit spreads across boards");
    }

    #[test]
    fn capacity_exhaustion_is_reported() {
        let mut fleet = small_fleet(1);
        let spec = DeploySpec::replica(ModelId::Mnist, 4, 4);
        fleet.deploy(spec, PlacementPolicy::BestFit).unwrap();
        let err = fleet.deploy(spec, PlacementPolicy::BestFit).unwrap_err();
        assert!(matches!(err, ClusterError::NoCapacity(_)));
        assert_eq!(fleet.total_vnpus(), 1);
    }

    #[test]
    fn migration_moves_state_and_preserves_count() {
        let mut fleet = small_fleet(2);
        let handle = fleet
            .deploy(
                DeploySpec::replica(ModelId::Bert, 2, 2),
                PlacementPolicy::BestFit,
            )
            .unwrap();
        let other = NodeId(if handle.node.0 == 0 { 1 } else { 0 });
        let cost = MigrationCostModel::default();
        let outcome = fleet.migrate(handle, other, &cost, Some(1_000)).unwrap();

        assert_eq!(fleet.total_vnpus(), 1);
        assert_eq!(outcome.record.from, handle.node);
        assert_eq!(outcome.record.to, other);
        assert_eq!(outcome.record.drain_cycles, 1_000);
        assert!(outcome.record.state_bytes > 0);
        assert!(outcome.record.transfer_cycles > 0);
        assert!(outcome.record.downtime().get() > 1_000);
        assert_eq!(outcome.context.allocated_mes, 2);

        let new_handle = outcome.new_handle();
        assert_eq!(fleet.deployment(new_handle).unwrap().model, ModelId::Bert);
        assert!(fleet.deployment(handle).is_none(), "old handle is stale");
        assert_eq!(fleet.node(handle.node).unwrap().manager().vnpu_count(), 0);
        assert_eq!(fleet.node(other).unwrap().manager().vnpu_count(), 1);
    }

    #[test]
    fn replicas_on_counts_only_the_nodes_own_deployments() {
        let mut fleet = NpuCluster::homogeneous(6, &NpuConfig::tpu_v4_like());
        let mut handles = Vec::new();
        for (i, model) in [ModelId::Mnist, ModelId::Bert, ModelId::Mnist]
            .into_iter()
            .cycle()
            .take(14)
            .enumerate()
        {
            let policy = if i % 2 == 0 {
                PlacementPolicy::BestFit
            } else {
                PlacementPolicy::WorstFit
            };
            handles.push(
                fleet
                    .deploy(DeploySpec::replica(model, 1, 1), policy)
                    .unwrap(),
            );
        }
        let moved = handles[3];
        let to = NodeId((moved.node.0 + 1) % 6);
        let cost = MigrationCostModel::default();
        fleet.migrate(moved, to, &cost, None).unwrap();
        fleet.undeploy(handles[5]).unwrap();
        for node in fleet.nodes().iter().map(|node| node.id()) {
            for model in [ModelId::Mnist, ModelId::Bert, ModelId::Dlrm] {
                let scanned = fleet
                    .deployments()
                    .filter(|d| d.handle.node == node && d.model == model)
                    .count();
                assert_eq!(fleet.replicas_on(node, model), scanned, "{node} {model:?}");
            }
        }
        assert_eq!(fleet.total_vnpus(), 13);
    }

    #[test]
    fn failed_migration_restores_the_source() {
        let mut fleet = small_fleet(2);
        // Fill node 1 completely so it cannot receive the migrant.
        let blocker = DeploySpec::replica(ModelId::Mnist, 4, 4);
        let spec = DeploySpec::replica(ModelId::Bert, 2, 2);
        let a = fleet.deploy(spec, PlacementPolicy::BestFit).unwrap();
        let dst = NodeId(if a.node.0 == 0 { 1 } else { 0 });
        // Occupy the destination's engines.
        let b = fleet.deploy(blocker, PlacementPolicy::BestFit).unwrap();
        assert_eq!(b.node, dst);

        let err = fleet
            .migrate(a, dst, &MigrationCostModel::default(), None)
            .unwrap_err();
        assert!(matches!(err, ClusterError::NoCapacity(_)));
        assert_eq!(fleet.total_vnpus(), 2, "nothing was lost");
        assert!(
            fleet.deployment(a).is_some(),
            "a refused migration must leave the caller's handle valid"
        );
        assert_eq!(
            fleet
                .deployments()
                .filter(|d| d.model == ModelId::Bert)
                .count(),
            1
        );
    }

    #[test]
    fn bad_arguments_are_rejected() {
        let mut fleet = small_fleet(2);
        let handle = fleet
            .deploy(
                DeploySpec::replica(ModelId::Mnist, 1, 1),
                PlacementPolicy::BestFit,
            )
            .unwrap();
        let cost = MigrationCostModel::default();
        assert!(matches!(
            fleet.migrate(handle, handle.node, &cost, None),
            Err(ClusterError::SameNode(_))
        ));
        assert!(matches!(
            fleet.migrate(handle, NodeId(99), &cost, None),
            Err(ClusterError::UnknownNode(_))
        ));
        let stale = VnpuHandle {
            node: NodeId(0),
            vnpu: VnpuId(77),
        };
        assert!(matches!(
            fleet.migrate(stale, NodeId(1), &cost, None),
            Err(ClusterError::UnknownVnpu(_))
        ));
        assert!(fleet.undeploy(stale).is_err());
    }
}
