//! Property-based tests for the cluster fleet layer: placement never
//! over-commits a node, migration preserves the deployment count, and the
//! router never drops an admitted request.

use cluster::router::Router;
use cluster::{
    AdmissionControl, ClusterServingSim, DeploySpec, DispatchPolicy, MigrationCostModel, NodeId,
    NpuCluster, PlacementPolicy, ServingOptions,
};
use npu_sim::{Cycles, NpuConfig};
use proptest::prelude::*;
use workloads::{ClusterTrace, ModelId};

fn model_for(index: usize) -> ModelId {
    [ModelId::Mnist, ModelId::Ncf, ModelId::Bert, ModelId::Dlrm][index % 4]
}

fn placement_policy(index: usize) -> PlacementPolicy {
    PlacementPolicy::all()[index % 3]
}

proptest! {
    /// However deployments are sized and whichever policy places them, no
    /// node's hardware-isolated commitments exceed its physical MEs, VEs or
    /// HBM segments, and the cluster's books match the per-node managers.
    #[test]
    fn placement_never_overcommits_nodes(
        nodes in 1usize..=6,
        requests in proptest::collection::vec((1usize..=4, 1usize..=4, 0usize..=2), 1..24),
    ) {
        let board = NpuConfig::single_core();
        let mut fleet = NpuCluster::homogeneous(nodes, &board);
        let mut deployed = 0usize;
        for (index, (mes, ves, policy)) in requests.iter().enumerate() {
            let spec = DeploySpec::replica(model_for(index), *mes, *ves);
            if fleet.deploy(spec, placement_policy(*policy)).is_ok() {
                deployed += 1;
            }
        }
        prop_assert_eq!(fleet.total_vnpus(), deployed);

        for inventory in fleet.inventories() {
            prop_assert!(inventory.free_mes <= inventory.total_mes);
            prop_assert!(inventory.free_ves <= inventory.total_ves);
            prop_assert!(inventory.free_hbm_segments <= inventory.total_hbm_segments);
            prop_assert!(inventory.free_sram_segments <= inventory.total_sram_segments);
        }
        // Cross-check the inventory against the deployment records.
        for node in fleet.nodes() {
            let committed_mes: usize = fleet
                .deployments()
                .filter(|d| d.handle.node == node.id())
                .map(|d| d.config.num_mes_per_core)
                .sum();
            let inventory = node.inventory();
            prop_assert_eq!(
                inventory.total_mes - inventory.free_mes,
                committed_mes,
                "node {} books disagree with its mapper",
                node.id()
            );
        }
    }

    /// Cold migration — successful or refused — never changes the number of
    /// live vNPUs, and every live deployment keeps a resolvable placement.
    #[test]
    fn migration_preserves_vnpu_count(
        nodes in 2usize..=5,
        seeds in proptest::collection::vec((0usize..=24, 0usize..=4), 1..10),
    ) {
        let board = NpuConfig::single_core();
        let mut fleet = NpuCluster::homogeneous(nodes, &board);
        for index in 0..nodes {
            // One half-board replica per node so migrations have room to land.
            fleet
                .deploy(DeploySpec::replica(model_for(index), 2, 2), PlacementPolicy::WorstFit)
                .unwrap();
        }
        let before = fleet.total_vnpus();
        let cost = MigrationCostModel::default();

        for (pick, dst) in &seeds {
            let handles: Vec<_> = fleet.deployments().map(|d| d.handle).collect();
            let handle = handles[pick % handles.len()];
            let to = NodeId((dst % nodes) as u32);
            // Migrations to the same node or full nodes may fail; the
            // invariant holds regardless.
            let _ = fleet.migrate(handle, to, &cost, None);
            prop_assert_eq!(fleet.total_vnpus(), before);
        }
        for deployment in fleet.deployments() {
            let node = fleet.node(deployment.handle.node).expect("node exists");
            prop_assert!(
                node.manager().placement(deployment.handle.vnpu).is_some(),
                "deployment {} lost its placement",
                deployment.handle
            );
        }
    }

    /// Whatever the trace, the policy, the batch limit and the admission
    /// limits, every admitted request eventually completes:
    /// offered = completed + rejected.
    #[test]
    fn router_never_drops_admitted_requests(
        replicas in 1usize..=4,
        per_model in 1usize..=40,
        mean_gap in 1_000u64..=200_000,
        max_queue_depth in 1usize..=8,
        max_batch in 1usize..=8,
        policy_index in 0usize..=3,
        seed in 0u64..=1_000,
    ) {
        let board = NpuConfig::single_core();
        let mut fleet = NpuCluster::homogeneous(replicas, &board);
        for _ in 0..replicas {
            fleet
                .deploy(DeploySpec::replica(ModelId::Mnist, 2, 2), PlacementPolicy::WorstFit)
                .unwrap();
        }
        let trace = ClusterTrace::poisson(
            &[(ModelId::Mnist, mean_gap), (ModelId::Bert, mean_gap)],
            per_model,
            seed,
        );
        let options = ServingOptions::new(DispatchPolicy::all()[policy_index])
            .with_admission(AdmissionControl { max_queue_depth })
            .with_batching(max_batch);
        let report = ClusterServingSim::new(options).run(&mut fleet, &trace);

        prop_assert_eq!(report.stats.offered, trace.len());
        prop_assert_eq!(
            report.stats.completed,
            report.stats.admitted,
            "admitted requests must all complete (admitted {}, completed {})",
            report.stats.admitted,
            report.stats.completed
        );
        prop_assert_eq!(
            report.stats.offered,
            report.stats.completed + report.stats.rejected()
        );
        // No replica serves Bert, so that half of the trace is shed.
        prop_assert_eq!(report.stats.rejected_no_replica, per_model);
        prop_assert_eq!(report.latency.count, report.stats.completed);
    }
}

/// The shadow model of one replica slot for the dispatch-index property: the
/// same lifecycle and load facts the serving simulator tracks, checked
/// against a brute-force recount after every transition.
#[derive(Debug, Clone, Copy)]
struct ShadowReplica {
    model: ModelId,
    node: NodeId,
    handle: cluster::VnpuHandle,
    draining: bool,
    retired: bool,
    queue_len: usize,
    in_flight: usize,
    unavailable: bool,
}

/// The admission limit of the dispatch-index property.
const SHADOW_QUEUE_DEPTH: usize = 4;

impl ShadowReplica {
    fn load(&self) -> cluster::SlotLoad {
        cluster::SlotLoad {
            outstanding: self.queue_len + self.in_flight,
            full: self.queue_len >= SHADOW_QUEUE_DEPTH,
            available: !self.unavailable,
        }
    }
}

/// Brute-force candidate views of `model`: every routable slot, its load and
/// its recounted locality signal.
fn brute_force_views(shadow: &[ShadowReplica], model: ModelId) -> Vec<cluster::ReplicaView> {
    let routable = |s: &ShadowReplica| !s.retired && !s.draining && s.model == model;
    shadow
        .iter()
        .enumerate()
        .filter(|(_, s)| routable(s))
        .map(|(slot, s)| cluster::ReplicaView {
            index: slot,
            node: s.node,
            queue_len: s.queue_len,
            in_flight: s.in_flight,
            unavailable: s.unavailable,
            node_replicas: shadow
                .iter()
                .filter(|o| routable(o) && o.node == s.node)
                .count(),
        })
        .collect()
}

/// Rebuilds what the incremental index must contain from first principles.
fn assert_index_matches(
    index: &cluster::ReplicaIndex,
    shadow: &[ShadowReplica],
) -> Result<(), String> {
    let models = [ModelId::Mnist, ModelId::Ncf, ModelId::Bert, ModelId::Dlrm];
    for model in models {
        let expected: Vec<usize> = shadow
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.retired && !s.draining && s.model == model)
            .map(|(slot, _)| slot)
            .collect();
        prop_assert_eq!(
            index.candidates(model),
            expected.as_slice(),
            "candidate slots of {:?} drifted from the brute-force rebuild",
            model
        );
        for node in 0..8u32 {
            let node = NodeId(node);
            let expected = shadow
                .iter()
                .filter(|s| !s.retired && !s.draining && s.model == model && s.node == node)
                .count();
            prop_assert_eq!(
                index.node_count(model, node),
                expected,
                "locality count of ({:?}, {}) drifted",
                model,
                node
            );
        }
    }
    for replica in shadow {
        let expected = if replica.retired {
            None
        } else {
            shadow
                .iter()
                .position(|s| !s.retired && s.handle == replica.handle)
        };
        prop_assert_eq!(
            index.slot_of(replica.handle),
            expected,
            "handle {} resolved to the wrong slot",
            replica.handle
        );
    }
    Ok(())
}

proptest! {
    /// The incremental dispatch index stays identical to a brute-force
    /// rebuild of the routable sets, the locality counts and the handle map
    /// after any random sequence of scale-up / drain / retire / migrate /
    /// crash-evict transitions — the exact lifecycle edges the serving event
    /// loop and the failover path drive — interleaved with random load,
    /// queue-fullness and availability edges. After every step, each
    /// policy's indexed pick (load tree or round-robin scan) equals the
    /// view-scan pick over brute-force views, for every model.
    #[test]
    fn dispatch_index_matches_brute_force_rebuild(
        ops in proptest::collection::vec(
            (0usize..=6, 0usize..=255, 0usize..=255),
            1..120,
        ),
    ) {
        let models = [ModelId::Mnist, ModelId::Ncf, ModelId::Bert, ModelId::Dlrm];
        let admission = AdmissionControl { max_queue_depth: SHADOW_QUEUE_DEPTH };
        let mut indexes: Vec<(cluster::ReplicaIndex, Router, Router)> = DispatchPolicy::all()
            .into_iter()
            .map(|policy| {
                (
                    cluster::ReplicaIndex::new(policy),
                    Router::new(policy, admission),
                    Router::new(policy, admission),
                )
            })
            .collect();
        let mut shadow: Vec<ShadowReplica> = Vec::new();
        let mut next_vnpu = 0u32;

        for (op, a, b) in ops {
            match op {
                // Scale-up: a new routable replica in the next slot.
                0 => {
                    let replica = ShadowReplica {
                        model: models[a % models.len()],
                        node: NodeId((b % 8) as u32),
                        handle: cluster::VnpuHandle {
                            node: NodeId((b % 8) as u32),
                            vnpu: neu10::VnpuId(next_vnpu),
                        },
                        draining: false,
                        retired: false,
                        queue_len: 0,
                        in_flight: 0,
                        unavailable: false,
                    };
                    next_vnpu += 1;
                    for (index, _, _) in &mut indexes {
                        index.insert(shadow.len(), replica.model, replica.node, replica.handle);
                    }
                    shadow.push(replica);
                }
                // Scale-down: drain a routable replica.
                1 => {
                    if shadow.is_empty() {
                        continue;
                    }
                    let slot = a % shadow.len();
                    let replica = shadow[slot];
                    if replica.retired || replica.draining {
                        continue;
                    }
                    shadow[slot].draining = true;
                    for (index, _, _) in &mut indexes {
                        index.begin_drain(slot, replica.model, replica.node);
                    }
                }
                // Release: retire a fully drained replica.
                2 => {
                    if shadow.is_empty() {
                        continue;
                    }
                    let slot = a % shadow.len();
                    let replica = shadow[slot];
                    if replica.retired || !replica.draining {
                        continue;
                    }
                    shadow[slot].retired = true;
                    for (index, _, _) in &mut indexes {
                        index.retire(replica.handle);
                    }
                }
                // Crash-evict: a board died — the slot leaves the routable
                // sets and the handle map in one step, mid-run, no rebuild.
                3 => {
                    if shadow.is_empty() {
                        continue;
                    }
                    let slot = a % shadow.len();
                    let replica = shadow[slot];
                    if replica.retired {
                        continue;
                    }
                    for (index, _, _) in &mut indexes {
                        index.evict(
                            slot,
                            replica.model,
                            replica.node,
                            replica.handle,
                            !replica.draining,
                        );
                    }
                    shadow[slot].draining = true;
                    shadow[slot].retired = true;
                }
                // Migration: re-key the handle, move the locality count.
                4 => {
                    if shadow.is_empty() {
                        continue;
                    }
                    let slot = a % shadow.len();
                    let replica = shadow[slot];
                    let to = NodeId((b % 8) as u32);
                    if replica.retired || to == replica.node {
                        continue;
                    }
                    let new_handle = cluster::VnpuHandle {
                        node: to,
                        vnpu: neu10::VnpuId(next_vnpu),
                    };
                    next_vnpu += 1;
                    for (index, _, _) in &mut indexes {
                        index.relocate(
                            replica.handle,
                            new_handle,
                            slot,
                            replica.model,
                            !replica.draining,
                        );
                    }
                    shadow[slot].node = to;
                    shadow[slot].handle = new_handle;
                }
                // Load edge: new queue, batch, fullness and availability.
                5 => {
                    if shadow.is_empty() {
                        continue;
                    }
                    let slot = a % shadow.len();
                    shadow[slot].queue_len = b % (SHADOW_QUEUE_DEPTH + 2);
                    shadow[slot].in_flight = (b / 8) % 9;
                    for (index, _, _) in &mut indexes {
                        index.touch(slot);
                    }
                }
                // Availability edge: a dark window opens or closes.
                _ => {
                    if shadow.is_empty() {
                        continue;
                    }
                    let slot = a % shadow.len();
                    shadow[slot].unavailable = b % 2 == 0;
                    for (index, _, _) in &mut indexes {
                        index.touch(slot);
                    }
                }
            }
            for (index, indexed, scanned) in &mut indexes {
                index.refresh(|slot| shadow[slot].load());
                assert_index_matches(index, &shadow)?;
                for model in models {
                    let views = brute_force_views(&shadow, model);
                    let expected = scanned.dispatch(model, &views);
                    prop_assert_eq!(
                        indexed.dispatch_indexed(model, index),
                        expected,
                        "{} picked differently from the view scan over {:?}",
                        indexed.policy().label(),
                        views
                    );
                }
            }
        }
    }

    /// A live pre-copy migration triggered mid-stream — usually mid-batch on
    /// a loaded replica — never loses an admitted request, whatever the
    /// load, batching, trigger time, dirty rate and link speed: the queue
    /// survives the copy rounds and the stop-and-copy, the replica genuinely
    /// changes boards (or the loop aborts cleanly), and the run is
    /// seed-reproducible.
    #[test]
    fn precopy_migration_never_loses_admitted_requests(
        per_model in 20usize..=80,
        gap_divisor in 1u64..=6,
        max_batch in 1usize..=8,
        trigger_num in 1u64..=8,
        write_fraction in 0u32..=100,
        slow_link in 0usize..=1,
        seed in 0u64..=1_000,
    ) {
        let board = NpuConfig::single_core();
        let service = cluster::estimated_service_cycles(ModelId::Mnist, 2, 2, &board);
        let run = || {
            let mut fleet = NpuCluster::homogeneous(2, &board);
            let handle = fleet
                .deploy(DeploySpec::replica(ModelId::Mnist, 2, 2), PlacementPolicy::BestFit)
                .unwrap();
            let spare = NodeId(if handle.node.0 == 0 { 1 } else { 0 });
            let trace = ClusterTrace::poisson(
                &[(ModelId::Mnist, (service / gap_divisor).max(1))],
                per_model,
                seed,
            );
            // Trigger lands inside the stream, so the replica is usually
            // mid-batch with a queue behind it.
            let trigger = Cycles(service * trigger_num);
            let interconnect = if slow_link == 1 {
                npu_sim::InterconnectConfig::tpu_v4_ici().with_bandwidth(1.0e9)
            } else {
                npu_sim::InterconnectConfig::tpu_v4_ici()
            };
            let cost = cluster::MigrationCostModel::default()
                .with_interconnect(interconnect)
                .with_precopy(cluster::PreCopyConfig::default().with_dirty_rate(
                    cluster::DirtyRateModel::default()
                        .with_write_fraction(write_fraction as f64 / 100.0),
                ));
            let options = ServingOptions::new(DispatchPolicy::LeastLoaded)
                .with_batching(max_batch)
                .with_cost_model(cost)
                .with_live_migration(trigger, handle, spare);
            let report = ClusterServingSim::new(options).run(&mut fleet, &trace);
            (report, fleet.total_vnpus())
        };
        let (report, vnpus) = run();
        prop_assert_eq!(vnpus, 1, "exactly one replica lives on");
        prop_assert_eq!(
            report.stats.completed,
            report.stats.admitted,
            "a mid-stream pre-copy migration must not lose admitted requests"
        );
        prop_assert_eq!(report.latency.count, report.stats.completed);
        // Whether the migration executed or was abandoned, the books balance.
        prop_assert_eq!(
            report.migration_stats.executed(),
            report.migrations.len()
        );
        if let Some(record) = report.migrations.first() {
            prop_assert_eq!(record.mode, cluster::MigrationMode::PreCopy);
            prop_assert!(record.precopy_rounds >= 1);
            prop_assert_eq!(record.round_bytes.len(), record.precopy_rounds as usize);
            prop_assert_eq!(
                record.precopy_bytes,
                record.round_bytes.iter().sum::<u64>()
            );
        }
        // Determinism: the identical inputs reproduce the identical report.
        let (again, _) = run();
        prop_assert_eq!(report, again);
    }

    /// Chaos conservation: under any randomized fault schedule, with or
    /// without recovery, no admitted request is silently lost — every one
    /// completes, is shed with a recorded rejection, expires with a recorded
    /// drop, or is counted lost with a fault attribution — and the identical
    /// schedule replays to a bit-identical report.
    #[test]
    fn no_admitted_request_is_silently_lost_under_chaos(
        nodes in 2usize..=4,
        per_model in 10usize..=50,
        mean_gap in 2_000u64..=50_000,
        fault_seed in 0u64..=500,
        seed in 0u64..=500,
        with_recovery in 0usize..=1,
        threshold in 1u32..=4,
    ) {
        let board = NpuConfig::single_core();
        let service = cluster::estimated_service_cycles(ModelId::Mnist, 2, 2, &board);
        let run = || {
            let mut fleet = NpuCluster::homogeneous(nodes, &board);
            for _ in 0..nodes {
                fleet
                    .deploy(DeploySpec::replica(ModelId::Mnist, 2, 2), PlacementPolicy::WorstFit)
                    .unwrap();
            }
            let trace = ClusterTrace::poisson(&[(ModelId::Mnist, mean_gap)], per_model, seed);
            let horizon = (per_model as u64 * mean_gap).max(service * 20);
            let faults = cluster::FaultSchedule::generate(
                fault_seed,
                horizon,
                nodes as u32,
                &cluster::FaultProfile::default(),
            );
            let mut options = ServingOptions::new(DispatchPolicy::LeastLoaded)
                .with_batching(4)
                .with_telemetry(service * 2)
                .with_faults(faults);
            if with_recovery == 1 {
                options = options.with_recovery(cluster::RecoveryPolicy::new(threshold));
            }
            ClusterServingSim::new(options).run(&mut fleet, &trace)
        };
        let report = run();
        prop_assert_eq!(report.stats.offered, per_model);
        prop_assert_eq!(
            report.stats.offered,
            report.stats.completed
                + report.stats.rejected()
                + report.deadline.dropped
                + report.availability.lost as usize,
            "conservation: offered = completed + rejected + dropped + lost \
             (completed {}, rejected {}, dropped {}, lost {})",
            report.stats.completed,
            report.stats.rejected(),
            report.deadline.dropped,
            report.availability.lost
        );
        // Every lost request carries a per-model fault attribution.
        let attributed: u64 = report.availability.per_model.values().map(|m| m.lost).sum();
        prop_assert_eq!(attributed, report.availability.lost);
        // Determinism: the identical schedule replays bit-for-bit.
        prop_assert_eq!(report, run());
    }

    /// Indexed dispatch and the reference per-arrival rebuild produce the
    /// identical `ServingReport` whatever the policy, batching, admission
    /// limits and load — the end-to-end form of the index property.
    #[test]
    fn indexed_and_reference_dispatch_reports_agree(
        replicas in 1usize..=4,
        per_model in 1usize..=30,
        mean_gap in 1_000u64..=200_000,
        max_queue_depth in 1usize..=8,
        max_batch in 1usize..=8,
        policy_index in 0usize..=3,
        seed in 0u64..=1_000,
    ) {
        let board = NpuConfig::single_core();
        let trace = ClusterTrace::poisson(
            &[(ModelId::Mnist, mean_gap), (ModelId::Ncf, mean_gap)],
            per_model,
            seed,
        );
        let run = |reference: bool| {
            let mut fleet = NpuCluster::homogeneous(replicas, &board);
            for index in 0..replicas {
                let model = if index % 2 == 0 { ModelId::Mnist } else { ModelId::Ncf };
                fleet
                    .deploy(DeploySpec::replica(model, 2, 2), PlacementPolicy::WorstFit)
                    .unwrap();
            }
            let mut options = ServingOptions::new(DispatchPolicy::all()[policy_index])
                .with_admission(AdmissionControl { max_queue_depth })
                .with_batching(max_batch);
            if reference {
                options = options.with_reference_dispatch();
            }
            ClusterServingSim::new(options).run(&mut fleet, &trace)
        };
        prop_assert_eq!(run(false), run(true));
    }
}
