//! Parallel-equivalence properties of the sharded serving loop.
//!
//! The contract under test, from `cluster::sharded`:
//!
//! * `partitions = 1` is **bit-identical** to the sequential run — same
//!   `ServingReport`, field for field;
//! * for a fixed partition count, the **thread count never changes the
//!   report** — `threads = 1` and `threads = N` produce identical results on
//!   randomized traces, fault schedules and scheduled cross-partition
//!   migrations;
//! * the per-partition observability sinks merge
//!   (`TraceRecorder::merge`, `MetricsRegistry::merge`) to byte-identical
//!   exports at every thread count;
//! * no admitted request vanishes across partition boundaries
//!   (admitted = completed + dropped + lost), and every trace arrival is
//!   offered exactly once fleet-wide, by the one partition that owns it —
//!   also when control actions change the ownership plan at barriers;
//! * SLO alerting and controller moves work at every partition count.

use cluster::{
    AdmissionControl, ClusterServingSim, ControlAction, ControlPlane, DeploySpec, DispatchPolicy,
    FaultKind, FaultSchedule, Metric, MetricsRegistry, MigrationMode, NodeId, NpuCluster, ObsSink,
    PlacementPolicy, RecoveryPolicy, ServingOptions, ServingReport, ShardOptions, SloConfig,
    SloSpec, StochasticService, TelemetryFrame, TraceConfig, TraceRecorder,
};
use npu_sim::{Cycles, NpuConfig};
use workloads::{ClusterTrace, ModelId, PriorityClass, QosSpec};

fn config() -> NpuConfig {
    NpuConfig::single_core()
}

/// An eight-board fleet with both models spread across every board pair, so
/// any partitioning in [1, 8] leaves each partition with dispatchable
/// replicas of each model.
fn wide_fleet(boards: usize) -> NpuCluster {
    let mut fleet = NpuCluster::homogeneous(boards, &config());
    for node in 0..boards as u32 {
        fleet
            .deploy_pinned(DeploySpec::replica(ModelId::Mnist, 2, 2), NodeId(node))
            .expect("capacity for mnist replica");
        if node % 2 == 0 {
            fleet
                .deploy_pinned(DeploySpec::replica(ModelId::Ncf, 1, 1), NodeId(node))
                .expect("capacity for ncf replica");
        }
    }
    fleet
}

/// A deadline-carrying Poisson trace over both models.
fn wide_trace(seed: u64, requests: usize) -> ClusterTrace {
    let service = cluster::estimated_service_cycles(ModelId::Mnist, 2, 2, &config());
    let base = ClusterTrace::poisson(
        &[(ModelId::Mnist, service / 5), (ModelId::Ncf, service)],
        requests,
        seed,
    );
    let arrivals = base
        .arrivals()
        .iter()
        .map(|arrival| {
            let mut arrival = *arrival;
            if arrival.model == ModelId::Mnist && arrival.sequence % 3 == 0 {
                let qos = QosSpec::new(Some(Cycles(service * 6)), PriorityClass::Interactive);
                arrival.deadline = qos
                    .deadline_slack
                    .map(|slack| Cycles(arrival.at.get() + slack.get()));
                arrival.priority = qos.priority;
            }
            arrival
        })
        .collect();
    ClusterTrace::from_arrivals(arrivals)
}

/// The randomized scenario: stochastic service, admission pressure, a fault
/// schedule hitting several partitions, failover, and a scheduled
/// cross-partition migration (board 0 region to the last board's region).
fn scenario_options(seed: u64, fleet: &NpuCluster, faults: bool) -> ServingOptions {
    let service = cluster::estimated_service_cycles(ModelId::Mnist, 2, 2, &config());
    let handle = *fleet.deployments().next().expect("fleet has deployments");
    let last = NodeId(fleet.node_count() as u32 - 1);
    let mut options = ServingOptions::new(DispatchPolicy::LeastLoaded)
        .with_admission(AdmissionControl {
            max_queue_depth: 10,
        })
        .with_batching(4)
        .with_batch_wait(service / 2)
        .with_drop_expired()
        .with_stochastic(StochasticService::seeded(seed).with_cv(0.2))
        .with_telemetry(service * 3)
        .with_migration(Cycles(service * 4), handle.handle, last);
    if faults {
        options = options
            .with_faults(
                FaultSchedule::new()
                    .with_fault(service * 5, FaultKind::BoardCrash { node: NodeId(2) })
                    .with_fault(
                        service * 7,
                        FaultKind::Straggler {
                            node: NodeId(5),
                            factor: 2.5,
                            for_cycles: service * 8,
                        },
                    )
                    .with_fault(
                        service * 9,
                        FaultKind::BoardHang {
                            node: NodeId(1),
                            for_cycles: service * 2,
                        },
                    ),
            )
            .with_recovery(RecoveryPolicy::new(3));
    }
    options
}

fn run_sharded(seed: u64, faults: bool, shard: ShardOptions) -> ServingReport {
    let mut fleet = wide_fleet(8);
    let options = scenario_options(seed, &fleet, faults);
    let trace = wide_trace(seed, 240);
    ClusterServingSim::new(options).run_sharded(&mut fleet, &trace, shard)
}

fn run_sequential(seed: u64, faults: bool) -> ServingReport {
    let mut fleet = wide_fleet(8);
    let options = scenario_options(seed, &fleet, faults);
    let trace = wide_trace(seed, 240);
    ClusterServingSim::new(options).run(&mut fleet, &trace)
}

/// `partitions = 1` is the sequential run: full report equality, perf
/// counters included, at any thread count.
#[test]
fn single_partition_is_bit_identical_to_sequential() {
    for seed in [11, 4242] {
        for faults in [false, true] {
            let sequential = run_sequential(seed, faults);
            for threads in [1, 4] {
                let sharded = run_sharded(seed, faults, ShardOptions::new(1).with_threads(threads));
                assert_eq!(
                    sequential, sharded,
                    "seed {seed} faults {faults} threads {threads}: one partition \
                     must reproduce the sequential report exactly"
                );
            }
        }
    }
}

/// The core determinism contract: for a fixed partition count, the thread
/// count never changes the merged report — on randomized traces, with and
/// without fault injection.
#[test]
fn thread_count_never_changes_the_report() {
    for seed in [7, 1234, 98765] {
        for faults in [false, true] {
            for partitions in [2, 3, 4, 8] {
                let reference =
                    run_sharded(seed, faults, ShardOptions::new(partitions).with_threads(1));
                // Sanity: the partitioned run still serves the fleet.
                assert!(
                    reference.stats.completed > 0,
                    "seed {seed} partitions {partitions}: requests complete"
                );
                for threads in [2, partitions] {
                    let parallel = run_sharded(
                        seed,
                        faults,
                        ShardOptions::new(partitions).with_threads(threads),
                    );
                    assert_eq!(
                        reference, parallel,
                        "seed {seed} faults {faults} partitions {partitions} \
                         threads {threads}: thread count must not change the report"
                    );
                }
            }
        }
    }
}

/// Conservation across partition boundaries: every trace arrival is offered
/// exactly once fleet-wide, and no admitted request vanishes — even with
/// crashes, failover and a cross-partition migration in flight. The report's
/// per-model and per-node tables, folded from per-partition accumulators,
/// agree with each other and with the router's totals.
#[test]
fn partitioning_conserves_requests() {
    let total_arrivals = wide_trace(4242, 240).arrivals().len();
    for partitions in [1, 2, 4, 8] {
        let report = run_sharded(4242, true, ShardOptions::new(partitions));
        assert_eq!(
            report.stats.offered, total_arrivals,
            "partitions {partitions}: every arrival is offered exactly once"
        );
        assert_eq!(
            report.stats.admitted,
            report.stats.completed + report.deadline.dropped + report.availability.lost as usize,
            "partitions {partitions}: admitted = completed + dropped + lost"
        );
        let per_model_completed: usize = report.per_model.values().map(|m| m.count).sum();
        let per_node_completed: usize = report.per_node_completed.values().sum();
        assert_eq!(
            (per_model_completed, per_node_completed),
            (report.stats.completed, report.stats.completed),
            "partitions {partitions}: Σ per-model = completed = Σ per-node"
        );
        assert!(!report.per_model.is_empty(), "partitions {partitions}");
        for (model, latency) in &report.per_model {
            let availability = report.availability.per_model.get(model);
            assert_eq!(
                Some(latency.count as u64),
                availability.map(|a| a.completed),
                "partitions {partitions}: {model} latency samples = availability completions"
            );
        }
        let admitted: u64 = report
            .availability
            .per_model
            .values()
            .map(|a| a.admitted)
            .sum();
        assert_eq!(
            admitted as usize, report.stats.admitted,
            "partitions {partitions}: Σ per-model admitted = admitted"
        );
    }
}

/// The merged observability artifacts — Chrome trace JSON from per-partition
/// `TraceRecorder`s and the OpenMetrics exposition from per-partition
/// `MetricsRegistry`s — must be byte-identical across thread counts, and
/// recording must not perturb the simulation.
#[test]
fn merged_observability_is_identical_across_thread_counts() {
    let run_observed = |threads: usize| {
        let mut fleet = wide_fleet(8);
        let options = scenario_options(77, &fleet, true);
        let trace = wide_trace(77, 240);
        let shard = ShardOptions::new(4).with_threads(threads);
        let mut recorders: Vec<TraceRecorder> = Vec::new();
        let report = ClusterServingSim::new(options.clone()).run_sharded_observed(
            &mut fleet,
            &trace,
            shard,
            &mut recorders,
        );
        assert_eq!(recorders.len(), 4, "one recorder per effective partition");
        let mut merged_trace = TraceRecorder::new(TraceConfig::default());
        let mut merged_metrics = MetricsRegistry::new();
        for recorder in &recorders {
            merged_trace.merge(recorder);
            merged_metrics.merge(recorder.metrics());
        }
        let mut unobserved_fleet = wide_fleet(8);
        let unobserved =
            ClusterServingSim::new(options).run_sharded(&mut unobserved_fleet, &trace, shard);
        assert_eq!(report, unobserved, "recording must not perturb the run");
        (
            report,
            merged_trace.export_chrome_trace(),
            cluster::export_openmetrics(&merged_metrics),
        )
    };
    let (report_1, trace_1, metrics_1) = run_observed(1);
    let (report_4, trace_4, metrics_4) = run_observed(4);
    assert_eq!(report_1, report_4, "observed runs obey the thread contract");
    assert_eq!(
        trace_1, trace_4,
        "merged Chrome trace must be byte-identical across thread counts"
    );
    assert_eq!(
        metrics_1, metrics_4,
        "merged OpenMetrics exposition must be byte-identical across thread counts"
    );
    assert!(
        report_1.stats.completed > 0 && !metrics_1.is_empty(),
        "the observed scenario genuinely serves and records"
    );
}

/// A cross-partition move the destination board cannot host bounces back to
/// its source. The refusal counts as a rejected migration in the report and
/// reaches the refusing partition's sink, so the merged registry agrees with
/// the report, as it does on the sequential path.
#[test]
fn refused_cross_partition_import_reaches_the_sinks() {
    let service = cluster::estimated_service_cycles(ModelId::Mnist, 2, 2, &config());
    let mut fleet = NpuCluster::homogeneous(2, &config());
    let mover = fleet
        .deploy_pinned(DeploySpec::replica(ModelId::Mnist, 2, 2), NodeId(0))
        .expect("capacity for the moving replica");
    fleet
        .deploy_pinned(DeploySpec::replica(ModelId::Ncf, 4, 4), NodeId(1))
        .expect("a whole-board replica fills board 1");
    let trace = ClusterTrace::poisson(&[(ModelId::Mnist, service), (ModelId::Ncf, service)], 40, 5);
    let options = ServingOptions::new(DispatchPolicy::LeastLoaded).with_migration(
        Cycles(service * 3),
        mover,
        NodeId(1),
    );
    let mut recorders: Vec<TraceRecorder> = Vec::new();
    let report = ClusterServingSim::new(options).run_sharded_observed(
        &mut fleet,
        &trace,
        ShardOptions::new(2),
        &mut recorders,
    );
    let mut merged = MetricsRegistry::new();
    for recorder in &recorders {
        merged.merge(recorder.metrics());
    }
    assert!(
        report.control.migrations_rejected > 0,
        "board 1 must refuse the import"
    );
    assert_eq!(
        merged.counter(Metric::MigrationRejected),
        report.control.migrations_rejected as u64,
        "every refused import reaches a sink"
    );
}

/// The sequential and partitioned runs are different (equally valid)
/// schedules of the same fleet: both must serve the same offered load with
/// the same conservation law, but their reports legitimately differ. This
/// pins that the partitioned run is not accidentally a degenerate no-op.
#[test]
fn partitioned_run_serves_comparable_load() {
    let sequential = run_sequential(4242, false);
    let sharded = run_sharded(4242, false, ShardOptions::new(4));
    assert_eq!(sequential.stats.offered, sharded.stats.offered);
    let (seq, par) = (
        sequential.stats.completed as f64,
        sharded.stats.completed as f64,
    );
    assert!(
        par >= seq * 0.85,
        "partitioned completions ({par}) must stay within 15% of sequential ({seq})"
    );
}

/// A controller that issues one `ScaleUp` at each of the given telemetry
/// ticks, alternating between the two models.
struct ScaleUpAtTicks {
    ticks: Vec<usize>,
    seen: usize,
}

impl ControlPlane for ScaleUpAtTicks {
    fn control(&mut self, _frame: &TelemetryFrame, _cluster: &NpuCluster) -> Vec<ControlAction> {
        self.seen += 1;
        let Some(position) = self.ticks.iter().position(|&tick| tick == self.seen) else {
            return Vec::new();
        };
        let model = if position % 2 == 0 {
            ModelId::Ncf
        } else {
            ModelId::Mnist
        };
        vec![ControlAction::ScaleUp {
            spec: DeploySpec::replica(model, 1, 1),
            placement: PlacementPolicy::WorstFit,
        }]
    }
}

/// The sharded control path: scale-ups at barrier ticks change the
/// ownership plan mid-run. A partition's arrival cursor must leave arrivals
/// at or past the round's bound for the plan the barrier rebuilds; skipping
/// them under the old plan loses every one the new plan hands to it. Thread
/// 1 runs the plain entry point, thread 2 the observed one, so both
/// controller entry points are held to the same report.
#[test]
fn scale_ups_at_barriers_keep_every_arrival_and_the_thread_contract() {
    let seed = 1;
    let service = cluster::estimated_service_cycles(ModelId::Mnist, 2, 2, &config());
    let trace = wide_trace(seed, 600);
    let options = ServingOptions::new(DispatchPolicy::LeastLoaded)
        .with_batching(4)
        .with_stochastic(StochasticService::seeded(seed).with_cv(0.2))
        .with_telemetry(service / 3);
    let controller = || ScaleUpAtTicks {
        ticks: vec![2, 5, 9, 14],
        seen: 0,
    };
    let shard = |threads: usize| ShardOptions::new(2).with_threads(threads);

    let mut fleet = wide_fleet(8);
    let single = ClusterServingSim::new(options.clone()).run_sharded_with_controller(
        &mut fleet,
        &trace,
        shard(1),
        &mut controller(),
    );
    let mut fleet = wide_fleet(8);
    let mut recorders: Vec<TraceRecorder> = Vec::new();
    let parallel = ClusterServingSim::new(options).run_sharded_observed_with_controller(
        &mut fleet,
        &trace,
        shard(2),
        &mut controller(),
        &mut recorders,
    );

    assert_eq!(
        single.control.scale_ups, 4,
        "every scheduled scale-up lands, so the plan changes at four barriers"
    );
    assert_eq!(
        single.stats.offered,
        trace.arrivals().len(),
        "every arrival is offered exactly once across plan changes"
    );
    assert_eq!(
        single.stats.admitted,
        single.stats.completed + single.deadline.dropped + single.availability.lost as usize,
        "admitted = completed + dropped + lost"
    );
    assert_eq!(
        single, parallel,
        "thread count (and observation) must not change the controlled report"
    );
    assert_eq!(recorders.len(), 2, "one recorder per partition");
}

/// A controller that, at its first tick, moves the busy board-0 replica to
/// board 1 and then releases it, so the scale-down races the migration.
struct MigrateThenRelease {
    fired: bool,
}

impl ControlPlane for MigrateThenRelease {
    fn control(&mut self, frame: &TelemetryFrame, _cluster: &NpuCluster) -> Vec<ControlAction> {
        if std::mem::replace(&mut self.fired, true) {
            return Vec::new();
        }
        let mover = frame
            .replicas
            .iter()
            .find(|sample| sample.handle.node == NodeId(0))
            .expect("board 0 hosts a replica");
        assert!(mover.in_flight > 0, "the mover is busy at the first tick");
        vec![
            ControlAction::Migrate {
                handle: mover.handle,
                to: NodeId(1),
                mode: MigrationMode::Cold,
            },
            ControlAction::ScaleDown {
                handle: mover.handle,
            },
        ]
    }
}

/// A scale-down that races a cross-partition migration still releases the
/// replica. The drain travels with the replica in its envelope, so the
/// destination serves the queue and releases the vNPU, as a sequential run
/// does after the same local migration.
#[test]
fn a_scale_down_racing_a_cross_partition_migration_still_releases() {
    let service = cluster::estimated_service_cycles(ModelId::Mnist, 2, 2, &config());
    let options = ServingOptions::new(DispatchPolicy::LeastLoaded)
        .with_batching(4)
        .with_telemetry(service * 5 / 2);
    let trace = ClusterTrace::poisson(&[(ModelId::Mnist, service / 3)], 200, 3);
    let fleet = || {
        let mut fleet = NpuCluster::homogeneous(2, &config());
        for node in 0..2 {
            fleet
                .deploy_pinned(DeploySpec::replica(ModelId::Mnist, 2, 2), NodeId(node))
                .expect("capacity for the replica");
        }
        fleet
    };
    let sim = ClusterServingSim::new(options);
    let mut sequential_fleet = fleet();
    let sequential = sim.run_with_controller(
        &mut sequential_fleet,
        &trace,
        &mut MigrateThenRelease { fired: false },
    );
    let mut sharded_fleet = fleet();
    let sharded = sim.run_sharded_with_controller(
        &mut sharded_fleet,
        &trace,
        ShardOptions::new(2),
        &mut MigrateThenRelease { fired: false },
    );
    assert_eq!(sequential.control.scale_downs, 1);
    assert_eq!(
        sequential.control.released, 1,
        "the sequential run releases"
    );
    assert_eq!(sharded.control.scale_downs, 1);
    assert_eq!(
        sharded.control.released, sharded.control.scale_downs,
        "the migrated replica keeps its drain and releases"
    );
    assert_eq!(
        sharded_fleet.deployments().count(),
        sequential_fleet.deployments().count(),
        "the released vNPU must not keep serving (and billing)"
    );
    assert_eq!(
        sharded.stats.admitted,
        sharded.stats.completed + sharded.deadline.dropped + sharded.availability.lost as usize,
        "admitted = completed + dropped + lost"
    );
}

/// A fault-free run that abandons a cross-partition migration counts the
/// abandoned queue as lost, per model too, and its availability falls below
/// one. Replica X (board 0) and replica A (board 1) export in the same
/// round: board 1 takes X, board 2 refuses A, and A's bounce home finds
/// board 1 full again.
#[test]
fn an_abandoned_migration_counts_its_queue_lost_without_faults() {
    let service = cluster::estimated_service_cycles(ModelId::Mnist, 2, 2, &config());
    let mut fleet = NpuCluster::homogeneous(3, &config());
    let x = fleet
        .deploy_pinned(DeploySpec::replica(ModelId::Mnist, 2, 2), NodeId(0))
        .expect("capacity for X");
    let a = fleet
        .deploy_pinned(DeploySpec::replica(ModelId::Mnist, 2, 2), NodeId(1))
        .expect("capacity for A");
    fleet
        .deploy_pinned(DeploySpec::replica(ModelId::Ncf, 2, 2), NodeId(1))
        .expect("an ncf replica fills board 1");
    fleet
        .deploy_pinned(DeploySpec::replica(ModelId::Ncf, 4, 4), NodeId(2))
        .expect("a whole-board replica fills board 2");
    let t = service * 100;
    let trace = ClusterTrace::from_arrivals(vec![
        workloads::RequestArrival::new(Cycles(t - 20), ModelId::Mnist),
        workloads::RequestArrival::new(Cycles(t - 10), ModelId::Mnist),
    ]);
    let options = ServingOptions::new(DispatchPolicy::LeastLoaded)
        .with_batching(4)
        .with_batch_wait(service * 50)
        .with_migration(Cycles(t), x, NodeId(1))
        .with_migration(Cycles(t), a, NodeId(2));
    let mut recorders: Vec<TraceRecorder> = Vec::new();
    let report = ClusterServingSim::new(options).run_sharded_observed(
        &mut fleet,
        &trace,
        ShardOptions::new(3).with_threads(1),
        &mut recorders,
    );
    assert_eq!(report.stats.admitted, 2);
    assert!(
        report.control.migrations_rejected > 0,
        "board 2 refuses A's import"
    );
    assert!(report.availability.lost > 0, "A's queue is abandoned");
    assert_eq!(
        report.stats.admitted,
        report.stats.completed + report.deadline.dropped + report.availability.lost as usize,
        "admitted = completed + dropped + lost"
    );
    let per_model = report.availability.per_model.values();
    assert_eq!(
        per_model.map(|model| model.lost).sum::<u64>(),
        report.availability.lost,
        "the per-model ledger attributes every loss without faults too"
    );
    assert!(
        report.availability.availability() < 1.0,
        "a lost request lowers availability"
    );
    let mut merged = MetricsRegistry::new();
    for recorder in &recorders {
        merged.merge(recorder.metrics());
    }
    assert_eq!(
        merged.counter(Metric::RecoveryLostRequests),
        report.availability.lost,
        "every abandoned request reaches a sink"
    );
}

/// A cross-partition move of a replica fenced on a crashed board, with no
/// recovery armed, never exports: the fenced batch never completes, so the
/// drain-then-move never fires. The run still ends, and the requests
/// marooned on the crashed board count as lost.
#[test]
fn a_fenced_replica_moving_across_partitions_does_not_hold_the_run_open() {
    let service = cluster::estimated_service_cycles(ModelId::Mnist, 2, 2, &config());
    let fleet = || {
        let mut fleet = NpuCluster::homogeneous(2, &config());
        let busy = fleet
            .deploy_pinned(DeploySpec::replica(ModelId::Mnist, 2, 2), NodeId(0))
            .expect("capacity for the board-0 replica");
        fleet
            .deploy_pinned(DeploySpec::replica(ModelId::Mnist, 2, 2), NodeId(1))
            .expect("capacity for the board-1 replica");
        (fleet, busy)
    };
    // Arrivals three times faster than two replicas serve keep board 0 busy
    // when it crashes, so the move after the crash waits on a drain.
    let trace = ClusterTrace::poisson(&[(ModelId::Mnist, service / 3)], 60, 4);
    let options = ServingOptions::new(DispatchPolicy::LeastLoaded)
        .with_telemetry(service * 2)
        .with_faults(
            FaultSchedule::new().with_fault(service * 5, FaultKind::BoardCrash { node: NodeId(0) }),
        )
        .with_migration(Cycles(service * 6), fleet().1, NodeId(1));
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let run = |threads: usize| {
            ClusterServingSim::new(options.clone()).run_sharded(
                &mut fleet().0,
                &trace,
                ShardOptions::new(2).with_threads(threads),
            )
        };
        done.send((run(1), run(2))).unwrap();
    });
    let (report, threaded) = finished
        .recv_timeout(std::time::Duration::from_secs(60))
        .expect("the run must end once only fenced work is left");
    assert_eq!(report, threaded, "threads 1 and 2");
    assert_eq!(report.stats.offered, 60);
    assert!(report.migrations.is_empty(), "{:?}", report.migrations);
    assert!(
        report.availability.lost > 0,
        "the batch on the crashed board is marooned"
    );
    assert_eq!(
        report.stats.admitted,
        report.stats.completed + report.deadline.dropped + report.availability.lost as usize,
        "admitted = completed + dropped + lost"
    );
}

/// A guaranteed SLO breach (a latency target of half a service time) over
/// the wide fleet, through per-partition trace recorders.
fn run_slo_breach(shard: ShardOptions) -> (ServingReport, Vec<TraceRecorder>) {
    let service = cluster::estimated_service_cycles(ModelId::Mnist, 2, 2, &config());
    let slo = SloConfig::new(service * 4)
        .with_spec(SloSpec::new(ModelId::Mnist, Cycles(service / 2), 0.95))
        .with_default_policies();
    let options = ServingOptions::new(DispatchPolicy::LeastLoaded)
        .with_batching(4)
        .with_batch_wait(service / 2)
        .with_stochastic(StochasticService::seeded(5).with_cv(0.25))
        .with_slo(slo);
    let mut fleet = wide_fleet(8);
    let mut recorders: Vec<TraceRecorder> = Vec::new();
    let report = ClusterServingSim::new(options).run_sharded_observed(
        &mut fleet,
        &wide_trace(5, 240),
        shard,
        &mut recorders,
    );
    (report, recorders)
}

/// SLO alerting runs at every partition count: each partition buckets its
/// own burn-rate counts, and the alert tick sums them and evaluates once.
/// The run is not forced onto one partition, the thread count changes
/// neither the report nor the merged exports, and a guaranteed breach fires
/// within one fast window.
#[test]
fn slo_alerts_fire_at_every_partition_count() {
    let service = cluster::estimated_service_cycles(ModelId::Mnist, 2, 2, &config());
    let fast_window = service * 4 * 4; // page policy: 4 ticks of 4x service
    let (sequential, _) = run_slo_breach(ShardOptions::new(1));
    let sequential_first = sequential.alerts.first_fire_after(Cycles(0)).map(|t| t.at);
    for partitions in [2, 4] {
        let runs: Vec<(ServingReport, String, String)> = [1, partitions]
            .into_iter()
            .map(|threads| {
                let shard = ShardOptions::new(partitions).with_threads(threads);
                let (report, recorders) = run_slo_breach(shard);
                assert_eq!(
                    recorders.len(),
                    partitions,
                    "an SLO run keeps its {partitions} partitions"
                );
                let mut merged_trace = TraceRecorder::new(TraceConfig::default());
                let mut merged_metrics = MetricsRegistry::new();
                for (index, recorder) in recorders.iter().enumerate() {
                    assert!(
                        recorder.metrics().counter(Metric::ServingArrivals) > 0,
                        "partition {index} of {partitions} serves arrivals"
                    );
                    merged_trace.merge(recorder);
                    merged_metrics.merge(recorder.metrics());
                }
                assert_eq!(
                    merged_metrics.counter(Metric::SloAlertsFired),
                    report.alerts.fired() as u64,
                    "every fire edge reaches a sink"
                );
                let trace = merged_trace.export_chrome_trace();
                (report, trace, cluster::export_openmetrics(&merged_metrics))
            })
            .collect();
        let (report, ..) = &runs[0];
        assert_eq!(runs[0], runs[1], "partitions {partitions}: threads 1 and N");
        let first = report
            .alerts
            .first_fire_after(Cycles(0))
            .expect("a guaranteed breach fires");
        assert!(
            first.at.get() <= fast_window,
            "partitions {partitions}: fired at {}, beyond one fast window ({fast_window})",
            first.at.get()
        );
        assert_eq!(
            Some(first.at),
            sequential_first,
            "partitions {partitions}: the breach is detected at the sequential run's tick"
        );
    }
}

/// A controller that, at the first tick where the board-0 replica is idle,
/// moves it cold to board 1.
struct MigrateWhenIdle {
    moved: bool,
}

impl ControlPlane for MigrateWhenIdle {
    fn control(&mut self, frame: &TelemetryFrame, _cluster: &NpuCluster) -> Vec<ControlAction> {
        let idle = frame
            .replicas
            .iter()
            .find(|sample| sample.handle.node == NodeId(0) && sample.outstanding() == 0);
        match idle {
            Some(mover) if !self.moved => {
                self.moved = true;
                vec![ControlAction::Migrate {
                    handle: mover.handle,
                    to: NodeId(1),
                    mode: MigrationMode::Cold,
                }]
            }
            _ => Vec::new(),
        }
    }
}

/// The boards each partition dispatched to.
#[derive(Default)]
struct DispatchBoards(Vec<NodeId>);

impl ObsSink for DispatchBoards {
    fn on_dispatch(&mut self, _: u64, _: u64, _: ModelId, node: NodeId, _: usize) {
        self.0.push(node);
    }
}

/// A controller move across the partition boundary at a tick travels as an
/// envelope: the controller's actions apply on the whole fleet, but the
/// source partition must export the replica rather than keep serving it on
/// a board it does not own.
#[test]
fn a_controller_move_across_partitions_leaves_the_source_partition() {
    let service = cluster::estimated_service_cycles(ModelId::Mnist, 2, 2, &config());
    let options = ServingOptions::new(DispatchPolicy::LeastLoaded).with_telemetry(service * 50);
    let trace = ClusterTrace::poisson(&[(ModelId::Mnist, service * 3)], 40, 9);
    let run = |threads: usize| {
        let mut fleet = NpuCluster::homogeneous(2, &config());
        for node in 0..2 {
            fleet
                .deploy_pinned(DeploySpec::replica(ModelId::Mnist, 2, 2), NodeId(node))
                .expect("capacity for the replica");
        }
        let mut sinks: Vec<DispatchBoards> = Vec::new();
        let report = ClusterServingSim::new(options.clone()).run_sharded_observed_with_controller(
            &mut fleet,
            &trace,
            ShardOptions::new(2).with_threads(threads),
            &mut MigrateWhenIdle { moved: false },
            &mut sinks,
        );
        (report, sinks)
    };
    let (report, sinks) = run(1);
    assert_eq!(report.control.migrations_requested, 1);
    assert_eq!(report.migrations.len(), 1, "{:?}", report.migrations);
    let moved = &report.migrations[0];
    assert_eq!((moved.from, moved.to), (NodeId(0), NodeId(1)));
    assert_eq!(report.stats.completed, 40, "no request is lost");
    assert_eq!(report, run(2).0, "threads 1 and 2");
    assert_eq!(sinks.len(), 2);
    assert!(
        sinks[0].0.iter().all(|&node| node == NodeId(0)),
        "partition 0 dispatched to a board it does not own: {:?}",
        sinks[0].0
    );
    assert!(
        !sinks[1].0.is_empty(),
        "partition 1 serves the moved replica"
    );
}
