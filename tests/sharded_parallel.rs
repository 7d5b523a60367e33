//! Parallel-equivalence properties of the sharded serving loop.
//!
//! The contract under test, from `cluster::sharded`:
//!
//! * `partitions = 1` is **bit-identical** to the sequential event loop —
//!   same `ServingReport`, field for field;
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
//!   also when control actions change the ownership plan at barriers.

use cluster::{
    AdmissionControl, ClusterServingSim, ControlAction, ControlPlane, DeploySpec, DispatchPolicy,
    FaultKind, FaultSchedule, Metric, MetricsRegistry, NodeId, NpuCluster, PlacementPolicy,
    RecoveryPolicy, ServingOptions, ServingReport, ShardOptions, StochasticService, TelemetryFrame,
    TraceConfig, TraceRecorder,
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

/// `partitions = 1` must delegate to the sequential loop: full report
/// equality, perf counters included, at any thread count.
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
/// crashes, failover and a cross-partition migration in flight.
#[test]
fn partitioning_conserves_requests() {
    let total_arrivals = wide_trace(4242, 240).arrivals().len();
    for partitions in [2, 4, 8] {
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
