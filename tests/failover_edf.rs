//! Failover re-dispatch and re-placement.
//!
//! When a board dies, its queued requests are orphaned and re-dispatched to
//! the surviving replicas. The default order is arrival (sequence) order —
//! stable, but deadline-blind: orphans with loose deadlines re-enqueue ahead
//! of orphans about to expire. [`ServingOptions::with_failover_edf`] switches
//! the re-dispatch sweep to earliest-deadline-first (priority, deadline,
//! sequence), so the requests that can still make their deadline go first.
//!
//! The regression scenario below constructs a board whose queue mixes loose
//! early-sequence requests with tight late-sequence ones, crashes it, and
//! checks that EDF ordering strictly cuts the orphan deadline misses. A
//! second scenario crashes a board of a full fleet, so failover has nowhere
//! to re-place the dead board's replicas, and checks that the observability
//! sinks count those rejected re-placements exactly as the report does.

use cluster::{
    AdmissionControl, ClusterServingSim, DeploySpec, DispatchPolicy, FaultKind, FaultSchedule,
    Metric, NodeId, NpuCluster, RecoveryPolicy, SeriesLabels, ServingOptions, ServingReport,
    TimeSeriesConfig, TimeSeriesRecorder, TraceConfig, TraceRecorder,
};
use npu_sim::{Cycles, NpuConfig};
use workloads::{ClusterTrace, ModelId, PriorityClass, RequestArrival};

fn run(edf: bool) -> ServingReport {
    let npu = NpuConfig::single_core();
    let service = cluster::estimated_service_cycles(ModelId::Mnist, 2, 2, &npu);
    // Two boards, one replica each. The dispatcher spreads the burst over
    // both queues; board 0's share is orphaned by the crash.
    let mut fleet = NpuCluster::homogeneous(2, &npu);
    for node in 0..2 {
        fleet
            .deploy_pinned(DeploySpec::replica(ModelId::Mnist, 2, 2), NodeId(node))
            .expect("capacity for the replica");
    }
    // A burst at cycle 0: the first half of the sequence numbers carries
    // loose deadlines, the second half tight ones. Sequence-order
    // re-dispatch therefore drains the loose half first and starves the
    // tight half; EDF re-dispatch does the opposite.
    let arrivals: Vec<RequestArrival> = (0..32)
        .map(|i| {
            let mut arrival = RequestArrival::new(Cycles(i), ModelId::Mnist);
            arrival.priority = PriorityClass::Interactive;
            arrival.deadline = Some(Cycles(if i < 16 { service * 600 } else { service * 28 }));
            arrival
        })
        .collect();
    let trace = ClusterTrace::from_arrivals(arrivals);
    let mut options = ServingOptions::new(DispatchPolicy::RoundRobin)
        .with_admission(AdmissionControl {
            max_queue_depth: 32,
        })
        .with_telemetry(service)
        .with_faults(
            FaultSchedule::new().with_fault(service * 2, FaultKind::BoardCrash { node: NodeId(0) }),
        )
        .with_recovery(RecoveryPolicy::new(1));
    if edf {
        options = options.with_failover_edf();
    }
    ClusterServingSim::new(options).run(&mut fleet, &trace)
}

#[test]
fn edf_failover_cuts_orphan_deadline_misses() {
    let sequence_order = run(false);
    let edf_order = run(true);

    // Both runs fail over the same orphan set.
    assert_eq!(sequence_order.availability.crashes, 1);
    assert_eq!(edf_order.availability.crashes, 1);
    assert!(
        sequence_order.availability.redispatched > 0,
        "the crash must orphan and re-dispatch queued requests"
    );
    assert_eq!(
        sequence_order.availability.redispatched, edf_order.availability.redispatched,
        "the ordering knob must not change how many orphans are re-dispatched"
    );

    // The regression claim: deadline-aware ordering strictly reduces misses.
    assert!(
        sequence_order.deadline.missed > 0,
        "sequence-order re-dispatch must miss deadlines in this scenario \
         (got {:?})",
        sequence_order.deadline
    );
    assert!(
        edf_order.deadline.missed < sequence_order.deadline.missed,
        "EDF re-dispatch must cut orphan deadline misses: edf {:?} vs \
         sequence {:?}",
        edf_order.deadline,
        sequence_order.deadline
    );
    // Ordering re-shuffles who waits, it does not shed work.
    assert_eq!(
        sequence_order.stats.completed + sequence_order.availability.lost as usize,
        edf_order.stats.completed + edf_order.availability.lost as usize,
        "EDF ordering must not change the amount of served work"
    );
}

/// The knob is off by default and changes nothing when no fault ever fires:
/// orphan ordering is dead code on a healthy fleet.
#[test]
fn edf_failover_is_inert_without_faults() {
    let npu = NpuConfig::single_core();
    let run = |edf: bool| {
        let mut fleet = NpuCluster::homogeneous(2, &npu);
        for node in 0..2 {
            fleet
                .deploy_pinned(DeploySpec::replica(ModelId::Mnist, 2, 2), NodeId(node))
                .expect("capacity for the replica");
        }
        let trace = ClusterTrace::poisson(&[(ModelId::Mnist, 2_000)], 64, 99);
        let mut options = ServingOptions::new(DispatchPolicy::LeastLoaded);
        if edf {
            options = options.with_failover_edf();
        }
        ClusterServingSim::new(options).run(&mut fleet, &trace)
    };
    assert_eq!(
        run(false),
        run(true),
        "without faults the re-dispatch order is never consulted"
    );
}

/// A crash on a fleet with no spare room: the dead board's replicas cannot be
/// re-placed, and every sink counts each rejected re-placement the report
/// counts.
#[test]
fn rejected_restores_reach_the_sinks() {
    let npu = NpuConfig::single_core();
    let service = cluster::estimated_service_cycles(ModelId::Mnist, 2, 2, &npu);
    let fleet = || {
        // Two 2ME/2VE replicas fill each 4ME/4VE board.
        let mut fleet = NpuCluster::homogeneous(2, &npu);
        for node in [0, 0, 1, 1] {
            fleet
                .deploy_pinned(DeploySpec::replica(ModelId::Mnist, 2, 2), NodeId(node))
                .expect("capacity for the replica");
        }
        fleet
    };
    let trace = ClusterTrace::poisson(&[(ModelId::Mnist, service)], 200, 5);
    let sim = ClusterServingSim::new(
        ServingOptions::new(DispatchPolicy::LeastLoaded)
            .with_telemetry(service)
            .with_faults(
                FaultSchedule::new()
                    .with_fault(service * 4, FaultKind::BoardCrash { node: NodeId(0) }),
            )
            .with_recovery(RecoveryPolicy::new(1)),
    );
    let mut recorder = TraceRecorder::new(TraceConfig::default());
    let report = sim.run_observed(&mut fleet(), &trace, &mut recorder);
    let rejected = report.availability.restore_rejected;
    assert!(rejected > 0, "the full fleet must reject the re-placement");
    assert_eq!(
        recorder.metrics().counter(Metric::RecoveryRestoreRejected),
        rejected,
        "the registry must count every rejected re-placement"
    );
    let mut series = TimeSeriesRecorder::new(TimeSeriesConfig::new(service));
    assert_eq!(sim.run_observed(&mut fleet(), &trace, &mut series), report);
    let windows = series.counter_windows(
        Metric::RecoveryRestoreRejected,
        SeriesLabels::none().with_node(NodeId(0)),
    );
    assert_eq!(
        windows.iter().map(|(_, count)| count).sum::<u64>(),
        rejected
    );
}
