//! Failover re-dispatch and re-placement.
//!
//! When a board dies, its queued requests are orphaned and re-dispatched to
//! the surviving replicas earliest-deadline-first (priority, deadline,
//! sequence), so the requests that can still make their deadline go first.
//! Arrival (sequence) order would be stable but deadline-blind: orphans with
//! loose deadlines would re-enqueue ahead of orphans about to expire.
//!
//! The regression scenario below constructs a board whose queue mixes loose
//! early-sequence requests with tight late-sequence ones, crashes it, and
//! checks that every orphan still makes its deadline. A second scenario
//! crashes a board of a full fleet, so failover has nowhere to re-place the
//! dead board's replicas, and checks that the observability sinks count
//! those rejected re-placements exactly as the report does.

use cluster::{
    AdmissionControl, ClusterServingSim, DeploySpec, DispatchPolicy, FaultKind, FaultSchedule,
    Metric, NodeId, NpuCluster, RecoveryPolicy, SeriesLabels, ServingOptions, TimeSeriesConfig,
    TimeSeriesRecorder, TraceConfig, TraceRecorder,
};
use neu10::DeadlineStats;
use npu_sim::{Cycles, NpuConfig};
use workloads::{ClusterTrace, ModelId, PriorityClass, RequestArrival};

#[test]
fn edf_failover_cuts_orphan_deadline_misses() {
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
    // re-dispatch would drain the loose half first and starve the tight
    // half (it missed 3 deadlines here); EDF re-dispatch does the opposite.
    let arrivals: Vec<RequestArrival> = (0..32)
        .map(|i| {
            let mut arrival = RequestArrival::new(Cycles(i), ModelId::Mnist);
            arrival.priority = PriorityClass::Interactive;
            arrival.deadline = Some(Cycles(if i < 16 { service * 600 } else { service * 28 }));
            arrival
        })
        .collect();
    let trace = ClusterTrace::from_arrivals(arrivals);
    let options = ServingOptions::new(DispatchPolicy::RoundRobin)
        .with_admission(AdmissionControl {
            max_queue_depth: 32,
        })
        .with_telemetry(service)
        .with_faults(
            FaultSchedule::new().with_fault(service * 2, FaultKind::BoardCrash { node: NodeId(0) }),
        )
        .with_recovery(RecoveryPolicy::new(1));
    let report = ClusterServingSim::new(options).run(&mut fleet, &trace);

    assert_eq!(report.availability.crashes, 1);
    assert_eq!(
        report.availability.redispatched, 14,
        "the crash must orphan and re-dispatch board 0's queue"
    );
    // The regression claim: deadline-aware ordering keeps every deadline.
    assert_eq!(
        report.deadline,
        DeadlineStats {
            with_deadline: 32,
            met: 32,
            missed: 0,
            dropped: 0,
        },
        "EDF re-dispatch must let every orphan make its deadline"
    );
    // Ordering re-shuffles who waits, it does not shed work.
    assert_eq!(report.stats.completed, 32);
    assert_eq!(report.availability.lost, 0);
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
