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
//! those rejected re-placements exactly as the report does. The last two
//! scenarios reach every place a request expires or is lost, with and
//! without recovery, and check the sink, the per-model ledger and the
//! report against each other.

use cluster::{
    AdmissionControl, ClusterServingSim, DeploySpec, DispatchPolicy, FaultKind, FaultSchedule,
    Metric, NodeId, NpuCluster, RecoveryPolicy, SeriesLabels, ServingOptions, ServingReport,
    TimeSeriesConfig, TimeSeriesRecorder, TraceConfig, TraceRecorder,
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

/// Board 0 hosts the only `Ncf` replica beside a `Mnist` one; board 1 is
/// full of `Mnist`, so failover can re-place nothing. Requests of both
/// models, with alternating tight and loose deadlines, arrive across a crash
/// of board 0.
fn outcome_scenario(recovery: bool) -> (ServingReport, TraceRecorder) {
    let npu = NpuConfig::single_core();
    let service = cluster::estimated_service_cycles(ModelId::Mnist, 2, 2, &npu);
    let mut fleet = NpuCluster::homogeneous(2, &npu);
    for (model, node) in [
        (ModelId::Ncf, 0),
        (ModelId::Mnist, 0),
        (ModelId::Mnist, 1),
        (ModelId::Mnist, 1),
    ] {
        fleet
            .deploy_pinned(DeploySpec::replica(model, 2, 2), NodeId(node))
            .expect("capacity for the replica");
    }
    let arrivals: Vec<RequestArrival> = (0..48)
        .map(|i| {
            let model = if i % 3 == 0 {
                ModelId::Ncf
            } else {
                ModelId::Mnist
            };
            let mut arrival = RequestArrival::new(Cycles(i * service / 8), model);
            arrival.deadline = Some(Cycles(i * service / 8 + service * (2 + 40 * (i % 2))));
            arrival
        })
        .collect();
    let trace = ClusterTrace::from_arrivals(arrivals);
    let mut options = ServingOptions::new(DispatchPolicy::LeastLoaded)
        .with_drop_expired()
        .with_telemetry(service)
        .with_faults(
            FaultSchedule::new().with_fault(service * 2, FaultKind::BoardCrash { node: NodeId(0) }),
        );
    if recovery {
        options = options.with_recovery(RecoveryPolicy::new(2));
    }
    let mut recorder = TraceRecorder::new(TraceConfig::default());
    let report = ClusterServingSim::new(options).run_observed(&mut fleet, &trace, &mut recorder);
    (report, recorder)
}

/// Every request outcome reaches the sink and the per-model ledger exactly
/// as the report counts it, and every admitted request has one outcome.
fn assert_outcomes_agree(report: &ServingReport, recorder: &TraceRecorder) {
    let metrics = recorder.metrics();
    assert_eq!(
        metrics.counter(Metric::ServingCompleted),
        report.stats.completed as u64
    );
    assert_eq!(
        metrics.counter(Metric::ServingExpired),
        report.deadline.dropped as u64
    );
    assert_eq!(
        metrics.counter(Metric::RecoveryLostRequests),
        report.availability.lost
    );
    let ledger = report.availability.per_model.values();
    assert_eq!(
        ledger.clone().map(|model| model.lost).sum::<u64>(),
        report.availability.lost
    );
    assert_eq!(
        ledger.clone().map(|model| model.admitted).sum::<u64>(),
        report.stats.admitted as u64
    );
    assert_eq!(
        ledger.map(|model| model.completed).sum::<u64>(),
        report.stats.completed as u64
    );
    assert_eq!(
        report.stats.admitted,
        report.stats.completed + report.deadline.dropped + report.availability.lost as usize,
        "admitted = completed + dropped + lost"
    );
}

/// Failover expires the orphans past their deadline and loses the `Ncf`
/// ones, which no surviving replica serves; queued `Mnist` requests expire
/// at batch start on board 1.
#[test]
fn failover_outcomes_reach_the_sink_and_the_ledger() {
    let (report, recorder) = outcome_scenario(true);
    assert_outcomes_agree(&report, &recorder);
    let availability = &report.availability;
    assert_eq!(availability.failovers, 1);
    assert!(
        report.deadline.dropped as u64 > availability.expired_in_failover,
        "a queued request expires at batch start"
    );
    assert!(
        availability.expired_in_failover > 0,
        "an orphan expires in failover"
    );
    let lost_in_failover =
        availability.orphaned - availability.redispatched - availability.expired_in_failover;
    assert!(lost_in_failover > 0, "an orphan finds no replica");
}

/// Without recovery nothing fails over: the crashed board's requests are
/// marooned until the run ends, and the end-of-run sweep loses them.
#[test]
fn marooned_outcomes_reach_the_sink_and_the_ledger() {
    let (report, recorder) = outcome_scenario(false);
    assert_outcomes_agree(&report, &recorder);
    assert_eq!(report.availability.failovers, 0);
    assert_eq!(report.availability.orphaned, 0);
    assert!(
        report.availability.lost > 0,
        "the crashed board's requests are marooned"
    );
    assert!(
        report.deadline.dropped > 0,
        "a queued request expires at batch start"
    );
}
