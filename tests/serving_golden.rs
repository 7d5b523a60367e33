//! Golden determinism tests for the serving hot path.
//!
//! These digests were locked against the pre-optimization event loop (the
//! per-arrival `Vec<ReplicaView>` rebuild with its nested `node_replicas`
//! recount). The indexed dispatch path, the memoized compilation cache and
//! the allocation-free inner loops must reproduce every report *bit for bit*:
//! any drift in dispatch order, batch formation, stochastic draws or control
//! actions changes a digest and fails the suite. Debug builds also check
//! every dispatch pick of these runs against a scan of the replica table.
//!
//! Set `NEU10_PRINT_GOLDEN=1` to print the digests the current build
//! produces (used once, to lock the constants below).

use autopilot::{Autopilot, AutoscalePolicy, ScalingSpec, TargetTracking};
use cluster::{
    estimated_batch_service_cycles, estimated_service_cycles, AdmissionControl, ClusterServingSim,
    DeploySpec, DispatchPolicy, FaultKind, FaultSchedule, MigrationMode, NodeId, NpuCluster,
    PlacementPolicy, RecoveryPolicy, ServingOptions, ServingReport, SloConfig, SloSpec,
    StochasticService, TimeSeriesConfig, TimeSeriesRecorder,
};
use npu_sim::{Cycles, NpuConfig};
use workloads::{ClusterTrace, DiurnalTrace, ModelId, PriorityClass, QosSpec};

/// FNV-1a over a canonical rendering of the report's observable fields.
///
/// Every field that the serving semantics produce is folded in — router
/// counters, the full latency summaries (global and per model), per-node
/// completions, deadline bookkeeping, batch count, the executed migration
/// records, control-plane stats, provisioned replica-time and the makespan.
/// Internal perf counters are deliberately excluded: they describe the
/// implementation, not the simulated fleet.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn fold(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn fold_latency(&mut self, latency: &neu10::LatencySummary) {
        self.fold(latency.count as u64);
        self.fold(latency.mean.to_bits());
        self.fold(latency.p50);
        self.fold(latency.p95);
        self.fold(latency.p99);
        self.fold(latency.max);
    }
}

fn digest(report: &ServingReport) -> u64 {
    let mut fnv = Fnv::new();
    fnv.fold_latency(&report.latency);
    for (model, latency) in &report.per_model {
        fnv.fold(*model as u64);
        fnv.fold_latency(latency);
    }
    fnv.fold(report.stats.offered as u64);
    fnv.fold(report.stats.admitted as u64);
    fnv.fold(report.stats.rejected_no_replica as u64);
    fnv.fold(report.stats.rejected_overload as u64);
    fnv.fold(report.stats.completed as u64);
    for (node, completed) in &report.per_node_completed {
        fnv.fold(node.0 as u64);
        fnv.fold(*completed as u64);
    }
    fnv.fold(report.deadline.with_deadline as u64);
    fnv.fold(report.deadline.met as u64);
    fnv.fold(report.deadline.missed as u64);
    fnv.fold(report.deadline.dropped as u64);
    fnv.fold(report.batches as u64);
    for migration in &report.migrations {
        fnv.fold(migration.from.0 as u64);
        fnv.fold(migration.to.0 as u64);
        fnv.fold(migration.state_bytes);
        fnv.fold(migration.drain_cycles);
        fnv.fold(migration.transfer_cycles);
        fnv.fold(migration.remap_cycles);
        // Pre-copy accounting is folded only for live migrations, so every
        // cold-path digest locked before live migration existed is preserved
        // bit-for-bit.
        if migration.mode != MigrationMode::Cold {
            fnv.fold(migration.precopy_rounds as u64);
            for bytes in &migration.round_bytes {
                fnv.fold(*bytes);
            }
            fnv.fold(migration.precopy_bytes);
            fnv.fold(migration.precopy_cycles);
            fnv.fold(migration.converged as u64);
        }
    }
    if report.migration_stats.precopy > 0 {
        let stats = &report.migration_stats;
        fnv.fold(stats.cold as u64);
        fnv.fold(stats.precopy as u64);
        fnv.fold(stats.precopy_fallbacks as u64);
        fnv.fold(stats.rounds);
        fnv.fold(stats.precopy_bytes);
        fnv.fold(stats.precopy_cycles);
        fnv.fold(stats.downtime_total);
        fnv.fold(stats.downtime_max);
    }
    // Availability accounting is folded only when the run injected faults,
    // so every digest locked before the chaos layer existed is preserved
    // bit-for-bit.
    if report.availability.injected() > 0 {
        let a = &report.availability;
        fnv.fold(a.crashes);
        fnv.fold(a.hangs);
        fnv.fold(a.link_degrades);
        fnv.fold(a.stragglers);
        fnv.fold(a.dropouts);
        fnv.fold(a.failovers);
        fnv.fold(a.replicas_failed);
        fnv.fold(a.replicas_restored);
        fnv.fold(a.restore_rejected);
        fnv.fold(a.orphaned);
        fnv.fold(a.redispatched);
        fnv.fold(a.expired_in_failover);
        fnv.fold(a.lost);
        fnv.fold(a.detect_cycles_total);
        fnv.fold(a.detect_cycles_max);
        fnv.fold(a.restore_cycles_total);
        fnv.fold(a.restore_cycles_max);
        for (model, per_model) in &a.per_model {
            fnv.fold(*model as u64);
            fnv.fold(per_model.admitted);
            fnv.fold(per_model.completed);
            fnv.fold(per_model.lost);
        }
    }
    fnv.fold(report.control.samples as u64);
    fnv.fold(report.control.scale_ups as u64);
    fnv.fold(report.control.scale_up_rejected as u64);
    fnv.fold(report.control.scale_downs as u64);
    fnv.fold(report.control.released as u64);
    fnv.fold(report.control.migrations_requested as u64);
    fnv.fold(report.control.migrations_rejected as u64);
    fnv.fold(report.replica_cycles);
    fnv.fold(report.makespan.get());
    fnv.0
}

const BOARDS: usize = 4;
const SEED: u64 = 4242;

fn config() -> NpuConfig {
    NpuConfig::single_core()
}

/// A mixed two-model fleet: four MNIST replicas and two NCF replicas spread
/// over four boards, exercising locality, batching and queue pressure.
fn mixed_fleet() -> NpuCluster {
    let mut fleet = NpuCluster::homogeneous(BOARDS, &config());
    for _ in 0..4 {
        fleet
            .deploy(
                DeploySpec::replica(ModelId::Mnist, 2, 2),
                PlacementPolicy::TopologyAware,
            )
            .expect("capacity for mnist replicas");
    }
    for _ in 0..2 {
        fleet
            .deploy(
                DeploySpec::replica(ModelId::Ncf, 1, 1),
                PlacementPolicy::WorstFit,
            )
            .expect("capacity for ncf replicas");
    }
    fleet
}

/// A deadline-carrying, overload-prone mixed trace. MNIST traffic alternates
/// between a tight interactive class and a loose batch class so EDF queue
/// ordering genuinely reorders backlogged queues (instead of degenerating to
/// FIFO under a uniform QoS).
fn mixed_trace() -> ClusterTrace {
    let service = estimated_service_cycles(ModelId::Mnist, 2, 2, &config());
    let base = ClusterTrace::poisson(
        &[(ModelId::Mnist, service / 7), (ModelId::Ncf, service)],
        160,
        SEED,
    );
    let arrivals = base
        .arrivals()
        .iter()
        .map(|arrival| {
            let mut arrival = *arrival;
            if arrival.model == ModelId::Mnist {
                let qos = if arrival.sequence % 2 == 0 {
                    QosSpec::new(Some(Cycles(service * 4)), PriorityClass::Interactive)
                } else {
                    QosSpec::new(Some(Cycles(service * 30)), PriorityClass::Batch)
                };
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

/// The policy scenario: batching with a formation window, drop-on-expiry,
/// tight admission, seeded stochastic service and one scheduled migration.
fn run_policy(policy: DispatchPolicy) -> ServingReport {
    let service = estimated_service_cycles(ModelId::Mnist, 2, 2, &config());
    let mut fleet = mixed_fleet();
    let handle = *fleet.deployments().next().expect("fleet has deployments");
    let spare = (0..BOARDS as u32)
        .map(cluster::NodeId)
        .find(|node| fleet.node(*node).map(|n| n.manager().vnpu_count()) == Some(0))
        .unwrap_or(cluster::NodeId(BOARDS as u32 - 1));
    let options = ServingOptions::new(policy)
        .with_admission(AdmissionControl {
            max_queue_depth: 12,
        })
        .with_batching(4)
        .with_batch_wait(service / 2)
        .with_drop_expired()
        .with_stochastic(StochasticService::seeded(SEED).with_cv(0.25))
        .with_migration(Cycles(service * 3), handle.handle, spare);
    ClusterServingSim::new(options).run(&mut fleet, &mixed_trace())
}

/// The fig30-style closed-loop scenario: a diurnal day served by the
/// target-tracking autoscaler growing and shrinking the fleet.
fn run_autopilot() -> ServingReport {
    let (options, mut fleet, trace, mut pilot) = autopilot_scenario();
    ClusterServingSim::new(options).run_with_controller(&mut fleet, &trace, &mut pilot)
}

/// The autopilot scenario's options, starting fleet, trace and controller.
fn autopilot_scenario() -> (ServingOptions, NpuCluster, ClusterTrace, Autopilot) {
    let npu = config();
    let service = estimated_service_cycles(ModelId::Mnist, 2, 2, &npu);
    let effective = estimated_batch_service_cycles(ModelId::Mnist, 4, 2, 2, &npu) as f64 / 4.0;
    let horizon = service * 400;
    let interval = horizon / 80;
    let spec = DeploySpec::replica(ModelId::Mnist, 2, 2).with_memory(32 << 20, 1 << 30);
    let mut fleet = NpuCluster::homogeneous(BOARDS, &npu);
    for _ in 0..2 {
        fleet
            .deploy(spec, PlacementPolicy::TopologyAware)
            .expect("capacity for the starting fleet");
    }
    let peak_mean = (effective / (6.0 * 0.7)).max(1.0) as u64;
    let trace = DiurnalTrace::new(vec![(ModelId::Mnist, peak_mean)], horizon)
        .with_trough_to_peak(0.2)
        .generate(SEED)
        .with_model_qos(
            ModelId::Mnist,
            QosSpec::new(Some(Cycles(service * 10)), PriorityClass::Interactive),
        );
    let pilot = Autopilot::new().with_model(ScalingSpec::new(
        spec,
        2,
        8,
        AutoscalePolicy::TargetTracking(
            TargetTracking::new(4.0, interval * 2).with_max_miss_rate(0.025),
        ),
    ));
    let options = ServingOptions::new(DispatchPolicy::LeastLoaded)
        .with_batching(4)
        .with_telemetry(interval);
    (options, fleet, trace, pilot)
}

/// A controller wrapper that folds what controllers read of every telemetry
/// frame into an FNV digest: the tick time, each replica sample, and for
/// each model of the replica samples and of the deadline tallies, in id
/// order, its live-replica count, queue and in-flight sums and window
/// deadline tally.
struct FrameRecorder<C> {
    inner: C,
    fnv: Fnv,
    frames: usize,
    /// The window deadline tallies summed over every frame.
    deadline: neu10::DeadlineStats,
}

impl<C: cluster::ControlPlane> cluster::ControlPlane for FrameRecorder<C> {
    fn control(
        &mut self,
        frame: &cluster::TelemetryFrame,
        fleet: &NpuCluster,
    ) -> Vec<cluster::ControlAction> {
        self.frames += 1;
        self.fnv.fold(frame.at.get());
        for replica in &frame.replicas {
            self.fnv.fold(u64::from(replica.handle.node.0));
            self.fnv.fold(u64::from(replica.handle.vnpu.0));
            self.fnv.fold(replica.model as u64);
            self.fnv.fold(replica.queue_len as u64);
            self.fnv.fold(replica.in_flight as u64);
            self.fnv.fold(u64::from(replica.draining));
        }
        let mut models: std::collections::BTreeSet<ModelId> =
            frame.replicas.iter().map(|r| r.model).collect();
        models.extend(frame.deadlines.keys().copied());
        for model in models {
            let of_model = || frame.replicas.iter().filter(|r| r.model == model);
            let deadline = frame.deadline(model);
            for word in [
                model as usize,
                of_model().filter(|r| !r.draining).count(),
                of_model().map(|r| r.queue_len).sum(),
                of_model().map(|r| r.in_flight).sum(),
                deadline.with_deadline,
                deadline.met,
                deadline.missed,
                deadline.dropped,
            ] {
                self.fnv.fold(word as u64);
            }
            self.deadline.merge(&deadline);
        }
        self.inner.control(frame, fleet)
    }

    fn on_alert(&mut self, now: Cycles, alert: &cluster::AlertTransition) {
        self.inner.on_alert(now, alert);
    }
}

/// The autopilot scenario with its controller behind a [`FrameRecorder`],
/// sequential (`partitions = 1`) or over board-group partitions.
fn run_autopilot_recorded(partitions: usize) -> (ServingReport, FrameRecorder<Autopilot>) {
    let (options, mut fleet, trace, pilot) = autopilot_scenario();
    let mut recorder = FrameRecorder {
        inner: pilot,
        fnv: Fnv::new(),
        frames: 0,
        deadline: neu10::DeadlineStats::default(),
    };
    let sim = ClusterServingSim::new(options);
    let report = if partitions == 1 {
        sim.run_with_controller(&mut fleet, &trace, &mut recorder)
    } else {
        let shard = cluster::ShardOptions::new(partitions);
        sim.run_sharded_with_controller(&mut fleet, &trace, shard, &mut recorder)
    };
    (report, recorder)
}

/// The live-migration scenario: the policy scenario's fleet and trace, but
/// the MNIST replica moves by pre-copy (serving through the copy rounds) and
/// an NCF replica moves cold — one digest covering both modes, the per-round
/// accounting and the `MigrationStats` aggregates.
fn run_precopy() -> ServingReport {
    run_precopy_with_sink(&mut cluster::NoopSink)
}

/// [`run_precopy`] with an attached [`cluster::ObsSink`] — the same scenario
/// the observability goldens record, so non-perturbation is checked on a
/// digest-locked run.
fn run_precopy_with_sink(sink: &mut dyn cluster::ObsSink) -> ServingReport {
    let service = estimated_service_cycles(ModelId::Mnist, 2, 2, &config());
    let mut fleet = mixed_fleet();
    let mnist = *fleet.deployments().next().expect("fleet has deployments");
    let ncf = *fleet
        .deployments()
        .find(|d| d.model == ModelId::Ncf)
        .expect("fleet has an ncf replica");
    // The fleet is fully packed, so the moves are chained: the NCF replica
    // cold-migrates to the other NCF board early, and the MNIST pre-copy —
    // whose full-state round takes far longer than that — switches over into
    // the hole the NCF left behind.
    let ncf_dest = fleet
        .deployments()
        .filter(|d| d.model == ModelId::Ncf)
        .map(|d| d.handle.node)
        .find(|node| *node != ncf.handle.node)
        .expect("two ncf replicas on distinct boards");
    let options = ServingOptions::new(DispatchPolicy::LeastLoaded)
        .with_admission(AdmissionControl {
            max_queue_depth: 12,
        })
        .with_batching(4)
        .with_batch_wait(service / 2)
        .with_stochastic(StochasticService::seeded(SEED).with_cv(0.25))
        .with_live_migration(Cycles(service * 3), mnist.handle, ncf.handle.node)
        .with_migration(Cycles(service * 5), ncf.handle, ncf_dest);
    ClusterServingSim::new(options).run_observed(&mut fleet, &mixed_trace(), sink)
}

/// The chaos scenario: the mixed fleet and trace under a five-kind fault
/// schedule — a straggler, a degraded link, a telemetry dropout, a board
/// crash and a transient hang — with telemetry-driven failover and the SLO
/// engine attached. One digest locks fault injection order, detection
/// timing, failover re-placement, orphan re-dispatch and the
/// `AvailabilityStats` accounting all at once.
fn run_chaos() -> ServingReport {
    let service = estimated_service_cycles(ModelId::Mnist, 2, 2, &config());
    let mut fleet = mixed_fleet();
    let slo = SloConfig::new(service * 4)
        .with_spec(SloSpec::new(ModelId::Mnist, Cycles(service * 8), 0.95))
        .with_default_policies()
        .with_resolve_requires_evidence();
    // The dropout (2 missed frames) stays below the 3-frame declaration
    // threshold, as does the hang — only the crash triggers a failover.
    let faults = FaultSchedule::new()
        .with_fault(
            service * 4,
            FaultKind::Straggler {
                node: NodeId(1),
                factor: 3.0,
                for_cycles: service * 10,
            },
        )
        .with_fault(
            service * 6,
            FaultKind::LinkDegrade {
                a: NodeId(0),
                b: NodeId(2),
                factor: 6.0,
                for_cycles: service * 12,
            },
        )
        .with_fault(
            service * 8,
            FaultKind::TelemetryDropout {
                node: NodeId(2),
                for_cycles: service * 4,
            },
        )
        .with_fault(service * 10, FaultKind::BoardCrash { node: NodeId(0) })
        .with_fault(
            service * 14,
            FaultKind::BoardHang {
                node: NodeId(3),
                for_cycles: service * 3,
            },
        );
    let options = ServingOptions::new(DispatchPolicy::LeastLoaded)
        .with_admission(AdmissionControl {
            max_queue_depth: 12,
        })
        .with_batching(4)
        .with_batch_wait(service / 2)
        .with_drop_expired()
        .with_stochastic(StochasticService::seeded(SEED).with_cv(0.25))
        .with_telemetry(service * 2)
        .with_slo(slo)
        .with_faults(faults)
        .with_recovery(RecoveryPolicy::new(3));
    ClusterServingSim::new(options).run(&mut fleet, &mixed_trace())
}

/// The sharded scenario: the mixed fleet split in two board-group
/// partitions, with a scheduled migration forced across the partition
/// boundary, a board crash with telemetry-driven failover, and barrier
/// control ticks — every cross-partition mechanism in one digest. The
/// digest must be identical at every thread count.
fn run_fleet_parallel(threads: usize) -> ServingReport {
    let service = estimated_service_cycles(ModelId::Mnist, 2, 2, &config());
    let mut fleet = mixed_fleet();
    let handle = *fleet.deployments().next().expect("fleet has deployments");
    // Partitions are contiguous board-groups: {0,1} and {2,3}. Send the
    // replica to the far group so the move travels as an envelope.
    let across = if handle.handle.node.0 < 2 {
        cluster::NodeId(3)
    } else {
        cluster::NodeId(0)
    };
    let options = ServingOptions::new(DispatchPolicy::LeastLoaded)
        .with_admission(AdmissionControl {
            max_queue_depth: 12,
        })
        .with_batching(4)
        .with_batch_wait(service / 2)
        .with_drop_expired()
        .with_stochastic(StochasticService::seeded(SEED).with_cv(0.25))
        .with_telemetry(service * 2)
        .with_migration(Cycles(service * 3), handle.handle, across)
        .with_faults(
            FaultSchedule::new().with_fault(service * 8, FaultKind::BoardCrash { node: NodeId(1) }),
        )
        .with_recovery(RecoveryPolicy::new(3));
    ClusterServingSim::new(options).run_sharded(
        &mut fleet,
        &mixed_trace(),
        cluster::ShardOptions::new(2).with_threads(threads),
    )
}

/// Digests locked on the pre-optimization event loop. The refactored path
/// must reproduce every one bit-for-bit.
///
/// Every scenario with stochastic service was re-locked once, when service
/// draws moved from Box–Muller on one event-ordered stream to per-replica
/// counter streams and the one-uniform lognormal table
/// (`tests/service_dispersion.rs` checks that the reports still agree in
/// distribution). `autopilot-diurnal` serves deterministically, and the
/// guaranteed-breach `slo-alertlog` fires and resolves at the same ticks
/// under either sampler: both held.
const GOLDEN: &[(&str, u64)] = &[
    ("round-robin", 0x2f783cc812fa0aff),
    ("least-loaded", 0x5c2ef7a71dbbbe69),
    ("locality", 0xa89190132d5791e0),
    ("edf", 0x1c7028365e84850d),
    ("autopilot-diurnal", 0x3985752d05691200),
    // Locked when live pre-copy migration landed (covers both modes plus the
    // per-round and MigrationStats folds).
    ("precopy-mixed", 0x1a1a3e0b48baf9bb),
    // FNV-1a over the exported Chrome trace JSON of the observed pre-copy
    // scenario — locks the span taxonomy, event ordering, flow/counter
    // emission and the exporter's byte-level formatting all at once.
    ("obs-trace-precopy", 0x1227b31c7c3bc0b7),
    // FNV-1a over the rendered AlertLog and the OpenMetrics exposition of
    // the guaranteed-breach SLO scenario — locks the burn-rate engine's
    // fire/resolve edges and the exporter's byte-level formatting.
    ("slo-alertlog", 0x619438f882201da9),
    ("slo-openmetrics", 0x557a4836a42b1772),
    // Locked when the chaos layer landed: the five-kind fault schedule with
    // failover, folding the AvailabilityStats block into the digest.
    ("chaos-failover", 0x3f9dbf83f28d2802),
    // Locked when the sharded parallel event loop landed: two board-group
    // partitions with a cross-partition migration envelope, a crash with
    // failover, and barrier telemetry ticks. The digest is the contract
    // that the thread count never changes the merged report.
    ("fleet-parallel", 0x9e8c49af7c6f53f2),
    // FNV-1a over the registry's OpenMetrics exposition of the every-hook
    // scenario — counters, gauges and summaries of every subsystem — locked
    // before both exporters shared one family/sample writer.
    ("obs-registry-openmetrics", 0x06bd826ed1aea550),
    // FNV-1a over what controllers read of each of the autopilot scenario's
    // 81 control frames, sequential and over two partitions — locked before
    // the frame lost the fields no controller read.
    ("autopilot-frames", 0x95853b27acd5f63c),
    ("autopilot-frames-p2", 0x511867d3c28c81d9),
];

fn expected(name: &str) -> u64 {
    GOLDEN
        .iter()
        .find(|(label, _)| *label == name)
        .map(|(_, digest)| *digest)
        .expect("scenario is locked")
}

fn check(name: &str, report: &ServingReport) {
    let got = digest(report);
    if std::env::var("NEU10_PRINT_GOLDEN").is_ok() {
        println!("GOLDEN (\"{name}\", 0x{got:016x}),");
        return;
    }
    assert_eq!(
        got,
        expected(name),
        "{name}: serving digest drifted from the pre-refactor golden value \
         (got 0x{got:016x})"
    );
}

/// `report.perf` — (events, arrivals, peak replicas) — of every golden
/// scenario that yields a report. The digests above leave these counters out
/// on purpose, so an event the loop gains or loses, or a replica it counts
/// twice, shows up only here. Kept apart from [`GOLDEN`] so that locking
/// them moved no digest.
const GOLDEN_PERF: &[(&str, u64, u64, usize)] = &[
    ("round-robin", 96, 320, 6),
    ("least-loaded", 92, 320, 6),
    ("locality", 72, 320, 6),
    ("edf", 92, 320, 6),
    ("autopilot-diurnal", 1739, 3264, 8),
    ("precopy-mixed", 91, 320, 6),
    ("slo-alertlog", 2176, 320, 6),
    ("chaos-failover", 206243, 320, 6),
    // Each telemetry tick counts as one processed event at every partition
    // count.
    ("fleet-parallel", 22978, 320, 7),
];

fn check_perf(name: &str, report: &ServingReport) {
    let got = (
        report.perf.events,
        report.perf.arrivals,
        report.perf.peak_replicas,
    );
    if std::env::var("NEU10_PRINT_GOLDEN").is_ok() {
        println!("PERF (\"{name}\", {}, {}, {}),", got.0, got.1, got.2);
        return;
    }
    let expected = GOLDEN_PERF
        .iter()
        .find(|(label, ..)| *label == name)
        .map(|&(_, events, arrivals, peak)| (events, arrivals, peak))
        .expect("scenario's perf counters are locked");
    assert_eq!(
        got, expected,
        "{name}: (events, arrivals, peak_replicas) drifted from the golden counters"
    );
}

#[test]
fn golden_scenarios_keep_their_perf_counters() {
    let service = estimated_service_cycles(ModelId::Mnist, 2, 2, &config());
    for policy in DispatchPolicy::all() {
        check_perf(policy.label(), &run_policy(policy));
    }
    check_perf("autopilot-diurnal", &run_autopilot());
    check_perf("precopy-mixed", &run_precopy());
    check_perf(
        "slo-alertlog",
        &run_slo_with(Cycles(service / 2), &mut cluster::NoopSink),
    );
    check_perf("chaos-failover", &run_chaos());
    check_perf("fleet-parallel", &run_fleet_parallel(1));
}

#[test]
fn policy_reports_match_pre_refactor_golden_digests() {
    for policy in DispatchPolicy::all() {
        let report = run_policy(policy);
        // Sanity: the scenario genuinely exercises the serving machinery.
        assert!(report.stats.completed > 0, "{}", policy.label());
        assert!(report.batches > 0, "{}", policy.label());
        assert_eq!(report.migrations.len(), 1, "{}", policy.label());
        check(policy.label(), &report);
    }
}

#[test]
fn policy_reports_are_seed_reproducible() {
    for policy in DispatchPolicy::all() {
        let first = run_policy(policy);
        let second = run_policy(policy);
        assert_eq!(
            first,
            second,
            "{}: same seed must reproduce an identical report",
            policy.label()
        );
    }
}

#[test]
fn precopy_scenario_matches_golden_digest() {
    let report = run_precopy();
    // Sanity: the scenario genuinely exercises both migration modes.
    assert!(report.stats.completed > 0);
    assert_eq!(report.migration_stats.precopy, 1, "the live migration ran");
    assert_eq!(report.migration_stats.cold, 1, "the cold migration ran");
    let live = report
        .migrations
        .iter()
        .find(|m| m.mode == MigrationMode::PreCopy)
        .expect("a pre-copy record");
    assert!(live.precopy_rounds >= 1);
    assert_eq!(live.round_bytes.len(), live.precopy_rounds as usize);
    check("precopy-mixed", &report);
}

#[test]
fn precopy_scenario_is_seed_reproducible() {
    let first = run_precopy();
    let second = run_precopy();
    assert_eq!(
        first, second,
        "the same seed must reproduce the identical pre-copy report, MigrationStats included"
    );
    assert_eq!(first.migration_stats, second.migration_stats);
}

#[test]
fn autopilot_scenario_matches_pre_refactor_golden_digest() {
    let report = run_autopilot();
    assert!(
        report.control.scale_ups > 0,
        "the ramp must trigger scale-ups"
    );
    assert!(report.control.samples > 0);
    check("autopilot-diurnal", &report);
}

#[test]
fn autopilot_scenario_is_seed_reproducible() {
    let first = run_autopilot();
    let second = run_autopilot();
    assert_eq!(
        first, second,
        "the same seed must reproduce the identical autopilot report"
    );
}

/// Every control frame of the autopilot scenario, sequential and over two
/// partitions, matches its golden digest, and the window deadline tallies
/// account for part of the run's deadline outcomes (the final partial
/// window is never sampled).
#[test]
fn autopilot_control_frames_match_golden_sequential_and_sharded() {
    for (name, partitions) in [("autopilot-frames", 1), ("autopilot-frames-p2", 2)] {
        let (report, recorder) = run_autopilot_recorded(partitions);
        assert_eq!(recorder.frames, report.control.samples, "{name}");
        let (windows, run) = (recorder.deadline, report.deadline);
        assert!(
            windows.with_deadline > 0,
            "{name}: no window deadline tally"
        );
        assert!(windows.with_deadline <= run.with_deadline, "{name}");
        assert!(windows.met <= run.met, "{name}");
        assert!(windows.missed <= run.missed, "{name}");
        assert!(windows.dropped <= run.dropped, "{name}");
        let mut fnv = recorder.fnv;
        fnv.fold(recorder.frames as u64);
        let got = fnv.0;
        if std::env::var("NEU10_PRINT_GOLDEN").is_ok() {
            println!(
                "GOLDEN (\"{name}\", 0x{got:016x}), frames {}",
                recorder.frames
            );
            continue;
        }
        assert_eq!(
            got,
            expected(name),
            "{name}: the control frames drifted from their golden digest (got 0x{got:016x})"
        );
    }
}

/// FNV-1a over the exported trace JSON bytes.
fn trace_digest(json: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in json.bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The exported trace of the digest-locked pre-copy scenario must be
/// byte-identical across reruns and match its own golden digest — and
/// recording it must not perturb the simulation the report goldens lock.
#[test]
fn observed_precopy_trace_is_byte_deterministic_and_matches_golden() {
    let mut recorder = cluster::TraceRecorder::new(cluster::TraceConfig::default());
    let report = run_precopy_with_sink(&mut recorder);
    assert_eq!(
        report,
        run_precopy(),
        "attaching a TraceRecorder must not change the simulation"
    );

    let json = recorder.export_chrome_trace();
    let validation = cluster::validate_chrome_trace(&json).expect("the exported trace parses");
    validation
        .require_complete_spans(&["arrival", "queue", "serve", "copy-round", "stop-and-copy"])
        .expect("the mixed serving+migration scenario produces every span kind");
    assert!(
        validation.flow_events > 0,
        "request flow chains are present"
    );

    let mut rerun = cluster::TraceRecorder::new(cluster::TraceConfig::default());
    run_precopy_with_sink(&mut rerun);
    assert_eq!(
        json,
        rerun.export_chrome_trace(),
        "the same seed and config must export byte-identical JSON"
    );

    let got = trace_digest(&json);
    if std::env::var("NEU10_PRINT_GOLDEN").is_ok() {
        println!("GOLDEN (\"obs-trace-precopy\", 0x{got:016x}),");
        return;
    }
    assert_eq!(
        got,
        expected("obs-trace-precopy"),
        "the exported trace drifted from its golden digest (got 0x{got:016x})"
    );
}

/// The SLO scenario: the mixed fleet and trace with the burn-rate engine
/// attached. The latency target parameterizes the outcome — a target below
/// the bare service time makes every completion a breach (the engine *must*
/// fire), a huge target makes every completion healthy (it must stay silent).
fn run_slo_with(target: Cycles, sink: &mut dyn cluster::ObsSink) -> ServingReport {
    let service = estimated_service_cycles(ModelId::Mnist, 2, 2, &config());
    let slo = SloConfig::new(service * 4)
        .with_spec(SloSpec::new(ModelId::Mnist, target, 0.95))
        .with_default_policies();
    let mut fleet = mixed_fleet();
    let options = ServingOptions::new(DispatchPolicy::LeastLoaded)
        .with_batching(4)
        .with_batch_wait(service / 2)
        .with_stochastic(StochasticService::seeded(SEED).with_cv(0.25))
        .with_slo(slo);
    ClusterServingSim::new(options).run_observed(&mut fleet, &mixed_trace(), sink)
}

/// A guaranteed breach must fire within one fast window of the first
/// completion, and both deterministic artifacts — the rendered [`AlertLog`]
/// and the OpenMetrics exposition — must match their golden digests.
///
/// [`AlertLog`]: cluster::AlertLog
#[test]
fn slo_guaranteed_breach_fires_within_one_fast_window_and_matches_goldens() {
    let service = estimated_service_cycles(ModelId::Mnist, 2, 2, &config());
    let mut recorder = TimeSeriesRecorder::new(TimeSeriesConfig::new(service * 4));
    let report = run_slo_with(Cycles(service / 2), &mut recorder);
    assert!(report.stats.completed > 0);
    assert!(
        report.alerts.fired() > 0,
        "a sub-service latency target must fire"
    );
    let fast_window = service * 4 * 4; // page policy: 4 ticks of 4x service
    let first = report
        .alerts
        .first_fire_after(Cycles(0))
        .expect("a fire edge exists");
    assert!(
        first.at.get() <= fast_window,
        "the guaranteed breach must be detected within one fast window \
         (fired at {}, window {fast_window})",
        first.at.get()
    );

    let rendered = report.alerts.render_text();
    let exposition = cluster::export_timeseries_openmetrics(&recorder);
    cluster::validate_openmetrics(&exposition)
        .expect("the exposition must pass the strict validator");

    let alert_digest = trace_digest(&rendered);
    let metrics_digest = trace_digest(&exposition);
    if std::env::var("NEU10_PRINT_GOLDEN").is_ok() {
        println!("GOLDEN (\"slo-alertlog\", 0x{alert_digest:016x}),");
        println!("GOLDEN (\"slo-openmetrics\", 0x{metrics_digest:016x}),");
        return;
    }
    assert_eq!(
        alert_digest,
        expected("slo-alertlog"),
        "the rendered alert log drifted from its golden digest (got 0x{alert_digest:016x})"
    );
    assert_eq!(
        metrics_digest,
        expected("slo-openmetrics"),
        "the OpenMetrics exposition drifted from its golden digest (got 0x{metrics_digest:016x})"
    );
}

#[test]
fn fleet_parallel_scenario_matches_golden_at_every_thread_count() {
    let single = run_fleet_parallel(1);
    // Sanity: the partitioned run genuinely serves and fails over.
    assert!(single.stats.completed > 0);
    assert!(single.batches > 0);
    assert_eq!(single.availability.crashes, 1);
    check("fleet-parallel", &single);
    for threads in [2, 4] {
        let parallel = run_fleet_parallel(threads);
        assert_eq!(
            single, parallel,
            "threads {threads}: the thread count must never change the merged report"
        );
    }
}

#[test]
fn chaos_scenario_matches_golden_digest() {
    let report = run_chaos();
    // Sanity: the schedule genuinely exercises the chaos machinery.
    assert_eq!(report.availability.injected(), 5);
    assert_eq!(report.availability.crashes, 1);
    assert_eq!(report.availability.hangs, 1);
    assert!(
        report.availability.failovers >= 1,
        "the crash must be detected and failed over"
    );
    assert!(report.availability.mean_detect_cycles() > 0.0);
    // Conservation: no admitted request vanishes silently.
    assert_eq!(
        report.stats.admitted,
        report.stats.completed + report.deadline.dropped + report.availability.lost as usize,
        "admitted = completed + dropped + lost"
    );
    check("chaos-failover", &report);
}

#[test]
fn chaos_scenario_is_seed_reproducible() {
    let first = run_chaos();
    let second = run_chaos();
    assert_eq!(
        first, second,
        "the same fault schedule must reproduce the identical report, AvailabilityStats included"
    );
    assert_eq!(first.availability, second.availability);
}

/// Telemetry dropout must not fake recovery: when a crash silences the only
/// replica's completions mid-breach, an evidence-gated SLO engine holds the
/// page open instead of resolving on an empty window — and the unguarded
/// engine demonstrably would have resolved, which is exactly the flap the
/// `resolve_requires_evidence` knob exists to prevent.
#[test]
fn slo_page_does_not_false_resolve_when_telemetry_goes_dark() {
    let service = estimated_service_cycles(ModelId::Mnist, 2, 2, &config());
    let run = |evidence_gated: bool| {
        let mut slo = SloConfig::new(service * 4)
            .with_spec(SloSpec::new(ModelId::Mnist, Cycles(service / 2), 0.95))
            .with_default_policies();
        if evidence_gated {
            slo = slo.with_resolve_requires_evidence();
        }
        // A lone replica under a guaranteed breach; its board dies mid-run
        // with no recovery configured, so completions stop entirely and
        // every subsequent burn window is empty.
        let mut fleet = NpuCluster::homogeneous(1, &config());
        fleet
            .deploy(
                DeploySpec::replica(ModelId::Mnist, 2, 2),
                PlacementPolicy::BestFit,
            )
            .expect("capacity for the replica");
        let trace = ClusterTrace::from_arrivals(
            (0..60)
                .map(|i| workloads::RequestArrival::new(Cycles(i * service), ModelId::Mnist))
                .collect(),
        );
        let faults = FaultSchedule::new()
            .with_fault(service * 20, FaultKind::BoardCrash { node: NodeId(0) });
        let options = ServingOptions::new(DispatchPolicy::LeastLoaded)
            .with_stochastic(StochasticService::seeded(SEED).with_cv(0.25))
            .with_slo(slo)
            .with_faults(faults);
        ClusterServingSim::new(options).run(&mut fleet, &trace)
    };
    let gated = run(true);
    assert!(gated.alerts.fired() > 0, "the breach must page");
    assert_eq!(
        gated.alerts.resolved(),
        0,
        "empty burn windows after the crash are absence of evidence, not recovery: {:?}",
        gated.alerts.transitions()
    );
    let unguarded = run(false);
    assert!(
        unguarded.alerts.resolved() > 0,
        "without the evidence gate the empty window resolves the page — the flap the gate prevents"
    );
}

/// An always-healthy run — a latency target no completion can miss — must
/// fire nothing at all.
#[test]
fn slo_healthy_run_fires_nothing() {
    let service = estimated_service_cycles(ModelId::Mnist, 2, 2, &config());
    let report = run_slo_with(Cycles(service * 1000), &mut cluster::NoopSink);
    assert!(report.stats.completed > 0);
    assert!(
        report.alerts.is_empty(),
        "a healthy fleet must produce no alert edges, got {:?}",
        report.alerts.transitions()
    );
}

/// The same seed must reproduce the report, the alert transcript and the
/// OpenMetrics exposition byte for byte.
#[test]
fn slo_run_is_byte_reproducible() {
    let service = estimated_service_cycles(ModelId::Mnist, 2, 2, &config());
    let run = || {
        let mut recorder = TimeSeriesRecorder::new(TimeSeriesConfig::new(service * 4));
        let report = run_slo_with(Cycles(service / 2), &mut recorder);
        (report, recorder)
    };
    let (first, first_recorder) = run();
    let (second, second_recorder) = run();
    assert_eq!(first, second, "same seed must reproduce the report");
    assert_eq!(
        first.alerts.render_text(),
        second.alerts.render_text(),
        "same seed must reproduce the alert transcript byte for byte"
    );
    assert_eq!(
        cluster::export_timeseries_openmetrics(&first_recorder),
        cluster::export_timeseries_openmetrics(&second_recorder),
        "same seed must reproduce the OpenMetrics exposition byte for byte"
    );
}

/// Records the order in which queued requests enter service.
#[derive(Default)]
struct ServiceOrder(Vec<u64>);

impl cluster::ObsSink for ServiceOrder {
    fn active(&self) -> bool {
        true
    }

    fn on_service_request(
        &mut self,
        _start: u64,
        sequence: u64,
        _model: ModelId,
        _arrived: u64,
        _node: cluster::NodeId,
        _slot: usize,
    ) {
        self.0.push(sequence);
    }
}

/// EDF queue ordering on ties: a burst of same-deadline, same-priority
/// requests must enter service in strict sequence order — the binary-heap
/// replacement of the linear sorted insert keeps the (priority, deadline,
/// sequence) total order, so ties break deterministically by sequence.
#[test]
fn edf_queue_breaks_deadline_ties_by_sequence_number() {
    let npu = config();
    let service = estimated_service_cycles(ModelId::Mnist, 2, 2, &npu);
    // One replica, one burst: every request arrives at cycle 0 with the
    // identical deadline and priority, so EDF ordering is ties all the way.
    let arrivals = (0..24)
        .map(|_| {
            let mut arrival = workloads::RequestArrival::new(Cycles(0), ModelId::Mnist);
            arrival.deadline = Some(Cycles(service * 64));
            arrival.priority = PriorityClass::Interactive;
            arrival
        })
        .collect();
    let trace = ClusterTrace::from_arrivals(arrivals);
    let run = || {
        let mut fleet = NpuCluster::homogeneous(1, &npu);
        fleet
            .deploy(
                DeploySpec::replica(ModelId::Mnist, 2, 2),
                PlacementPolicy::BestFit,
            )
            .expect("capacity for the replica");
        let mut order = ServiceOrder::default();
        let options = ServingOptions::new(DispatchPolicy::EarliestDeadline).with_batching(2);
        let report = ClusterServingSim::new(options).run_observed(&mut fleet, &trace, &mut order);
        assert_eq!(report.stats.completed, 24);
        order.0
    };
    let order = run();
    assert_eq!(order.len(), 24);
    let mut sorted = order.clone();
    sorted.sort_unstable();
    assert_eq!(
        order, sorted,
        "tied EDF entries must enter service in ascending sequence order"
    );
    assert_eq!(
        order,
        run(),
        "tie-breaking must be deterministic across runs"
    );
}

/// Applies one scripted control action at the first telemetry tick.
struct OneAction(Option<cluster::ControlAction>);

impl cluster::ControlPlane for OneAction {
    fn control(
        &mut self,
        _frame: &cluster::TelemetryFrame,
        _cluster: &NpuCluster,
    ) -> Vec<cluster::ControlAction> {
        self.0.take().into_iter().collect()
    }
}

/// The every-hook scenario: one run that reaches each metric-bearing
/// [`cluster::ObsSink`] hook. Board 0 holds an `Mnist` and the only `Ncf`
/// replica, board 1 an `Mnist` replica and a free half, board 2 two `Mnist`
/// replicas. The controller pre-copies one of board 2's replicas to board
/// 1; a scheduled cold move of the other to the full board 0 is refused.
/// Board 0 then crashes: failover re-places its `Mnist` replica in the half
/// board 2 freed and has no room for the `Ncf` one, whose queue is lost and
/// whose later arrivals find no replica. Tight deadlines expire under
/// drop-on-expiry, the queue bound sheds load, and an `Mnist` latency SLO
/// below the service time fires.
fn run_every_hook(sink: &mut dyn cluster::ObsSink) -> ServingReport {
    let npu = config();
    let service = estimated_service_cycles(ModelId::Mnist, 2, 2, &npu);
    let mut fleet = NpuCluster::homogeneous(3, &npu);
    let mut handles = Vec::new();
    for (model, node) in [
        (ModelId::Mnist, 0),
        (ModelId::Ncf, 0),
        (ModelId::Mnist, 1),
        (ModelId::Mnist, 2),
        (ModelId::Mnist, 2),
    ] {
        let spec = DeploySpec::replica(model, 2, 2).with_memory(16 << 20, 64 << 20);
        handles.push(
            fleet
                .deploy_pinned(spec, NodeId(node))
                .expect("capacity for the replica"),
        );
    }
    // A 1 GiB state copy takes about 2,900 service times, so the crash waits
    // for the pre-copy to land, and a second burst of traffic meets it.
    let crash = service * 4_000;
    let early = (0..120).map(|i| i * service / 6);
    let late = (0..120).map(|i| crash - service * 4 + i * service / 12);
    let arrivals: Vec<workloads::RequestArrival> = early
        .chain(late)
        .enumerate()
        .map(|(i, at)| {
            let i = i as u64;
            let model = if i.is_multiple_of(3) {
                ModelId::Ncf
            } else {
                ModelId::Mnist
            };
            let mut arrival = workloads::RequestArrival::new(Cycles(at), model);
            arrival.priority = if i.is_multiple_of(2) {
                PriorityClass::Interactive
            } else {
                PriorityClass::Batch
            };
            arrival.deadline = Some(Cycles(at + service * (2 + 40 * (i % 2))));
            arrival
        })
        .collect();
    let slo = SloConfig::new(service * 4)
        .with_spec(SloSpec::new(ModelId::Mnist, Cycles(service / 2), 0.95))
        .with_default_policies();
    let options = ServingOptions::new(DispatchPolicy::LeastLoaded)
        .with_admission(AdmissionControl { max_queue_depth: 6 })
        .with_batching(4)
        .with_batch_wait(service / 2)
        .with_drop_expired()
        .with_stochastic(StochasticService::seeded(SEED).with_cv(0.25))
        .with_telemetry(service * 4)
        .with_slo(slo)
        .with_migration(Cycles(service * 2), handles[4], NodeId(0))
        .with_faults(
            FaultSchedule::new().with_fault(crash, FaultKind::BoardCrash { node: NodeId(0) }),
        )
        .with_recovery(RecoveryPolicy::new(1));
    let mut controller = OneAction(Some(cluster::ControlAction::Migrate {
        handle: handles[3],
        to: NodeId(1),
        mode: MigrationMode::PreCopy,
    }));
    ClusterServingSim::new(options).run_observed_with_controller(
        &mut fleet,
        &ClusterTrace::from_arrivals(arrivals),
        &mut controller,
        sink,
    )
}

/// The counter of each metric-bearing hook, in `ObsSink` declaration order.
const EVERY_HOOK: &[(&str, &[cluster::Metric])] = &[
    ("on_arrival", &[cluster::Metric::ServingArrivals]),
    ("on_dispatch", &[cluster::Metric::ServingDispatched]),
    (
        "on_reject",
        &[
            cluster::Metric::ServingRejectedNoReplica,
            cluster::Metric::ServingRejectedOverload,
        ],
    ),
    ("on_service_batch", &[cluster::Metric::ServingBatches]),
    ("on_complete", &[cluster::Metric::ServingCompleted]),
    ("on_expire", &[cluster::Metric::ServingExpired]),
    ("on_copy_round", &[cluster::Metric::MigrationCopyRounds]),
    ("on_stop_copy", &[cluster::Metric::MigrationPrecopy]),
    (
        "on_migration_rejected",
        &[cluster::Metric::MigrationRejected],
    ),
    ("on_control", &[cluster::Metric::ControlMigrations]),
    ("on_tick", &[cluster::Metric::TelemetryTicks]),
    ("on_alert", &[cluster::Metric::SloAlertsFired]),
    ("on_fault", &[cluster::Metric::FaultInjected]),
    ("on_failover", &[cluster::Metric::RecoveryFailovers]),
    (
        "on_replica_restored",
        &[cluster::Metric::RecoveryReplicasRestored],
    ),
    (
        "on_restore_rejected",
        &[cluster::Metric::RecoveryRestoreRejected],
    ),
    ("on_lost", &[cluster::Metric::RecoveryLostRequests]),
];

/// Folds an OpenMetrics exposition by sample name: counter, `_count` and
/// `_sum` samples add up over every label set and window, a gauge keeps its
/// last sample, and quantile samples are skipped.
fn fold_exposition(text: &str) -> std::collections::BTreeMap<String, f64> {
    let mut folded = std::collections::BTreeMap::new();
    let mut gauge = false;
    for line in text.lines() {
        if let Some(family) = line.strip_prefix("# TYPE ") {
            gauge = family.ends_with(" gauge");
            continue;
        }
        if line.starts_with('#') || line.contains("quantile=") {
            continue;
        }
        let name = &line[..line.find(['{', ' ']).expect("a sample has a value")];
        // Label values hold no spaces: the value is the second field.
        let value: f64 = line
            .split(' ')
            .nth(1)
            .and_then(|value| value.parse().ok())
            .expect("a numeric sample value");
        let slot = folded.entry(name.to_string()).or_insert(0.0);
        *slot = if gauge { value } else { *slot + value };
    }
    folded
}

/// Every metric-bearing hook feeds the registry and the time series the same
/// facts: summed over windows and label sets, each time-series counter,
/// summary count and summary sum equals the registry's, and each gauge's
/// last window equals the registry gauge.
#[test]
fn registry_and_time_series_record_the_same_facts_for_every_hook() {
    let service = estimated_service_cycles(ModelId::Mnist, 2, 2, &config());
    let mut recorder = cluster::TraceRecorder::new(cluster::TraceConfig::default());
    let report = run_every_hook(&mut recorder);
    let mut series =
        TimeSeriesRecorder::new(TimeSeriesConfig::new(service * 16).with_ring(1 << 10));
    assert_eq!(run_every_hook(&mut series), report);
    assert_eq!(
        series.stats().windows_evicted,
        0,
        "the ring keeps every window"
    );

    let registry = recorder.metrics();
    for (hook, metrics) in EVERY_HOOK {
        assert!(
            metrics.iter().any(|metric| registry.counter(*metric) > 0),
            "the scenario never reaches {hook}"
        );
    }
    let mut windows = fold_exposition(&cluster::export_timeseries_openmetrics(&series));
    windows.retain(|name, _| !name.starts_with("timeseries_"));
    assert_eq!(
        fold_exposition(&cluster::export_openmetrics(registry)),
        windows
    );
}

/// The registry's OpenMetrics exposition of the every-hook scenario, with
/// counters, gauges and summaries of every subsystem, matches its golden
/// digest.
#[test]
fn registry_openmetrics_export_matches_golden() {
    let mut recorder = cluster::TraceRecorder::new(cluster::TraceConfig::default());
    run_every_hook(&mut recorder);
    let exposition = cluster::export_openmetrics(recorder.metrics());
    let summary = cluster::validate_openmetrics(&exposition)
        .expect("the exposition must pass the strict validator");
    for kind in ["counter", "gauge", "summary"] {
        assert!(summary.families_of(kind) > 0, "no {kind} family exported");
    }
    let got = trace_digest(&exposition);
    if std::env::var("NEU10_PRINT_GOLDEN").is_ok() {
        println!("GOLDEN (\"obs-registry-openmetrics\", 0x{got:016x}),");
        return;
    }
    assert_eq!(
        got,
        expected("obs-registry-openmetrics"),
        "the registry exposition drifted from its golden digest (got 0x{got:016x})"
    );
}
