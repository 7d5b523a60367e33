//! Fig. 34 (extension): fleet-wide observability of one serving run.
//!
//! Runs a deliberately eventful closed-loop scenario — an overloaded mixed
//! fleet under the target-tracking autoscaler, tight admission control,
//! drop-on-expiry deadlines and one scheduled live pre-copy migration — with
//! a [`TraceRecorder`] attached, and demonstrates the observability
//! contract end to end:
//!
//! * the exported Chrome `trace_event` JSON **parses and is structurally
//!   complete**: at least one complete span of every span kind the scenario
//!   exercises (`arrival`, `queue`, `serve`, `copy-round`, `stop-and-copy`),
//!   instants for rejects/expires/control actions/telemetry ticks, flow
//!   events stitching requests across boards, and fleet counter tracks;
//! * **observation never perturbs the simulation** — the observed report
//!   equals the unobserved one field for field;
//! * the export is **deterministic** — the same seed and config produce
//!   byte-identical JSON;
//! * the **registry is exact** even when the span ring is head-sampled —
//!   counters match the report, and trace memory stays bounded by the ring
//!   capacity however many arrivals flow through.
//!
//! The trace is written to `FIG34_trace.json` (override with
//! `NEU10_FIG34_TRACE`); open it at <https://ui.perfetto.dev>.

use autopilot::{Autopilot, AutoscalePolicy, ScalingSpec, TargetTracking};
use cluster::{
    estimated_service_cycles, AdmissionControl, ClusterServingSim, DeploySpec, DispatchPolicy,
    Metric, NpuCluster, PlacementPolicy, ServingOptions, ServingReport, TraceConfig, TraceRecorder,
};
use npu_sim::{Cycles, NpuConfig};
use workloads::{ClusterTrace, ModelId, PriorityClass, QosSpec};

const BOARDS: usize = 4;
const SEED: u64 = 3434;
const MAX_BATCH: usize = 4;

/// An overload-prone deadline-carrying trace: MNIST at ~8 arrivals per
/// service time against an initial capacity of ~5, so queues form, admission
/// control rejects, tight deadlines expire, and the autoscaler has real work.
fn trace(service: u64, requests: usize) -> ClusterTrace {
    let base = ClusterTrace::poisson(
        &[(ModelId::Mnist, service / 8), (ModelId::Ncf, service)],
        requests,
        SEED,
    );
    let arrivals = base
        .arrivals()
        .iter()
        .map(|arrival| {
            let mut arrival = *arrival;
            if arrival.model == ModelId::Mnist {
                let qos = if arrival.sequence % 2 == 0 {
                    QosSpec::new(Some(Cycles(service * 3)), PriorityClass::Interactive)
                } else {
                    QosSpec::new(Some(Cycles(service * 24)), PriorityClass::Batch)
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

fn build_fleet(npu: &NpuConfig) -> NpuCluster {
    let mut fleet = NpuCluster::homogeneous(BOARDS, npu);
    for _ in 0..2 {
        fleet
            .deploy(
                DeploySpec::replica(ModelId::Mnist, 2, 2).with_memory(32 << 20, 1 << 30),
                PlacementPolicy::TopologyAware,
            )
            .expect("capacity for mnist replicas");
    }
    fleet
        .deploy(
            DeploySpec::replica(ModelId::Ncf, 1, 1),
            PlacementPolicy::WorstFit,
        )
        .expect("capacity for the ncf replica");
    fleet
}

fn scenario(
    npu: &NpuConfig,
    service: u64,
    requests: usize,
) -> (NpuCluster, ClusterTrace, ServingOptions, Autopilot) {
    let fleet = build_fleet(npu);
    let trace = trace(service, requests);
    let interval = service * 8;
    // Live-migrate the NCF replica: the autoscaler manages only MNIST, so a
    // scale-down can never cancel this migration mid-flight.
    let moved = *fleet
        .deployments()
        .find(|d| d.model == ModelId::Ncf)
        .expect("ncf deployment exists");
    // Migrate to an empty board (or failing that, any other board).
    let spare = (0..BOARDS as u32)
        .map(cluster::NodeId)
        .find(|node| fleet.node(*node).map(|n| n.manager().vnpu_count()) == Some(0))
        .unwrap_or(cluster::NodeId((moved.handle.node.0 + 1) % BOARDS as u32));
    let options = ServingOptions::new(DispatchPolicy::EarliestDeadline)
        .with_admission(AdmissionControl { max_queue_depth: 8 })
        .with_batching(MAX_BATCH)
        .with_batch_wait(service / 2)
        .with_drop_expired()
        .with_telemetry(interval)
        .with_live_migration(Cycles(service * 6), moved.handle, spare);
    let pilot = Autopilot::new().with_model(ScalingSpec::new(
        DeploySpec::replica(ModelId::Mnist, 2, 2).with_memory(32 << 20, 1 << 30),
        2,
        6,
        AutoscalePolicy::TargetTracking(TargetTracking::new(4.0, interval * 2)),
    ));
    (fleet, trace, options, pilot)
}

fn run_observed(
    npu: &NpuConfig,
    service: u64,
    requests: usize,
    config: TraceConfig,
) -> (ServingReport, TraceRecorder) {
    let (mut fleet, trace, options, mut pilot) = scenario(npu, service, requests);
    let mut recorder = TraceRecorder::new(config);
    let report = ClusterServingSim::new(options).run_observed_with_controller(
        &mut fleet,
        &trace,
        &mut pilot,
        &mut recorder,
    );
    (report, recorder)
}

fn main() {
    let npu = NpuConfig::single_core();
    bench::print_simulator_config(&npu);
    let service = estimated_service_cycles(ModelId::Mnist, 2, 2, &npu);
    let requests = 40 * bench::target_requests();

    println!("# Fig. 34: fleet observability — trace spans, registry, Perfetto export");
    println!("# ({requests} requests/model, {BOARDS} boards, autoscaler 2..6, 1 live migration)");

    // 1. Observation does not perturb: observed == unobserved, field for field.
    let (mut fleet, trace, options, mut pilot) = scenario(&npu, service, requests);
    let unobserved =
        ClusterServingSim::new(options).run_with_controller(&mut fleet, &trace, &mut pilot);
    let (report, recorder) = run_observed(&npu, service, requests, TraceConfig::default());
    assert_eq!(
        report, unobserved,
        "attaching a TraceRecorder must not change the simulation"
    );

    // 2. The export parses and carries >=1 complete span of every kind the
    // scenario exercises, plus instants, flows and counter tracks.
    let json = recorder.export_chrome_trace();
    let validation = cluster::validate_chrome_trace(&json).expect("exported trace must parse");
    validation
        .require_complete_spans(&["arrival", "queue", "serve", "copy-round", "stop-and-copy"])
        .expect("every span kind must appear");
    for instant in ["tick", "scale-up"] {
        assert!(
            validation.instants.get(instant).copied().unwrap_or(0) > 0,
            "expected at least one {instant:?} instant"
        );
    }
    assert!(validation.flow_events > 0, "flow chains must be present");
    assert!(
        validation.counter_events > 0,
        "counter tracks must be present"
    );

    // 3. Determinism: the same seed + config exports byte-identical JSON.
    let (_, rerun) = run_observed(&npu, service, requests, TraceConfig::default());
    assert_eq!(
        json,
        rerun.export_chrome_trace(),
        "same seed + config must export byte-identical JSON"
    );

    // 4. The registry is exact: counters equal the report's own accounting.
    let metrics = recorder.metrics();
    assert_eq!(
        metrics.counter(Metric::ServingCompleted),
        report.stats.completed as u64
    );
    assert_eq!(
        metrics.counter(Metric::ServingArrivals),
        report.stats.offered as u64
    );
    assert_eq!(
        metrics.counter(Metric::ServingDispatched),
        report.stats.admitted as u64
    );
    assert_eq!(
        metrics.counter(Metric::ServingRejectedOverload),
        report.stats.rejected_overload as u64
    );
    assert_eq!(
        metrics.counter(Metric::ServingExpired),
        report.deadline.dropped as u64
    );
    assert_eq!(
        metrics.counter(Metric::ServingDeadlineMissed),
        report.deadline.missed as u64
    );

    // 5. Bounded memory: a small sampled ring retains at most `capacity`
    // events at any arrival count, while the registry stays exact.
    let small = TraceConfig::default()
        .with_capacity(512)
        .with_sample_rate(0.25)
        .with_seed(7);
    let (sampled_report, sampled) = run_observed(&npu, service, requests, small);
    assert_eq!(sampled_report, report, "sampling must not perturb either");
    assert!(sampled.len() <= 512, "ring exceeded its capacity");
    let stats = sampled.stats();
    assert_eq!(
        stats.sampled_requests + stats.skipped_requests,
        report.stats.offered as u64,
        "every arrival made a sampling decision"
    );
    assert_eq!(
        sampled.metrics().counter(Metric::ServingCompleted),
        report.stats.completed as u64,
        "the registry is exact even when the ring samples"
    );

    let trace_path =
        std::env::var("NEU10_FIG34_TRACE").unwrap_or_else(|_| "FIG34_trace.json".to_string());
    std::fs::write(&trace_path, &json).unwrap_or_else(|err| {
        panic!("fig34_observability: cannot write trace to {trace_path:?}: {err}")
    });

    println!("{:<26} {:>10}", "metric", "value");
    for (name, value) in [
        ("trace events", validation.events as u64),
        ("flow events", validation.flow_events as u64),
        ("counter samples", validation.counter_events as u64),
        ("ring events (full)", recorder.len() as u64),
        ("ring events (512-cap)", sampled.len() as u64),
        ("overwritten (512-cap)", sampled.stats().overwritten),
        ("completed", report.stats.completed as u64),
        ("rejected (overload)", report.stats.rejected_overload as u64),
        ("expired drops", report.deadline.dropped as u64),
        ("scale-ups", report.control.scale_ups as u64),
        ("migrations recorded", report.migrations.len() as u64),
    ] {
        println!("{name:<26} {value:>10}");
    }
    for (name, count) in &validation.complete_spans {
        println!("span {name:<21} {count:>10}");
    }
    println!();
    println!(
        "# wrote {trace_path} ({} bytes) — open at https://ui.perfetto.dev; \
         observed == unobserved, rerun byte-identical, ring bounded at 512 with exact registry",
        json.len()
    );
}
