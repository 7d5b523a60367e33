//! Statistical agreement of stochastic serving reports across samplers.
//!
//! The service-time sampler is an implementation detail: swapping it (the
//! Box–Muller draws from one event-ordered stream were replaced by
//! per-replica counter streams and a one-uniform lognormal table) must move
//! individual reports, but not what they say about the fleet. Two small
//! scenarios run over 64 service seeds each, and every model's 64-seed
//! average of the per-run mean latency and p99 latency must sit within three
//! standard errors of the values the Box–Muller sampler produced.

use cluster::{
    estimated_service_cycles, AdmissionControl, ClusterServingSim, DeploySpec, DispatchPolicy,
    NpuCluster, PlacementPolicy, ServingOptions, ServingReport, StochasticService,
};
use npu_sim::{Cycles, NpuConfig};
use workloads::{ClusterTrace, ModelId, PriorityClass, QosSpec};

const BOARDS: usize = 4;
/// The trace seed of the golden policy scenario; only the service seed varies.
const TRACE_SEED: u64 = 4242;
const SEEDS: u64 = 64;

/// The Box–Muller sampler's 64-seed statistics, one row per (scenario,
/// model): the average over seeds of the per-run mean latency and its
/// standard error, then the same for the per-run p99 latency, in cycles.
///
/// Produced by this test's own `eprintln!` rows at commit 873a61a, the last
/// commit with the Box–Muller sampler:
/// `cargo test --release --test service_dispersion -- --nocapture`.
const BOX_MULLER: [(&str, ModelId, f64, f64, f64, f64); 4] = [
    ("policy", ModelId::Mnist, 14091.5, 56.7, 23938.5, 272.7),
    (
        "policy",
        ModelId::Ncf,
        8775289.6,
        105330.0,
        14797217.2,
        179352.6,
    ),
    ("calibrated", ModelId::Mnist, 13976.4, 40.3, 21350.4, 182.3),
    (
        "calibrated",
        ModelId::Ncf,
        31495742.0,
        2037.5,
        59591019.3,
        4180.6,
    ),
];

fn config() -> NpuConfig {
    NpuConfig::single_core()
}

/// The golden policy scenario's fleet: four MNIST and two NCF replicas over
/// four boards.
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

/// The golden policy scenario's deadline-carrying, overload-prone trace.
fn mixed_trace() -> ClusterTrace {
    let service = estimated_service_cycles(ModelId::Mnist, 2, 2, &config());
    let base = ClusterTrace::poisson(
        &[(ModelId::Mnist, service / 7), (ModelId::Ncf, service)],
        160,
        TRACE_SEED,
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

/// One run of `scenario` at service seed `seed`: the golden policy scenario
/// without its migration (cv 0.25 under least-loaded dispatch), or the same
/// fleet and trace with the dispersion calibrated per replica shape.
fn run(scenario: &str, seed: u64, trace: &ClusterTrace) -> ServingReport {
    let service = estimated_service_cycles(ModelId::Mnist, 2, 2, &config());
    let options = ServingOptions::new(DispatchPolicy::LeastLoaded).with_batching(4);
    let options = match scenario {
        "policy" => options
            .with_admission(AdmissionControl {
                max_queue_depth: 12,
            })
            .with_batch_wait(service / 2)
            .with_drop_expired()
            .with_stochastic(StochasticService::seeded(seed).with_cv(0.25)),
        _ => options.with_stochastic(StochasticService::seeded(seed)),
    };
    ClusterServingSim::new(options).run(&mut mixed_fleet(), trace)
}

/// The average over seeds and its standard error.
fn mean_and_se(values: &[f64]) -> (f64, f64) {
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let variance = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (mean, (variance / n).sqrt())
}

#[test]
fn sixty_four_seed_reports_agree_with_the_box_muller_sampler() {
    let trace = mixed_trace();
    for scenario in ["policy", "calibrated"] {
        let reports: Vec<ServingReport> = (1..=SEEDS)
            .map(|seed| run(scenario, seed, &trace))
            .collect();
        for (_, model, old_mean, old_mean_se, old_p99, old_p99_se) in
            BOX_MULLER.into_iter().filter(|row| row.0 == scenario)
        {
            let means: Vec<f64> = reports.iter().map(|r| r.per_model[&model].mean).collect();
            let p99s: Vec<f64> = reports
                .iter()
                .map(|r| r.per_model[&model].p99 as f64)
                .collect();
            let (mean, mean_se) = mean_and_se(&means);
            let (p99, p99_se) = mean_and_se(&p99s);
            eprintln!(
                "(\"{scenario}\", ModelId::{model:?}, {mean:.1}, {mean_se:.1}, {p99:.1}, {p99_se:.1}),"
            );
            let mean_bound = 3.0 * old_mean_se.hypot(mean_se);
            assert!(
                (mean - old_mean).abs() <= mean_bound,
                "{scenario}/{model:?}: 64-seed mean latency {mean:.1} vs Box–Muller \
                 {old_mean:.1} (3 SE = {mean_bound:.1})"
            );
            let p99_bound = 3.0 * old_p99_se.hypot(p99_se);
            assert!(
                (p99 - old_p99).abs() <= p99_bound,
                "{scenario}/{model:?}: 64-seed p99 {p99:.1} vs Box–Muller {old_p99:.1} \
                 (3 SE = {p99_bound:.1})"
            );
        }
    }
}
