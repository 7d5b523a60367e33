//! The three fleet workloads: the `cluster` serving loop open-loop
//! (`fleet-open`), through the sharded runner (`fleet-sharded`), and under
//! the full closed-loop operator stack (`fleet-closed`).

use std::time::Duration;

use autopilot::{Autopilot, AutoscalePolicy, Defragmenter, ScalingSpec, TargetTracking};
use cluster::{
    estimated_batch_service_cycles, estimated_service_cycles, ClusterServingSim, DeploySpec,
    DispatchPolicy, FaultProfile, FaultSchedule, MigrationCostModel, MigrationMode, NpuCluster,
    PlacementPolicy, RecoveryPolicy, ServingOptions, ServingReport, ShardOptions, SloConfig,
    SloSpec, StochasticService, TraceConfig, TraceRecorder,
};
use neu10::{calibrate_service_time, IsaKind, TenantWorkload};
use npu_sim::{Cycles, InterconnectConfig, NpuConfig};
use workloads::{ClusterTrace, DiurnalTrace, ModelId, PriorityClass, QosSpec};

use crate::layers::{quantile, Clock, LayerSink, TimedControl};
use crate::record::{fnv1a, fnv1a_word, Record};
use crate::{secs, Layers, Run};

/// The eight models every fleet workload serves.
const MODELS: [ModelId; 8] = [
    ModelId::Mnist,
    ModelId::Ncf,
    ModelId::Dlrm,
    ModelId::ResNet,
    ModelId::Bert,
    ModelId::EfficientNet,
    ModelId::Transformer,
    ModelId::RetinaNet,
];
const MAX_BATCH: usize = 8;
const MES: usize = 2;
const VES: usize = 2;
/// Offered load of the open-loop fleets, as a share of batched capacity.
const OPEN_LOAD: f64 = 0.7;
const OPEN_BOARDS: usize = 64;
const OPEN_REPLICAS: usize = 512;
/// Short calls: a call that fits between bursts of contention from other
/// tenants of the host times the code, not the neighbours.
const OPEN_ARRIVALS_PER_MODEL: usize = 31_250;
/// Board-group partitions of `fleet-sharded`.
pub const PARTITIONS: usize = 8;
/// Worker threads of the measured `fleet-sharded` runs (the host's cores).
pub const THREADS: usize = 2;

const CLOSED_BOARDS: usize = 32;
const CLOSED_MIN: usize = 3;
const CLOSED_MAX: usize = 12;
/// Replicas per model the diurnal peak needs at the target load.
const CLOSED_PEAK_REPLICAS: f64 = 5.0;
/// Arrivals the closed-loop day offers across all models (approximate).
const CLOSED_ARRIVALS: f64 = 500_000.0;
const CLOSED_TICKS: u64 = 1_500;

/// Which workload a [`Fleet`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    Open,
    Sharded,
    Closed,
}

/// How a run drives the serving loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// The sequential event loop.
    Sequential,
    /// The sharded runner on this many threads.
    Sharded(usize),
}

/// A prepared fleet workload: its generated inputs plus what rebuilds the
/// fleet for each run (the fleet is consumed by a run).
pub struct Fleet {
    shape: Shape,
    seed: u64,
    npu: NpuConfig,
    boards: usize,
    replicas: Vec<ModelId>,
    placement: PlacementPolicy,
    trace: ClusterTrace,
    options: ServingOptions,
    pilot: Autopilot,
}

fn replica(model: ModelId) -> DeploySpec {
    DeploySpec::replica(model, MES, VES).with_memory(32 << 20, 1 << 30)
}

/// Per-request service of a full batch: the capacity unit offered load is
/// sized against.
fn batched_service(model: ModelId, npu: &NpuConfig) -> f64 {
    estimated_batch_service_cycles(model, MAX_BATCH, MES, VES, npu) as f64 / MAX_BATCH as f64
}

/// The one sampling config of every observed run.
fn obs_config(seed: u64) -> TraceConfig {
    TraceConfig::default()
        .with_capacity(65_536)
        .with_sample_rate(0.1)
        .with_seed(seed)
}

impl Fleet {
    /// Generates the workload's inputs from `seed`. With `layers`, the
    /// compile and calibration work the runs will need is done first and
    /// timed per layer, so set-up phases are attributed cold.
    pub fn setup(shape: Shape, seed: u64, layers: Option<&mut Layers>) -> Result<Self, String> {
        let npu = match shape {
            Shape::Open | Shape::Sharded => NpuConfig::tpu_v4_like(),
            Shape::Closed => NpuConfig::single_core(),
        };
        let mut layers = layers;
        if let Some(layers) = layers.as_deref_mut() {
            // The keys the serving calibration compiles: every batch size up
            // to MAX_BATCH of every model.
            let start = Clock::now();
            for model in MODELS {
                for batch in 1..=MAX_BATCH as u64 {
                    let size = model.evaluation_batch_size() * batch;
                    TenantWorkload::compile_cached(model, size, &npu, IsaKind::NeuIsa);
                }
            }
            layers.insert("neuisa_compile_s", secs(start));
            layers.insert("neuisa_compile_keys", (MODELS.len() * MAX_BATCH) as f64);
            if shape == Shape::Closed {
                // The calibration each run's serving loop performs once per
                // replica shape, called directly on the same shapes.
                let requests = StochasticService::seeded(seed).calibration_requests;
                let start = Clock::now();
                for model in MODELS {
                    let batch = model.evaluation_batch_size();
                    calibrate_service_time(&npu, model, MES, VES, batch, None, requests);
                }
                layers.insert("neu10_calibrate_s", secs(start));
                layers.insert("neu10_calibrate_shapes", MODELS.len() as f64);
            }
        }
        let fleet = match shape {
            Shape::Open | Shape::Sharded => Self::open(shape, seed, npu, layers.as_deref_mut()),
            Shape::Closed => Self::closed(seed, npu, layers.as_deref_mut()),
        };
        if let Some(layers) = layers {
            let start = Clock::now();
            let built = fleet.build();
            layers.insert("placement_deploy_s", secs(start));
            layers.insert("placement_deploys", fleet.replicas.len() as f64);
            layers.insert(
                "placement_deploy_failed",
                f64::from(u8::from(built.is_err())),
            );
        }
        Ok(fleet)
    }

    /// `fleet-open` / `fleet-sharded`: the fleet-1m shape under open-loop
    /// Poisson load.
    fn open(shape: Shape, seed: u64, npu: NpuConfig, layers: Option<&mut Layers>) -> Self {
        let per_model_replicas = (OPEN_REPLICAS / MODELS.len()) as f64;
        let streams: Vec<(ModelId, u64)> = MODELS
            .iter()
            .map(|&m| {
                let gap = batched_service(m, &npu) / (per_model_replicas * OPEN_LOAD);
                (m, gap.max(1.0) as u64)
            })
            .collect();
        let deadlines: Vec<(ModelId, u64)> = MODELS
            .iter()
            .step_by(2)
            .map(|&m| (m, estimated_service_cycles(m, MES, VES, &npu) * 10))
            .collect();
        let start = Clock::now();
        let mut trace = ClusterTrace::poisson(&streams, OPEN_ARRIVALS_PER_MODEL, seed);
        for (model, deadline) in deadlines {
            let qos = QosSpec::new(Some(Cycles(deadline)), PriorityClass::Interactive);
            trace = trace.with_model_qos(model, qos);
        }
        if let Some(layers) = layers {
            layers.insert("workloads_trace_s", secs(start));
            layers.insert("workloads_arrivals", trace.len() as f64);
        }
        let options = ServingOptions::new(DispatchPolicy::LeastLoaded)
            .with_batching(MAX_BATCH)
            .with_stochastic(StochasticService::seeded(seed).with_cv(0.2));
        Fleet {
            shape,
            seed,
            npu,
            boards: OPEN_BOARDS,
            replicas: (0..OPEN_REPLICAS)
                .map(|i| MODELS[i % MODELS.len()])
                .collect(),
            placement: PlacementPolicy::WorstFit,
            trace,
            options,
            pilot: Autopilot::new(),
        }
    }

    /// `fleet-closed`: an eight-model diurnal day under the autopilot, with
    /// telemetry, seeded faults and failover, SLO burn-rate alerts and a
    /// sampled trace recorder.
    fn closed(seed: u64, npu: NpuConfig, layers: Option<&mut Layers>) -> Self {
        let batched: Vec<f64> = MODELS.iter().map(|&m| batched_service(m, &npu)).collect();
        let services: Vec<u64> = MODELS
            .iter()
            .map(|&m| estimated_service_cycles(m, MES, VES, &npu))
            .collect();
        // One day long enough that the day offers about CLOSED_ARRIVALS: the
        // mean diurnal rate is 0.6 of the peak at a 0.2 trough.
        let peak_rate: f64 = batched
            .iter()
            .map(|b| CLOSED_PEAK_REPLICAS * OPEN_LOAD / b)
            .sum();
        let horizon = (CLOSED_ARRIVALS / (0.6 * peak_rate)) as u64;
        let interval = (horizon / CLOSED_TICKS).max(1);
        let streams: Vec<(ModelId, u64)> = MODELS
            .iter()
            .zip(&batched)
            .map(|(&m, b)| (m, (b / (CLOSED_PEAK_REPLICAS * OPEN_LOAD)).max(1.0) as u64))
            .collect();

        let start = Clock::now();
        let mut trace = DiurnalTrace::new(streams, horizon)
            .with_trough_to_peak(0.2)
            .generate(seed);
        for (model, service) in MODELS.iter().zip(&services).step_by(2) {
            let qos = QosSpec::new(Some(Cycles(service * 10)), PriorityClass::Interactive);
            trace = trace.with_model_qos(*model, qos);
        }
        if let Some(layers) = layers {
            layers.insert("workloads_trace_s", secs(start));
            layers.insert("workloads_arrivals", trace.len() as f64);
        }

        let faults = FaultSchedule::generate(
            seed,
            horizon,
            CLOSED_BOARDS as u32,
            &FaultProfile {
                crashes: 3,
                hangs: 1,
                hang_cycles: interval * 8,
                link_degrades: 1,
                link_factor: 8.0,
                link_cycles: interval * 10,
                stragglers: 1,
                straggle_factor: 4.0,
                straggle_cycles: interval * 10,
                dropouts: 1,
                dropout_cycles: interval * 2,
            },
        );
        let slo = MODELS
            .iter()
            .zip(&services)
            .fold(SloConfig::new(interval), |slo, (&m, service)| {
                slo.with_spec(SloSpec::new(m, Cycles(service * 3), 0.99))
            })
            .with_default_policies();
        let shortest = services.iter().copied().min().unwrap_or(1);
        // A fast fabric: a pre-copy finishes within a few ticks, before the
        // autoscaler's next scale-down of its replica cancels it.
        let fabric = MigrationCostModel {
            interconnect: InterconnectConfig {
                bandwidth_bytes_per_sec: 50.0e12,
                setup_cycles: 2_000,
            },
            ..MigrationCostModel::default()
        };
        let options = ServingOptions::new(DispatchPolicy::LocalityAffine)
            .with_cost_model(fabric)
            .with_batching(MAX_BATCH)
            .with_batch_wait(shortest / 2)
            .with_drop_expired()
            .with_stochastic(StochasticService::seeded(seed))
            .with_telemetry(interval)
            .with_slo(slo)
            .with_faults(faults)
            .with_recovery(RecoveryPolicy::new(3));

        let policy = TargetTracking::new(MAX_BATCH as f64, interval * 8).with_max_miss_rate(0.025);
        let pilot = MODELS
            .iter()
            .fold(Autopilot::new(), |pilot, &m| {
                pilot.with_model(
                    ScalingSpec::new(
                        replica(m),
                        CLOSED_MIN,
                        CLOSED_MAX,
                        AutoscalePolicy::TargetTracking(policy),
                    )
                    .with_placement(PlacementPolicy::WorstFit),
                )
            })
            .with_spare_margin(1)
            .with_alert_scaling(interval * 4)
            .with_defrag(
                Defragmenter::new(DeploySpec::replica(ModelId::Bert, 4, 4), interval)
                    .with_mode(MigrationMode::PreCopy),
            );
        Fleet {
            shape: Shape::Closed,
            seed,
            npu,
            boards: CLOSED_BOARDS,
            replicas: (0..CLOSED_MIN * MODELS.len())
                .map(|i| MODELS[i % MODELS.len()])
                .collect(),
            placement: PlacementPolicy::WorstFit,
            trace,
            options,
            pilot,
        }
    }

    /// A fingerprint of the generated inputs.
    pub fn input_digest(&self) -> u64 {
        let fleet = format!(
            "{}|{:?}|{:?}",
            self.boards, self.replicas, self.options.faults
        );
        self.trace.arrivals().iter().fold(fnv1a(&fleet), |hash, a| {
            [
                a.at.get(),
                a.model as u64,
                a.sequence,
                a.deadline.map_or(u64::MAX, Cycles::get),
                a.priority as u64,
            ]
            .into_iter()
            .fold(hash, fnv1a_word)
        })
    }

    /// The call the measured runs make.
    pub fn measured_call(&self) -> Call {
        match self.shape {
            Shape::Sharded => Call::Sharded(THREADS),
            Shape::Open | Shape::Closed => Call::Sequential,
        }
    }

    /// A fresh fleet with the initial replicas deployed.
    fn build(&self) -> Result<NpuCluster, String> {
        let mut fleet = NpuCluster::homogeneous(self.boards, &self.npu);
        for &model in &self.replicas {
            fleet
                .deploy(replica(model), self.placement)
                .map_err(|err| format!("initial deploy of {model:?} failed: {err}"))?;
        }
        Ok(fleet)
    }

    /// One untraced run.
    pub fn run(&self, call: Call) -> Result<(Run, ServingReport), String> {
        let mut fleet = self.build()?;
        let sim = ClusterServingSim::new(self.options.clone());
        let mut pilot = self.pilot.clone();
        let mut recorder =
            (self.shape == Shape::Closed).then(|| TraceRecorder::new(obs_config(self.seed)));
        let start = Clock::now();
        let report = match (call, recorder.as_mut()) {
            (Call::Sequential, Some(recorder)) => {
                sim.run_observed_with_controller(&mut fleet, &self.trace, &mut pilot, recorder)
            }
            (Call::Sequential, None) => sim.run(&mut fleet, &self.trace),
            (Call::Sharded(threads), _) => {
                let shard = ShardOptions::new(PARTITIONS).with_threads(threads);
                sim.run_sharded(&mut fleet, &self.trace, shard)
            }
        };
        let wall = secs(start);
        Ok((self.outcome(wall, &report), report))
    }

    /// One traced run: the same call with every in-loop layer wrapped.
    /// Sharded runs are traced on one thread, so layer times add up to the
    /// wall time they are subtracted from.
    pub fn run_traced(&self, layers: &mut Layers) -> Result<(Run, Vec<u64>), String> {
        let mut fleet = self.build()?;
        let sim = ClusterServingSim::new(self.options.clone());
        let mut pilot = self.pilot.clone();
        let mut sinks: Vec<LayerSink> = Vec::new();
        let mut autopilot = (Duration::ZERO, 0, 0);
        let start = Clock::now();
        let report = match self.shape {
            Shape::Open => {
                sinks.push(LayerSink::default());
                sim.run_observed(&mut fleet, &self.trace, &mut sinks[0])
            }
            Shape::Sharded => {
                let shard = ShardOptions::new(PARTITIONS).with_threads(1);
                sim.run_sharded_observed(&mut fleet, &self.trace, shard, &mut sinks)
            }
            Shape::Closed => {
                sinks.push(LayerSink::wrapping(TraceRecorder::new(obs_config(
                    self.seed,
                ))));
                let mut control = TimedControl::new(&mut pilot);
                let report = sim.run_observed_with_controller(
                    &mut fleet,
                    &self.trace,
                    &mut control,
                    &mut sinks[0],
                );
                autopilot = (control.spent, control.ticks, control.actions);
                report
            }
        };
        let wall = secs(start);
        let run = self.outcome(wall, &report);

        let router_s: f64 = sinks.iter().map(|s| s.router.as_secs_f64()).sum();
        let obs_s: f64 = sinks.iter().map(|s| s.obs.as_secs_f64()).sum();
        let autopilot_s = autopilot.0.as_secs_f64();
        let self_s = wall - router_s - obs_s - autopilot_s;
        let hook_calls: u64 = sinks.iter().map(LayerSink::hook_calls).sum();
        let dispatched: u64 = sinks.iter().map(LayerSink::dispatched).sum();
        let rejected: u64 = sinks.iter().map(LayerSink::rejected).sum();
        let mut router_ns: Vec<u32> = sinks
            .iter()
            .flat_map(|s| s.router_ns.iter().copied())
            .collect();
        let (sampled, skipped) = sinks
            .iter()
            .filter_map(LayerSink::recorder)
            .map(|r| r.stats())
            .fold((0, 0), |(a, b), s| {
                (a + s.sampled_requests, b + s.skipped_requests)
            });
        let events = report.perf.total_processed();
        let control = &report.control;
        let availability = &report.availability;

        layers.insert("router_s", router_s);
        layers.insert("router_share", router_s / wall);
        layers.insert("router_ns_p50", f64::from(quantile(&mut router_ns, 0.50)));
        layers.insert("router_ns_p99", f64::from(quantile(&mut router_ns, 0.99)));
        layers.insert("router_dispatched", dispatched as f64);
        layers.insert("router_rejected", rejected as f64);
        layers.insert(
            "router_admit_ratio",
            dispatched as f64 / (dispatched + rejected).max(1) as f64,
        );
        layers.insert("serving_self_s", self_s);
        layers.insert("serving_events", events as f64);
        layers.insert("serving_ns_per_event", self_s / events.max(1) as f64 * 1e9);
        layers.insert("serving_batches", report.batches as f64);
        layers.insert("serving_mean_batch", report.mean_batch_size());
        layers.insert("obs_s", obs_s);
        layers.insert("obs_share", obs_s / wall);
        layers.insert("obs_hook_calls", hook_calls as f64);
        layers.insert("obs_ns_per_hook", obs_s / hook_calls.max(1) as f64 * 1e9);
        layers.insert(
            "obs_sampled_ratio",
            sampled as f64 / (sampled + skipped).max(1) as f64,
        );
        layers.insert("autopilot_s", autopilot_s);
        layers.insert("autopilot_ticks", autopilot.1 as f64);
        layers.insert("autopilot_actions", autopilot.2 as f64);
        layers.insert("telemetry_scale_ups", control.scale_ups as f64);
        layers.insert(
            "telemetry_scale_up_rejected",
            control.scale_up_rejected as f64,
        );
        layers.insert("telemetry_released", control.released as f64);
        layers.insert(
            "migration_copy_rounds",
            report.migration_stats.rounds as f64,
        );
        layers.insert("migration_executed", report.migrations.len() as f64);
        layers.insert("migration_rejected", control.migrations_rejected as f64);
        layers.insert("fault_injected", availability.injected() as f64);
        layers.insert("fault_failovers", availability.failovers as f64);
        layers.insert("fault_lost", availability.lost as f64);
        layers.insert("slo_alerts_fired", report.alerts.fired() as f64);
        if self.shape == Shape::Sharded {
            let owned: Vec<u64> = sinks.iter().map(LayerSink::arrivals).collect();
            let mean = owned.iter().sum::<u64>() as f64 / owned.len().max(1) as f64;
            let max = owned.iter().copied().max().unwrap_or(0) as f64;
            layers.insert("sharded_skew", max / mean.max(1.0));
            let slowest = sinks
                .iter()
                .map(|s| s.router.as_secs_f64())
                .fold(0.0, f64::max);
            layers.insert("sharded_router_s_max", slowest);
        }

        // Exact work counts: every traced run of one seed must repeat them.
        let mut counts = vec![autopilot.1, autopilot.2];
        for sink in &sinks {
            counts.extend(sink.hooks);
        }
        Ok((run, counts))
    }

    /// The run's checks, request count, digest and fidelity lines.
    fn outcome(&self, wall: f64, report: &ServingReport) -> Run {
        let stats = &report.stats;
        let dropped = report.deadline.dropped;
        let lost = report.availability.lost as usize;
        let mut failures = Vec::new();
        if stats.offered != stats.admitted + stats.rejected() {
            failures.push(format!(
                "offered {} != admitted {} + rejected {}",
                stats.offered,
                stats.admitted,
                stats.rejected()
            ));
        }
        if stats.admitted != stats.completed + dropped + lost {
            failures.push(format!(
                "admitted {} != completed {} + dropped {dropped} + lost {lost}",
                stats.admitted, stats.completed
            ));
        }
        if stats.offered != self.trace.len() || stats.completed == 0 {
            failures.push(format!(
                "offered {} of {} trace arrivals, completed {}",
                stats.offered,
                self.trace.len(),
                stats.completed
            ));
        }
        if self.shape == Shape::Closed {
            let paths = [
                ("scale-up", report.control.scale_ups as u64),
                ("release", report.control.released as u64),
                ("pre-copy migration", report.migration_stats.precopy as u64),
                ("failover", report.availability.failovers),
                ("alert", report.alerts.fired() as u64),
            ];
            for (path, fired) in paths {
                if fired == 0 {
                    failures.push(format!("control path {path} never fired"));
                }
            }
        }
        let mut fidelity = Record::default();
        fidelity
            .int("offered", stats.offered as u64)
            .int("completed", stats.completed as u64)
            .int("rejected", stats.rejected() as u64)
            .int("dropped", dropped as u64)
            .int("lost", lost as u64)
            .int("p99_cycles", report.latency.p99)
            .int("makespan_cycles", report.makespan.get())
            .int("scale_ups", report.control.scale_ups as u64)
            .int("scale_up_rejected", report.control.scale_up_rejected as u64)
            .int("released", report.control.released as u64)
            .int("copy_rounds", report.migration_stats.rounds)
            .int("migrations_executed", report.migrations.len() as u64)
            .int("precopy_migrations", report.migration_stats.precopy as u64)
            .int(
                "migrations_requested",
                report.control.migrations_requested as u64,
            )
            .int(
                "migrations_rejected",
                report.control.migrations_rejected as u64,
            )
            .int("faults_injected", report.availability.injected())
            .int("failovers", report.availability.failovers)
            .int("alerts_fired", report.alerts.fired() as u64)
            .int("peak_replicas", report.perf.peak_replicas as u64);
        Run {
            wall,
            requests: stats.offered as u64,
            digest: fnv1a(&format!("{report:?}")),
            failures,
            fidelity,
        }
    }
}
