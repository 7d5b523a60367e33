//! The cluster serving simulator.
//!
//! Replays a [`workloads::ClusterTrace`] against the replicas deployed in an
//! [`NpuCluster`]: every arrival is routed by the [`Router`], waits in its
//! replica's queue, and is served as part of a **dynamic batch** — an idle
//! replica collects up to [`ServingOptions::max_batch`] queued requests of
//! its model and serves them in one pass, with the batch service time
//! calibrated from [`neu10::TenantWorkload`] at the *actual* batch size
//! (sublinear in the batch for weight-traffic-bound models, not
//! `batch × single`). With [`ServingOptions::with_batch_wait`] an idle
//! replica additionally *holds* a sub-`max_batch` queue for up to
//! `max_batch_wait` cycles to let a batch form, then serves the partial
//! batch — batch-formation latency is bounded by the timeout instead of by
//! the next burst. Requests may carry **deadlines and priority classes**
//! ([`workloads::RequestArrival`]): the simulator counts deadline misses,
//! optionally drops expired requests unserved, and — under
//! [`DispatchPolicy::EarliestDeadline`] — orders each replica queue
//! earliest-deadline-first within priority classes instead of FIFO.
//!
//! Service times are deterministic by default. With
//! [`ServingOptions::with_stochastic`] they get a seeded lognormal dispersion
//! whose coefficient of variation is calibrated from
//! [`neu10::CollocationSim`] per-request latencies
//! ([`neu10::calibrate_service_time`]), so fleet tail latencies reflect
//! multi-tenant service-time noise rather than queueing alone. Each replica
//! draws one factor per batch from its own counter-based stream, keyed by the
//! seed and the replica's identity, through a shared lognormal quantile
//! table. Runs are reproducible: the same seed yields an identical
//! [`ServingReport`].
//!
//! Migrations can be scheduled mid-run in either [`MigrationMode`]. A **cold**
//! migration drains its in-flight batch, goes dark for the full transfer +
//! remap window, and resumes on the destination node — with the whole
//! downtime charged to the latency of the requests queued behind it. A
//! **live pre-copy** migration keeps the source replica serving its queue
//! while copy-round events stream its resident state over the interconnect,
//! and dispatch steers new requests to any clean replica of the model
//! meanwhile — round 0 copies the full working set, each further round the pages
//! the served requests re-dirtied, priced by the cost model's
//! [`crate::migration::DirtyRateModel`]. Concurrent transfers over the same
//! board-to-board link serialize (bandwidth contention is charged against
//! the link). When the dirty set converges below the stop threshold — or
//! stops shrinking because the dirty rate outruns the link — the replica
//! stops for a final stop-and-copy whose downtime is just the residual delta
//! plus the architectural context. [`ServingReport::migration_stats`]
//! aggregates downtime, rounds and bytes per mode.
//!
//! The simulator is also the execution engine of the **autopilot control
//! plane**: with [`ServingOptions::with_telemetry`] it emits a
//! [`TelemetryFrame`] every sampling interval, and
//! [`ClusterServingSim::run_with_controller`] hands each frame to a
//! [`ControlPlane`] whose [`ControlAction`]s — scale-up through the
//! placement engine, drain-then-release scale-down, cold migration — are
//! applied at the same deterministic tick. Replica-time actually
//! provisioned is accounted in [`ServingReport::replica_cycles`], so
//! autoscaling experiments can trade replica-hours against tail latency.
//!
//! This module holds one partition's event loop (`PartitionSim`); the
//! coordinator in `sharded.rs` drives every run, a sequential one as its
//! one-partition case. Telemetry and SLO alert ticks are its barriers, not
//! events of the loop (`tick_bound`).

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, VecDeque};
use std::sync::Arc;

use neu10::{
    calibrate_service_time, DeadlineStats, IsaKind, LatencySummary, QuantileSketch, TenantWorkload,
};
use npu_sim::{Cycles, DirtySet, NpuConfig, NpuConfigKey};
use workloads::{ClusterTrace, Memo, ModelId, PriorityClass, RequestArrival};

use crate::cluster::{DeploySpec, DeployedVnpu, NpuCluster, VnpuHandle};
use crate::fault::{
    link_key, AvailabilityStats, ChaosState, FaultKind, FaultSchedule, ModelAvailability,
    RecoveryPolicy,
};
use crate::migration::{MigrationCostModel, MigrationMode, MigrationRecord, MigrationStats};
use crate::model_table::ModelTable;
use crate::obs::{AlertLog, FleetCounters, NoopSink, ObsSink, RejectReason, SloConfig, SloEngine};
use crate::router::{
    AdmissionControl, DispatchDecision, DispatchPolicy, ReplicaIndex, ReplicaView, Router,
    RouterStats, SlotLoad,
};
use crate::sampler::{Lognormal, ServiceStream};
use crate::sharded::{drive_sequential, ShardPlan};
use crate::telemetry::{
    ControlAction, ControlPlane, ControlStats, NoopControl, ReplicaSample, TelemetryFrame,
};
use crate::NodeId;

/// A migration the operator schedules before the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledMigration {
    /// When the migration is triggered.
    pub at: Cycles,
    /// The deployment to move (its handle at schedule time).
    pub handle: VnpuHandle,
    /// The destination node.
    pub to: NodeId,
    /// How the state moves (cold stop-and-copy or live pre-copy).
    pub mode: MigrationMode,
}

/// Seeded service-time dispersion settings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StochasticService {
    /// Seed of every replica's service-time stream; runs with the same seed
    /// produce identical reports.
    pub seed: u64,
    /// Requests per tenant in the [`neu10::CollocationSim`] calibration run
    /// that measures the dispersion.
    pub calibration_requests: usize,
    /// Overrides the calibrated coefficient of variation (useful for tests
    /// and sensitivity sweeps); `None` calibrates per (model, allocation,
    /// board).
    pub cv_override: Option<f64>,
}

impl StochasticService {
    /// Calibrated dispersion with the given seed.
    pub fn seeded(seed: u64) -> Self {
        StochasticService {
            seed,
            calibration_requests: 4,
            cv_override: None,
        }
    }

    /// Forces the coefficient of variation instead of calibrating it.
    ///
    /// A coefficient of variation is a non-negative, finite dispersion:
    /// negative values clamp to 0 (deterministic service) and non-finite
    /// values (`NaN`, `±inf`) are rejected as 0 rather than poisoning every
    /// sampled service time downstream.
    pub fn with_cv(mut self, cv: f64) -> Self {
        self.cv_override = Some(if cv.is_finite() { cv.max(0.0) } else { 0.0 });
        self
    }
}

/// Configuration of one serving run.
#[derive(Debug, Clone)]
pub struct ServingOptions {
    /// The dispatch policy under test.
    pub dispatch: DispatchPolicy,
    /// Admission-control limits.
    pub admission: AdmissionControl,
    /// Migrations to trigger mid-run.
    pub migrations: Vec<ScheduledMigration>,
    /// The migration cost model.
    pub cost_model: MigrationCostModel,
    /// Largest number of queued requests a replica serves in one pass
    /// (1 = no batching).
    pub max_batch: usize,
    /// Longest an idle replica holds a sub-`max_batch` queue to let a batch
    /// form, counted from the oldest queued arrival; `None` serves whatever
    /// is queued immediately.
    pub max_batch_wait: Option<u64>,
    /// Drop queued requests whose deadline has already passed instead of
    /// serving them late.
    pub drop_expired: bool,
    /// Seeded service-time dispersion; `None` keeps service deterministic.
    pub stochastic: Option<StochasticService>,
    /// Telemetry sampling interval in cycles; `None` disables the telemetry
    /// bus (and with it any control plane).
    pub telemetry_interval: Option<u64>,
    /// SLO specs and burn-rate policies evaluated at the run's alert ticks;
    /// `None` (the default) schedules no alert ticks and leaves the report's
    /// [`AlertLog`] empty.
    pub slo: Option<SloConfig>,
    /// Faults to inject as deterministic events; `None` (the default) runs a
    /// fault-free fleet.
    pub faults: Option<FaultSchedule>,
    /// Failure detection + failover policy; `None` injects faults without
    /// recovering from them (the chaos baseline).
    pub recovery: Option<RecoveryPolicy>,
}

impl ServingOptions {
    /// Default options for a dispatch policy.
    pub fn new(dispatch: DispatchPolicy) -> Self {
        ServingOptions {
            dispatch,
            admission: AdmissionControl::default(),
            migrations: Vec::new(),
            cost_model: MigrationCostModel::default(),
            max_batch: 1,
            max_batch_wait: None,
            drop_expired: false,
            stochastic: None,
            telemetry_interval: None,
            slo: None,
            faults: None,
            recovery: None,
        }
    }

    /// Overrides the admission limits.
    pub fn with_admission(mut self, admission: AdmissionControl) -> Self {
        self.admission = admission;
        self
    }

    /// Schedules a cold migration.
    pub fn with_migration(mut self, at: Cycles, handle: VnpuHandle, to: NodeId) -> Self {
        self.migrations.push(ScheduledMigration {
            at,
            handle,
            to,
            mode: MigrationMode::Cold,
        });
        self
    }

    /// Schedules a live pre-copy migration: the replica keeps serving through
    /// the copy rounds and goes dark only for the residual stop-and-copy.
    pub fn with_live_migration(mut self, at: Cycles, handle: VnpuHandle, to: NodeId) -> Self {
        self.migrations.push(ScheduledMigration {
            at,
            handle,
            to,
            mode: MigrationMode::PreCopy,
        });
        self
    }

    /// Overrides the migration cost model (interconnect link, pre-copy loop
    /// and dirty-rate knobs).
    pub fn with_cost_model(mut self, cost_model: MigrationCostModel) -> Self {
        self.cost_model = cost_model;
        self
    }

    /// Enables dynamic batching up to `max_batch` requests per pass.
    pub fn with_batching(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch.max(1);
        self
    }

    /// Holds an idle replica's sub-`max_batch` queue for up to `wait` cycles
    /// (from the oldest queued arrival) before serving a partial batch.
    pub fn with_batch_wait(mut self, wait: u64) -> Self {
        self.max_batch_wait = Some(wait);
        self
    }

    /// Drops expired requests unserved instead of serving them late.
    pub fn with_drop_expired(mut self) -> Self {
        self.drop_expired = true;
        self
    }

    /// Enables seeded stochastic service times.
    pub fn with_stochastic(mut self, stochastic: StochasticService) -> Self {
        self.stochastic = Some(stochastic);
        self
    }

    /// Emits a telemetry frame every `interval` cycles (the sampling hook of
    /// the autopilot control plane).
    pub fn with_telemetry(mut self, interval: u64) -> Self {
        self.telemetry_interval = Some(interval.max(1));
        self
    }

    /// Evaluates `slo` at every alert tick: completions, expiries and losses
    /// feed the burn-rate buckets, alert edges land in the report's
    /// [`AlertLog`] (and reach the sink / control plane as they happen), at
    /// any partition count.
    pub fn with_slo(mut self, slo: SloConfig) -> Self {
        self.slo = Some(slo);
        self
    }

    /// Injects `faults` as deterministic events inside the event loop. Every
    /// fault and its consequences are part of the run's seeded input: the
    /// same schedule, trace and seed reproduce the same
    /// [`AvailabilityStats`] byte for byte.
    pub fn with_faults(mut self, faults: FaultSchedule) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Arms failure detection and failover. Detection rides the telemetry
    /// bus — a board is declared dead after
    /// [`RecoveryPolicy::missed_frame_threshold`] consecutive missed frames —
    /// so recovery requires [`with_telemetry`](ServingOptions::with_telemetry);
    /// without it no frame is ever missed and nothing is detected.
    pub fn with_recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.recovery = Some(recovery);
        self
    }
}

/// Simulator-side execution counters of one serving run: how much machinery
/// the event loop turned, independent of what the simulated fleet did. The
/// `perf_fleet` harness reports these alongside wall-clock time so perf
/// regressions can be told apart from workload changes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PerfStats {
    /// Discrete events processed (completions, resumes, batch timeouts,
    /// copy rounds, migrations, faults), plus one per telemetry or SLO alert
    /// tick at every partition count.
    pub events: u64,
    /// Trace arrivals consumed.
    pub arrivals: u64,
    /// Largest number of simultaneously live replicas.
    pub peak_replicas: usize,
}

impl PerfStats {
    /// Events plus arrivals: everything the event loop dequeued.
    pub fn total_processed(&self) -> u64 {
        self.events + self.arrivals
    }
}

/// The measurements of one serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingReport {
    /// The dispatch policy that ran.
    pub dispatch: DispatchPolicy,
    /// Router counters (offered / admitted / rejected / completed). With
    /// drop-on-expiry enabled, `admitted = completed + deadline.dropped`.
    pub stats: RouterStats,
    /// Latency summary over every completed request (cycles from arrival to
    /// completion — queueing, batching, service and migration downtime
    /// included).
    pub latency: LatencySummary,
    /// Per-model latency summaries.
    pub per_model: BTreeMap<ModelId, LatencySummary>,
    /// Requests completed per node (attributed to the node that served them).
    pub per_node_completed: BTreeMap<NodeId, usize>,
    /// Deadline bookkeeping over the deadline-carrying requests.
    pub deadline: DeadlineStats,
    /// Service passes executed (a batch of k requests is one pass).
    pub batches: usize,
    /// The migrations that actually executed.
    pub migrations: Vec<MigrationRecord>,
    /// Per-mode migration aggregates (downtime, copy rounds, bytes streamed
    /// while serving) over `migrations`.
    pub migration_stats: MigrationStats,
    /// Control-plane activity (telemetry ticks, scale-ups/downs, controller
    /// migrations); all-zero for open-loop runs.
    pub control: ControlStats,
    /// Provisioned replica-time: the sum over replicas of the cycles between
    /// their activation and their release (or the end of the run). The
    /// replica-hours axis of autoscaling experiments.
    pub replica_cycles: u64,
    /// Time of the last completion (or executed-migration resume). Rejected
    /// arrivals never move the makespan.
    pub makespan: Cycles,
    /// Simulator execution counters (events processed, peak replica count).
    pub perf: PerfStats,
    /// SLO burn-rate alert edges (fire/resolve) in emission order; empty
    /// unless the run was configured with [`ServingOptions::with_slo`].
    pub alerts: AlertLog,
    /// Fault-injection and failover accounting; all-zero unless the run was
    /// configured with [`ServingOptions::with_faults`], except `lost`, which
    /// also counts the queue of a cross-partition migration that a sharded
    /// run had to abandon.
    pub availability: AvailabilityStats,
}

impl ServingReport {
    /// Aggregate throughput in requests per second.
    pub fn throughput_rps(&self, config: &NpuConfig) -> f64 {
        neu10::throughput_rps(self.stats.completed, self.makespan, config.frequency)
    }

    /// Mean number of requests per service pass.
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            return 0.0;
        }
        self.stats.completed as f64 / self.batches as f64
    }

    /// Provisioned replica-time in seconds (replica-hours × 3600).
    pub fn replica_seconds(&self, config: &NpuConfig) -> f64 {
        config
            .frequency
            .cycles_to_time(Cycles(self.replica_cycles))
            .as_secs()
    }
}

/// One admitted request waiting in (or being served from) a replica queue.
#[derive(Debug, Clone, Copy)]
struct QueuedRequest {
    model: ModelId,
    arrived: u64,
    deadline: Option<u64>,
    priority: PriorityClass,
    sequence: u64,
}

impl QueuedRequest {
    /// Earliest-deadline-first ordering key: priority class, then deadline
    /// (best-effort last), then arrival order.
    fn edf_key(&self) -> (PriorityClass, u64, u64) {
        (
            self.priority,
            self.deadline.unwrap_or(u64::MAX),
            self.sequence,
        )
    }
}

/// Heap entry comparing queued requests by their EDF key. The key is a
/// *total* order — sequences are unique per trace — so equal keys never
/// occur and heap pop order is fully deterministic.
#[derive(Debug, Clone, Copy)]
struct EdfEntry(QueuedRequest);

impl PartialEq for EdfEntry {
    fn eq(&self, other: &Self) -> bool {
        self.0.edf_key() == other.0.edf_key()
    }
}

impl Eq for EdfEntry {}

impl PartialOrd for EdfEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for EdfEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.edf_key().cmp(&other.0.edf_key())
    }
}

/// A replica's admitted-request queue: a FIFO ring, or — under
/// [`DispatchPolicy::EarliestDeadline`] — a min-heap ordered by
/// [`QueuedRequest::edf_key`].
///
/// The heap replaces a sorted-`VecDeque` linear insert (O(n) per enqueue,
/// quadratic across a backlog burst) with O(log n) push/pop. Because the EDF
/// key is a total order, popping the heap yields exactly the drain order the
/// sorted insert produced, so reports are bit-identical to the seed.
#[derive(Debug)]
enum ReplicaQueue {
    Fifo(VecDeque<QueuedRequest>),
    Edf(BinaryHeap<Reverse<EdfEntry>>),
}

impl ReplicaQueue {
    fn new(edf: bool) -> Self {
        if edf {
            ReplicaQueue::Edf(BinaryHeap::new())
        } else {
            ReplicaQueue::Fifo(VecDeque::new())
        }
    }

    fn len(&self) -> usize {
        match self {
            ReplicaQueue::Fifo(queue) => queue.len(),
            ReplicaQueue::Edf(heap) => heap.len(),
        }
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn push(&mut self, request: QueuedRequest) {
        match self {
            ReplicaQueue::Fifo(queue) => queue.push_back(request),
            ReplicaQueue::Edf(heap) => heap.push(Reverse(EdfEntry(request))),
        }
    }

    /// Earliest arrival cycle among the queued requests (`None` when empty).
    fn oldest_arrival(&self) -> Option<u64> {
        match self {
            ReplicaQueue::Fifo(queue) => queue.iter().map(|queued| queued.arrived).min(),
            ReplicaQueue::Edf(heap) => heap.iter().map(|Reverse(entry)| entry.0.arrived).min(),
        }
    }

    /// Drops every request failing `keep`. Callback order is unspecified
    /// (heap retention visits in heap order), so drop accounting must be
    /// order-insensitive — which the deadline counters are.
    fn retain(&mut self, mut keep: impl FnMut(&QueuedRequest) -> bool) {
        match self {
            ReplicaQueue::Fifo(queue) => queue.retain(|queued| keep(queued)),
            ReplicaQueue::Edf(heap) => heap.retain(|Reverse(entry)| keep(&entry.0)),
        }
    }

    /// Moves the next `size` requests — FIFO or EDF order — into `batch`.
    fn drain_into(&mut self, size: usize, batch: &mut Vec<QueuedRequest>) {
        match self {
            ReplicaQueue::Fifo(queue) => batch.extend(queue.drain(..size)),
            ReplicaQueue::Edf(heap) => {
                // `size` is clamped to the queue length by every caller;
                // stopping at an early None keeps this panic-free anyway.
                while batch.len() < size {
                    let Some(Reverse(entry)) = heap.pop() else {
                        break;
                    };
                    batch.push(entry.0);
                }
            }
        }
    }
}

/// The in-flight state of one live pre-copy migration: the dirty-page
/// accounting over the replica's resident state, the copy-round history, and
/// the convergence bookkeeping. Lives on the source replica from the request
/// until the stop-and-copy switch-over.
#[derive(Debug)]
struct PreCopyFlight {
    /// Destination node.
    to: NodeId,
    /// Page-granular dirty accounting; completions mark it, rounds drain it.
    dirty: DirtySet,
    /// Bytes one completed request re-dirties (write-heavy KV vs read-mostly
    /// weights, from the cost model's dirty-rate model).
    dirty_bytes_per_request: u64,
    /// Copy rounds performed (round 0, the full-state copy, included).
    rounds: u32,
    /// Bytes streamed by the previous round (convergence signal).
    last_round_bytes: u64,
    /// Bytes streamed per round, for the record.
    round_bytes: Vec<u64>,
    /// Link cycles spent copying while the source kept serving.
    precopy_cycles: u64,
    /// The scheduled end of the in-flight round (stale-event guard).
    round_ends_at: u64,
    /// Whether the loop converged below the stop threshold (set at the
    /// stop-and-copy decision; `false` = fallback to a cold-sized residual).
    converged: bool,
}

#[derive(Debug)]
struct ReplicaSim {
    handle: VnpuHandle,
    model: ModelId,
    /// Calibrated service time of a k-request batch at `batch_cycles[k - 1]`.
    /// Shared with every replica of the same shape through [`SHAPES`].
    batch_cycles: Arc<[u64]>,
    /// Calibrated service-time dispersion (`None` = deterministic), shared
    /// by every replica of the same σ.
    dispersion: Option<Arc<Lognormal>>,
    /// The replica's own service-time stream; it moves with the replica.
    stream: ServiceStream,
    queue: ReplicaQueue,
    /// The batch in service with its finish time.
    in_service: Option<(Vec<QueuedRequest>, u64)>,
    available_at: u64,
    pending_migration: Option<(NodeId, u64)>,
    /// A live pre-copy migration in flight: the replica keeps serving while
    /// copy rounds stream its state, until the stop-and-copy.
    precopy: Option<PreCopyFlight>,
    /// The batch-formation timeout currently armed, if any.
    batch_timeout_at: Option<u64>,
    /// Scale-down requested: no new dispatches; released once drained.
    draining: bool,
    /// Drained and released — the slot is dead (indices stay stable).
    retired: bool,
    /// Fenced by fault injection: the board is (or is presumed) dead, its
    /// in-service batch will never complete and its queue black-holes until
    /// failover takes the orphans. Stale completion events for fenced
    /// replicas are discarded.
    fenced: bool,
    /// When the replica was deployed (0 for the initial fleet).
    activated_at: u64,
}

impl ReplicaSim {
    /// Builds the simulator-side state of the replica deployed as `deployed`
    /// at `now`: the initial fleet, scale-ups, failover restores and
    /// cross-partition imports all start here.
    fn new(
        options: &ServingOptions,
        cluster: &NpuCluster,
        deployed: &DeployedVnpu,
        now: u64,
    ) -> Self {
        let (handle, model, config) = (deployed.handle, deployed.model, &deployed.config);
        let npu = cluster
            .node(handle.node)
            .expect("deployment node exists") // simlint::allow(P1, reason = "replica construction follows a successful deploy on that node")
            .npu_config();
        let (mes, ves) = (config.num_mes_per_core, config.num_ves_per_core);
        let (stochastic, max_batch) = (options.stochastic, options.max_batch);
        let calibration =
            stochastic.map(|s| (s.calibration_requests, s.cv_override.map(f64::to_bits)));
        let key = (model, mes, ves, npu.cache_key(), max_batch, calibration);
        let shape = SHAPES.get_or_insert_with(key, || {
            let batch_cycles = (1..=max_batch)
                .map(|k| estimated_batch_service_cycles(model, k, mes, ves, npu))
                .collect();
            // A negative or non-finite calibrated cv serves deterministically.
            let dispersion = stochastic.and_then(|stochastic| {
                Lognormal::from_cv(stochastic.cv_override.unwrap_or_else(|| {
                    calibrate_service_time(
                        npu,
                        model,
                        mes,
                        ves,
                        model.evaluation_batch_size(),
                        None,
                        stochastic.calibration_requests,
                    )
                    .cv
                }))
            });
            (batch_cycles, dispersion)
        });
        ReplicaSim {
            handle,
            model,
            batch_cycles: Arc::clone(&shape.0),
            dispersion: shape.1.clone(),
            stream: ServiceStream::new(stochastic.map_or(0, |s| s.seed), handle, now),
            queue: ReplicaQueue::new(options.dispatch.orders_queues_by_deadline()),
            in_service: None,
            available_at: now,
            pending_migration: None,
            precopy: None,
            batch_timeout_at: None,
            draining: false,
            retired: false,
            fenced: false,
            activated_at: now,
        }
    }

    /// Whether new work may land here now: the one availability predicate
    /// of arrival dispatch and failover re-dispatch alike. A replica is out
    /// while dark, while draining toward a stop-and-copy and while its live
    /// pre-copy is in flight: its stop-and-copy dark window is imminent, so
    /// new requests steer to any clean replica — the same soft-avoid
    /// mechanism failover uses to drain dying boards.
    fn dispatchable(&self, now: u64) -> bool {
        now >= self.available_at && self.pending_migration.is_none() && self.precopy.is_none()
    }

    /// The replica's load as the dispatch index keys it; a replica holding
    /// `max_queue_depth` queued requests is full.
    fn load(&self, now: u64, max_queue_depth: usize) -> SlotLoad {
        SlotLoad {
            outstanding: self.queue.len() + self.in_flight(),
            full: self.queue.len() >= max_queue_depth,
            available: self.dispatchable(now),
        }
    }

    /// Requests in the batch currently being served.
    fn in_flight(&self) -> usize {
        self.in_service.as_ref().map_or(0, |(batch, _)| batch.len())
    }

    /// Whether the replica participates in routing and telemetry.
    fn live(&self) -> bool {
        !self.retired
    }

    /// Inserts an admitted request, FIFO or EDF-ordered (the queue variant
    /// was fixed at replica construction).
    fn enqueue(&mut self, request: QueuedRequest) {
        self.queue.push(request);
    }
}

/// Mutable bookkeeping shared by the batch-formation path.
#[derive(Debug)]
struct ServeState {
    deadline: DeadlineStats,
    batches: usize,
    /// Per-model deadline tallies of the current telemetry window, `None`
    /// while the telemetry bus is off; a slot exists once the model has had
    /// a deadline outcome (the frame carries a model entry for each).
    windows: Option<ModelTable<DeadlineStats>>,
    control: ControlStats,
    /// Replica-time already banked by released replicas.
    replica_cycles: u64,
    /// Recycled batch buffers: completions return their request vector here
    /// and batch formation reuses one, so steady-state serving allocates no
    /// batch storage.
    batch_pool: Vec<Vec<QueuedRequest>>,
    /// Largest live-replica count seen over the run.
    peak_replicas: usize,
    /// The SLO burn-rate engine, fed by completions, expiries and losses;
    /// `None` unless [`ServingOptions::with_slo`] configured one.
    slo: Option<SloEngine>,
    /// Chaos bookkeeping; `None` unless [`ServingOptions::with_faults`]
    /// scheduled faults. The fault-free hot path pays one discriminant check.
    chaos: Option<ChaosState>,
    /// Per-model outcomes, in every run: [`ServeState::expire`] and
    /// [`ServeState::lose`] count each request that leaves unserved in
    /// `admitted` (a loss also in `lost`), and [`PartitionSim::finish`] adds
    /// the completions. It lives here, not in [`ChaosState`], because the
    /// failover sweep takes the chaos state out while it loses requests.
    ledger: ModelTable<ModelAvailability>,
}

impl ServeState {
    fn window_of(&mut self, model: ModelId) -> Option<&mut DeadlineStats> {
        self.windows.as_mut().map(|windows| windows.entry(model))
    }

    /// Drops `request`, queued on `slot` of `node`, past its deadline: the
    /// one body of every expiry, at batch start and in the failover sweep.
    fn expire<S: ObsSink + ?Sized>(
        &mut self,
        request: &QueuedRequest,
        now: u64,
        node: NodeId,
        slot: usize,
        sink: &mut S,
    ) {
        self.deadline.record_dropped();
        self.ledger.entry(request.model).admitted += 1;
        if let Some(window) = self.window_of(request.model) {
            window.record_dropped();
        }
        // An expiry is an unmet request: it burns the error budget of every
        // covering SLO.
        if let Some(engine) = &mut self.slo {
            engine.observe_expired(now, request.model, request.priority);
        }
        sink.on_expire(
            now,
            request.sequence,
            request.model,
            request.arrived,
            node,
            slot,
        );
    }

    /// Counts an admitted `request` lost at `node`: the one body of every
    /// loss (a failover orphan no replica takes, a request marooned on a
    /// fenced board at run end, an abandoned migration's queue). A loss burns
    /// SLO budget like an expiry; nothing is lost silently.
    fn lose<S: ObsSink + ?Sized>(
        &mut self,
        request: &QueuedRequest,
        now: u64,
        node: NodeId,
        sink: &mut S,
    ) {
        let ledger = self.ledger.entry(request.model);
        ledger.admitted += 1;
        ledger.lost += 1;
        if let Some(engine) = &mut self.slo {
            engine.observe_expired(now, request.model, request.priority);
        }
        sink.on_lost(now, request.sequence, request.model, node);
    }
}

// Event kinds, ordered so that at equal timestamps completions free capacity
// before resumes re-open replicas, batch-formation timeouts fire on settled
// queues, pre-copy rounds see the dirt of same-cycle completions, and
// migrations trigger next. The coordinator's telemetry and alert ticks come
// after all of these (see `tick_bound`), and faults after the ticks.
const EV_COMPLETION: u8 = 0;
const EV_RESUME: u8 = 1;
const EV_BATCH_TIMEOUT: u8 = 2;
const EV_COPY_ROUND: u8 = 3;
const EV_MIGRATION: u8 = 4;
/// Fault injections sort after the ticks at equal timestamps (the tick sees
/// the pre-fault fleet; the fault lands next) and never count as pending
/// *work*: a schedule whose tail outlives the traffic must not keep the run
/// ticking on its own.
const EV_FAULT: u8 = 5;

/// Bits of a packed event key that hold the event's index.
const EVENT_INDEX_BITS: u32 = 56;

/// Packs `(at, kind, index)` into one `u128` — `at` in the high 64 bits,
/// `kind` in the next 8, `index` in the low 56 — so one integer comparison
/// orders events exactly as the tuple does.
fn event_key(at: u64, kind: u8, index: usize) -> u128 {
    (u128::from(at) << 64) | (u128::from(kind) << EVENT_INDEX_BITS) | index as u128
}

/// The key of a trace arrival: after every event of its cycle.
pub(crate) fn arrival_key(at: u64) -> u128 {
    event_key(at, EV_FAULT + 1, 0)
}

/// A round bound below every event and arrival of `cycle`.
pub(crate) fn cycle_bound(cycle: u64) -> u128 {
    u128::from(cycle) << 64
}

/// The round bound of a telemetry or alert tick at `cycle`: after the
/// cycle's completions, resumes, batch timeouts, copy rounds and scheduled
/// migrations, before its faults and arrivals.
pub(crate) fn tick_bound(cycle: u64) -> u128 {
    event_key(cycle, EV_FAULT, 0)
}

/// The bound of the final round, which drains every event and arrival.
pub(crate) const UNBOUNDED: u128 = u128::MAX;

/// The serving event heap of packed keys ([`event_key`]), with a running
/// count of work events (every kind but faults), so "is there still work in
/// flight?" is O(1) instead of a whole-heap scan per tick.
#[derive(Debug, Default)]
struct EventQueue {
    heap: BinaryHeap<Reverse<u128>>,
    work: usize,
}

impl EventQueue {
    fn push(&mut self, at: u64, kind: u8, index: usize) {
        assert!(
            (index as u64) < 1 << EVENT_INDEX_BITS,
            "event index {index} does not fit the packed key"
        );
        if kind < EV_FAULT {
            self.work += 1;
        }
        self.heap.push(Reverse(event_key(at, kind, index)));
    }

    fn pop(&mut self) -> Option<(u64, u8, usize)> {
        let Reverse(key) = self.heap.pop()?;
        let kind = (key >> EVENT_INDEX_BITS) as u8;
        if kind < EV_FAULT {
            self.work -= 1;
        }
        let index = key as u64 & ((1 << EVENT_INDEX_BITS) - 1);
        Some(((key >> 64) as u64, kind, index as usize))
    }

    /// The key of the next event.
    fn peek(&self) -> Option<u128> {
        self.heap.peek().map(|Reverse(key)| *key)
    }

    /// Whether any completion / resume / timeout / copy-round / migration
    /// event is still queued (stale batch timeouts included).
    fn has_work(&self) -> bool {
        self.work > 0
    }
}

/// Per-link busy horizons: pre-copy rounds and stop-and-copy transfers over
/// the same board-to-board link serialize, so concurrent migrations contend
/// for bandwidth instead of each seeing a private link.
///
/// Ordered map (simlint `D1`): lookups are by exact key today, but a sharded
/// event loop will want to snapshot link horizons across partitions, and an
/// ordered map guarantees that snapshot is iteration-order-deterministic.
#[derive(Debug, Default)]
struct LinkSchedule {
    busy_until: BTreeMap<(NodeId, NodeId), u64>,
}

impl LinkSchedule {
    /// Reserves the link for a `cycles`-long transfer starting no earlier
    /// than `now`; returns when the transfer completes (queueing behind any
    /// transfer already on the link). An open chaos link-degradation window
    /// on the link inflates the transfer first. Pre-copy rounds,
    /// stop-and-copy windows, cross-partition exports and failover restores
    /// all price through here, so a degraded (or partitioned) link stresses
    /// both migration and recovery. The caller passes the chaos state in:
    /// the failover sweep holds it outside [`ServeState`] while it runs.
    fn reserve(
        &mut self,
        chaos: Option<&ChaosState>,
        a: NodeId,
        b: NodeId,
        now: u64,
        cycles: u64,
    ) -> u64 {
        let factor = chaos.map_or(1.0, |chaos| chaos.link_factor(a, b, now));
        let cycles = if factor > 1.0 {
            ((cycles as f64 * factor) as u64).max(cycles)
        } else {
            cycles
        };
        let slot = self.busy_until.entry(link_key(a, b)).or_insert(0);
        let end = now.max(*slot) + cycles;
        *slot = end;
        end
    }
}

/// Adds `count` completions to `node`'s slot of a `NodeId`-indexed table,
/// growing the table to cover the node on first touch.
fn add_node_completed(counts: &mut Vec<usize>, node: usize, count: usize) {
    if node >= counts.len() {
        counts.resize(node + 1, 0);
    }
    counts[node] += count;
}

/// The fluid service-time estimate of one `batch_requests`-request batch on a
/// `mes`×`ves` replica: the model is compiled at
/// `batch_requests × evaluation_batch_size` and each operator runs at the
/// rate of the engines the replica owns and the node's HBM bandwidth. The
/// estimate is sublinear in the batch wherever per-pass work (weight
/// traffic, fixed operator overheads) amortizes. An empty batch
/// (`batch_requests = 0`) is estimated as a batch of one — the cost of
/// spinning the pass up — never as zero or an underflow.
///
/// Compilation goes through the process-wide
/// [`TenantWorkload::compile_cached`] memo, so repeated queries for the same
/// (model, batch, board) — every replica of a homogeneous fleet, every
/// harness capacity estimate — compile exactly once.
pub fn estimated_batch_service_cycles(
    model: ModelId,
    batch_requests: usize,
    mes: usize,
    ves: usize,
    npu: &NpuConfig,
) -> u64 {
    let batch = model.evaluation_batch_size() * batch_requests.max(1) as u64;
    let workload = TenantWorkload::compile_cached(model, batch, npu, IsaKind::NeuIsa);
    let bw_per_cycle = npu.hbm_bandwidth_bytes_per_sec / npu.frequency.hz();
    let mut total = 0.0f64;
    for op in &workload.operators {
        let mut t = 0.0f64;
        if op.me_cycles > 0 {
            let engines = op.me_parallelism.max(1).min(mes.max(1));
            t = t.max(op.me_cycles as f64 / engines as f64);
        }
        if op.ve_cycles > 0 {
            let engines = op.ve_parallelism.max(1).min(ves.max(1));
            t = t.max(op.ve_cycles as f64 / engines as f64);
        }
        if op.hbm_bytes > 0 && bw_per_cycle > 0.0 {
            t = t.max(op.hbm_bytes as f64 / bw_per_cycle);
        }
        total += t;
    }
    (total as u64).max(1)
}

/// The fluid service-time estimate of one single-request pass — the
/// batch-of-1 case of [`estimated_batch_service_cycles`]. Harnesses use this
/// to size offered load relative to fleet capacity.
pub fn estimated_service_cycles(model: ModelId, mes: usize, ves: usize, npu: &NpuConfig) -> u64 {
    estimated_batch_service_cycles(model, 1, mes, ves, npu)
}

/// What a replica shape's calibration depends on: model, MEs, VEs, board,
/// `max_batch`, and for stochastic service the calibration requests and the
/// bits of the cv override.
type ShapeKey = (
    ModelId,
    usize,
    usize,
    NpuConfigKey,
    usize,
    Option<(usize, Option<u64>)>,
);

/// A replica shape's batch service times and stochastic dispersion.
type ShapeCalibration = (Arc<[u64]>, Option<Arc<Lognormal>>);

/// The process-wide replica-shape calibrations. Every replica of a shape
/// shares one entry, in every run and every partition, scale-ups and restores
/// included, so [`Lognormal::from_cv`] runs once per shape.
static SHAPES: Memo<ShapeKey, ShapeCalibration> = Memo::new();

/// The cluster serving simulator (open-loop, or closed-loop under a
/// [`ControlPlane`]).
#[derive(Debug, Clone)]
pub struct ClusterServingSim {
    options: ServingOptions,
}

impl ClusterServingSim {
    /// Builds a simulator with the given options.
    pub fn new(options: ServingOptions) -> Self {
        ClusterServingSim { options }
    }

    /// Replays `trace` against the replicas deployed in `cluster` with no
    /// control plane (any configured telemetry ticks are still counted).
    ///
    /// The cluster is mutated by scheduled migrations (their placements
    /// genuinely move); everything else is read-only. The run is a pure
    /// function of `(cluster, trace, options)`: replaying the same inputs
    /// produces a bit-identical [`ServingReport`].
    ///
    /// # Example
    ///
    /// ```
    /// use cluster::{ClusterServingSim, DeploySpec, DispatchPolicy, NpuCluster,
    ///               PlacementPolicy, ServingOptions};
    /// use npu_sim::NpuConfig;
    /// use workloads::{ClusterTrace, ModelId};
    ///
    /// let npu = NpuConfig::single_core();
    /// let mut fleet = NpuCluster::homogeneous(2, &npu);
    /// fleet.deploy(DeploySpec::replica(ModelId::Mnist, 2, 2), PlacementPolicy::BestFit)?;
    ///
    /// let trace = ClusterTrace::poisson(&[(ModelId::Mnist, 50_000)], 32, 7);
    /// let sim = ClusterServingSim::new(ServingOptions::new(DispatchPolicy::LeastLoaded));
    /// let report = sim.run(&mut fleet, &trace);
    /// assert_eq!(report.stats.offered, 32);
    /// assert_eq!(report.stats.completed, 32);
    ///
    /// // Determinism: an identical replay yields an identical report.
    /// let mut fleet2 = NpuCluster::homogeneous(2, &npu);
    /// fleet2.deploy(DeploySpec::replica(ModelId::Mnist, 2, 2), PlacementPolicy::BestFit)?;
    /// assert_eq!(report, sim.run(&mut fleet2, &trace));
    /// # Ok::<(), cluster::ClusterError>(())
    /// ```
    pub fn run(&self, cluster: &mut NpuCluster, trace: &ClusterTrace) -> ServingReport {
        drive_sequential(self, cluster, trace, &mut NoopControl, &mut NoopSink)
    }

    /// [`ClusterServingSim::run`] with the event loop instrumented through
    /// `sink` (typically a [`crate::obs::TraceRecorder`]).
    ///
    /// Observation never perturbs the simulation: the report is bit-identical
    /// to the uninstrumented [`ClusterServingSim::run`], and with
    /// [`NoopSink`] the monomorphized loop *is* the uninstrumented loop.
    pub fn run_observed(
        &self,
        cluster: &mut NpuCluster,
        trace: &ClusterTrace,
        sink: &mut dyn ObsSink,
    ) -> ServingReport {
        drive_sequential(self, cluster, trace, &mut NoopControl, sink)
    }

    /// [`ClusterServingSim::run_with_controller`] with the event loop
    /// instrumented through `sink`.
    ///
    /// # Panics
    ///
    /// Panics unless [`ServingOptions::with_telemetry`] was configured, for
    /// the same reason as [`ClusterServingSim::run_with_controller`].
    pub fn run_observed_with_controller(
        &self,
        cluster: &mut NpuCluster,
        trace: &ClusterTrace,
        controller: &mut dyn ControlPlane,
        sink: &mut dyn ObsSink,
    ) -> ServingReport {
        assert!(
            self.options.telemetry_interval.is_some(),
            "run_observed_with_controller requires ServingOptions::with_telemetry: \
             without a sampling interval the controller is never invoked"
        );
        drive_sequential(self, cluster, trace, controller, sink)
    }

    /// Replays `trace` against `cluster` under a closed-loop `controller`.
    ///
    /// Every sampling interval the simulator emits a [`TelemetryFrame`], the
    /// controller answers with [`ControlAction`]s, and the actions are
    /// applied at the tick, in the controller's order — scale-ups deploy
    /// through the placement engine and start serving at the tick,
    /// scale-downs drain then release, migrations follow the cold migration
    /// path. The cluster is mutated accordingly. Deterministic controllers
    /// yield reproducible reports.
    ///
    /// # Panics
    ///
    /// Panics unless [`ServingOptions::with_telemetry`] was configured:
    /// without a sampling interval the controller would never be invoked and
    /// the run would silently degrade to open loop.
    pub fn run_with_controller(
        &self,
        cluster: &mut NpuCluster,
        trace: &ClusterTrace,
        controller: &mut dyn ControlPlane,
    ) -> ServingReport {
        assert!(
            self.options.telemetry_interval.is_some(),
            "run_with_controller requires ServingOptions::with_telemetry: \
             without a sampling interval the controller is never invoked"
        );
        drive_sequential(self, cluster, trace, controller, &mut NoopSink)
    }

    /// The options this simulator was built with (the sharded runner derives
    /// its per-partition options from them).
    pub(crate) fn options(&self) -> &ServingOptions {
        &self.options
    }
}

/// The accumulated results of one partition's run.
///
/// The coordinator merges the per-partition outcomes in partition-index
/// order ([`PartitionOutcome::merge`]) before the report, so the merged
/// report is a pure fold over per-partition state — bit-identical for a
/// fixed partitioning regardless of how many worker threads ran it. A
/// sequential run's one outcome merges nothing.
pub(crate) struct PartitionOutcome {
    pub(crate) dispatch: DispatchPolicy,
    pub(crate) router_stats: RouterStats,
    pub(crate) per_model: ModelTable<QuantileSketch>,
    /// Completed requests per node, indexed by `NodeId`; a node served
    /// anything iff its count is non-zero (every batch holds a request).
    pub(crate) per_node_completed: Vec<usize>,
    pub(crate) deadline: DeadlineStats,
    pub(crate) batches: usize,
    pub(crate) migration_records: Vec<MigrationRecord>,
    pub(crate) control: ControlStats,
    pub(crate) replica_cycles: u64,
    pub(crate) makespan: u64,
    pub(crate) perf: PerfStats,
    pub(crate) availability: AvailabilityStats,
}

impl PartitionOutcome {
    /// Folds `other` (a higher-indexed partition's outcome) into `self`.
    ///
    /// Order matters and is fixed: the sharded runner always merges in
    /// partition-index order, so sketch contents, per-model folds and record
    /// concatenation are deterministic for a fixed partitioning.
    pub(crate) fn merge(&mut self, other: PartitionOutcome) {
        self.router_stats.offered += other.router_stats.offered;
        self.router_stats.admitted += other.router_stats.admitted;
        self.router_stats.rejected_no_replica += other.router_stats.rejected_no_replica;
        self.router_stats.rejected_overload += other.router_stats.rejected_overload;
        for (model, sketch) in other.per_model.into_entries() {
            self.per_model.entry(model).merge(&sketch);
        }
        for (node, count) in other.per_node_completed.into_iter().enumerate() {
            add_node_completed(&mut self.per_node_completed, node, count);
        }
        self.deadline.merge(&other.deadline);
        self.batches += other.batches;
        self.migration_records.extend(other.migration_records);
        self.control.samples += other.control.samples;
        self.control.scale_ups += other.control.scale_ups;
        self.control.scale_up_rejected += other.control.scale_up_rejected;
        self.control.scale_downs += other.control.scale_downs;
        self.control.released += other.control.released;
        self.control.migrations_requested += other.control.migrations_requested;
        self.control.migrations_rejected += other.control.migrations_rejected;
        self.replica_cycles += other.replica_cycles;
        self.makespan = self.makespan.max(other.makespan);
        self.perf.events += other.perf.events;
        self.perf.arrivals += other.perf.arrivals;
        // Summed, not maxed: partition peaks need not coincide in time, so
        // this is the provisioning upper bound, exact when partitions are
        // statically sized (the sequential path never merges).
        self.perf.peak_replicas += other.perf.peak_replicas;
        self.availability.merge(&other.availability);
    }

    /// Converts the (merged) outcome and the run's alert log into the public
    /// report.
    ///
    /// The fleet summary merges the per-model sketches in `ModelId` order.
    /// Below the sketch cap the merged buffer holds every latency, and
    /// `summary_sorted` reproduces the seed's sort-then-`from_sorted` global
    /// summary bit-for-bit; above it every path buckets each sample alike.
    /// `summary` reproduces the insertion-order `from_samples` per-model
    /// fold.
    pub(crate) fn into_report(self, alerts: AlertLog) -> ServingReport {
        let mut fleet = QuantileSketch::default();
        let per_model = self
            .per_model
            .into_entries()
            .map(|(model, sketch)| {
                fleet.merge(&sketch);
                (model, sketch.summary())
            })
            .collect();
        ServingReport {
            dispatch: self.dispatch,
            // Every completion records one latency sample.
            stats: RouterStats {
                completed: fleet.count(),
                ..self.router_stats
            },
            latency: fleet.summary_sorted(),
            per_model,
            per_node_completed: self
                .per_node_completed
                .into_iter()
                .enumerate()
                .filter(|&(_, count)| count > 0)
                .map(|(node, count)| (NodeId(node as u32), count))
                .collect(),
            deadline: self.deadline,
            batches: self.batches,
            migration_stats: MigrationStats::from_records(&self.migration_records),
            migrations: self.migration_records,
            control: self.control,
            replica_cycles: self.replica_cycles,
            makespan: Cycles(self.makespan),
            perf: self.perf,
            alerts,
            availability: self.availability,
        }
    }
}

/// A replica in flight between partitions: everything the destination needs
/// to resurrect it, plus everything the source already charged for moving it.
///
/// Cross-partition migrations are always cold (precopy needs destination
/// state the source partition cannot see), priced source-side, and delivered
/// at the next barrier. `ready_at` is the cycle the replica may resume at on
/// the destination — the barrier merge clamps it up to the barrier time, which
/// is conservative-safe because partitions never run past the barrier bound.
pub(crate) struct MigrationEnvelope {
    pub(crate) from_node: NodeId,
    /// The replica's slot in the exporting partition.
    pub(crate) from_slot: usize,
    pub(crate) to_node: NodeId,
    pub(crate) spec: DeploySpec,
    queue: Vec<QueuedRequest>,
    /// The replica's service-time stream, key and counter: it resumes on
    /// the destination exactly where it stopped.
    stream: ServiceStream,
    pub(crate) ready_at: u64,
    record: MigrationRecord,
    /// True once the destination rejected the import and the envelope was
    /// re-targeted back at its source. A bounced envelope re-imports silently
    /// (the rejection was already counted); a second failure abandons it.
    pub(crate) bounced: bool,
    /// A scale-down raced the move: the import drains the replica again, so
    /// it serves its queue and releases, as after a local migration.
    draining: bool,
}

/// A partition's view of the partitioned fleet: which partition this is, who
/// owns each board, how arrivals are routed, and the replicas exported since
/// the last barrier. A sequential run's one partition owns every board, so
/// no board is remote and nothing is ever exported.
pub(crate) struct ShardContext {
    pub(crate) index: usize,
    pub(crate) owners: BTreeMap<NodeId, usize>,
    pub(crate) plan: ShardPlan,
    pub(crate) exports: Vec<MigrationEnvelope>,
}

impl ShardContext {
    /// Whether another partition owns `node`. A node of no partition is not
    /// remote: moving there fails like any move to an unknown board.
    fn remote(&self, node: NodeId) -> bool {
        self.owners
            .get(&node)
            .is_some_and(|&owner| owner != self.index)
    }
}

/// One partition of the serving event loop: a set of boards with its own
/// event heap, replica table, router and accumulators. Service-time draws
/// come from each replica's own stream, so they do not depend on the
/// partition.
///
/// The coordinator in `sharded.rs` drives every run: one partition owning
/// the whole cluster for the sequential `run*` entry points, one per
/// board-group for the sharded ones, in rounds that end at barriers (ticks,
/// cross-partition deliveries). All mutable simulation state lives here so a
/// partition can be stepped to a bound, reconciled, and resumed without
/// losing determinism.
///
/// The replica table is indexed by slot and keeps every slot the run ever
/// created, retired ones included, so a slot number (in events, the dispatch
/// index and traces) names one replica for the whole run. Beside it, the
/// live list holds the non-retired slots in ascending order: every per-tick
/// pass (sampling, fleet counters, failure detection, fault fencing, the
/// work-left and export checks, the plan weights, the end-of-run sweep)
/// walks that list, so a tick costs the live fleet, not the run's history.
pub(crate) struct PartitionSim<'a> {
    /// The run's settings, read in place: `max_batch` is normalized to at
    /// least 1 once, at construction.
    options: ServingOptions,
    replicas: Vec<ReplicaSim>,
    /// The non-retired slots, ascending. [`add_replica`](Self::add_replica)
    /// pushes (a new slot is always the largest) and
    /// [`retire`](Self::retire) removes; nothing else changes it.
    live: Vec<usize>,
    dispatch_index: ReplicaIndex,
    router: Router,
    state: ServeState,
    events: EventQueue,
    links: LinkSchedule,
    arrivals: &'a [RequestArrival],
    next_arrival: usize,
    makespan: u64,
    perf: PerfStats,
    per_model: ModelTable<QuantileSketch>,
    per_node_completed: Vec<usize>,
    migration_records: Vec<MigrationRecord>,
    views: Vec<ReplicaView>,
    shard: ShardContext,
}

impl<'a> PartitionSim<'a> {
    /// Builds a partition over `cluster`'s current deployments, arming the
    /// scheduled migration and fault events. Telemetry and alert ticks are
    /// the coordinator's barriers, so the control plane sees the whole
    /// fleet, not one shard.
    pub(crate) fn new(
        mut options: ServingOptions,
        cluster: &mut NpuCluster,
        arrivals: &'a [RequestArrival],
        shard: ShardContext,
    ) -> Self {
        options.max_batch = options.max_batch.max(1);
        let replicas: Vec<ReplicaSim> = cluster
            .deployments()
            .map(|deployment| ReplicaSim::new(&options, cluster, deployment, 0))
            .collect();

        // The dispatch index mirrors the replica table incrementally: slots
        // enter on deploy, leave the routable sets on drain, re-key on
        // migration and die on retire, and every load edge touches its slot.
        // Every arrival then reads its model's load tree instead of scanning
        // the candidates.
        let mut dispatch_index = ReplicaIndex::new(options.dispatch);
        for (slot, replica) in replicas.iter().enumerate() {
            dispatch_index.insert(slot, replica.model, replica.handle.node, replica.handle);
        }

        let router = Router::new(options.dispatch, options.admission);
        let state = ServeState {
            deadline: DeadlineStats::default(),
            batches: 0,
            windows: options.telemetry_interval.map(|_| ModelTable::default()),
            control: ControlStats::default(),
            replica_cycles: 0,
            batch_pool: Vec::new(),
            peak_replicas: replicas.len(),
            slo: options.slo.as_ref().map(SloEngine::new),
            chaos: options.faults.as_ref().map(|_| ChaosState::default()),
            ledger: ModelTable::default(),
        };
        let mut events = EventQueue::default();
        for (index, migration) in options.migrations.iter().enumerate() {
            events.push(migration.at.get(), EV_MIGRATION, index);
        }
        if let Some(schedule) = &options.faults {
            for (index, fault) in schedule.events().iter().enumerate() {
                events.push(fault.at, EV_FAULT, index);
            }
        }
        PartitionSim {
            options,
            live: (0..replicas.len()).collect(),
            replicas,
            dispatch_index,
            router,
            state,
            events,
            links: LinkSchedule::default(),
            arrivals,
            next_arrival: 0,
            makespan: 0,
            perf: PerfStats::default(),
            // Latency accumulators are streaming quantile sketches, one per
            // model, not retained per-sample vectors: exact below the sketch
            // cap, α-bounded and O(1) memory beyond it.
            per_model: ModelTable::default(),
            per_node_completed: Vec::new(),
            migration_records: Vec::new(),
            // Candidate-view scratch for the debug-build dispatch oracle.
            views: Vec::new(),
            shard,
        }
    }

    /// Advances the partition until no work remains or the next event or
    /// arrival is keyed at or past `bound`, a packed `(cycle, position)` key
    /// ([`cycle_bound`], [`tick_bound`]): what is keyed at or past it runs
    /// in the next round, after the barrier reconciliation, which is what
    /// makes barrier-injected events (always stamped ≥ the barrier time)
    /// safe. The final round passes [`UNBOUNDED`] and drains every event.
    pub(crate) fn step_until<S: ObsSink + ?Sized>(
        &mut self,
        bound: u128,
        cluster: &mut NpuCluster,
        sink: &mut S,
    ) {
        // Partitions share the trace slice. Each partition's arrival cursor
        // steps over the arrivals other partitions own — here under the plan
        // rebuilt at the last barrier, and again after every owned arrival —
        // so the loop below only ever sees its own.
        self.skip_unowned(bound);

        loop {
            let event = self.events.peek().unwrap_or(UNBOUNDED);
            let arrival = self
                .arrivals
                .get(self.next_arrival)
                .map_or(UNBOUNDED, |a| arrival_key(a.at.get()));
            if event.min(arrival) >= bound {
                break;
            }
            if arrival < event {
                self.arrive(bound, sink);
                continue;
            }

            let (now, kind, index) = self.events.pop().expect("peeked above"); // simlint::allow(P1, reason = "pop follows the peek that chose the event branch")
            self.perf.events += 1;
            // Slot-scoped events may change their slot's load. Their
            // handlers never pick a replica, so touching up front is as good
            // as touching after.
            if matches!(
                kind,
                EV_COMPLETION | EV_RESUME | EV_BATCH_TIMEOUT | EV_COPY_ROUND
            ) {
                self.dispatch_index.touch(index);
            }
            match kind {
                // A fenced board never reports: the batch stays captured in
                // `in_service` so failover (or the end-of-run sweep) can
                // account for every request.
                EV_COMPLETION if self.replicas[index].fenced => continue,
                EV_COMPLETION => self.complete(cluster, index, now, sink),
                EV_RESUME => {
                    self.makespan = self.makespan.max(now);
                    self.start_next(index, now, sink);
                    self.retire_if_drained(cluster, index, now);
                }
                EV_BATCH_TIMEOUT => {
                    // Stale timeouts (the batch filled, or the queue was
                    // served/dropped meanwhile) are ignored; `start_next`
                    // re-arms a fresh one when it holds again.
                    if self.replicas[index].batch_timeout_at == Some(now) {
                        self.replicas[index].batch_timeout_at = None;
                        self.start_next(index, now, sink);
                    }
                }
                EV_COPY_ROUND => self.copy_round(cluster, index, now, sink),
                EV_MIGRATION => {
                    let scheduled = self.options.migrations[index];
                    let Some(target) = self.dispatch_index.slot_of(scheduled.handle) else {
                        continue; // stale handle (already moved or undeployed)
                    };
                    self.dispatch_index.touch(target);
                    self.start_migration(cluster, target, scheduled.to, scheduled.mode, now, sink);
                }
                EV_FAULT => self.inject_fault(cluster, index, now, sink),
                _ => unreachable!("unknown event kind"),
            }
            // Re-key the touched leaves at the edge itself, so the next pick
            // finds its trees current.
            self.refresh_loads(now);
        }
    }

    /// Steps the arrival cursor over the arrivals other partitions own.
    fn skip_unowned(&mut self, bound: u128) {
        let shard = &self.shard;
        shard
            .plan
            .skip_unowned(shard.index, self.arrivals, &mut self.next_arrival, bound);
    }

    /// Re-keys every slot touched since the last refresh at its load now.
    fn refresh_loads(&mut self, now: u64) {
        let (replicas, depth) = (&self.replicas, self.options.admission.max_queue_depth);
        self.dispatch_index
            .refresh(|slot| replicas[slot].load(now, depth));
    }

    /// Admits or rejects the trace arrival under the cursor.
    fn arrive<S: ObsSink + ?Sized>(&mut self, bound: u128, sink: &mut S) {
        let arrival = self.arrivals[self.next_arrival];
        self.next_arrival += 1;
        // The cursor stopped here, below the bound, so this partition owns
        // the arrival: arrival counters sum to the trace length across
        // partitions.
        debug_assert_eq!(
            self.shard.plan.owner(arrival.model, arrival.sequence),
            self.shard.index
        );
        self.skip_unowned(bound);
        self.perf.arrivals += 1;
        let now = arrival.at.get();
        sink.on_arrival(now, arrival.sequence, arrival.model);

        match self.route(arrival.model, now, true) {
            DispatchDecision::Dispatch(index) => {
                sink.on_dispatch(
                    now,
                    arrival.sequence,
                    arrival.model,
                    self.replicas[index].handle.node,
                    index,
                );
                self.replicas[index].enqueue(QueuedRequest {
                    model: arrival.model,
                    arrived: now,
                    deadline: arrival.deadline.map(|d| d.get()),
                    priority: arrival.priority,
                    sequence: arrival.sequence,
                });
                self.start_next(index, now, sink);
                self.dispatch_index.touch(index);
            }
            decision @ (DispatchDecision::RejectNoReplica | DispatchDecision::RejectOverload) => {
                let reason = if matches!(decision, DispatchDecision::RejectNoReplica) {
                    RejectReason::NoReplica
                } else {
                    RejectReason::Overload
                };
                sink.on_reject(now, arrival.sequence, arrival.model, reason);
            }
        }
        self.refresh_loads(now);
    }

    /// Retires the batch `index` finished at `now`: records every member's
    /// latency, then either executes a migration that waited for the drain
    /// or starts the next batch.
    fn complete<S: ObsSink + ?Sized>(
        &mut self,
        cluster: &mut NpuCluster,
        index: usize,
        now: u64,
        sink: &mut S,
    ) {
        // Only real work moves the makespan: completions here, executed
        // migrations via their resume event.
        self.makespan = self.makespan.max(now);
        let replica = &mut self.replicas[index];
        let state = &mut self.state;
        let (mut batch, finish) = replica
            .in_service
            .take()
            .expect("completion without service"); // simlint::allow(P1, reason = "EV_COMPLETION is only scheduled while a batch is in service")
        debug_assert_eq!(finish, now);
        for request in &batch {
            let latency = now.saturating_sub(request.arrived);
            self.per_model.entry(request.model).record(latency);
            let mut deadline_met = None;
            if let Some(deadline) = request.deadline {
                let met = now <= deadline;
                deadline_met = Some(met);
                state.deadline.record_completion(met);
                if let Some(window) = state.window_of(request.model) {
                    window.record_completion(met);
                }
            }
            if let Some(engine) = &mut state.slo {
                engine.observe_latency(now, request.model, request.priority, latency);
            }
            sink.on_complete(
                now,
                request.sequence,
                request.model,
                request.priority,
                request.arrived,
                replica.handle.node,
                index,
                deadline_met,
            );
        }
        add_node_completed(
            &mut self.per_node_completed,
            replica.handle.node.0 as usize,
            batch.len(),
        );
        // A live pre-copy in flight: the served batch wrote its share of
        // resident state, re-dirtying pages the rounds must stream again.
        if let Some(precopy) = &mut replica.precopy {
            precopy
                .dirty
                .mark(batch.len() as u64 * precopy.dirty_bytes_per_request);
        }
        batch.clear();
        state.batch_pool.push(batch);
        if let Some((to, requested_at)) = replica.pending_migration.take() {
            let drain = now.saturating_sub(requested_at);
            self.execute_migration(cluster, index, to, drain, now, sink);
        } else {
            self.start_next(index, now, sink);
            self.retire_if_drained(cluster, index, now);
        }
    }

    /// Picks a replica for `model` off the dispatch index's load trees,
    /// first refreshing any slot touched since the last edge (failover
    /// re-dispatch touches between picks). An arrival (`admit`) moves the
    /// router's admission counters; a failover re-dispatch does not.
    ///
    /// Debug builds also make the reference pick and assert that both agree.
    /// Its views come straight off the replica table: every live,
    /// non-draining replica of `model` in slot order, with each node's
    /// replica count taken over the same scan. Nothing the index maintains
    /// reaches the reference, so every tested pick checks the index's
    /// candidate sets, locality counts and trees against the fleet itself.
    fn route(&mut self, model: ModelId, now: u64, admit: bool) -> DispatchDecision {
        self.refresh_loads(now);
        let expected = if cfg!(debug_assertions) {
            let views = &mut self.views;
            views.clear();
            let mut per_node: BTreeMap<NodeId, usize> = BTreeMap::new();
            for (slot, replica) in self.replicas.iter().enumerate() {
                if replica.live() && !replica.draining && replica.model == model {
                    *per_node.entry(replica.handle.node).or_default() += 1;
                    views.push(ReplicaView {
                        index: slot,
                        node: replica.handle.node,
                        queue_len: replica.queue.len(),
                        in_flight: replica.in_flight(),
                        unavailable: !replica.dispatchable(now),
                        node_replicas: 0,
                    });
                }
            }
            for view in views.iter_mut() {
                view.node_replicas = per_node[&view.node];
            }
            Some(self.router.peek(model, views))
        } else {
            None
        };
        let decision = if admit {
            self.router.dispatch_indexed(model, &self.dispatch_index)
        } else {
            self.router.redispatch(model, &self.dispatch_index)
        };
        debug_assert!(
            expected.is_none_or(|expected| expected == decision),
            "load-tree pick {decision:?} for {model:?} at cycle {now} diverged from the \
             view scan's {expected:?}"
        );
        decision
    }

    /// Adds a freshly deployed replica to the table, the live list and the
    /// dispatch index, returning its slot. Every mid-run deployment enters
    /// here: scale-ups, failover re-placements and cross-partition imports.
    fn add_replica(&mut self, replica: ReplicaSim) -> usize {
        let slot = self.replicas.len();
        self.dispatch_index
            .insert(slot, replica.model, replica.handle.node, replica.handle);
        self.replicas.push(replica);
        self.live.push(slot);
        self.state.peak_replicas = self.state.peak_replicas.max(self.live.len());
        slot
    }

    /// Debug builds check that the live list is exactly the table's
    /// non-retired slots, in ascending order.
    fn check_live(&self, now: u64) {
        debug_assert!(
            self.live.iter().copied().eq(self
                .replicas
                .iter()
                .enumerate()
                .filter(|(_, replica)| replica.live())
                .map(|(slot, _)| slot)),
            "the live list must match the replica table at cycle {now}"
        );
    }

    /// Ends the run: sweeps requests still marooned on fenced boards, banks
    /// the replica-time of everything still provisioned, and converts the
    /// partition's accumulators into a mergeable [`PartitionOutcome`].
    pub(crate) fn finish<S: ObsSink + ?Sized>(mut self, sink: &mut S) -> PartitionOutcome {
        let makespan = self.makespan;
        self.check_live(makespan);
        // Requests still marooned on fenced boards at run end were never
        // failed over (no recovery armed, or the run drained first): count
        // every one lost with a fault attribution. Nothing is silent.
        let mut marooned: Vec<QueuedRequest> = Vec::new();
        for &slot in &self.live {
            let replica = &mut self.replicas[slot];
            if !replica.fenced {
                continue;
            }
            if let Some((batch, _)) = replica.in_service.take() {
                marooned.extend(batch);
            }
            let queued = replica.queue.len();
            replica.queue.drain_into(queued, &mut marooned);
            for request in marooned.drain(..) {
                self.state
                    .lose(&request, makespan, replica.handle.node, sink);
            }
        }

        // Bank the replica-time of everything still provisioned at the end.
        for &slot in &self.live {
            self.state.replica_cycles += makespan.saturating_sub(self.replicas[slot].activated_at);
        }
        self.perf.peak_replicas = self.state.peak_replicas;

        let mut availability = self
            .state
            .chaos
            .take()
            .map_or_else(AvailabilityStats::default, |chaos| chaos.stats);
        // Every admitted request completed, expired or was lost.
        let mut ledger = self.state.ledger;
        for (model, sketch) in self.per_model.iter() {
            let entry = ledger.entry(model);
            entry.completed = sketch.count() as u64;
            entry.admitted += entry.completed;
        }
        availability.per_model = ledger.into_entries().collect();
        availability.lost = availability.per_model.values().map(|m| m.lost).sum();
        PartitionOutcome {
            dispatch: self.options.dispatch,
            router_stats: self.router.stats(),
            per_model: self.per_model,
            per_node_completed: self.per_node_completed,
            deadline: self.state.deadline,
            batches: self.state.batches,
            migration_records: self.migration_records,
            control: self.state.control,
            replica_cycles: self.state.replica_cycles,
            makespan,
            perf: self.perf,
            availability,
        }
    }

    /// Whether the partition can still produce completions: arrivals left,
    /// an export awaiting delivery, a live replica with queued/in-service
    /// work or a pending drain-then-move, or a work event (not a fault)
    /// queued. Ticks re-arm only while some partition has work left.
    pub(crate) fn work_left(&self) -> bool {
        self.next_arrival < self.arrivals.len()
            || !self.shard.exports.is_empty()
            || self.live.iter().any(|&slot| {
                let r = &self.replicas[slot];
                // Work marooned on a fenced board counts only while recovery
                // will eventually drain it (detection needs the telemetry
                // ticks this keeps alive); without recovery it would sustain
                // the bus forever, so the run ends and the sweep counts the
                // marooned requests as lost.
                (!r.fenced || self.options.recovery.is_some())
                    && (r.in_service.is_some()
                        || !r.queue.is_empty()
                        || r.pending_migration.is_some())
            })
            || self.events.has_work()
    }

    /// Applies fault `index` of the schedule at `now`.
    fn inject_fault<S: ObsSink + ?Sized>(
        &mut self,
        cluster: &mut NpuCluster,
        index: usize,
        now: u64,
        sink: &mut S,
    ) {
        let (Some(faults), Some(chaos)) = (&self.options.faults, &mut self.state.chaos) else {
            unreachable!("EV_FAULT is only scheduled with a fault schedule and chaos state");
        };
        let fault = faults.events()[index];
        chaos.apply(&fault);
        sink.on_fault(now, &fault);
        match fault.kind {
            FaultKind::BoardCrash { node } => {
                // Cordon the board: nothing (the autoscaler included) may
                // place onto it again. Replicas are fenced, not retired — the
                // router keeps steering into the black hole until the
                // missed-frame detector declares the board dead, which is
                // exactly the availability cost of detection latency.
                cluster.set_offline(node, true);
                chaos.cordoned.insert(node);
                for index in 0..self.live.len() {
                    let slot = self.live[index];
                    if self.replicas[slot].handle.node == node {
                        self.fence(slot);
                    }
                }
            }
            FaultKind::BoardHang { node, for_cycles } => {
                // Cordon for the window so the control plane cannot deploy
                // into dead air; the sample-tick sweep re-onlines the board
                // once the hang clears (unless the detector failed it over
                // first). Batches already on the device complete; nothing
                // new starts.
                cluster.set_offline(node, true);
                chaos.cordoned.insert(node);
                let resume_at = now.saturating_add(for_cycles);
                for &slot in &self.live {
                    let replica = &mut self.replicas[slot];
                    if !replica.fenced && replica.handle.node == node {
                        replica.available_at = replica.available_at.max(resume_at);
                        self.events.push(resume_at, EV_RESUME, slot);
                        self.dispatch_index.touch(slot);
                    }
                }
            }
            // Window faults: `apply` opened the window; the serving and
            // transfer paths read it lazily.
            FaultKind::LinkDegrade { .. }
            | FaultKind::Straggler { .. }
            | FaultKind::TelemetryDropout { .. } => {}
        }
    }

    /// Fences `index`: its board is (or is presumed) dead, so its in-service
    /// batch never completes, and no migration or batch timeout of it
    /// proceeds.
    fn fence(&mut self, index: usize) {
        let replica = &mut self.replicas[index];
        replica.fenced = true;
        replica.pending_migration = None;
        replica.precopy = None;
        replica.batch_timeout_at = None;
        self.dispatch_index.touch(index);
    }

    /// Ends `index`'s life on this partition: evicts the slot from the
    /// dispatch index, marks it retired, banks its replica-time and releases
    /// its vNPU. Every retirement ends here: a drained scale-down, a
    /// failover and a cross-partition export.
    fn retire(&mut self, cluster: &mut NpuCluster, index: usize, now: u64) {
        let replica = &mut self.replicas[index];
        let handle = replica.handle;
        self.dispatch_index
            .evict(index, replica.model, handle.node, handle, !replica.draining);
        replica.retired = true;
        replica.batch_timeout_at = None;
        replica.pending_migration = None;
        self.state.replica_cycles += now.saturating_sub(replica.activated_at);
        if let Ok(position) = self.live.binary_search(&index) {
            self.live.remove(position);
        }
        let released = cluster.undeploy(handle).is_ok();
        debug_assert!(released, "a retiring replica's deployment must exist");
    }

    /// This partition's share of a telemetry tick: failure detection and
    /// failover, then one sample per live replica appended to the
    /// coordinator's merged `frame` and the window's deadline tallies moved
    /// into it, which closes the window. The frame is reused across ticks
    /// and a model's tally entry is inserted once, at its first deadline
    /// outcome, so a steady-state tick over a stable fleet allocates nothing.
    pub(crate) fn telemetry_tick<S: ObsSink + ?Sized>(
        &mut self,
        cluster: &mut NpuCluster,
        now: u64,
        frame: &mut TelemetryFrame,
        sink: &mut S,
    ) {
        self.chaos_tick(cluster, now, sink);
        self.check_live(now);
        frame.replicas.extend(self.live.iter().map(|&slot| {
            let replica = &self.replicas[slot];
            ReplicaSample {
                handle: replica.handle,
                model: replica.model,
                queue_len: replica.queue.len(),
                in_flight: replica.in_flight(),
                draining: replica.draining,
            }
        }));
        for (model, window) in self.state.windows.iter_mut().flat_map(ModelTable::iter_mut) {
            let tally = frame.deadlines.entry(model).or_default();
            tally.merge(&std::mem::take(window));
        }
    }

    /// Hands a tick's merged `frame` to `sink` with this partition's fleet
    /// counters; only an active sink pays for the counter scan.
    pub(crate) fn report_tick<S: ObsSink + ?Sized>(
        &self,
        cluster: &NpuCluster,
        now: u64,
        frame: &TelemetryFrame,
        sink: &mut S,
    ) {
        if !sink.active() {
            return;
        }
        let mut counters = FleetCounters::default();
        for &slot in &self.live {
            let replica = &self.replicas[slot];
            counters.queued += replica.queue.len() as u64;
            counters.in_flight += replica.in_flight() as u64;
            counters.live_replicas += 1;
            if replica.precopy.is_some() || replica.pending_migration.is_some() {
                counters.migrations_in_flight += 1;
            }
            counters.resident_bytes += cluster.resident_state_bytes(replica.handle).unwrap_or(0);
        }
        sink.on_tick(now, frame, &counters);
    }

    /// The failure-detection and failover pass, run at every telemetry tick
    /// before the frame is sampled (detection rides the telemetry bus — no
    /// wall clock anywhere).
    ///
    /// Every monitored board (one hosting at least one live replica) either
    /// heartbeats or bumps its consecutive-missed-frame counter; a board at
    /// the policy threshold is **declared dead**: its replicas are fenced
    /// and retired, the orphaned requests (queued + in flight) are
    /// re-dispatched to surviving replicas within their remaining deadline
    /// budget, and replacement replicas are re-placed through the placement
    /// engine with the state restore priced over the (possibly degraded)
    /// interconnect. Finally, cordoned boards whose transient fault window
    /// has closed rejoin the placement engine as spare capacity.
    fn chaos_tick<S: ObsSink + ?Sized>(
        &mut self,
        cluster: &mut NpuCluster,
        now: u64,
        sink: &mut S,
    ) {
        let Some(policy) = self.options.recovery else {
            return;
        };
        let Some(mut chaos) = self.state.chaos.take() else {
            return;
        };

        // Heartbeat accounting over the monitored boards, in ascending node
        // order: the declaration scan below must walk them deterministically.
        let monitored = &mut chaos.monitored;
        monitored.clear();
        monitored.extend(
            self.live
                .iter()
                .map(|&slot| self.replicas[slot].handle.node),
        );
        monitored.sort_unstable();
        monitored.dedup();
        let mut dead: Vec<NodeId> = Vec::new();
        for &node in &chaos.monitored {
            if chaos.declared.contains(&node) {
                continue;
            }
            if chaos.suppressed(node, now) {
                let missed = chaos.missed.entry(node).or_insert(0);
                *missed += 1;
                if *missed >= policy.missed_frame_threshold {
                    dead.push(node);
                }
            } else {
                chaos.missed.remove(&node);
                chaos.fault_since.remove(&node);
            }
        }

        // Slots whose queues gained redispatched orphans; batches start only
        // after the chaos state is back in place (straggler pricing applies).
        let mut touched: BTreeSet<usize> = BTreeSet::new();

        for node in dead {
            chaos.declared.insert(node);
            chaos.cordoned.insert(node);
            cluster.set_offline(node, true);
            chaos.stats.failovers += 1;
            let fault_at = chaos.fault_since.get(&node).copied().unwrap_or(now);
            let detect = now.saturating_sub(fault_at);
            chaos.stats.detect_cycles_total += detect;
            chaos.stats.detect_cycles_max = chaos.stats.detect_cycles_max.max(detect);

            // Fence and retire every live replica on the dead board,
            // capturing its orphans and (for non-draining replicas) the
            // deployment shape to restore elsewhere.
            let slots: Vec<usize> = self
                .live
                .iter()
                .copied()
                .filter(|&slot| self.replicas[slot].handle.node == node)
                .collect();
            let mut orphans: Vec<(usize, QueuedRequest)> = Vec::new();
            let mut failed_here = 0u64;
            for slot in slots {
                let handle = self.replicas[slot].handle;
                let restore_spec = if self.replicas[slot].draining {
                    None
                } else {
                    cluster
                        .deployment(handle)
                        .map(|d| (d.spec(), cluster.resident_state_bytes(handle).unwrap_or(0)))
                };
                self.fence(slot);
                let replica = &mut self.replicas[slot];
                if let Some((mut batch, _)) = replica.in_service.take() {
                    orphans.extend(batch.iter().map(|&request| (slot, request)));
                    batch.clear();
                    self.state.batch_pool.push(batch);
                }
                let queued = replica.queue.len();
                let mut drained: Vec<QueuedRequest> = Vec::with_capacity(queued);
                replica.queue.drain_into(queued, &mut drained);
                orphans.extend(drained.into_iter().map(|request| (slot, request)));
                self.retire(cluster, slot, now);
                failed_here += 1;
                chaos.stats.replicas_failed += 1;

                // Re-place the replica on a surviving board, pricing the
                // state restore over the interconnect (degraded links slow
                // recovery too).
                let Some((spec, state_bytes)) = restore_spec else {
                    continue;
                };
                let Ok(new_handle) = cluster.deploy(spec, policy.placement) else {
                    chaos.stats.restore_rejected += 1;
                    sink.on_restore_rejected(now, node);
                    continue;
                };
                let deployment = *cluster
                    .deployment(new_handle)
                    .expect("deploy just returned this handle"); // simlint::allow(P1, reason = "deployment record is created by the successful deploy above")
                let mut sim = ReplicaSim::new(&self.options, cluster, &deployment, now);
                let frequency = cluster
                    .node(new_handle.node)
                    .expect("deploy placed on an existing node") // simlint::allow(P1, reason = "deploy only places on nodes of the cluster")
                    .npu_config()
                    .frequency;
                let cycles = self
                    .options
                    .cost_model
                    .transfer_cycles(state_bytes, frequency)
                    .get();
                let ready = self
                    .links
                    .reserve(Some(&chaos), node, new_handle.node, now, cycles);
                sim.available_at = ready;
                let new_slot = self.add_replica(sim);
                self.events.push(ready, EV_RESUME, new_slot);
                chaos.stats.replicas_restored += 1;
                let restore = ready.saturating_sub(fault_at);
                chaos.stats.restore_cycles_total += restore;
                chaos.stats.restore_cycles_max = chaos.stats.restore_cycles_max.max(restore);
                sink.on_replica_restored(now, new_handle.node, new_slot, ready.saturating_sub(now));
            }

            // Re-dispatch the orphans earliest-deadline-first (priority
            // class, then deadline, then admission sequence), so the
            // tightest deadlines reach surviving capacity ahead of
            // best-effort backlog. A request past its deadline is dropped
            // with the normal expiry accounting; one no surviving replica
            // can take is lost — with a fault attribution, never silently.
            orphans.sort_by_key(|(_, request)| request.edf_key());
            chaos.stats.orphaned += orphans.len() as u64;
            let mut redispatched_here = 0u64;
            for (dead_slot, request) in orphans {
                if self.options.drop_expired && request.deadline.is_some_and(|d| d < now) {
                    chaos.stats.expired_in_failover += 1;
                    self.state.expire(&request, now, node, dead_slot, sink);
                    continue;
                }
                match self.route(request.model, now, false) {
                    DispatchDecision::Dispatch(slot) => {
                        redispatched_here += 1;
                        chaos.stats.redispatched += 1;
                        self.replicas[slot].enqueue(request);
                        self.dispatch_index.touch(slot);
                        touched.insert(slot);
                    }
                    DispatchDecision::RejectNoReplica | DispatchDecision::RejectOverload => {
                        self.state.lose(&request, now, node, sink);
                    }
                }
            }
            sink.on_failover(now, node, failed_here, redispatched_here, detect);
        }

        // Boards whose transient windows closed (hang over, dropout over —
        // never a crash) rejoin the placement engine as spare capacity. A
        // falsely declared board rejoins empty: its replicas were already
        // failed over.
        let rejoin: Vec<NodeId> = chaos
            .cordoned
            .iter()
            .copied()
            .filter(|&node| !chaos.crashed.contains(&node) && !chaos.suppressed(node, now))
            .collect();
        for node in rejoin {
            cluster.set_offline(node, false);
            chaos.cordoned.remove(&node);
            chaos.declared.remove(&node);
            chaos.missed.remove(&node);
            chaos.fault_since.remove(&node);
        }

        self.state.chaos = Some(chaos);
        for slot in touched {
            self.start_next(slot, now, sink);
            self.dispatch_index.touch(slot);
        }
    }

    /// Applies a scale-down or a migration of one of this partition's
    /// replicas: the coordinator routes each to the partition owning the
    /// replica's board, in the controller's order. It places scale-ups on
    /// the whole fleet itself and hands the outcome to
    /// [`scale_up`](Self::scale_up).
    pub(crate) fn apply_action<S: ObsSink + ?Sized>(
        &mut self,
        cluster: &mut NpuCluster,
        action: ControlAction,
        now: u64,
        sink: &mut S,
    ) {
        sink.on_control(now, &action);
        match action {
            ControlAction::ScaleUp { .. } => {
                unreachable!("the coordinator places scale-ups on the whole fleet")
            }
            ControlAction::ScaleDown { handle } => {
                let Some(index) = self.dispatch_index.slot_of(handle) else {
                    return; // stale handle (already moved or released)
                };
                if self.replicas[index].draining {
                    return;
                }
                self.begin_drain(index);
                self.state.control.scale_downs += 1;
                // A held partial batch flushes immediately: a draining
                // replica never waits for a batch that cannot form.
                self.start_next(index, now, sink);
                self.retire_if_drained(cluster, index, now);
            }
            ControlAction::Migrate { handle, to, mode } => {
                self.state.control.migrations_requested += 1;
                let Some(index) = self.dispatch_index.slot_of(handle) else {
                    return;
                };
                self.start_migration(cluster, index, to, mode, now, sink);
                self.dispatch_index.touch(index);
            }
        }
    }

    /// Counts a scale-up's outcome: adopts the replica the placement engine
    /// deployed on `cluster` as `deployed`, or counts the refusal.
    pub(crate) fn scale_up(
        &mut self,
        cluster: &NpuCluster,
        deployed: Option<VnpuHandle>,
        now: u64,
    ) {
        let Some(handle) = deployed else {
            self.state.control.scale_up_rejected += 1;
            return;
        };
        let deployment = *cluster.deployment(handle).expect("just deployed"); // simlint::allow(P1, reason = "the caller passes the handle its successful deploy on this cluster returned")
        let replica = ReplicaSim::new(&self.options, cluster, &deployment, now);
        self.add_replica(replica);
        self.state.control.scale_ups += 1;
    }

    /// Takes `index` out of the routable sets for a drain-then-release. A
    /// scale-down trumps a live migration in flight: the vNPU is being
    /// released, so streaming its state anywhere is wasted work. The
    /// orphaned copy-round event is ignored by its staleness guard.
    fn begin_drain(&mut self, index: usize) {
        let replica = &mut self.replicas[index];
        replica.draining = true;
        replica.precopy = None;
        self.dispatch_index
            .begin_drain(index, replica.model, replica.handle.node);
    }

    /// Starts moving `replicas[index]` to `to`, for a scheduled migration and
    /// a control-plane one alike. A pre-copy streams the state while the
    /// replica keeps serving. A cold move drains a busy replica's in-flight
    /// batch first; an idle one migrates immediately. A destination another
    /// partition owns demotes a pre-copy to a cold drain-and-move: the copy
    /// loop needs destination state the source partition cannot see.
    fn start_migration<S: ObsSink + ?Sized>(
        &mut self,
        cluster: &mut NpuCluster,
        index: usize,
        to: NodeId,
        mode: MigrationMode,
        now: u64,
        sink: &mut S,
    ) {
        // A draining replica is about to release its vNPU anyway: migrating
        // it would charge a pointless dark window to its queued requests. A
        // replica already migrating (either mode) finishes that move first.
        let replica = &mut self.replicas[index];
        if replica.handle.node == to
            || replica.pending_migration.is_some()
            || replica.precopy.is_some()
            || replica.draining
        {
            return;
        }
        // Ask the owner map, not the cluster: at a tick the coordinator
        // applies actions on the whole fleet, where every board is present.
        if mode == MigrationMode::PreCopy && !self.shard.remote(to) {
            self.begin_precopy(cluster, index, to, now, sink);
        } else if replica.in_service.is_some() {
            // Drain first; the completion event finishes the job.
            replica.pending_migration = Some((to, now));
        } else {
            self.execute_migration(cluster, index, to, 0, now, sink);
        }
    }

    /// Starts a live pre-copy migration of `replicas[index]` to `to` (past
    /// [`start_migration`](Self::start_migration)'s guards): round 0 streams
    /// the full resident state over the (possibly contended) link while the
    /// replica keeps serving; the copy-round event continues the loop.
    fn begin_precopy<S: ObsSink + ?Sized>(
        &mut self,
        cluster: &NpuCluster,
        index: usize,
        to: NodeId,
        now: u64,
        sink: &mut S,
    ) {
        let replica = &mut self.replicas[index];
        let (Some(state_bytes), Some(_)) = (
            cluster.resident_state_bytes(replica.handle),
            cluster.node(to),
        ) else {
            // Unknown destination or stale placement: refused, like the cold
            // path's migrate() error.
            self.reject_migration(now, index, sink);
            return;
        };
        let from = replica.handle.node;
        let source_npu = cluster
            .node(from)
            .expect("source node exists") // simlint::allow(P1, reason = "a migrating replica's source node holds its deployment")
            .npu_config();
        let cost_model = &self.options.cost_model;
        let precopy = &cost_model.precopy;
        let dirty_bytes_per_request = precopy
            .dirty_rate
            .dirty_bytes_per_request(replica.model, source_npu);
        let full_copy = cost_model
            .transfer_cycles(state_bytes, source_npu.frequency)
            .get();
        let ends_at = self
            .links
            .reserve(self.state.chaos.as_ref(), from, to, now, full_copy);
        replica.precopy = Some(PreCopyFlight {
            to,
            dirty: DirtySet::new(state_bytes, precopy.page_bytes),
            dirty_bytes_per_request,
            rounds: 1,
            last_round_bytes: state_bytes,
            round_bytes: vec![state_bytes],
            precopy_cycles: ends_at - now,
            round_ends_at: ends_at,
            converged: false,
        });
        self.events.push(ends_at, EV_COPY_ROUND, index);
        sink.on_copy_round(now, ends_at, from, to, index, 0, state_bytes);
    }

    /// Finishes one pre-copy round: decides between another round (dirty set
    /// still large but shrinking), and the stop-and-copy (converged below the
    /// threshold, or the loop stalled — round cap hit, or the dirty set no
    /// longer shrinking because serving re-dirties faster than the link
    /// drains).
    fn copy_round<S: ObsSink + ?Sized>(
        &mut self,
        cluster: &mut NpuCluster,
        index: usize,
        now: u64,
        sink: &mut S,
    ) {
        let replica = &mut self.replicas[index];
        // Staleness guards: the migration was cancelled (drain won), or this
        // is not the round we scheduled.
        let Some(precopy) = &mut replica.precopy else {
            return;
        };
        if precopy.round_ends_at != now || replica.retired || replica.draining {
            return;
        }
        let cost_model = &self.options.cost_model;
        let config = &cost_model.precopy;
        let dirty_bytes = precopy.dirty.dirty_bytes();
        let threshold = config.stop_copy_bytes(precopy.dirty.capacity_bytes());
        let converged = dirty_bytes <= threshold;
        let stalled = precopy.rounds >= config.max_rounds
            || dirty_bytes as f64 > config.shrink_ratio * precopy.last_round_bytes as f64;
        let (from, to) = (replica.handle.node, precopy.to);
        if converged || stalled {
            // Stop-and-copy: freeze dispatch; whatever the in-flight batch
            // still dirties joins the residual moved in the dark window.
            precopy.converged = converged;
            if replica.in_service.is_some() {
                replica.pending_migration = Some((to, now));
            } else {
                self.execute_migration(cluster, index, to, 0, now, sink);
            }
            return;
        }
        // Another round: stream the pages dirtied during the one that just
        // ended; serving continues and re-dirties into the next round.
        let round = precopy.dirty.take_bytes();
        let frequency = cluster
            .node(from)
            .expect("source node exists") // simlint::allow(P1, reason = "a migrating replica's source node holds its deployment")
            .npu_config()
            .frequency;
        let cycles = cost_model.transfer_cycles(round, frequency).get();
        let ends_at = self
            .links
            .reserve(self.state.chaos.as_ref(), from, to, now, cycles);
        precopy.rounds += 1;
        precopy.last_round_bytes = round;
        precopy.round_bytes.push(round);
        precopy.precopy_cycles += ends_at - now;
        precopy.round_ends_at = ends_at;
        self.events.push(ends_at, EV_COPY_ROUND, index);
        sink.on_copy_round(now, ends_at, from, to, index, precopy.rounds - 1, round);
    }

    /// Releases a fully drained replica's vNPU back to the cluster.
    fn retire_if_drained(&mut self, cluster: &mut NpuCluster, index: usize, now: u64) {
        let replica = &self.replicas[index];
        if !replica.draining
            || replica.retired
            || replica.in_service.is_some()
            || !replica.queue.is_empty()
            || replica.pending_migration.is_some()
        {
            return;
        }
        self.retire(cluster, index, now);
        self.state.control.released += 1;
    }

    /// Starts the next service pass if the replica is idle and available:
    /// drops expired requests (when enabled), then collects up to
    /// `max_batch` queued requests into one batch — unless a batch-formation
    /// window is configured and still open, in which case the queue is held
    /// (bounded by `max_batch_wait`) to let the batch fill.
    fn start_next<S: ObsSink + ?Sized>(&mut self, index: usize, now: u64, sink: &mut S) {
        let replica = &mut self.replicas[index];
        let state = &mut self.state;
        if replica.retired
            || replica.fenced
            || replica.in_service.is_some()
            || now < replica.available_at
        {
            return;
        }
        // Defense in depth for chaos runs: no batch ever starts on a board
        // that is down right now (the fenced flag and the hang's
        // `available_at` push normally make this unreachable).
        if let Some(chaos) = &state.chaos {
            if chaos.board_down(replica.handle.node, now) {
                return;
            }
        }
        if self.options.drop_expired {
            let node = replica.handle.node;
            replica.queue.retain(|queued| {
                let expired = queued.deadline.is_some_and(|d| d < now);
                if expired {
                    state.expire(queued, now, node, index, sink);
                }
                !expired
            });
        }
        if replica.queue.is_empty() {
            return;
        }
        // Hold a sub-max_batch queue while the batch-formation window is
        // open; draining replicas flush immediately (their batch can never
        // fill again).
        if replica.queue.len() < self.options.max_batch && !replica.draining {
            if let Some(wait) = self.options.max_batch_wait {
                let oldest = replica.queue.oldest_arrival().expect("non-empty queue"); // simlint::allow(P1, reason = "the is_empty() check above returned on an empty queue")
                let due = oldest.saturating_add(wait);
                if now < due {
                    if replica.batch_timeout_at.is_none() {
                        replica.batch_timeout_at = Some(due);
                        self.events.push(due, EV_BATCH_TIMEOUT, index);
                    }
                    return;
                }
            }
        }
        replica.batch_timeout_at = None;
        let size = replica.queue.len().min(self.options.max_batch);
        let mut batch = state.batch_pool.pop().unwrap_or_default();
        replica.queue.drain_into(size, &mut batch);
        let base = replica.batch_cycles[size - 1];
        let factor = match &replica.dispersion {
            Some(dispersion) => dispersion.sample(replica.stream.next_word()),
            None => 1.0,
        };
        let mut service = ((base as f64 * factor) as u64).max(1);
        // A straggler window inflates every batch *started* on the board.
        if let Some(chaos) = &state.chaos {
            let straggle = chaos.service_factor(replica.handle.node, now);
            if straggle > 1.0 {
                service = ((service as f64 * straggle) as u64).max(service);
            }
        }
        let finish = now + service;
        // Batch-member iteration is extra work the disabled path must never
        // pay; an active sink sees each member's queue span, then the batch.
        if sink.active() {
            for request in &batch {
                sink.on_service_request(
                    now,
                    request.sequence,
                    request.model,
                    request.arrived,
                    replica.handle.node,
                    index,
                );
            }
            sink.on_service_batch(now, finish, replica.model, replica.handle.node, index, size);
        }
        replica.in_service = Some((batch, finish));
        state.batches += 1;
        self.events.push(finish, EV_COMPLETION, index);
    }

    /// Runs the stop-and-copy phases of a migration: snapshot + transfer +
    /// remap. The replica goes dark until `available_at` and then resumes on
    /// the destination node with its queue intact. For a cold migration the
    /// transfer moves the full resident state; for a pre-copy switch-over it
    /// moves only the residual dirty delta plus the architectural context,
    /// queueing behind any transfer already on the link.
    ///
    /// A destination another partition owns is intercepted before the local
    /// `migrate` call: the replica is exported into a [`MigrationEnvelope`]
    /// for barrier delivery instead.
    fn execute_migration<S: ObsSink + ?Sized>(
        &mut self,
        cluster: &mut NpuCluster,
        index: usize,
        to: NodeId,
        drain_cycles: u64,
        now: u64,
        sink: &mut S,
    ) {
        if self.shard.remote(to) {
            self.export_replica(cluster, index, to, drain_cycles, now);
            return;
        }
        let replica = &mut self.replicas[index];
        let source_frequency = cluster
            .node(replica.handle.node)
            .expect("source node exists") // simlint::allow(P1, reason = "a migrating replica's source node holds its deployment")
            .npu_config()
            .frequency;
        let cost_model = &self.options.cost_model;
        let Ok(outcome) = cluster.migrate(replica.handle, to, cost_model, Some(drain_cycles))
        else {
            // The destination refused (capacity raced away); the replica
            // keeps serving from its source node, any pre-copy effort
            // abandoned.
            replica.precopy = None;
            self.reject_migration(now, index, sink);
            self.start_next(index, now, sink);
            return;
        };
        let mut record = outcome.record;
        let chaos = self.state.chaos.as_ref();
        let cycles = if let Some(precopy) = replica.precopy.take() {
            // Live switch-over: the dark window moves the residual dirty
            // pages plus the register/queue context — not the full state the
            // cold-priced record assumed — and waits its turn on the
            // contended link.
            let residual = precopy.dirty.dirty_bytes() + cost_model.context_bytes;
            record.mode = MigrationMode::PreCopy;
            record.precopy_rounds = precopy.rounds;
            record.precopy_bytes = precopy.round_bytes.iter().sum();
            record.round_bytes = precopy.round_bytes;
            record.precopy_cycles = precopy.precopy_cycles;
            record.converged = precopy.converged;
            cost_model.transfer_cycles(residual, source_frequency).get()
        } else {
            // Cold transfers occupy the same board-to-board link as
            // everything else: a transfer already in flight delays this one
            // (on an idle link the window is unchanged).
            record.transfer_cycles
        };
        record.transfer_cycles = self
            .links
            .reserve(chaos, record.from, record.to, now, cycles)
            - now;
        let post_drain = record.transfer_cycles + record.remap_cycles;
        let old_handle = replica.handle;
        replica.handle = VnpuHandle {
            node: record.to,
            vnpu: record.dest_vnpu,
        };
        replica.available_at = now + post_drain;
        // A draining replica (scale-down raced with the migration) already
        // left the routable sets; only its handle re-keys.
        self.dispatch_index.relocate(
            old_handle,
            replica.handle,
            index,
            replica.model,
            !replica.draining,
        );
        sink.on_stop_copy(now, replica.available_at, index, &record);
        self.migration_records.push(record);
        self.events.push(replica.available_at, EV_RESUME, index);
    }

    /// Packs `replicas[index]` into a cross-partition [`MigrationEnvelope`]:
    /// the transfer is priced source-side (chaos windows and link contention
    /// included), the queue drained in pop order, the slot retired — and the
    /// envelope waits in the shard's exports for barrier delivery to the
    /// owning partition.
    fn export_replica(
        &mut self,
        cluster: &mut NpuCluster,
        index: usize,
        to: NodeId,
        drain_cycles: u64,
        now: u64,
    ) {
        let handle = self.replicas[index].handle;
        let Some(deployment) = cluster.deployment(handle).copied() else {
            // The deployment raced away (cannot happen for a live replica);
            // account it like any refused migration rather than panicking.
            self.state.control.migrations_rejected += 1;
            return;
        };
        let state_bytes = cluster.resident_state_bytes(handle).unwrap_or(0);
        let frequency = cluster
            .node(handle.node)
            .expect("source node exists") // simlint::allow(P1, reason = "a migrating replica's source node holds its deployment")
            .npu_config()
            .frequency;
        // Cross-partition moves are always cold: the pre-copy loop needs
        // destination-side state the source partition cannot see.
        let replica = &mut self.replicas[index];
        replica.precopy = None;
        let cost_model = &self.options.cost_model;
        let cycles = cost_model.transfer_cycles(state_bytes, frequency).get();
        let transfer_ends =
            self.links
                .reserve(self.state.chaos.as_ref(), handle.node, to, now, cycles);
        let record = MigrationRecord {
            source_vnpu: handle.vnpu,
            // Placeholder: the destination assigns the real id at import.
            dest_vnpu: handle.vnpu,
            from: handle.node,
            to,
            mode: MigrationMode::Cold,
            state_bytes,
            drain_cycles,
            transfer_cycles: transfer_ends - now,
            remap_cycles: cost_model.remap_cycles,
            precopy_rounds: 0,
            round_bytes: Vec::new(),
            precopy_bytes: 0,
            precopy_cycles: 0,
            converged: true,
        };
        let queued = replica.queue.len();
        let mut queue: Vec<QueuedRequest> = Vec::with_capacity(queued);
        replica.queue.drain_into(queued, &mut queue);
        let envelope = MigrationEnvelope {
            from_node: handle.node,
            from_slot: index,
            to_node: to,
            spec: deployment.spec(),
            queue,
            stream: replica.stream,
            ready_at: transfer_ends + cost_model.remap_cycles,
            record,
            bounced: false,
            draining: replica.draining,
        };
        self.retire(cluster, index, now);
        self.shard.exports.push(envelope);
    }

    /// Drains the envelopes exported since the last barrier.
    pub(crate) fn take_exports(&mut self) -> Vec<MigrationEnvelope> {
        std::mem::take(&mut self.shard.exports)
    }

    /// Imports a replica another partition exported, deploying it on the
    /// envelope's destination node of this partition's cluster. On capacity
    /// failure the envelope is handed back so the coordinator can bounce it
    /// to its source partition.
    ///
    /// The resume time is the source-priced `ready_at` clamped up to the
    /// barrier — conservative-safe, because no partition has simulated past
    /// the barrier yet. A first-time import finalizes and records the
    /// migration; a bounced one records nothing (the rejection was already
    /// counted, mirroring the sequential refused-migration path). A replica
    /// that left draining drains again here.
    pub(crate) fn import_replica<S: ObsSink + ?Sized>(
        &mut self,
        cluster: &mut NpuCluster,
        envelope: MigrationEnvelope,
        barrier: u64,
        sink: &mut S,
    ) -> Result<(), Box<MigrationEnvelope>> {
        let handle = match cluster.deploy_pinned(envelope.spec, envelope.to_node) {
            Ok(handle) => handle,
            Err(_) => return Err(Box::new(envelope)),
        };
        let deployment = *cluster.deployment(handle).expect("just deployed"); // simlint::allow(P1, reason = "deployment recorded by the deploy_pinned call above")
        let mut sim = ReplicaSim::new(&self.options, cluster, &deployment, barrier);
        let resume_at = envelope.ready_at.max(barrier);
        sim.available_at = resume_at;
        sim.stream = envelope.stream;
        for request in envelope.queue {
            sim.enqueue(request);
        }
        let slot = self.add_replica(sim);
        if envelope.draining {
            self.begin_drain(slot);
        }
        self.events.push(resume_at, EV_RESUME, slot);
        if !envelope.bounced {
            let mut record = envelope.record;
            record.dest_vnpu = handle.vnpu;
            record.to = handle.node;
            sink.on_stop_copy(barrier, resume_at, slot, &record);
            self.migration_records.push(record);
        }
        Ok(())
    }

    /// Drops a migration whose import failed at both the destination and
    /// (bounced) back at the source: the replica is gone and every queued
    /// request is lost — counted in the availability stats and reported to
    /// the sink, never silently, whether or not the run injects faults. The
    /// rejection statistic was already counted at the partition that first
    /// refused the import.
    pub(crate) fn abandon_envelope<S: ObsSink + ?Sized>(
        &mut self,
        envelope: MigrationEnvelope,
        barrier: u64,
        sink: &mut S,
    ) {
        for request in &envelope.queue {
            self.state.lose(request, barrier, envelope.from_node, sink);
        }
    }

    /// Counts a refused migration of `slot` and reports it to the sink: a
    /// pre-copy or cold move the destination refused, or a cross-partition
    /// import refused at the barrier (the bounce back to the source still
    /// happens).
    pub(crate) fn reject_migration<S: ObsSink + ?Sized>(
        &mut self,
        now: u64,
        slot: usize,
        sink: &mut S,
    ) {
        self.state.control.migrations_rejected += 1;
        sink.on_migration_rejected(now, slot);
    }

    /// The partition's SLO engine, fed by its completions, expiries and
    /// losses. At each alert tick the coordinator sums every partition's
    /// buckets into partition 0's engine and evaluates that one.
    pub(crate) fn slo(&mut self) -> Option<&mut SloEngine> {
        self.state.slo.as_mut()
    }

    /// Whether a cross-partition transfer is pending or imminent: an export
    /// awaiting delivery, or a busy replica draining toward a board another
    /// partition owns. The coordinator keeps barrier windows at the
    /// interconnect lookahead while this holds. A fenced replica's batch
    /// never completes, so its drain-then-move never exports.
    pub(crate) fn pending_remote(&self) -> bool {
        !self.shard.exports.is_empty()
            || self.live.iter().any(|&slot| {
                let replica = &self.replicas[slot];
                !replica.fenced
                    && replica
                        .pending_migration
                        .is_some_and(|(to, _)| self.shard.remote(to))
            })
    }

    /// Adds this partition's dispatchable replica counts to a shard plan
    /// being rebuilt at a barrier. Mirrors the sequential router's candidate
    /// set: live and not draining — fenced replicas stay routable until
    /// failover evicts them, exactly the sequential black-hole window.
    pub(crate) fn accumulate_weights(
        &self,
        weights: &mut BTreeMap<ModelId, Vec<u64>>,
        partitions: usize,
    ) {
        for replica in self.live.iter().map(|&slot| &self.replicas[slot]) {
            if !replica.draining {
                weights
                    .entry(replica.model)
                    .or_insert_with(|| vec![0; partitions])[self.shard.index] += 1;
            }
        }
    }

    /// Installs the plan rebuilt at a barrier.
    pub(crate) fn set_plan(&mut self, plan: ShardPlan) {
        self.shard.plan = plan;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::DeploySpec;
    use crate::migration::{DirtyRateModel, PreCopyConfig};
    use crate::par::in_tag_order;
    use crate::placement::PlacementPolicy;
    use crate::sharded::{Coordinator, ShardJob};
    use workloads::{QosSpec, RequestArrival};

    fn fleet_with_replicas(nodes: usize, replicas: usize) -> (NpuCluster, Vec<VnpuHandle>) {
        let mut fleet = NpuCluster::homogeneous(nodes, &NpuConfig::single_core());
        let handles = (0..replicas)
            .map(|_| {
                fleet
                    .deploy(
                        DeploySpec::replica(ModelId::Mnist, 2, 2),
                        PlacementPolicy::WorstFit,
                    )
                    .unwrap()
            })
            .collect();
        (fleet, handles)
    }

    fn burst_trace(count: usize, gap: u64) -> ClusterTrace {
        ClusterTrace::from_arrivals(
            (0..count)
                .map(|i| RequestArrival::new(Cycles(i as u64 * gap), ModelId::Mnist))
                .collect(),
        )
    }

    #[test]
    fn admitted_requests_all_complete() {
        let (mut fleet, _) = fleet_with_replicas(2, 2);
        let trace = burst_trace(40, 1_000);
        let report = ClusterServingSim::new(ServingOptions::new(DispatchPolicy::LeastLoaded))
            .run(&mut fleet, &trace);
        assert_eq!(report.stats.offered, 40);
        assert_eq!(report.stats.admitted, 40);
        assert_eq!(
            report.stats.completed, report.stats.admitted,
            "the router never drops admitted requests"
        );
        assert_eq!(report.latency.count, 40);
        assert!(report.makespan > Cycles::ZERO);
        assert!(report.throughput_rps(&NpuConfig::single_core()) > 0.0);
        assert_eq!(
            report.per_node_completed.values().sum::<usize>(),
            40,
            "every completion is attributed to a node"
        );
        // Unbatched run: one request per pass, no deadline-carrying traffic.
        assert_eq!(report.batches, 40);
        assert_eq!(report.mean_batch_size(), 1.0);
        assert_eq!(report.deadline, DeadlineStats::default());
        // Open-loop run: no control-plane activity, static provisioning.
        assert_eq!(report.control, ControlStats::default());
        assert_eq!(report.replica_cycles, 2 * report.makespan.get());
        assert!(report.replica_seconds(&NpuConfig::single_core()) > 0.0);
    }

    #[test]
    fn unserved_models_are_rejected_not_lost() {
        let (mut fleet, _) = fleet_with_replicas(1, 1);
        let trace =
            ClusterTrace::from_arrivals(vec![RequestArrival::new(Cycles(0), ModelId::Bert)]);
        let report = ClusterServingSim::new(ServingOptions::new(DispatchPolicy::RoundRobin))
            .run(&mut fleet, &trace);
        assert_eq!(report.stats.rejected_no_replica, 1);
        assert_eq!(report.stats.completed, 0);
    }

    #[test]
    fn admission_control_bounds_queues() {
        let (mut fleet, _) = fleet_with_replicas(1, 1);
        // A tight burst against a single replica with a 2-deep queue.
        let trace = burst_trace(50, 1);
        let options = ServingOptions::new(DispatchPolicy::LeastLoaded)
            .with_admission(AdmissionControl { max_queue_depth: 2 });
        let report = ClusterServingSim::new(options).run(&mut fleet, &trace);
        assert!(report.stats.rejected_overload > 0, "overload must shed");
        assert_eq!(report.stats.completed, report.stats.admitted);
    }

    #[test]
    fn batching_serves_a_backlog_in_fewer_longer_passes() {
        let trace = burst_trace(32, 1);
        let (mut unbatched_fleet, _) = fleet_with_replicas(1, 1);
        let unbatched = ClusterServingSim::new(ServingOptions::new(DispatchPolicy::LeastLoaded))
            .run(&mut unbatched_fleet, &trace);
        let (mut batched_fleet, _) = fleet_with_replicas(1, 1);
        let batched = ClusterServingSim::new(
            ServingOptions::new(DispatchPolicy::LeastLoaded).with_batching(8),
        )
        .run(&mut batched_fleet, &trace);

        assert_eq!(unbatched.stats.completed, 32);
        assert_eq!(batched.stats.completed, 32);
        assert!(
            batched.batches < unbatched.batches,
            "batching must coalesce the backlog ({} vs {} passes)",
            batched.batches,
            unbatched.batches
        );
        assert!(batched.mean_batch_size() > 1.0);
        // MNIST batch service is strongly sublinear, so coalescing the
        // backlog finishes it sooner and cuts the tail.
        assert!(
            batched.makespan < unbatched.makespan,
            "sublinear batches drain the backlog faster ({} vs {})",
            batched.makespan,
            unbatched.makespan
        );
        assert!(batched.latency.p99 <= unbatched.latency.p99);
    }

    #[test]
    fn batch_wait_forms_batches_and_bounds_queueing_delay() {
        // Low load: four sparse requests against an idle batch-8 replica.
        // Without a formation window each is served alone the moment it
        // arrives; with one, the replica holds the queue — but never longer
        // than `max_batch_wait`, so queueing delay stays bounded even though
        // the batch never fills.
        let service = estimated_service_cycles(ModelId::Mnist, 2, 2, &NpuConfig::single_core());
        let gap = service / 4;
        let wait = service;
        let trace = burst_trace(4, gap);

        let (mut eager_fleet, _) = fleet_with_replicas(1, 1);
        let eager = ClusterServingSim::new(
            ServingOptions::new(DispatchPolicy::LeastLoaded).with_batching(8),
        )
        .run(&mut eager_fleet, &trace);

        let (mut held_fleet, _) = fleet_with_replicas(1, 1);
        let held = ClusterServingSim::new(
            ServingOptions::new(DispatchPolicy::LeastLoaded)
                .with_batching(8)
                .with_batch_wait(wait),
        )
        .run(&mut held_fleet, &trace);

        assert_eq!(held.stats.completed, 4);
        assert!(
            held.batches < eager.batches,
            "the formation window must coalesce sparse arrivals ({} vs {} passes)",
            held.batches,
            eager.batches
        );
        // The bound: no request waits for the batch longer than the window,
        // so worst-case latency is the hold plus one (amortized) batch pass.
        let batch_service =
            estimated_batch_service_cycles(ModelId::Mnist, 4, 2, 2, &NpuConfig::single_core());
        assert!(
            held.latency.max <= wait + batch_service,
            "queueing delay must be bounded by the formation window ({} > {} + {})",
            held.latency.max,
            wait,
            batch_service
        );
    }

    #[test]
    fn deadline_misses_are_counted_and_drops_supported() {
        // One replica, a burst far exceeding what the deadline allows.
        let slack = 10_000u64;
        let trace = ClusterTrace::from_arrivals(
            (0..20)
                .map(|i| {
                    RequestArrival::new(Cycles(i), ModelId::Mnist).with_deadline(Cycles(i + slack))
                })
                .collect(),
        );
        let (mut fleet, _) = fleet_with_replicas(1, 1);
        let lenient = ClusterServingSim::new(ServingOptions::new(DispatchPolicy::LeastLoaded))
            .run(&mut fleet, &trace);
        assert_eq!(lenient.deadline.with_deadline, 20);
        assert!(
            lenient.deadline.missed > 0,
            "the backlog must blow deadlines"
        );
        assert_eq!(lenient.deadline.dropped, 0);
        assert_eq!(lenient.deadline.met + lenient.deadline.missed, 20);
        assert!(lenient.deadline.miss_rate() > 0.0);

        let (mut dropping_fleet, _) = fleet_with_replicas(1, 1);
        let dropping = ClusterServingSim::new(
            ServingOptions::new(DispatchPolicy::LeastLoaded).with_drop_expired(),
        )
        .run(&mut dropping_fleet, &trace);
        assert!(
            dropping.deadline.dropped > 0,
            "expired requests are dropped"
        );
        assert_eq!(
            dropping.stats.completed + dropping.deadline.dropped,
            dropping.stats.admitted,
            "drops account for every admitted-but-unserved request"
        );
        assert_eq!(dropping.latency.count, dropping.stats.completed);
    }

    #[test]
    fn edf_serves_urgent_requests_first() {
        // A burst lands while the replica is busy; under EDF the
        // tight-deadline interactive request jumps the queue.
        let service = estimated_service_cycles(ModelId::Mnist, 2, 2, &NpuConfig::single_core());
        let mut urgent = RequestArrival::new(Cycles(10), ModelId::Mnist)
            .with_deadline(Cycles(10 + service * 3))
            .with_priority(workloads::PriorityClass::Interactive);
        urgent.sequence = 3;
        let laggards: Vec<RequestArrival> = (0..3)
            .map(|i| {
                RequestArrival::new(Cycles(i), ModelId::Mnist)
                    .with_priority(workloads::PriorityClass::Batch)
            })
            .collect();
        let mut arrivals = laggards;
        arrivals.push(urgent);
        let trace = ClusterTrace::from_arrivals(arrivals);

        let run = |policy| {
            let (mut fleet, _) = fleet_with_replicas(1, 1);
            ClusterServingSim::new(ServingOptions::new(policy)).run(&mut fleet, &trace)
        };
        let fifo = run(DispatchPolicy::LeastLoaded);
        let edf = run(DispatchPolicy::EarliestDeadline);
        assert_eq!(
            fifo.deadline.missed, 1,
            "FIFO serves the urgent request last"
        );
        assert_eq!(
            edf.deadline.missed, 0,
            "EDF serves the urgent request first"
        );
    }

    #[test]
    fn stochastic_runs_are_seed_reproducible() {
        let trace = burst_trace(30, 2_000);
        let run = |seed: u64| {
            let (mut fleet, _) = fleet_with_replicas(2, 2);
            let options = ServingOptions::new(DispatchPolicy::LeastLoaded)
                .with_stochastic(StochasticService::seeded(seed).with_cv(0.3));
            ClusterServingSim::new(options).run(&mut fleet, &trace)
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a, b, "same seed must reproduce the identical report");
        let c = run(8);
        assert_ne!(
            a.latency, c.latency,
            "a different seed must draw different service times"
        );
    }

    #[test]
    fn with_cv_rejects_degenerate_dispersions() {
        // Regression: a negative or non-finite coefficient of variation used
        // to flow straight into the lognormal sampler.
        assert_eq!(
            StochasticService::seeded(1).with_cv(-0.5).cv_override,
            Some(0.0)
        );
        assert_eq!(
            StochasticService::seeded(1).with_cv(f64::NAN).cv_override,
            Some(0.0)
        );
        assert_eq!(
            StochasticService::seeded(1)
                .with_cv(f64::INFINITY)
                .cv_override,
            Some(0.0)
        );
        assert_eq!(
            StochasticService::seeded(1).with_cv(0.3).cv_override,
            Some(0.3)
        );
        // A clamped dispersion behaves exactly like deterministic service.
        let trace = burst_trace(10, 2_000);
        let run = |options: ServingOptions| {
            let (mut fleet, _) = fleet_with_replicas(1, 1);
            ClusterServingSim::new(options).run(&mut fleet, &trace)
        };
        let deterministic = run(ServingOptions::new(DispatchPolicy::LeastLoaded));
        let clamped = run(ServingOptions::new(DispatchPolicy::LeastLoaded)
            .with_stochastic(StochasticService::seeded(3).with_cv(f64::NAN)));
        assert_eq!(deterministic.latency, clamped.latency);
    }

    #[test]
    fn empty_batch_estimate_never_underflows() {
        // Regression: `batch_requests = 0` must cost one pass, not zero (or
        // wrap), so capacity planning with an empty backlog stays sane.
        let npu = NpuConfig::single_core();
        let empty = estimated_batch_service_cycles(ModelId::Mnist, 0, 2, 2, &npu);
        let single = estimated_batch_service_cycles(ModelId::Mnist, 1, 2, 2, &npu);
        assert_eq!(empty, single, "an empty batch is priced as a batch of one");
        assert!(empty >= 1);
        // Degenerate engine counts clamp instead of dividing by zero.
        assert!(estimated_batch_service_cycles(ModelId::Mnist, 2, 0, 0, &npu) >= 1);
    }

    #[test]
    fn migration_downtime_is_charged_to_latency() {
        let trace = burst_trace(10, 2_000);
        let (mut undisturbed, _) = fleet_with_replicas(2, 1);
        let baseline = ClusterServingSim::new(ServingOptions::new(DispatchPolicy::LeastLoaded))
            .run(&mut undisturbed, &trace);

        let (mut fleet, handles) = fleet_with_replicas(2, 1);
        let spare = NodeId(if handles[0].node.0 == 0 { 1 } else { 0 });
        let options = ServingOptions::new(DispatchPolicy::LeastLoaded).with_migration(
            Cycles(1),
            handles[0],
            spare,
        );
        let report = ClusterServingSim::new(options).run(&mut fleet, &trace);
        assert_eq!(report.migrations.len(), 1, "the migration executed");
        assert!(report.migrations[0].downtime() > Cycles::ZERO);
        assert_eq!(report.stats.completed, 10, "no request was lost");
        assert!(
            report.latency.p99 > baseline.latency.p99,
            "downtime must surface in tenant latency ({} vs {})",
            report.latency.p99,
            baseline.latency.p99
        );
        // The replica genuinely moved.
        assert_eq!(fleet.node(spare).unwrap().manager().vnpu_count(), 1);
        assert_eq!(
            fleet.node(handles[0].node).unwrap().manager().vnpu_count(),
            0
        );
    }

    /// The canonical live-migration scenario: one loaded replica, a spare
    /// node, a stream long enough that arrivals span the whole copy window.
    fn precopy_scenario(mode_live: bool, cost_model: MigrationCostModel) -> ServingReport {
        let service = estimated_service_cycles(ModelId::Mnist, 2, 2, &NpuConfig::single_core());
        let (mut fleet, handles) = fleet_with_replicas(2, 1);
        let spare = NodeId(if handles[0].node.0 == 0 { 1 } else { 0 });
        let trace = burst_trace(400, service);
        let mut options = ServingOptions::new(DispatchPolicy::LeastLoaded)
            .with_admission(AdmissionControl {
                max_queue_depth: 1_000,
            })
            .with_cost_model(cost_model);
        options = if mode_live {
            options.with_live_migration(Cycles(1), handles[0], spare)
        } else {
            options.with_migration(Cycles(1), handles[0], spare)
        };
        ClusterServingSim::new(options).run(&mut fleet, &trace)
    }

    #[test]
    fn precopy_cuts_downtime_an_order_of_magnitude_below_cold() {
        let cold = precopy_scenario(false, MigrationCostModel::default());
        let live = precopy_scenario(true, MigrationCostModel::default());
        assert_eq!(cold.migrations.len(), 1);
        assert_eq!(live.migrations.len(), 1);
        let cold_record = &cold.migrations[0];
        let live_record = &live.migrations[0];
        assert_eq!(cold_record.mode, MigrationMode::Cold);
        assert_eq!(live_record.mode, MigrationMode::PreCopy);
        assert!(live_record.converged, "a read-mostly tenant must converge");
        assert!(
            live_record.precopy_rounds >= 1,
            "at least the full-state round ran"
        );
        assert!(live_record.precopy_bytes >= live_record.state_bytes);
        assert!(
            live_record.downtime().get() * 10 <= cold_record.downtime().get(),
            "pre-copy downtime must be >=10x below cold ({} vs {})",
            live_record.downtime(),
            cold_record.downtime()
        );
        // Matched throughput: both runs complete the whole admitted stream.
        assert_eq!(cold.stats.completed, 400);
        assert_eq!(live.stats.completed, 400);
        // The shorter dark window shows up in the tail.
        assert!(live.latency.p99 <= cold.latency.p99);
        // Per-mode aggregates follow the records.
        assert_eq!(live.migration_stats.precopy, 1);
        assert_eq!(live.migration_stats.precopy_fallbacks, 0);
        assert_eq!(
            live.migration_stats.rounds,
            live_record.precopy_rounds as u64
        );
        assert_eq!(
            live.migration_stats.downtime_total,
            live_record.downtime().get()
        );
        assert_eq!(cold.migration_stats.cold, 1);
        assert_eq!(cold.migration_stats.precopy, 0);
    }

    #[test]
    fn precopy_source_keeps_serving_through_the_copy_rounds() {
        let live = precopy_scenario(true, MigrationCostModel::default());
        let record = &live.migrations[0];
        assert!(
            record.precopy_cycles > 0,
            "the link spent cycles copying while serving"
        );
        assert_eq!(record.round_bytes.len(), record.precopy_rounds as usize);
        assert_eq!(record.precopy_bytes, record.round_bytes.iter().sum::<u64>());
        // The source kept completing requests before the switch-over: with a
        // cold migration at t=1 every request would be served on the spare
        // side of a full dark window, so the source node finishing most of
        // the stream is the live-serving signal.
        let source_completed = live
            .per_node_completed
            .get(&record.from)
            .copied()
            .unwrap_or(0);
        assert!(
            source_completed > 0,
            "the source must serve during pre-copy"
        );
    }

    #[test]
    fn precopy_falls_back_to_cold_when_dirty_rate_outruns_the_link() {
        // A pathological tenant: every request rewrites ~its whole HBM
        // traffic, over a link an order of magnitude slower. The dirty set
        // cannot shrink, so the loop stops and the stop-and-copy moves a
        // cold-sized residual.
        let cost = MigrationCostModel::default()
            .with_interconnect(npu_sim::InterconnectConfig::tpu_v4_ici().with_bandwidth(0.5e9))
            .with_precopy(
                PreCopyConfig::default().with_dirty_rate(
                    DirtyRateModel::default()
                        .with_write_fraction(1.0)
                        .with_scale(400.0),
                ),
            );
        let live = precopy_scenario(true, cost.clone());
        let record = &live.migrations[0];
        assert_eq!(record.mode, MigrationMode::PreCopy);
        assert!(
            !record.converged,
            "the dirty set must outrun the link ({} rounds)",
            record.precopy_rounds
        );
        assert_eq!(live.migration_stats.precopy_fallbacks, 1);
        // Graceful: nothing is lost, the residual is cold-sized rather than
        // unbounded.
        assert_eq!(live.stats.completed, live.stats.admitted);
        let cold = precopy_scenario(false, cost);
        assert!(
            record.downtime().get() <= cold.migrations[0].downtime().get() * 2,
            "fallback downtime stays in the cold ballpark ({} vs {})",
            record.downtime(),
            cold.migrations[0].downtime()
        );
    }

    #[test]
    fn precopy_runs_are_seed_reproducible() {
        let first = precopy_scenario(true, MigrationCostModel::default());
        let second = precopy_scenario(true, MigrationCostModel::default());
        assert_eq!(first, second, "same inputs, identical report");
    }

    #[test]
    fn concurrent_precopies_contend_for_the_link() {
        // Two replicas on the same board, both live-migrating to the same
        // spare at t = 0: their round-0 transfers share one link, so the
        // second transfer queues behind the first and its copy window
        // (wait + stream) is strictly longer.
        let service = estimated_service_cycles(ModelId::Mnist, 2, 2, &NpuConfig::single_core());
        let mut fleet = NpuCluster::homogeneous(2, &NpuConfig::single_core());
        let spec = DeploySpec::replica(ModelId::Mnist, 1, 1).with_memory(16 << 20, 1 << 30);
        let a = fleet.deploy(spec, PlacementPolicy::BestFit).unwrap();
        let b = fleet.deploy(spec, PlacementPolicy::BestFit).unwrap();
        assert_eq!(a.node, b.node, "best-fit packs the same board");
        let spare = NodeId(if a.node.0 == 0 { 1 } else { 0 });
        let trace = burst_trace(60, service);
        let options = ServingOptions::new(DispatchPolicy::LeastLoaded)
            .with_live_migration(Cycles(0), a, spare)
            .with_live_migration(Cycles(0), b, spare);
        let report = ClusterServingSim::new(options).run(&mut fleet, &trace);
        assert_eq!(report.migrations.len(), 2);
        let first = &report.migrations[0];
        let second = &report.migrations[1];
        assert!(
            second.precopy_cycles > first.precopy_cycles,
            "the second transfer must wait for the shared link ({} vs {})",
            second.precopy_cycles,
            first.precopy_cycles
        );
    }

    #[test]
    fn concurrent_cold_migrations_contend_for_the_link() {
        // Same shape as the pre-copy contention test, but cold: the second
        // dark transfer queues behind the first on the shared link, so its
        // transfer window (wait + stream) is strictly longer.
        let mut fleet = NpuCluster::homogeneous(2, &NpuConfig::single_core());
        let spec = DeploySpec::replica(ModelId::Mnist, 1, 1).with_memory(16 << 20, 1 << 30);
        let a = fleet.deploy(spec, PlacementPolicy::BestFit).unwrap();
        let b = fleet.deploy(spec, PlacementPolicy::BestFit).unwrap();
        assert_eq!(a.node, b.node);
        let spare = NodeId(if a.node.0 == 0 { 1 } else { 0 });
        let trace = burst_trace(4, 1_000);
        let options = ServingOptions::new(DispatchPolicy::LeastLoaded)
            .with_migration(Cycles(0), a, spare)
            .with_migration(Cycles(0), b, spare);
        let report = ClusterServingSim::new(options).run(&mut fleet, &trace);
        assert_eq!(report.migrations.len(), 2);
        assert!(
            report.migrations[1].transfer_cycles > report.migrations[0].transfer_cycles,
            "the second cold transfer must wait for the shared link ({} vs {})",
            report.migrations[1].transfer_cycles,
            report.migrations[0].transfer_cycles
        );
    }

    #[test]
    fn makespan_ignores_trailing_rejected_arrivals() {
        // Regression: a trailing rejected arrival used to inflate the
        // makespan (and deflate throughput) with zero work done.
        let (mut fleet, _) = fleet_with_replicas(1, 1);
        let baseline_trace = burst_trace(5, 1_000);
        let baseline = ClusterServingSim::new(ServingOptions::new(DispatchPolicy::LeastLoaded))
            .run(&mut fleet, &baseline_trace);

        let far_future = baseline.makespan.get() * 1_000;
        let mut arrivals: Vec<RequestArrival> = (0..5)
            .map(|i| RequestArrival::new(Cycles(i * 1_000), ModelId::Mnist))
            .collect();
        // No replica serves BERT: the trailing arrival is rejected.
        arrivals.push(RequestArrival::new(Cycles(far_future), ModelId::Bert));
        let (mut rejected_fleet, _) = fleet_with_replicas(1, 1);
        let report = ClusterServingSim::new(ServingOptions::new(DispatchPolicy::LeastLoaded))
            .run(&mut rejected_fleet, &ClusterTrace::from_arrivals(arrivals));
        assert_eq!(report.stats.rejected_no_replica, 1);
        assert_eq!(
            report.makespan, baseline.makespan,
            "a rejected arrival must not move the makespan"
        );
        assert_eq!(
            report.throughput_rps(&NpuConfig::single_core()),
            baseline.throughput_rps(&NpuConfig::single_core())
        );
    }

    #[test]
    fn round_robin_routes_around_a_migrating_replica() {
        // Regression: RR used to keep dispatching to the dark replica and
        // charge the whole migration downtime to the queued requests. Two
        // replicas on different nodes; replica 0 migrates at t = 0 to a third
        // node while the whole burst arrives during the dark window.
        let mut fleet = NpuCluster::homogeneous(3, &NpuConfig::single_core());
        let spec = DeploySpec::replica(ModelId::Mnist, 2, 2);
        let a = fleet.deploy(spec, PlacementPolicy::WorstFit).unwrap();
        let b = fleet.deploy(spec, PlacementPolicy::WorstFit).unwrap();
        let spare = NodeId(
            (0..3)
                .find(|id| *id != a.node.0 && *id != b.node.0)
                .unwrap(),
        );
        let trace = burst_trace(20, 500);
        let options =
            ServingOptions::new(DispatchPolicy::RoundRobin).with_migration(Cycles(0), a, spare);
        let report = ClusterServingSim::new(options).run(&mut fleet, &trace);
        assert_eq!(report.migrations.len(), 1);
        assert_eq!(report.stats.completed, 20);
        assert_eq!(
            report.per_node_completed.get(&b.node),
            Some(&20),
            "every request of the dark window is served by the live replica"
        );
    }

    /// A scripted controller for the lifecycle tests below: at given ticks it
    /// replays pre-programmed actions.
    struct Script {
        at: Vec<(usize, Vec<ControlAction>)>,
        tick: usize,
    }

    impl ControlPlane for Script {
        fn control(
            &mut self,
            _frame: &TelemetryFrame,
            _cluster: &NpuCluster,
        ) -> Vec<ControlAction> {
            self.tick += 1;
            self.at
                .iter()
                .find(|(tick, _)| *tick == self.tick)
                .map(|(_, actions)| actions.clone())
                .unwrap_or_default()
        }
    }

    #[test]
    fn scale_up_adds_a_serving_replica_mid_run() {
        let service = estimated_service_cycles(ModelId::Mnist, 2, 2, &NpuConfig::single_core());
        let (mut fleet, _) = fleet_with_replicas(2, 1);
        // Saturating load on one replica; a second replica is added at the
        // first tick and absorbs part of the stream.
        let trace = burst_trace(40, service / 2);
        let mut script = Script {
            at: vec![(
                1,
                vec![ControlAction::ScaleUp {
                    spec: DeploySpec::replica(ModelId::Mnist, 2, 2),
                    placement: PlacementPolicy::WorstFit,
                }],
            )],
            tick: 0,
        };
        let options = ServingOptions::new(DispatchPolicy::LeastLoaded).with_telemetry(service * 2);
        let report =
            ClusterServingSim::new(options).run_with_controller(&mut fleet, &trace, &mut script);
        assert_eq!(report.control.scale_ups, 1);
        assert_eq!(report.stats.completed, 40, "no request was lost");
        assert_eq!(
            report.per_node_completed.len(),
            2,
            "the scaled-up replica served traffic"
        );
        assert_eq!(fleet.total_vnpus(), 2, "the deployment genuinely happened");
        assert!(report.control.samples > 0);
    }

    #[test]
    fn scale_down_drains_then_releases_without_losing_requests() {
        let service = estimated_service_cycles(ModelId::Mnist, 2, 2, &NpuConfig::single_core());
        let (mut fleet, handles) = fleet_with_replicas(2, 2);
        let trace = burst_trace(30, service / 2);
        let mut script = Script {
            at: vec![(1, vec![ControlAction::ScaleDown { handle: handles[1] }])],
            tick: 0,
        };
        let options = ServingOptions::new(DispatchPolicy::LeastLoaded).with_telemetry(service * 2);
        let report =
            ClusterServingSim::new(options).run_with_controller(&mut fleet, &trace, &mut script);
        assert_eq!(report.control.scale_downs, 1);
        assert_eq!(report.control.released, 1, "the drained replica released");
        assert_eq!(
            report.stats.completed, report.stats.admitted,
            "draining must not lose admitted requests"
        );
        assert_eq!(fleet.total_vnpus(), 1, "the vNPU was genuinely released");
        // Releasing capacity mid-run must shrink provisioned replica-time
        // below two full-makespan replicas.
        assert!(report.replica_cycles < 2 * report.makespan.get());
    }

    #[test]
    fn controller_migration_follows_the_cold_path() {
        let service = estimated_service_cycles(ModelId::Mnist, 2, 2, &NpuConfig::single_core());
        let (mut fleet, handles) = fleet_with_replicas(2, 1);
        let spare = NodeId(if handles[0].node.0 == 0 { 1 } else { 0 });
        let trace = burst_trace(20, service);
        let mut script = Script {
            at: vec![(
                1,
                vec![ControlAction::Migrate {
                    handle: handles[0],
                    to: spare,
                    mode: MigrationMode::Cold,
                }],
            )],
            tick: 0,
        };
        let options = ServingOptions::new(DispatchPolicy::LeastLoaded).with_telemetry(service * 2);
        let report =
            ClusterServingSim::new(options).run_with_controller(&mut fleet, &trace, &mut script);
        assert_eq!(report.control.migrations_requested, 1);
        assert_eq!(report.migrations.len(), 1, "the migration executed");
        assert_eq!(report.stats.completed, 20, "no request was lost");
        assert_eq!(fleet.node(spare).unwrap().manager().vnpu_count(), 1);
    }

    #[test]
    fn telemetry_frames_report_backlog_and_windows() {
        let service = estimated_service_cycles(ModelId::Mnist, 2, 2, &NpuConfig::single_core());

        /// Captures every frame for inspection.
        struct Probe {
            frames: Vec<TelemetryFrame>,
        }
        impl ControlPlane for Probe {
            fn control(
                &mut self,
                frame: &TelemetryFrame,
                _cluster: &NpuCluster,
            ) -> Vec<ControlAction> {
                self.frames.push(frame.clone());
                Vec::new()
            }
        }

        let (mut fleet, _) = fleet_with_replicas(1, 1);
        // Overload: the queue builds, so mid-run frames see a backlog, and
        // the tight deadline makes the queued requests miss it.
        let trace = burst_trace(20, service / 4).with_uniform_qos(QosSpec::new(
            Some(Cycles(service * 2)),
            PriorityClass::Interactive,
        ));
        let mut probe = Probe { frames: Vec::new() };
        let options = ServingOptions::new(DispatchPolicy::LeastLoaded).with_telemetry(service);
        let report =
            ClusterServingSim::new(options).run_with_controller(&mut fleet, &trace, &mut probe);
        assert_eq!(report.control.samples, probe.frames.len());
        assert!(probe.frames.len() > 1);
        let mid = &probe.frames[probe.frames.len() / 2];
        assert_eq!(mid.replicas.len(), 1);
        assert_eq!(mid.replicas_of(ModelId::Mnist).count(), 1);
        assert!(
            mid.outstanding(ModelId::Mnist) > 0,
            "overload must show up as backlog in the frame"
        );
        // The window deadline tallies across all frames cover most of the
        // run (the final partial window is not flushed).
        let mut windowed = DeadlineStats::default();
        for frame in &probe.frames {
            windowed.merge(&frame.deadline(ModelId::Mnist));
        }
        assert!(windowed.with_deadline >= report.deadline.with_deadline - 1);
        assert!(windowed.missed > 0, "the tight deadline is missed");
        assert!(windowed.missed <= report.deadline.missed);
    }

    #[test]
    fn board_crash_without_recovery_loses_requests() {
        // Round-robin keeps steering to the fenced replica (nothing detects
        // the crash), so everything dispatched there after the fault maroons.
        let (mut fleet, _) = fleet_with_replicas(2, 2);
        let trace = burst_trace(60, 500);
        let faults =
            FaultSchedule::new().with_fault(5_000, FaultKind::BoardCrash { node: NodeId(0) });
        let report = ClusterServingSim::new(
            ServingOptions::new(DispatchPolicy::RoundRobin).with_faults(faults),
        )
        .run(&mut fleet, &trace);
        assert_eq!(report.availability.crashes, 1);
        assert!(
            report.availability.lost > 0,
            "a dead board with no failover must strand its queue"
        );
        // Nothing vanishes silently: every admitted request is either
        // completed or accounted lost with a fault attribution.
        assert_eq!(
            report.stats.admitted,
            report.stats.completed + report.availability.lost as usize + report.deadline.dropped,
            "conservation: admitted = completed + dropped + lost"
        );
        assert!(report.availability.availability() < 1.0);
    }

    #[test]
    fn board_crash_with_recovery_completes_everything() {
        // Same crash, but telemetry-driven detection fences the board,
        // re-places the replica on the spare node, and re-dispatches the
        // orphans: no admitted request is lost.
        let (mut fleet, _) = fleet_with_replicas(3, 2);
        let trace = burst_trace(60, 500);
        let faults =
            FaultSchedule::new().with_fault(5_000, FaultKind::BoardCrash { node: NodeId(0) });
        let options = ServingOptions::new(DispatchPolicy::RoundRobin)
            .with_faults(faults)
            .with_telemetry(2_000)
            .with_recovery(RecoveryPolicy::new(2));
        let report = ClusterServingSim::new(options).run(&mut fleet, &trace);
        assert_eq!(report.availability.crashes, 1);
        assert_eq!(
            report.availability.failovers, 1,
            "the dead board is declared once"
        );
        assert!(report.availability.replicas_restored >= 1);
        assert!(report.availability.mean_detect_cycles() > 0.0);
        assert_eq!(report.availability.lost, 0, "failover saves every orphan");
        assert_eq!(report.stats.completed, report.stats.admitted);
        assert_eq!(report.availability.availability(), 1.0);
    }

    #[test]
    fn short_hang_rides_through_without_failover() {
        // A hang shorter than the detection threshold is absorbed in place:
        // the board resumes, nothing is re-placed, nothing is lost.
        let (mut fleet, _) = fleet_with_replicas(2, 2);
        let trace = burst_trace(40, 1_000);
        let faults = FaultSchedule::new().with_fault(
            5_000,
            FaultKind::BoardHang {
                node: NodeId(0),
                for_cycles: 4_000,
            },
        );
        let options = ServingOptions::new(DispatchPolicy::LeastLoaded)
            .with_faults(faults)
            .with_telemetry(2_000)
            .with_recovery(RecoveryPolicy::new(8));
        let report = ClusterServingSim::new(options).run(&mut fleet, &trace);
        assert_eq!(report.availability.hangs, 1);
        assert_eq!(
            report.availability.failovers, 0,
            "a transient hang below the threshold must not trigger failover"
        );
        assert_eq!(report.availability.lost, 0);
        assert_eq!(report.stats.completed, report.stats.admitted);
    }

    #[test]
    fn chaos_runs_are_seed_reproducible() {
        use crate::fault::FaultProfile;
        let run = || {
            let (mut fleet, _) = fleet_with_replicas(3, 2);
            let trace = burst_trace(40, 800);
            let faults = FaultSchedule::generate(7, 40_000, 3, &FaultProfile::default());
            ClusterServingSim::new(
                ServingOptions::new(DispatchPolicy::LeastLoaded)
                    .with_faults(faults)
                    .with_telemetry(2_000)
                    .with_recovery(RecoveryPolicy::new(2)),
            )
            .run(&mut fleet, &trace)
        };
        let first = run();
        let second = run();
        assert_eq!(
            first, second,
            "the same fault schedule must replay to an identical report"
        );
        assert!(first.availability.injected() > 0);
    }

    #[test]
    fn migration_aware_dispatch_cuts_dark_window_misses() {
        // A live migration streams ~17 GB over a fast link while background
        // deadline traffic trickles in; a burst lands just before the
        // stop-and-copy pause (~371k cycles in). A router that kept packing
        // the replica about to go dark stranded 3 of the 34 requests in its
        // queue through the pause; dispatch steers the whole burst to the
        // untouched replica instead, which drains it within the deadline
        // slack.
        use npu_sim::InterconnectConfig;
        let service = estimated_service_cycles(ModelId::Mnist, 2, 2, &NpuConfig::single_core());
        let cost = MigrationCostModel {
            interconnect: InterconnectConfig {
                bandwidth_bytes_per_sec: 50.0e12,
                setup_cycles: 200,
            },
            drain_grace_cycles: 100_000,
            remap_cycles: 200_000,
            context_bytes: 256 << 10,
            precopy: PreCopyConfig {
                stop_fraction: 0.2,
                ..PreCopyConfig::default()
            },
        };
        let report = {
            let mut fleet = NpuCluster::homogeneous(3, &NpuConfig::single_core());
            let spec = DeploySpec::replica(ModelId::Mnist, 2, 2);
            let a = fleet.deploy(spec, PlacementPolicy::WorstFit).unwrap();
            let b = fleet.deploy(spec, PlacementPolicy::WorstFit).unwrap();
            let spare = NodeId(
                (0..3)
                    .find(|id| *id != a.node.0 && *id != b.node.0)
                    .unwrap(),
            );
            let trace = ClusterTrace::from_arrivals({
                let mut arrivals: Vec<RequestArrival> = (0..26u64)
                    .map(|i| {
                        let at = i * service * 4;
                        RequestArrival::new(Cycles(at), ModelId::Mnist)
                            .with_deadline(Cycles(at + 14 * service))
                    })
                    .collect();
                for _ in 0..8 {
                    arrivals.push(
                        RequestArrival::new(Cycles(365_000), ModelId::Mnist)
                            .with_deadline(Cycles(365_000 + 14 * service)),
                    );
                }
                arrivals.sort_by_key(|arrival| arrival.at);
                arrivals
            });
            let options = ServingOptions::new(DispatchPolicy::RoundRobin)
                .with_live_migration(Cycles(service), a, spare)
                .with_cost_model(cost.clone());
            ClusterServingSim::new(options).run(&mut fleet, &trace)
        };
        assert_eq!(report.migrations.len(), 1);
        assert_eq!(report.stats.admitted, 34);
        assert_eq!(report.stats.completed, 34);
        assert_eq!(
            report.deadline,
            DeadlineStats {
                with_deadline: 34,
                met: 34,
                missed: 0,
                dropped: 0,
            },
            "steering away from the migrating replica must keep every deadline"
        );
    }

    /// Service-time stream identity (a): on a board that releases one
    /// replica and then deploys another, every replica the run created
    /// draws from its own key, and no two share a (first handle, deploy
    /// cycle) identity.
    #[test]
    fn every_replica_of_a_run_draws_from_a_distinct_stream() {
        let service = estimated_service_cycles(ModelId::Mnist, 2, 2, &NpuConfig::single_core());
        let (mut fleet, handles) = fleet_with_replicas(1, 2);
        let scale_up = || ControlAction::ScaleUp {
            spec: DeploySpec::replica(ModelId::Mnist, 2, 2),
            placement: PlacementPolicy::WorstFit,
        };
        let mut script = Script {
            at: vec![
                (1, vec![ControlAction::ScaleDown { handle: handles[1] }]),
                (4, vec![scale_up()]),
                (6, vec![ControlAction::ScaleDown { handle: handles[0] }]),
                (9, vec![scale_up()]),
            ],
            tick: 0,
        };
        let options = ServingOptions::new(DispatchPolicy::LeastLoaded)
            .with_telemetry(service * 2)
            .with_stochastic(StochasticService::seeded(9).with_cv(0.3));
        let trace = burst_trace(40, service);
        let mut sink = NoopSink;
        let mut coordinator =
            Coordinator::new(&options, &mut fleet, trace.arrivals(), vec![&mut sink]);
        coordinator.run(&mut script, &mut |jobs| in_tag_order(ShardJob::step, jobs));
        let partition = &coordinator.partitions()[0];
        let replicas = &partition.replicas;
        assert_eq!(replicas.len(), 4, "two initial replicas and two scale-ups");
        assert_eq!(partition.state.control.released, 2);
        assert!(replicas.iter().all(|r| r.handle.node == NodeId(0)));
        let keys: BTreeSet<u64> = replicas.iter().map(|r| r.stream.key()).collect();
        assert_eq!(keys.len(), replicas.len(), "a stream key per replica");
        let identities: BTreeSet<(VnpuHandle, u64)> = replicas
            .iter()
            .map(|r| (r.handle, r.activated_at))
            .collect();
        assert_eq!(identities.len(), replicas.len());
        assert!(
            replicas.iter().all(|r| r.stream.drawn() > 0),
            "every replica served"
        );
    }

    /// The live list through a churning run at 1 and 2 partitions: two
    /// scale-ups, a drained release, a cold move from board 0 to board 3 (a
    /// cross-partition export and import at 2 partitions) and a crash of
    /// board 2 that failover retires. At run end every partition's list is
    /// its table's non-retired slots in ascending order, and retired slots
    /// remain in the tables.
    #[test]
    fn the_live_list_tracks_the_table_through_churn() {
        let service = estimated_service_cycles(ModelId::Mnist, 2, 2, &NpuConfig::single_core());
        for partitions in [1, 2] {
            let (mut fleet, handles) = fleet_with_replicas(4, 2);
            let scale_up = || ControlAction::ScaleUp {
                spec: DeploySpec::replica(ModelId::Mnist, 2, 2),
                placement: PlacementPolicy::WorstFit,
            };
            let mut script = Script {
                at: vec![
                    (1, vec![scale_up(), scale_up()]),
                    (2, vec![ControlAction::ScaleDown { handle: handles[1] }]),
                    (
                        3,
                        vec![ControlAction::Migrate {
                            handle: handles[0],
                            to: NodeId(3),
                            mode: MigrationMode::Cold,
                        }],
                    ),
                ],
                tick: 0,
            };
            let crash = FaultKind::BoardCrash { node: NodeId(2) };
            let options = ServingOptions::new(DispatchPolicy::LeastLoaded)
                .with_telemetry(service * 2)
                .with_faults(FaultSchedule::new().with_fault(service * 7, crash))
                .with_recovery(RecoveryPolicy::new(1));
            let trace = burst_trace(80, service / 2);
            let mut sinks: Vec<NoopSink> = (0..partitions).map(|_| NoopSink).collect();
            let mut coordinator = Coordinator::new(
                &options,
                &mut fleet,
                trace.arrivals(),
                sinks.iter_mut().collect(),
            );
            coordinator.run(&mut script, &mut |jobs| in_tag_order(ShardJob::step, jobs));

            let parts = coordinator.partitions();
            for (index, partition) in parts.iter().enumerate() {
                let unretired: Vec<usize> = (0..partition.replicas.len())
                    .filter(|&slot| !partition.replicas[slot].retired)
                    .collect();
                assert_eq!(
                    partition.live, unretired,
                    "partition {index} of {partitions}"
                );
            }
            let sum = |count: fn(&PartitionSim) -> usize| parts.iter().map(count).sum::<usize>();
            assert_eq!(sum(|p| p.state.control.scale_ups), 2);
            assert_eq!(sum(|p| p.state.control.released), 1);
            assert_eq!(sum(|p| p.migration_records.len()), 1);
            let failovers = |p: &PartitionSim| p.state.chaos.as_ref().unwrap().stats.failovers;
            assert_eq!(parts.iter().map(failovers).sum::<u64>(), 1);
            // The release and the failover each retired a slot; at 2
            // partitions the move crossed the boundary, so the export
            // retired a third and partition 1 imported it.
            let retired = sum(|p| p.replicas.len() - p.live.len());
            assert_eq!(retired, partitions + 1);
            if partitions == 2 {
                assert_eq!(parts[1].migration_records.len(), 1);
                assert!(parts[0].replicas[0].retired);
            }
        }
    }

    /// Records each batch's service span for the stream-continuity test.
    #[derive(Default)]
    struct ServiceSpans(Vec<(u64, u64, NodeId)>);

    impl ObsSink for ServiceSpans {
        fn active(&self) -> bool {
            true
        }

        fn on_service_batch(
            &mut self,
            start: u64,
            finish: u64,
            _: ModelId,
            node: NodeId,
            _: usize,
            _: usize,
        ) {
            self.0.push((start, finish, node));
        }
    }

    /// Service-time stream identity (b): a replica moved by a cold
    /// migration, a live pre-copy and a cross-partition envelope keeps its
    /// key and counter, so its n-th batch anywhere draws counter n of the
    /// stream it was first deployed with.
    #[test]
    fn a_migrating_replica_keeps_its_stream_key_and_counter() {
        let npu = NpuConfig::single_core();
        let service = estimated_service_cycles(ModelId::Mnist, 2, 2, &npu);
        let (seed, cv) = (21, 0.3);
        let node = |id| NodeId(id);
        let at = |vnpu, on| VnpuHandle {
            node: node(on),
            vnpu: neu10::VnpuId(vnpu),
        };
        // A fast fabric: each move completes within a few service times.
        let fabric = MigrationCostModel::default()
            .with_interconnect(npu_sim::InterconnectConfig::tpu_v4_ici().with_bandwidth(1.0e15));
        let options = ServingOptions::new(DispatchPolicy::LeastLoaded)
            .with_stochastic(StochasticService::seeded(seed).with_cv(cv))
            .with_cost_model(fabric)
            // Cold 0 → 1, then pre-copy 1 → 0 (board 0 hands out id 1), then
            // 0 → 2, which crosses into the second partition of a 2-way split.
            .with_migration(Cycles(service * 10), at(0, 0), node(1))
            .with_live_migration(Cycles(service * 30), at(0, 1), node(0))
            .with_migration(Cycles(service * 60), at(1, 0), node(2));
        let trace = burst_trace(120, service * 3 / 4);
        let table = Lognormal::from_cv(cv).expect("positive cv");
        let expected = |count: usize| -> Vec<u64> {
            let mut stream = ServiceStream::new(seed, at(0, 0), 0);
            (0..count)
                .map(|_| ((service as f64 * table.sample(stream.next_word())) as u64).max(1))
                .collect()
        };
        let check = |report: &ServingReport, mut spans: Vec<(u64, u64, NodeId)>, moves: usize| {
            assert_eq!(report.migrations.len(), moves, "{:?}", report.migrations);
            spans.sort_unstable();
            let nodes: BTreeSet<NodeId> = spans.iter().map(|span| span.2).collect();
            assert_eq!(
                nodes.len(),
                moves.min(2) + 1,
                "the replica served on every board"
            );
            let served: Vec<u64> = spans
                .iter()
                .map(|(start, finish, _)| finish - start)
                .collect();
            assert_eq!(served, expected(served.len()), "batch n draws counter n");
        };

        // Sequential: the cold and the pre-copy move.
        let mut fleet = NpuCluster::homogeneous(4, &npu);
        fleet
            .deploy_pinned(DeploySpec::replica(ModelId::Mnist, 2, 2), node(0))
            .unwrap();
        let mut spans = ServiceSpans::default();
        let report =
            ClusterServingSim::new(options.clone()).run_observed(&mut fleet, &trace, &mut spans);
        check(&report, spans.0, 3);
        assert_eq!(report.migrations[1].mode, MigrationMode::PreCopy);

        // Sharded over two partitions: the last move travels as an envelope.
        let mut fleet = NpuCluster::homogeneous(4, &npu);
        fleet
            .deploy_pinned(DeploySpec::replica(ModelId::Mnist, 2, 2), node(0))
            .unwrap();
        let mut sinks: Vec<ServiceSpans> = Vec::new();
        let report = ClusterServingSim::new(options).run_sharded_observed(
            &mut fleet,
            &trace,
            crate::ShardOptions::new(2),
            &mut sinks,
        );
        assert_eq!(sinks.len(), 2);
        check(
            &report,
            sinks.into_iter().flat_map(|sink| sink.0).collect(),
            3,
        );
        assert_eq!(report.migrations[2].to, node(2));
    }

    #[test]
    fn failover_redispatch_avoids_a_precopying_replica() {
        // Regression: failover re-dispatched orphans by the bare dark-window
        // test, ignoring migration-aware avoidance. Replica B (slot 0) is
        // mid-pre-copy over a slow link, so aware arrivals skip it and it
        // idles; board C crashes and its orphans must land on the clean
        // replica A, not on B ahead of its imminent stop-and-copy.
        use crate::fault::RecoveryPolicy;

        /// Where each request was dispatched and where it completed.
        #[derive(Default)]
        struct Placements {
            dispatched: BTreeMap<u64, usize>,
            completed: BTreeMap<u64, usize>,
        }

        impl ObsSink for Placements {
            fn on_dispatch(&mut self, _: u64, sequence: u64, _: ModelId, _: NodeId, slot: usize) {
                self.dispatched.insert(sequence, slot);
            }

            fn on_complete(
                &mut self,
                _: u64,
                sequence: u64,
                _: ModelId,
                _: PriorityClass,
                _: u64,
                _: NodeId,
                slot: usize,
                _: Option<bool>,
            ) {
                self.completed.insert(sequence, slot);
            }
        }

        let service = estimated_service_cycles(ModelId::Mnist, 2, 2, &NpuConfig::single_core());
        let (mut fleet, handles) = fleet_with_replicas(4, 3);
        let (b, c) = (handles[0], handles[2]);
        let spare = NodeId(
            (0..4)
                .find(|id| handles.iter().all(|h| h.node.0 != *id))
                .unwrap(),
        );
        let cost = MigrationCostModel::default()
            .with_interconnect(npu_sim::InterconnectConfig::tpu_v4_ici().with_bandwidth(1.0e9));
        let faults =
            FaultSchedule::new().with_fault(service * 20, FaultKind::BoardCrash { node: c.node });
        let options = ServingOptions::new(DispatchPolicy::LeastLoaded)
            .with_live_migration(Cycles(service), b, spare)
            .with_cost_model(cost)
            .with_faults(faults)
            .with_telemetry(service * 5)
            .with_recovery(RecoveryPolicy::new(2));
        let mut placements = Placements::default();
        let report = ClusterServingSim::new(options).run_observed(
            &mut fleet,
            &burst_trace(120, service / 2),
            &mut placements,
        );
        assert_eq!(report.availability.failovers, 1);
        let orphans: Vec<usize> = placements
            .dispatched
            .iter()
            .filter(|(_, slot)| **slot == 2)
            .filter_map(|(sequence, _)| placements.completed.get(sequence).copied())
            .filter(|slot| *slot != 2)
            .collect();
        assert!(!orphans.is_empty(), "the crash must strand orphans");
        assert!(
            orphans.iter().all(|slot| *slot == 1),
            "orphans must land on the clean replica, not the pre-copying one: {orphans:?}"
        );
    }
}
