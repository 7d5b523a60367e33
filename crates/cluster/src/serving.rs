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
//! multi-tenant service-time noise rather than queueing alone. Runs are
//! reproducible: the same seed yields an identical [`ServingReport`].
//!
//! Migrations can be scheduled mid-run in either [`MigrationMode`]. A **cold**
//! migration drains its in-flight batch, goes dark for the full transfer +
//! remap window, and resumes on the destination node — with the whole
//! downtime charged to the latency of the requests queued behind it. A
//! **live pre-copy** migration keeps the source replica serving (and
//! dispatchable) while copy-round events stream its resident state over the
//! interconnect — round 0 the full working set, each further round the pages
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
//! applied inside the same deterministic event loop. Replica-time actually
//! provisioned is accounted in [`ServingReport::replica_cycles`], so
//! autoscaling experiments can trade replica-hours against tail latency.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, VecDeque};
use std::sync::Arc;

use neu10::{
    calibrate_service_time, DeadlineStats, IsaKind, LatencySummary, MetricsWindow, QuantileSketch,
    TenantWorkload,
};
use npu_sim::{Cycles, DirtySet, NpuConfig, NpuConfigKey};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use workloads::{ClusterTrace, ModelId, PriorityClass, RequestArrival};

use crate::cluster::{DeploySpec, DeployedVnpu, NpuCluster, VnpuHandle};
use crate::fault::{AvailabilityStats, ChaosState, FaultKind, FaultSchedule, RecoveryPolicy};
use crate::migration::{MigrationCostModel, MigrationMode, MigrationRecord, MigrationStats};
use crate::obs::{
    AlertLog, AlertTransition, FleetCounters, NoopSink, ObsSink, RejectReason, SloConfig, SloEngine,
};
use crate::router::{
    AdmissionControl, DispatchDecision, DispatchPolicy, ReplicaIndex, ReplicaView, Router,
    RouterStats, SlotLoad,
};
use crate::sharded::ShardPlan;
use crate::telemetry::{
    ControlAction, ControlPlane, ControlStats, ModelSample, NoopControl, ReplicaSample,
    TelemetryFrame,
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
    /// RNG seed; runs with the same seed produce identical reports.
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
    /// SLO specs and burn-rate policies evaluated inside the event loop;
    /// `None` (the default) schedules no alert ticks and leaves the report's
    /// [`AlertLog`] empty.
    pub slo: Option<SloConfig>,
    /// Faults to inject as deterministic events; `None` (the default) runs a
    /// fault-free fleet.
    pub faults: Option<FaultSchedule>,
    /// Failure detection + failover policy; `None` injects faults without
    /// recovering from them (the chaos baseline).
    pub recovery: Option<RecoveryPolicy>,
    /// Steer new requests away from replicas whose live migration is in
    /// flight (stop-and-copy imminent) while any clean replica exists.
    pub migration_aware_dispatch: bool,
    /// Re-dispatch failover orphans in earliest-deadline-first order
    /// (priority class, then deadline, then admission sequence) instead of
    /// admission order, so the tightest-deadline orphans reach surviving
    /// replicas first. Off by default: the order changes queue contents
    /// after a failover, and locked golden runs predate it.
    pub failover_edf: bool,
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
            migration_aware_dispatch: false,
            failover_edf: false,
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

    /// Evaluates `slo` inside the event loop: completions and expiries feed
    /// the burn-rate engine, alert edges land in the report's
    /// [`AlertLog`] (and reach the sink / control plane as they happen).
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

    /// Steers new requests away from replicas with a live migration in
    /// flight (their stop-and-copy dark window is imminent) while any clean
    /// replica exists — the same soft-avoid mechanism failover uses to drain
    /// dying boards. Off by default: avoidance changes dispatch decisions,
    /// and locked golden runs predate it.
    pub fn with_migration_aware_dispatch(mut self) -> Self {
        self.migration_aware_dispatch = true;
        self
    }

    /// Re-dispatches failover orphans earliest-deadline-first: higher
    /// priority classes first, then the nearest deadline, then admission
    /// order. Cuts orphan deadline misses when a dead board strands a mixed
    /// queue. Off by default: locked golden runs predate it.
    pub fn with_failover_edf(mut self) -> Self {
        self.failover_edf = true;
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
    /// migrations, telemetry samples).
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
    /// configured with [`ServingOptions::with_faults`].
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
    /// order-insensitive — which the deadline/window counters are.
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
    /// Shared with every replica of the same (model, allocation, board)
    /// shape through the [`CalibrationCache`].
    batch_cycles: Arc<[u64]>,
    /// Calibrated service-time coefficient of variation (0 = deterministic).
    cv: f64,
    queue: ReplicaQueue,
    /// The batch in service with its (start, finish) times.
    in_service: Option<(Vec<QueuedRequest>, u64, u64)>,
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
    /// Busy cycles accumulated since the last telemetry tick.
    window_busy: u64,
}

impl ReplicaSim {
    /// Whether new work may land here now: the one availability predicate
    /// of arrival dispatch and failover re-dispatch alike. A replica is out
    /// while dark or draining toward a stop-and-copy and — under
    /// migration-aware dispatch — while its pre-copy is in flight.
    fn dispatchable(&self, now: u64, avoid_migrating: bool) -> bool {
        now >= self.available_at
            && self.pending_migration.is_none()
            && !(avoid_migrating && self.precopy.is_some())
    }

    /// The replica's load as the dispatch index keys it.
    fn load(&self, now: u64, state: &ServeState) -> SlotLoad {
        SlotLoad {
            outstanding: self.queue.len() + self.in_flight(),
            full: self.queue.len() >= state.max_queue_depth,
            available: self.dispatchable(now, state.avoid_migrating),
        }
    }

    /// Requests in the batch currently being served.
    fn in_flight(&self) -> usize {
        self.in_service
            .as_ref()
            .map_or(0, |(batch, _, _)| batch.len())
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

/// Per-model accumulators for the current telemetry window.
#[derive(Debug, Default)]
struct ModelWindow {
    metrics: MetricsWindow,
    arrivals: usize,
    rejected: usize,
}

/// Mutable bookkeeping shared by the batch-formation path.
#[derive(Debug)]
struct ServeState {
    max_batch: usize,
    max_batch_wait: Option<u64>,
    drop_expired: bool,
    rng: Option<StdRng>,
    deadline: DeadlineStats,
    batches: usize,
    /// Whether the telemetry bus is on (per-model windows accumulate).
    sampling: bool,
    /// Start of the current telemetry window.
    window_start: u64,
    windows: BTreeMap<ModelId, ModelWindow>,
    control: ControlStats,
    /// Replica-time already banked by released replicas.
    replica_cycles: u64,
    /// Recycled batch buffers: completions return their request vector here
    /// and batch formation reuses one, so steady-state serving allocates no
    /// batch storage.
    batch_pool: Vec<Vec<QueuedRequest>>,
    /// Live (non-retired) replicas right now.
    live_replicas: usize,
    /// Largest `live_replicas` seen over the run.
    peak_replicas: usize,
    /// The SLO burn-rate engine, fed by completions and expiries; `None`
    /// unless [`ServingOptions::with_slo`] configured one.
    slo: Option<SloEngine>,
    /// Alert edges emitted so far (lands in the report).
    alerts: AlertLog,
    /// Chaos bookkeeping; `None` unless [`ServingOptions::with_faults`]
    /// scheduled faults. The fault-free hot path pays one discriminant check.
    chaos: Option<ChaosState>,
    /// [`ServingOptions::migration_aware_dispatch`].
    avoid_migrating: bool,
    /// The admission limit: a replica with this many queued requests is full.
    max_queue_depth: usize,
}

impl ServeState {
    fn window_of(&mut self, model: ModelId) -> Option<&mut ModelWindow> {
        if self.sampling {
            Some(self.windows.entry(model).or_default())
        } else {
            None
        }
    }
}

// Event kinds, ordered so that at equal timestamps completions free capacity
// before resumes re-open replicas, batch-formation timeouts fire on settled
// queues, pre-copy rounds see the dirt of same-cycle completions, migrations
// trigger next, telemetry samples observe the fully settled state, and SLO
// alert ticks evaluate after the tick's data has landed.
const EV_COMPLETION: u8 = 0;
const EV_RESUME: u8 = 1;
const EV_BATCH_TIMEOUT: u8 = 2;
const EV_COPY_ROUND: u8 = 3;
const EV_MIGRATION: u8 = 4;
const EV_SAMPLE: u8 = 5;
const EV_ALERT: u8 = 6;
/// Fault injections sort after the observers at equal timestamps (the tick
/// sees the pre-fault fleet; the fault lands next) and — like samples and
/// alerts — never count as pending *work*: a schedule whose tail outlives
/// the traffic must not keep the run alive on its own.
const EV_FAULT: u8 = 7;

/// The serving event heap, with a running count of non-sample events so the
/// telemetry tick's "is there still work in flight?" question is O(1) instead
/// of a whole-heap scan per sample. Sample and alert ticks are the periodic
/// observers — they must never count as work, or they would keep a finished
/// run (and each other) alive forever.
#[derive(Debug, Default)]
struct EventQueue {
    heap: BinaryHeap<Reverse<(u64, u8, usize)>>,
    non_sample: usize,
}

impl EventQueue {
    fn push(&mut self, at: u64, kind: u8, index: usize) {
        if kind < EV_SAMPLE {
            self.non_sample += 1;
        }
        self.heap.push(Reverse((at, kind, index)));
    }

    fn pop(&mut self) -> Option<(u64, u8, usize)> {
        let Reverse((at, kind, index)) = self.heap.pop()?;
        if kind < EV_SAMPLE {
            self.non_sample -= 1;
        }
        Some((at, kind, index))
    }

    fn next_time(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse((at, _, _))| *at)
    }

    /// Whether any completion / resume / timeout / migration event is still
    /// queued (stale batch timeouts included, exactly like the scan this
    /// counter replaced).
    fn has_non_sample(&self) -> bool {
        self.non_sample > 0
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
    /// Links are bidirectional: (a, b) and (b, a) are the same link.
    fn key(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// Reserves the link for a `cycles`-long transfer starting no earlier
    /// than `now`; returns when the transfer completes (queueing behind any
    /// transfer already on the link).
    fn reserve(&mut self, a: NodeId, b: NodeId, now: u64, cycles: u64) -> u64 {
        let slot = self.busy_until.entry(Self::key(a, b)).or_insert(0);
        let end = now.max(*slot) + cycles;
        *slot = end;
        end
    }
}

/// Inflates a transfer's cycle count by any open chaos link-degradation
/// window on the `(a, b)` link before the transfer is put on the link.
/// Pre-copy rounds, stop-and-copy windows and failover state restores all
/// price through here, so a degraded (or partitioned) link stresses both
/// migration and recovery.
fn chaos_transfer(state: &ServeState, a: NodeId, b: NodeId, now: u64, cycles: u64) -> u64 {
    match &state.chaos {
        Some(chaos) => {
            let factor = chaos.link_factor(a, b, now);
            if factor > 1.0 {
                ((cycles as f64 * factor) as u64).max(cycles)
            } else {
                cycles
            }
        }
        None => cycles,
    }
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

/// A lognormal multiplier with mean 1 and the given coefficient of
/// variation, drawn via Box–Muller from the seeded generator.
fn lognormal_factor(rng: &mut StdRng, cv: f64) -> f64 {
    if cv <= 0.0 || !cv.is_finite() {
        return 1.0;
    }
    let sigma_sq = (1.0 + cv * cv).ln();
    let sigma = sigma_sq.sqrt();
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    (-0.5 * sigma_sq + sigma * z).exp()
}

/// The per-(model, allocation, board) service calibration: batch service
/// times for every batch size up to `max_batch` (shared, never re-cloned),
/// plus the stochastic dispersion when enabled.
struct CalibrationEntry {
    batch_cycles: Arc<[u64]>,
    cv: f64,
}

/// The key of one calibration: the replica shape, with the board identified
/// by its hashable [`NpuConfigKey`] instead of deep struct equality.
type CalibrationKey = (ModelId, usize, usize, NpuConfigKey);

/// The run-lifetime calibration cache. Boards are compared by configuration,
/// not node identity, so a homogeneous fleet compiles each (model,
/// allocation) once per batch size — including replicas the control plane
/// scales up mid-run. Lookups hash the key (no linear scan with deep
/// `NpuConfig` comparisons) and hits hand out the shared `Arc<[u64]>` curve
/// (no per-replica clone of the batch table).
///
/// Ordered map (simlint `D1`): the cache is lookup-only today, but any
/// future "recalibrate everything" sweep would iterate it, and in a
/// digest-affecting crate that iteration must be deterministic from day
/// one. The key compares cheap fixed-size integers, so ordered lookups stay
/// free of deep `NpuConfig` scans.
struct CalibrationCache {
    max_batch: usize,
    stochastic: Option<StochasticService>,
    /// Whether replicas order their queues earliest-deadline-first (fixes
    /// the [`ReplicaQueue`] variant of every replica built, including
    /// control-plane scale-ups).
    edf: bool,
    entries: BTreeMap<CalibrationKey, CalibrationEntry>,
}

impl CalibrationCache {
    fn new(max_batch: usize, stochastic: Option<StochasticService>, edf: bool) -> Self {
        CalibrationCache {
            max_batch,
            stochastic,
            edf,
            entries: BTreeMap::new(),
        }
    }

    /// The calibrated batch service times and dispersion of one replica shape.
    fn calibrate(
        &mut self,
        model: ModelId,
        mes: usize,
        ves: usize,
        npu: &NpuConfig,
    ) -> (Arc<[u64]>, f64) {
        let key = (model, mes, ves, npu.cache_key());
        let max_batch = self.max_batch;
        let stochastic = self.stochastic;
        let entry = self.entries.entry(key).or_insert_with(|| {
            let batch_cycles: Arc<[u64]> = (1..=max_batch)
                .map(|k| estimated_batch_service_cycles(model, k, mes, ves, npu))
                .collect();
            let cv = match stochastic {
                Some(stochastic) => {
                    let cv = stochastic.cv_override.unwrap_or_else(|| {
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
                    });
                    if cv.is_finite() {
                        cv.max(0.0)
                    } else {
                        0.0
                    }
                }
                None => 0.0,
            };
            CalibrationEntry { batch_cycles, cv }
        });
        (Arc::clone(&entry.batch_cycles), entry.cv)
    }

    /// Builds the simulator-side state of one deployed replica.
    fn replica_sim(
        &mut self,
        cluster: &NpuCluster,
        deployment: &DeployedVnpu,
        now: u64,
    ) -> ReplicaSim {
        let node = cluster
            .node(deployment.handle.node)
            .expect("deployment node exists"); // simlint::allow(P1, reason = "replica construction follows a successful deploy on that node")
        let (batch_cycles, cv) = self.calibrate(
            deployment.model,
            deployment.config.num_mes_per_core,
            deployment.config.num_ves_per_core,
            node.npu_config(),
        );
        ReplicaSim {
            handle: deployment.handle,
            model: deployment.model,
            batch_cycles,
            cv,
            queue: ReplicaQueue::new(self.edf),
            in_service: None,
            available_at: now,
            pending_migration: None,
            precopy: None,
            batch_timeout_at: None,
            draining: false,
            retired: false,
            fenced: false,
            activated_at: now,
            window_busy: 0,
        }
    }
}

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
        self.run_loop(cluster, trace, &mut NoopControl, &mut NoopSink)
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
        self.run_loop(cluster, trace, &mut NoopControl, sink)
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
        self.run_loop(cluster, trace, controller, sink)
    }

    /// Replays `trace` against `cluster` under a closed-loop `controller`.
    ///
    /// Every sampling interval the simulator emits a [`TelemetryFrame`], the
    /// controller answers with [`ControlAction`]s, and the actions are
    /// applied inside the event loop — scale-ups deploy through the
    /// placement engine and start serving at the tick, scale-downs drain
    /// then release, migrations follow the cold migration path. The cluster
    /// is mutated accordingly. Deterministic controllers yield reproducible
    /// reports.
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
        self.run_loop(cluster, trace, controller, &mut NoopSink)
    }

    /// The shared event loop behind every `run*` entry point.
    ///
    /// Generic over the [`ObsSink`] so the disabled path ([`NoopSink`], whose
    /// hooks are all empty defaults) monomorphizes to exactly the
    /// uninstrumented loop — no branches, no allocations, no digest drift.
    ///
    /// The loop itself lives in [`PartitionSim`]: the sequential path is the
    /// degenerate single-partition case — one partition owning every board,
    /// stepped in a single unbounded round.
    pub(crate) fn run_loop<S: ObsSink + ?Sized>(
        &self,
        cluster: &mut NpuCluster,
        trace: &ClusterTrace,
        controller: &mut dyn ControlPlane,
        sink: &mut S,
    ) -> ServingReport {
        let mut partition = PartitionSim::new(self.options.clone(), cluster, trace.arrivals());
        partition.step_until(u64::MAX, cluster, controller, sink);
        partition.finish(sink).into_report()
    }

    /// The options this simulator was built with (the sharded runner derives
    /// its per-partition options from them).
    pub(crate) fn options(&self) -> &ServingOptions {
        &self.options
    }
}

/// The accumulated results of one partition's run.
///
/// The sequential path produces exactly one outcome and converts it straight
/// into a [`ServingReport`]; the sharded runner merges the per-partition
/// outcomes in partition-index order first ([`PartitionOutcome::merge`]), so
/// the merged report is a pure fold over per-partition state — bit-identical
/// for a fixed partitioning regardless of how many worker threads ran it.
pub(crate) struct PartitionOutcome {
    pub(crate) dispatch: DispatchPolicy,
    pub(crate) router_stats: RouterStats,
    pub(crate) latencies: QuantileSketch,
    pub(crate) per_model: BTreeMap<ModelId, QuantileSketch>,
    pub(crate) per_node_completed: BTreeMap<NodeId, usize>,
    pub(crate) deadline: DeadlineStats,
    pub(crate) batches: usize,
    pub(crate) migration_records: Vec<MigrationRecord>,
    pub(crate) control: ControlStats,
    pub(crate) replica_cycles: u64,
    pub(crate) makespan: u64,
    pub(crate) perf: PerfStats,
    pub(crate) alerts: AlertLog,
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
        self.router_stats.completed += other.router_stats.completed;
        self.latencies.merge(&other.latencies);
        for (model, sketch) in other.per_model {
            self.per_model.entry(model).or_default().merge(&sketch);
        }
        for (node, count) in other.per_node_completed {
            *self.per_node_completed.entry(node).or_default() += count;
        }
        self.deadline.with_deadline += other.deadline.with_deadline;
        self.deadline.met += other.deadline.met;
        self.deadline.missed += other.deadline.missed;
        self.deadline.dropped += other.deadline.dropped;
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
        for transition in other.alerts.transitions() {
            self.alerts.push(*transition);
        }
        self.availability.merge(&other.availability);
    }

    /// Converts the (merged) outcome into the public report.
    ///
    /// `summary_sorted` reproduces the seed's sort-then-`from_sorted` global
    /// summary bit-for-bit below the sketch cap; `summary` reproduces the
    /// insertion-order `from_samples` per-model fold.
    pub(crate) fn into_report(mut self) -> ServingReport {
        ServingReport {
            dispatch: self.dispatch,
            stats: self.router_stats,
            latency: self.latencies.summary_sorted(),
            per_model: self
                .per_model
                .into_iter()
                .map(|(model, sketch)| (model, sketch.summary()))
                .collect(),
            per_node_completed: self.per_node_completed,
            deadline: self.deadline,
            batches: self.batches,
            migration_stats: MigrationStats::from_records(&self.migration_records),
            migrations: self.migration_records,
            control: self.control,
            replica_cycles: self.replica_cycles,
            makespan: Cycles(self.makespan),
            perf: self.perf,
            alerts: self.alerts,
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
    pub(crate) ready_at: u64,
    record: MigrationRecord,
    /// True once the destination rejected the import and the envelope was
    /// re-targeted back at its source. A bounced envelope re-imports silently
    /// (the rejection was already counted); a second failure abandons it.
    pub(crate) bounced: bool,
}

/// Per-partition view of the sharded world: which partition this is, who owns
/// each board, how arrivals are routed, and the replicas exported since the
/// last barrier. `None` on the sequential path — every shard-aware branch in
/// the step function keys off that, so `partitions = 1` is the sequential
/// code path by construction.
pub(crate) struct ShardContext {
    pub(crate) index: usize,
    pub(crate) owners: BTreeMap<NodeId, usize>,
    pub(crate) plan: ShardPlan,
    pub(crate) exports: Vec<MigrationEnvelope>,
}

impl ShardContext {
    fn owner_of(&self, node: NodeId) -> usize {
        self.owners.get(&node).copied().unwrap_or(0)
    }

    fn owns(&self, node: NodeId) -> bool {
        self.owner_of(node) == self.index
    }
}

/// One partition of the serving event loop: a set of boards with its own
/// event heap, replica table, router, RNG and accumulators.
///
/// The sequential `run*` entry points drive a single partition owning the
/// whole cluster to completion in one unbounded round; the sharded runner
/// drives one partition per board-group in bounded-window rounds, merging
/// cross-partition traffic at each barrier. All mutable simulation state
/// lives here so a partition can be stepped to a bound, reconciled, and
/// resumed without losing determinism.
pub(crate) struct PartitionSim<'a> {
    pub(crate) options: ServingOptions,
    cache: CalibrationCache,
    replicas: Vec<ReplicaSim>,
    dispatch_index: ReplicaIndex,
    router: Router,
    state: ServeState,
    events: EventQueue,
    links: LinkSchedule,
    recovery_armed: bool,
    sample_interval: Option<u64>,
    alert_interval: Option<u64>,
    alert_scratch: Vec<AlertTransition>,
    frame: TelemetryFrame,
    stale_models: Vec<ModelId>,
    arrivals: &'a [RequestArrival],
    next_arrival: usize,
    makespan: u64,
    perf: PerfStats,
    latencies: QuantileSketch,
    per_model: BTreeMap<ModelId, QuantileSketch>,
    per_node_completed: BTreeMap<NodeId, usize>,
    migration_records: Vec<MigrationRecord>,
    views: Vec<ReplicaView>,
    /// `Some` only under the sharded runner; `None` keeps every shard-aware
    /// branch dead on the sequential path.
    shard: Option<ShardContext>,
}

impl<'a> PartitionSim<'a> {
    /// Builds a partition over `cluster`'s current deployments, arming the
    /// scheduled migration, fault, telemetry and alert events.
    pub(crate) fn new(
        options: ServingOptions,
        cluster: &mut NpuCluster,
        arrivals: &'a [RequestArrival],
    ) -> Self {
        Self::build(options, cluster, arrivals, None)
    }

    /// Builds one partition of a sharded run. Telemetry and alert events are
    /// never armed partition-side — the coordinator drives sampling at the
    /// barrier so the control plane sees the whole fleet, not one shard.
    pub(crate) fn new_sharded(
        options: ServingOptions,
        cluster: &mut NpuCluster,
        arrivals: &'a [RequestArrival],
        shard: ShardContext,
    ) -> Self {
        Self::build(options, cluster, arrivals, Some(shard))
    }

    fn build(
        options: ServingOptions,
        cluster: &mut NpuCluster,
        arrivals: &'a [RequestArrival],
        shard: Option<ShardContext>,
    ) -> Self {
        let max_batch = options.max_batch.max(1);
        let edf = options.dispatch.orders_queues_by_deadline();
        let mut cache = CalibrationCache::new(max_batch, options.stochastic, edf);
        let initial: Vec<DeployedVnpu> = cluster.deployments().copied().collect();
        let replicas: Vec<ReplicaSim> = initial
            .iter()
            .map(|d| cache.replica_sim(cluster, d, 0))
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
        let sample_interval = options.telemetry_interval;
        let state = ServeState {
            max_batch,
            max_batch_wait: options.max_batch_wait,
            drop_expired: options.drop_expired,
            rng: options.stochastic.map(|s| StdRng::seed_from_u64(s.seed)),
            deadline: DeadlineStats::default(),
            batches: 0,
            sampling: sample_interval.is_some(),
            window_start: 0,
            windows: BTreeMap::new(),
            control: ControlStats::default(),
            replica_cycles: 0,
            batch_pool: Vec::new(),
            live_replicas: replicas.len(),
            peak_replicas: replicas.len(),
            slo: options.slo.as_ref().map(SloEngine::new),
            alerts: AlertLog::default(),
            chaos: options
                .faults
                .as_ref()
                .map(|schedule| ChaosState::new(schedule, options.recovery)),
            avoid_migrating: options.migration_aware_dispatch,
            max_queue_depth: options.admission.max_queue_depth,
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
        // Fenced (undetected-dead) replicas count as pending work only while
        // recovery will eventually drain them; without recovery they would
        // sustain the telemetry bus forever and the run could never end.
        let recovery_armed = options.faults.is_some() && options.recovery.is_some();
        // Sharded partitions never self-sample: the coordinator ticks
        // telemetry at the barrier over the merged fleet instead.
        if shard.is_none() {
            if let Some(interval) = sample_interval {
                events.push(interval, EV_SAMPLE, 0);
            }
        }
        let alert_interval = state.slo.as_ref().map(|engine| engine.tick());
        if shard.is_none() {
            if let Some(tick) = alert_interval {
                events.push(tick, EV_ALERT, 0);
            }
        }
        // Latency accumulators are streaming quantile sketches, not retained
        // per-sample vectors: exact (and summary-bit-identical to the seed's
        // sort-then-summarize) below the sketch cap, α-bounded and O(1)
        // memory beyond it — a 10M-arrival run no longer holds 80MB of
        // samples to answer four percentiles.
        let latencies = QuantileSketch::with_capacity_hint(arrivals.len());

        PartitionSim {
            options,
            cache,
            replicas,
            dispatch_index,
            router,
            state,
            events,
            links: LinkSchedule::default(),
            recovery_armed,
            sample_interval,
            alert_interval,
            // Alert-edge scratch, reused across alert ticks.
            alert_scratch: Vec::new(),
            // Telemetry scratch, reused across ticks: the frame's vectors and
            // model map persist, so steady-state sampling allocates nothing.
            frame: TelemetryFrame {
                at: Cycles::ZERO,
                window: Cycles::ZERO,
                replicas: Vec::new(),
                models: BTreeMap::new(),
            },
            stale_models: Vec::new(),
            arrivals,
            next_arrival: 0,
            makespan: 0,
            perf: PerfStats::default(),
            latencies,
            per_model: BTreeMap::new(),
            per_node_completed: BTreeMap::new(),
            migration_records: Vec::new(),
            // Candidate-view scratch for the debug-build dispatch oracle.
            views: Vec::new(),
            shard,
        }
    }

    /// Advances the partition until no work remains or the next event or
    /// arrival is at or past `bound` — events exactly at `bound` run in the
    /// next round, after the barrier reconciliation, which is what makes
    /// barrier-injected events (always stamped ≥ the barrier time) safe. The
    /// sequential path passes `u64::MAX`: one unbounded round to completion.
    pub(crate) fn step_until<S: ObsSink + ?Sized>(
        &mut self,
        bound: u64,
        cluster: &mut NpuCluster,
        controller: &mut dyn ControlPlane,
        sink: &mut S,
    ) {
        let PartitionSim {
            options,
            cache,
            replicas,
            dispatch_index,
            router,
            state,
            events,
            links,
            recovery_armed,
            sample_interval,
            alert_interval,
            alert_scratch,
            frame,
            stale_models,
            arrivals,
            next_arrival,
            makespan,
            perf,
            latencies,
            per_model,
            per_node_completed,
            migration_records,
            views,
            shard,
        } = self;
        let arrivals: &[RequestArrival] = arrivals;
        let recovery_armed = *recovery_armed;
        let sample_interval = *sample_interval;
        let alert_interval = *alert_interval;
        // Sharded runs share the trace slice. Each partition's arrival
        // cursor steps over the arrivals other partitions own — here under
        // the plan rebuilt at the last barrier, and again after every owned
        // arrival — so the loop below only ever sees its own.
        if let Some(context) = shard.as_ref() {
            context
                .plan
                .skip_unowned(context.index, arrivals, next_arrival, bound);
        }

        loop {
            let event_time = events.next_time();
            let arrival_time = arrivals.get(*next_arrival).map(|a| a.at.get());
            let take_event = match (event_time, arrival_time) {
                (None, None) => break,
                (Some(t), Some(at)) => t <= at,
                (Some(_), None) => true,
                (None, Some(_)) => false,
            };
            let due = if take_event { event_time } else { arrival_time };
            match due {
                Some(t) if t < bound => {}
                _ => break,
            }

            if take_event {
                let (now, kind, index) = events.pop().expect("peeked above"); // simlint::allow(P1, reason = "pop follows the peek that chose the event branch")
                perf.events += 1;
                // Slot-scoped events may change their slot's load. Their
                // handlers never pick a replica, so touching up front is as
                // good as touching after.
                if matches!(
                    kind,
                    EV_COMPLETION | EV_RESUME | EV_BATCH_TIMEOUT | EV_COPY_ROUND
                ) {
                    dispatch_index.touch(index);
                }
                match kind {
                    EV_COMPLETION => {
                        // A fenced board never reports: the batch stays
                        // captured in `in_service` so failover (or the
                        // end-of-run sweep) can account for every request.
                        if replicas[index].fenced {
                            continue;
                        }
                        // Only real work moves the makespan: completions here,
                        // executed migrations via their resume event.
                        *makespan = (*makespan).max(now);
                        let replica = &mut replicas[index];
                        let (mut batch, started, finish) = replica
                            .in_service
                            .take()
                            .expect("completion without service"); // simlint::allow(P1, reason = "EV_COMPLETION is only scheduled while a batch is in service")
                        debug_assert_eq!(finish, now);
                        replica.window_busy += finish - started.max(state.window_start);
                        for request in &batch {
                            let latency = now.saturating_sub(request.arrived);
                            latencies.record(latency);
                            per_model.entry(request.model).or_default().record(latency);
                            if let Some(window) = state.window_of(request.model) {
                                window.metrics.record_latency(latency);
                            }
                            let mut deadline_met = None;
                            if let Some(deadline) = request.deadline {
                                let met = now <= deadline;
                                deadline_met = Some(met);
                                state.deadline.record_completion(met);
                                if let Some(window) = state.window_of(request.model) {
                                    window.metrics.record_deadline(met);
                                }
                            }
                            router.record_completion();
                            if let Some(chaos) = &mut state.chaos {
                                chaos.note_completed(request.model);
                            }
                            if let Some(engine) = &mut state.slo {
                                engine.observe_latency(
                                    now,
                                    request.model,
                                    request.priority,
                                    latency,
                                );
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
                        *per_node_completed.entry(replica.handle.node).or_default() += batch.len();
                        // A live pre-copy in flight: the served batch wrote
                        // its share of resident state, re-dirtying pages the
                        // rounds must stream again.
                        if let Some(precopy) = &mut replica.precopy {
                            precopy
                                .dirty
                                .mark(batch.len() as u64 * precopy.dirty_bytes_per_request);
                        }
                        batch.clear();
                        state.batch_pool.push(batch);
                        if let Some((to, requested_at)) = replica.pending_migration.take() {
                            let drain = now.saturating_sub(requested_at);
                            Self::execute_migration(
                                cluster,
                                &mut replicas[index],
                                dispatch_index,
                                now,
                                to,
                                drain,
                                &options.cost_model,
                                migration_records,
                                events,
                                links,
                                index,
                                state,
                                shard,
                                sink,
                            );
                        } else {
                            Self::start_next(&mut replicas[index], now, events, index, state, sink);
                            Self::retire_if_drained(
                                cluster,
                                &mut replicas[index],
                                dispatch_index,
                                now,
                                state,
                            );
                        }
                    }
                    EV_RESUME => {
                        *makespan = (*makespan).max(now);
                        Self::start_next(&mut replicas[index], now, events, index, state, sink);
                        Self::retire_if_drained(
                            cluster,
                            &mut replicas[index],
                            dispatch_index,
                            now,
                            state,
                        );
                    }
                    EV_BATCH_TIMEOUT => {
                        let replica = &mut replicas[index];
                        // Stale timeouts (the batch filled, or the queue was
                        // served/dropped meanwhile) are ignored; `start_next`
                        // re-arms a fresh one when it holds again.
                        if replica.batch_timeout_at == Some(now) {
                            replica.batch_timeout_at = None;
                            Self::start_next(replica, now, events, index, state, sink);
                        }
                    }
                    EV_COPY_ROUND => {
                        Self::copy_round(
                            cluster,
                            replicas,
                            dispatch_index,
                            index,
                            now,
                            &options.cost_model,
                            migration_records,
                            events,
                            links,
                            state,
                            shard,
                            sink,
                        );
                    }
                    EV_MIGRATION => {
                        let scheduled = options.migrations[index];
                        let Some(target) = dispatch_index.slot_of(scheduled.handle) else {
                            continue; // stale handle (already moved or undeployed)
                        };
                        dispatch_index.touch(target);
                        Self::start_migration(
                            cluster,
                            replicas,
                            dispatch_index,
                            target,
                            scheduled.to,
                            scheduled.mode,
                            now,
                            &options.cost_model,
                            migration_records,
                            events,
                            links,
                            state,
                            shard,
                            sink,
                        );
                    }
                    EV_FAULT => {
                        let mut chaos = state
                            .chaos
                            .take()
                            .expect("EV_FAULT scheduled without chaos state"); // simlint::allow(P1, reason = "EV_FAULT events are only pushed when a fault schedule configured the chaos state")
                        let fault = chaos.schedule[index];
                        chaos.apply(&fault);
                        sink.on_fault(now, &fault);
                        match fault.kind {
                            FaultKind::BoardCrash { node } => {
                                // Cordon the board: nothing (the autoscaler
                                // included) may place onto it again. Replicas
                                // are fenced, not retired — the router keeps
                                // steering into the black hole until the
                                // missed-frame detector declares the board
                                // dead, which is exactly the availability
                                // cost of detection latency.
                                cluster.set_offline(node, true);
                                chaos.cordoned.insert(node);
                                for (slot, replica) in replicas.iter_mut().enumerate() {
                                    if replica.live() && replica.handle.node == node {
                                        replica.fenced = true;
                                        replica.pending_migration = None;
                                        replica.precopy = None;
                                        replica.batch_timeout_at = None;
                                        dispatch_index.touch(slot);
                                    }
                                }
                            }
                            FaultKind::BoardHang { node, for_cycles } => {
                                // Cordon for the window so the control plane
                                // cannot deploy into dead air; the sample-tick
                                // sweep re-onlines the board once the hang
                                // clears (unless the detector failed it over
                                // first). Batches already on the device
                                // complete; nothing new starts.
                                cluster.set_offline(node, true);
                                chaos.cordoned.insert(node);
                                let resume_at = now.saturating_add(for_cycles);
                                for (slot, replica) in replicas.iter_mut().enumerate() {
                                    if replica.live()
                                        && !replica.fenced
                                        && replica.handle.node == node
                                    {
                                        replica.available_at = replica.available_at.max(resume_at);
                                        events.push(resume_at, EV_RESUME, slot);
                                        dispatch_index.touch(slot);
                                    }
                                }
                            }
                            // Window faults: `apply` opened the window; the
                            // serving and transfer paths read it lazily.
                            FaultKind::LinkDegrade { .. }
                            | FaultKind::Straggler { .. }
                            | FaultKind::TelemetryDropout { .. } => {}
                        }
                        state.chaos = Some(chaos);
                    }
                    EV_SAMPLE => {
                        let interval = sample_interval.expect("sampling scheduled"); // simlint::allow(P1, reason = "EV_SAMPLE is only scheduled when sampling is configured")
                        Self::chaos_tick(
                            cluster,
                            replicas,
                            dispatch_index,
                            cache,
                            router,
                            views,
                            now,
                            &options.cost_model,
                            options.failover_edf,
                            events,
                            links,
                            state,
                            sink,
                        );
                        Self::sample_into(frame, stale_models, replicas, now, state);
                        state.control.samples += 1;
                        Self::observe_tick(sink, cluster, replicas, now, frame);
                        let actions = controller.control(frame, cluster);
                        for action in actions {
                            Self::apply_action(
                                cluster,
                                replicas,
                                dispatch_index,
                                cache,
                                action,
                                now,
                                &options.cost_model,
                                migration_records,
                                events,
                                links,
                                state,
                                shard,
                                sink,
                            );
                        }
                        // Keep ticking only while there is (or can be) work:
                        // the bus must not keep an otherwise-finished run
                        // alive forever. The event counter answers "anything
                        // still queued?" without scanning the heap.
                        if Self::work_left(
                            *next_arrival,
                            arrivals,
                            replicas,
                            events,
                            recovery_armed,
                        ) {
                            events.push(now + interval, EV_SAMPLE, 0);
                        }
                    }
                    EV_ALERT => {
                        alert_scratch.clear();
                        if let Some(engine) = &mut state.slo {
                            engine.evaluate(now, alert_scratch);
                        }
                        for alert in alert_scratch.iter() {
                            state.alerts.push(*alert);
                            sink.on_alert(now, alert);
                            controller.on_alert(Cycles(now), alert);
                        }
                        // Same liveness rule as the telemetry bus: alert
                        // ticks observe work, they must not sustain it.
                        if let Some(tick) = alert_interval {
                            if Self::work_left(
                                *next_arrival,
                                arrivals,
                                replicas,
                                events,
                                recovery_armed,
                            ) {
                                events.push(now + tick, EV_ALERT, 0);
                            }
                        }
                    }
                    _ => unreachable!("unknown event kind"),
                }
                // Re-key the touched leaves at the edge itself, so the next
                // pick finds its trees current.
                dispatch_index.refresh(|slot| replicas[slot].load(now, state));
            } else {
                let arrival = arrivals[*next_arrival];
                *next_arrival += 1;
                // The cursor stopped here, below the bound, so this partition
                // owns the arrival: arrival counters sum to the trace length
                // across partitions.
                if let Some(context) = shard.as_ref() {
                    debug_assert_eq!(
                        context.plan.owner(arrival.model, arrival.sequence),
                        context.index
                    );
                    context
                        .plan
                        .skip_unowned(context.index, arrivals, next_arrival, bound);
                }
                perf.arrivals += 1;
                let now = arrival.at.get();
                sink.on_arrival(now, arrival.sequence, arrival.model);

                let decision = Self::route(
                    router,
                    dispatch_index,
                    replicas,
                    views,
                    state,
                    arrival.model,
                    now,
                    true,
                );
                match decision {
                    DispatchDecision::Dispatch(index) => {
                        if let Some(window) = state.window_of(arrival.model) {
                            window.arrivals += 1;
                        }
                        if let Some(chaos) = &mut state.chaos {
                            chaos.note_admitted(arrival.model);
                        }
                        sink.on_dispatch(
                            now,
                            arrival.sequence,
                            arrival.model,
                            replicas[index].handle.node,
                            index,
                        );
                        let request = QueuedRequest {
                            model: arrival.model,
                            arrived: now,
                            deadline: arrival.deadline.map(|d| d.get()),
                            priority: arrival.priority,
                            sequence: arrival.sequence,
                        };
                        replicas[index].enqueue(request);
                        Self::start_next(&mut replicas[index], now, events, index, state, sink);
                        dispatch_index.touch(index);
                    }
                    decision @ (DispatchDecision::RejectNoReplica
                    | DispatchDecision::RejectOverload) => {
                        if let Some(window) = state.window_of(arrival.model) {
                            window.rejected += 1;
                        }
                        let reason = if matches!(decision, DispatchDecision::RejectNoReplica) {
                            RejectReason::NoReplica
                        } else {
                            RejectReason::Overload
                        };
                        sink.on_reject(now, arrival.sequence, arrival.model, reason);
                    }
                }
                dispatch_index.refresh(|slot| replicas[slot].load(now, state));
            }
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
    #[allow(clippy::too_many_arguments)]
    fn route(
        router: &mut Router,
        dispatch_index: &mut ReplicaIndex,
        replicas: &[ReplicaSim],
        views: &mut Vec<ReplicaView>,
        state: &ServeState,
        model: ModelId,
        now: u64,
        admit: bool,
    ) -> DispatchDecision {
        dispatch_index.refresh(|slot| replicas[slot].load(now, state));
        let expected = if cfg!(debug_assertions) {
            views.clear();
            let mut per_node: BTreeMap<NodeId, usize> = BTreeMap::new();
            for (slot, replica) in replicas.iter().enumerate() {
                if replica.live() && !replica.draining && replica.model == model {
                    *per_node.entry(replica.handle.node).or_default() += 1;
                    views.push(ReplicaView {
                        index: slot,
                        node: replica.handle.node,
                        queue_len: replica.queue.len(),
                        in_flight: replica.in_flight(),
                        unavailable: !replica.dispatchable(now, state.avoid_migrating),
                        node_replicas: 0,
                    });
                }
            }
            for view in views.iter_mut() {
                view.node_replicas = per_node[&view.node];
            }
            Some(router.peek(model, views))
        } else {
            None
        };
        let decision = if admit {
            router.dispatch_indexed(model, dispatch_index)
        } else {
            router.redispatch(model, dispatch_index)
        };
        debug_assert!(
            expected.is_none_or(|expected| expected == decision),
            "load-tree pick {decision:?} for {model:?} at cycle {now} diverged from the \
             view scan's {expected:?}"
        );
        decision
    }

    /// Adds a freshly deployed replica to the table and the dispatch index
    /// and counts it live, returning its slot. Every mid-run deployment
    /// enters here: scale-ups, failover re-placements and cross-partition
    /// imports.
    fn add_replica(
        replicas: &mut Vec<ReplicaSim>,
        dispatch_index: &mut ReplicaIndex,
        state: &mut ServeState,
        replica: ReplicaSim,
    ) -> usize {
        let slot = replicas.len();
        dispatch_index.insert(slot, replica.model, replica.handle.node, replica.handle);
        replicas.push(replica);
        state.live_replicas += 1;
        state.peak_replicas = state.peak_replicas.max(state.live_replicas);
        slot
    }

    /// Hands an active sink the settled telemetry tick: `frame` plus the
    /// fleet-wide counter tracks, whose scan the disabled path never pays.
    fn observe_tick<S: ObsSink + ?Sized>(
        sink: &mut S,
        cluster: &NpuCluster,
        replicas: &[ReplicaSim],
        now: u64,
        frame: &TelemetryFrame,
    ) {
        if !sink.active() {
            return;
        }
        let mut counters = FleetCounters::default();
        for replica in replicas.iter().filter(|r| r.live()) {
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

    /// Ends the run: sweeps requests still marooned on fenced boards, banks
    /// the replica-time of everything still provisioned, and converts the
    /// partition's accumulators into a mergeable [`PartitionOutcome`].
    pub(crate) fn finish<S: ObsSink + ?Sized>(mut self, sink: &mut S) -> PartitionOutcome {
        let makespan = self.makespan;
        // Requests still marooned on fenced boards at run end were never
        // failed over (no recovery armed, or the run drained first): count
        // every one lost with a fault attribution. Nothing is silent.
        if let Some(chaos) = &mut self.state.chaos {
            let mut marooned: Vec<QueuedRequest> = Vec::new();
            for replica in self.replicas.iter_mut().filter(|r| r.fenced && !r.retired) {
                if let Some((batch, _, _)) = replica.in_service.take() {
                    marooned.extend(batch.iter().copied());
                }
                let queued = replica.queue.len();
                replica.queue.drain_into(queued, &mut marooned);
                for request in marooned.drain(..) {
                    chaos.note_lost(request.model);
                    sink.on_lost(
                        makespan,
                        request.sequence,
                        request.model,
                        replica.handle.node,
                    );
                }
            }
        }

        // Bank the replica-time of everything still provisioned at the end.
        for replica in self.replicas.iter().filter(|r| r.live()) {
            self.state.replica_cycles += makespan.saturating_sub(replica.activated_at);
        }
        self.perf.peak_replicas = self.state.peak_replicas;

        let availability = self
            .state
            .chaos
            .take()
            .map(|chaos| chaos.stats)
            .unwrap_or_default();
        PartitionOutcome {
            dispatch: self.options.dispatch,
            router_stats: self.router.stats(),
            latencies: self.latencies,
            per_model: self.per_model,
            per_node_completed: self.per_node_completed,
            deadline: self.state.deadline,
            batches: self.state.batches,
            migration_records: self.migration_records,
            control: self.state.control,
            replica_cycles: self.state.replica_cycles,
            makespan,
            perf: self.perf,
            alerts: self.state.alerts,
            availability,
        }
    }

    /// Whether the run can still produce completions: arrivals left, a live
    /// replica with queued/in-service work or a pending drain-then-move, or
    /// any real (non-observer) event queued. Shared by the telemetry and
    /// alert ticks so neither periodic observer keeps a finished run alive.
    fn work_left(
        next_arrival: usize,
        arrivals: &[RequestArrival],
        replicas: &[ReplicaSim],
        events: &EventQueue,
        recovery_armed: bool,
    ) -> bool {
        next_arrival < arrivals.len()
            || replicas.iter().any(|r| {
                // Work marooned on a fenced board counts only while recovery
                // will eventually drain it (detection needs the telemetry
                // ticks this keeps alive); without recovery it would sustain
                // the bus forever, so the run ends and the sweep counts the
                // marooned requests as lost.
                r.live()
                    && (!r.fenced || recovery_armed)
                    && (r.in_service.is_some()
                        || !r.queue.is_empty()
                        || r.pending_migration.is_some())
            })
            || events.has_non_sample()
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
    #[allow(clippy::too_many_arguments)]
    fn chaos_tick<S: ObsSink + ?Sized>(
        cluster: &mut NpuCluster,
        replicas: &mut Vec<ReplicaSim>,
        dispatch_index: &mut ReplicaIndex,
        cache: &mut CalibrationCache,
        router: &mut Router,
        views: &mut Vec<ReplicaView>,
        now: u64,
        cost_model: &MigrationCostModel,
        failover_edf: bool,
        events: &mut EventQueue,
        links: &mut LinkSchedule,
        state: &mut ServeState,
        sink: &mut S,
    ) {
        let Some(mut chaos) = state.chaos.take() else {
            return;
        };
        let Some(policy) = chaos.recovery else {
            state.chaos = Some(chaos);
            return;
        };

        // Heartbeat accounting over the monitored boards. BTreeSet: the
        // declaration scan below must walk nodes in a deterministic order.
        let mut monitored: BTreeSet<NodeId> = BTreeSet::new();
        for replica in replicas.iter().filter(|r| r.live()) {
            monitored.insert(replica.handle.node);
        }
        let mut dead: Vec<NodeId> = Vec::new();
        for &node in &monitored {
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
            let slots: Vec<usize> = replicas
                .iter()
                .enumerate()
                .filter(|(_, r)| r.live() && r.handle.node == node)
                .map(|(slot, _)| slot)
                .collect();
            let mut orphans: Vec<(usize, QueuedRequest)> = Vec::new();
            let mut failed_here = 0u64;
            for slot in slots {
                let (handle, was_draining) = {
                    let r = &replicas[slot];
                    (r.handle, r.draining)
                };
                let restore_spec = if was_draining {
                    None
                } else {
                    cluster
                        .deployment(handle)
                        .map(|d| (d.spec(), cluster.resident_state_bytes(handle).unwrap_or(0)))
                };
                let replica = &mut replicas[slot];
                replica.fenced = true;
                replica.pending_migration = None;
                replica.precopy = None;
                replica.batch_timeout_at = None;
                if let Some((mut batch, _, _)) = replica.in_service.take() {
                    orphans.extend(batch.iter().map(|&request| (slot, request)));
                    batch.clear();
                    state.batch_pool.push(batch);
                }
                let queued = replica.queue.len();
                let mut drained: Vec<QueuedRequest> = Vec::with_capacity(queued);
                replica.queue.drain_into(queued, &mut drained);
                orphans.extend(drained.into_iter().map(|request| (slot, request)));
                dispatch_index.evict(slot, replica.model, node, handle, !replica.draining);
                replica.retired = true;
                state.replica_cycles += now.saturating_sub(replica.activated_at);
                state.live_replicas -= 1;
                failed_here += 1;
                chaos.stats.replicas_failed += 1;
                let undeployed = cluster.undeploy(handle);
                debug_assert!(
                    undeployed.is_ok(),
                    "a live replica's deployment must exist at failover"
                );

                // Re-place the replica on a surviving board, pricing the
                // state restore over the interconnect (degraded links slow
                // recovery too).
                if let Some((spec, state_bytes)) = restore_spec {
                    match cluster.deploy(spec, policy.placement) {
                        Ok(new_handle) => {
                            let deployment = *cluster
                                .deployment(new_handle)
                                .expect("deploy just returned this handle"); // simlint::allow(P1, reason = "deployment record is created by the successful deploy above")
                            let mut sim = cache.replica_sim(cluster, &deployment, now);
                            let frequency = cluster
                                .node(new_handle.node)
                                .expect("deploy placed on an existing node") // simlint::allow(P1, reason = "deploy only places on nodes of the cluster")
                                .npu_config()
                                .frequency;
                            let mut cycles =
                                cost_model.transfer_cycles(state_bytes, frequency).get();
                            let factor = chaos.link_factor(node, new_handle.node, now);
                            if factor > 1.0 {
                                cycles = ((cycles as f64 * factor) as u64).max(cycles);
                            }
                            let ready = links.reserve(node, new_handle.node, now, cycles);
                            sim.available_at = ready;
                            let new_slot = Self::add_replica(replicas, dispatch_index, state, sim);
                            events.push(ready, EV_RESUME, new_slot);
                            chaos.stats.replicas_restored += 1;
                            let restore = ready.saturating_sub(fault_at);
                            chaos.stats.restore_cycles_total += restore;
                            chaos.stats.restore_cycles_max =
                                chaos.stats.restore_cycles_max.max(restore);
                            sink.on_replica_restored(
                                now,
                                new_handle.node,
                                new_slot,
                                ready.saturating_sub(now),
                            );
                        }
                        Err(_) => {
                            chaos.stats.restore_rejected += 1;
                            sink.on_restore_rejected(now, node);
                        }
                    }
                }
            }

            // Re-dispatch the orphans in admission order — or, with
            // `failover_edf`, earliest-deadline-first so the tightest
            // deadlines reach surviving capacity ahead of best-effort
            // backlog. A request past its deadline is dropped with the
            // normal expiry accounting; one no surviving replica can take is
            // lost — with a fault attribution, never silently.
            if failover_edf {
                orphans.sort_by_key(|(_, request)| request.edf_key());
            } else {
                orphans.sort_by_key(|(_, request)| request.sequence);
            }
            chaos.stats.orphaned += orphans.len() as u64;
            let mut redispatched_here = 0u64;
            for (dead_slot, request) in orphans {
                if state.drop_expired && request.deadline.is_some_and(|d| d < now) {
                    chaos.stats.expired_in_failover += 1;
                    state.deadline.record_dropped();
                    if state.sampling {
                        state
                            .windows
                            .entry(request.model)
                            .or_default()
                            .metrics
                            .record_dropped();
                    }
                    if let Some(engine) = &mut state.slo {
                        engine.observe_expired(now, request.model, request.priority);
                    }
                    sink.on_expire(
                        now,
                        request.sequence,
                        request.model,
                        request.arrived,
                        node,
                        dead_slot,
                    );
                    continue;
                }
                let decision = Self::route(
                    router,
                    dispatch_index,
                    replicas,
                    views,
                    state,
                    request.model,
                    now,
                    false,
                );
                match decision {
                    DispatchDecision::Dispatch(slot) => {
                        redispatched_here += 1;
                        chaos.stats.redispatched += 1;
                        replicas[slot].enqueue(request);
                        dispatch_index.touch(slot);
                        touched.insert(slot);
                    }
                    DispatchDecision::RejectNoReplica | DispatchDecision::RejectOverload => {
                        chaos.note_lost(request.model);
                        if let Some(engine) = &mut state.slo {
                            engine.observe_expired(now, request.model, request.priority);
                        }
                        sink.on_lost(now, request.sequence, request.model, node);
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

        state.chaos = Some(chaos);
        for slot in touched {
            Self::start_next(&mut replicas[slot], now, events, slot, state, sink);
            dispatch_index.touch(slot);
        }
    }

    /// Closes the current telemetry window and rebuilds `frame` in place for
    /// the control plane.
    ///
    /// The frame's replica vector and model map are per-run scratch: the
    /// vector is cleared and refilled (its capacity persists) and the map's
    /// entries are reset in place, with new models inserted and vanished
    /// models swept via the reused `stale` buffer — so a steady-state tick
    /// over a stable fleet allocates nothing. The frame contents are
    /// bit-identical to a from-scratch build.
    fn sample_into(
        frame: &mut TelemetryFrame,
        stale: &mut Vec<ModelId>,
        replicas: &mut [ReplicaSim],
        now: u64,
        state: &mut ServeState,
    ) {
        frame.at = Cycles(now);
        frame.window = Cycles(now.saturating_sub(state.window_start));
        frame.replicas.clear();
        for replica in replicas.iter_mut().filter(|r| r.live()) {
            if let Some((_, started, _)) = &replica.in_service {
                replica.window_busy += now - (*started).max(state.window_start);
            }
            // A replica activated mid-window is measured over its own
            // lifetime, not the full window — a saturated newcomer must not
            // read as half-idle.
            let lifetime = now.saturating_sub(replica.activated_at.max(state.window_start));
            let utilization = if lifetime > 0 {
                (replica.window_busy as f64 / lifetime as f64).min(1.0)
            } else {
                0.0
            };
            frame.replicas.push(ReplicaSample {
                handle: replica.handle,
                model: replica.model,
                queue_len: replica.queue.len(),
                in_flight: replica.in_flight(),
                draining: replica.draining,
                utilization,
            });
            replica.window_busy = 0;
        }

        for (model, entry) in frame.models.iter_mut() {
            *entry = ModelSample::empty(*model);
        }
        for sample in &frame.replicas {
            let entry = frame
                .models
                .entry(sample.model)
                .or_insert_with(|| ModelSample::empty(sample.model));
            if !sample.draining {
                entry.replicas += 1;
            }
            entry.queued += sample.queue_len;
            entry.in_flight += sample.in_flight;
        }
        for (model, window_acc) in state.windows.iter_mut() {
            let entry = frame
                .models
                .entry(*model)
                .or_insert_with(|| ModelSample::empty(*model));
            entry.arrivals = window_acc.arrivals;
            entry.rejected = window_acc.rejected;
            let (latency, deadline) = window_acc.metrics.flush();
            entry.latency = latency;
            entry.deadline = deadline;
            window_acc.arrivals = 0;
            window_acc.rejected = 0;
        }
        // Sweep models that vanished since the last tick (no live replica,
        // never any window traffic) so the frame matches a fresh build.
        stale.clear();
        stale.extend(frame.models.keys().copied().filter(|model| {
            !state.windows.contains_key(model)
                && !frame.replicas.iter().any(|sample| sample.model == *model)
        }));
        for model in stale.drain(..) {
            frame.models.remove(&model);
        }
        state.window_start = now;
    }

    /// Applies one control-plane action inside the event loop.
    #[allow(clippy::too_many_arguments)]
    fn apply_action<S: ObsSink + ?Sized>(
        cluster: &mut NpuCluster,
        replicas: &mut Vec<ReplicaSim>,
        dispatch_index: &mut ReplicaIndex,
        cache: &mut CalibrationCache,
        action: ControlAction,
        now: u64,
        cost_model: &MigrationCostModel,
        records: &mut Vec<MigrationRecord>,
        events: &mut EventQueue,
        links: &mut LinkSchedule,
        state: &mut ServeState,
        shard: &mut Option<ShardContext>,
        sink: &mut S,
    ) {
        sink.on_control(now, &action);
        match action {
            ControlAction::ScaleUp { spec, placement } => match cluster.deploy(spec, placement) {
                Ok(handle) => {
                    let deployment = *cluster.deployment(handle).expect("just deployed"); // simlint::allow(P1, reason = "deployment recorded by the deploy call one line up")
                    let replica = cache.replica_sim(cluster, &deployment, now);
                    Self::add_replica(replicas, dispatch_index, state, replica);
                    state.control.scale_ups += 1;
                }
                Err(_) => state.control.scale_up_rejected += 1,
            },
            ControlAction::ScaleDown { handle } => {
                let Some(index) = dispatch_index.slot_of(handle) else {
                    return; // stale handle (already moved or released)
                };
                if replicas[index].draining {
                    return;
                }
                replicas[index].draining = true;
                // A scale-down trumps a live migration in flight: the vNPU is
                // being released, so streaming its state anywhere is wasted
                // work. The orphaned copy-round event is ignored by its
                // staleness guard.
                replicas[index].precopy = None;
                dispatch_index.begin_drain(index, replicas[index].model, handle.node);
                state.control.scale_downs += 1;
                // A held partial batch flushes immediately: a draining
                // replica never waits for a batch that cannot form.
                Self::start_next(&mut replicas[index], now, events, index, state, sink);
                Self::retire_if_drained(cluster, &mut replicas[index], dispatch_index, now, state);
            }
            ControlAction::Migrate { handle, to, mode } => {
                state.control.migrations_requested += 1;
                let Some(index) = dispatch_index.slot_of(handle) else {
                    return;
                };
                Self::start_migration(
                    cluster,
                    replicas,
                    dispatch_index,
                    index,
                    to,
                    mode,
                    now,
                    cost_model,
                    records,
                    events,
                    links,
                    state,
                    shard,
                    sink,
                );
                dispatch_index.touch(index);
            }
        }
    }

    /// Starts moving `replicas[index]` to `to`, for a scheduled migration and
    /// a control-plane one alike. A pre-copy streams the state while the
    /// replica keeps serving. A cold move drains a busy replica's in-flight
    /// batch first; an idle one migrates immediately. Under the sharded
    /// runner a destination owned by another partition demotes a pre-copy to
    /// a cold drain-and-move: the copy loop needs destination state the
    /// source partition cannot see.
    #[allow(clippy::too_many_arguments)]
    fn start_migration<S: ObsSink + ?Sized>(
        cluster: &mut NpuCluster,
        replicas: &mut [ReplicaSim],
        dispatch_index: &mut ReplicaIndex,
        index: usize,
        to: NodeId,
        mode: MigrationMode,
        now: u64,
        cost_model: &MigrationCostModel,
        records: &mut Vec<MigrationRecord>,
        events: &mut EventQueue,
        links: &mut LinkSchedule,
        state: &mut ServeState,
        shard: &mut Option<ShardContext>,
        sink: &mut S,
    ) {
        // A draining replica is about to release its vNPU anyway: migrating
        // it would charge a pointless dark window to its queued requests. A
        // replica already migrating (either mode) finishes that move first.
        if replicas[index].handle.node == to
            || replicas[index].pending_migration.is_some()
            || replicas[index].precopy.is_some()
            || replicas[index].draining
        {
            return;
        }
        let export = shard.is_some() && cluster.node(to).is_none();
        if mode == MigrationMode::PreCopy && !export {
            Self::begin_precopy(
                cluster, replicas, index, to, now, cost_model, events, links, state, sink,
            );
        } else if replicas[index].in_service.is_some() {
            // Drain first; the completion event finishes the job.
            replicas[index].pending_migration = Some((to, now));
        } else {
            Self::execute_migration(
                cluster,
                &mut replicas[index],
                dispatch_index,
                now,
                to,
                0,
                cost_model,
                records,
                events,
                links,
                index,
                state,
                shard,
                sink,
            );
        }
    }

    /// Starts a live pre-copy migration of `replicas[index]` to `to` (past
    /// [`start_migration`](Self::start_migration)'s guards): round 0 streams
    /// the full resident state over the (possibly contended) link while the
    /// replica keeps serving; the copy-round event continues the loop.
    #[allow(clippy::too_many_arguments)]
    fn begin_precopy<S: ObsSink + ?Sized>(
        cluster: &mut NpuCluster,
        replicas: &mut [ReplicaSim],
        index: usize,
        to: NodeId,
        now: u64,
        cost_model: &MigrationCostModel,
        events: &mut EventQueue,
        links: &mut LinkSchedule,
        state: &mut ServeState,
        sink: &mut S,
    ) {
        let replica = &mut replicas[index];
        let state_bytes = cluster.resident_state_bytes(replica.handle);
        if state_bytes.is_none() || cluster.node(to).is_none() {
            // Unknown destination or stale placement: refused, like the cold
            // path's migrate() error.
            state.control.migrations_rejected += 1;
            sink.on_migration_rejected(now, index);
            return;
        }
        let state_bytes = state_bytes.expect("checked above"); // simlint::allow(P1, reason = "the None case returned above as a rejected migration")
        let source_npu = cluster
            .node(replica.handle.node)
            .expect("source node exists") // simlint::allow(P1, reason = "a migrating replica's source node holds its deployment")
            .npu_config();
        let frequency = source_npu.frequency;
        let precopy = &cost_model.precopy;
        let dirty_bytes_per_request = precopy
            .dirty_rate
            .dirty_bytes_per_request(replica.model, source_npu);
        let full_copy = chaos_transfer(
            state,
            replica.handle.node,
            to,
            now,
            cost_model.transfer_cycles(state_bytes, frequency).get(),
        );
        let ends_at = links.reserve(replica.handle.node, to, now, full_copy);
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
        events.push(ends_at, EV_COPY_ROUND, index);
        sink.on_copy_round(now, ends_at, replica.handle.node, to, index, 0, state_bytes);
    }

    /// Finishes one pre-copy round: decides between another round (dirty set
    /// still large but shrinking), and the stop-and-copy (converged below the
    /// threshold, or the loop stalled — round cap hit, or the dirty set no
    /// longer shrinking because serving re-dirties faster than the link
    /// drains).
    #[allow(clippy::too_many_arguments)]
    fn copy_round<S: ObsSink + ?Sized>(
        cluster: &mut NpuCluster,
        replicas: &mut [ReplicaSim],
        dispatch_index: &mut ReplicaIndex,
        index: usize,
        now: u64,
        cost_model: &MigrationCostModel,
        records: &mut Vec<MigrationRecord>,
        events: &mut EventQueue,
        links: &mut LinkSchedule,
        state: &mut ServeState,
        shard: &mut Option<ShardContext>,
        sink: &mut S,
    ) {
        let replica = &mut replicas[index];
        // Staleness guards: the migration was cancelled (drain won), or this
        // is not the round we scheduled.
        let Some(precopy) = &mut replica.precopy else {
            return;
        };
        if precopy.round_ends_at != now || replica.retired || replica.draining {
            return;
        }
        let config = &cost_model.precopy;
        let dirty_bytes = precopy.dirty.dirty_bytes();
        let threshold = config.stop_copy_bytes(precopy.dirty.capacity_bytes());
        let converged = dirty_bytes <= threshold;
        let stalled = precopy.rounds >= config.max_rounds
            || dirty_bytes as f64 > config.shrink_ratio * precopy.last_round_bytes as f64;
        if converged || stalled {
            // Stop-and-copy: freeze dispatch; whatever the in-flight batch
            // still dirties joins the residual moved in the dark window.
            precopy.converged = converged;
            if replica.in_service.is_some() {
                replica.pending_migration = Some((precopy.to, now));
            } else {
                let to = precopy.to;
                Self::execute_migration(
                    cluster,
                    replica,
                    dispatch_index,
                    now,
                    to,
                    0,
                    cost_model,
                    records,
                    events,
                    links,
                    index,
                    state,
                    shard,
                    sink,
                );
            }
            return;
        }
        // Another round: stream the pages dirtied during the one that just
        // ended; serving continues and re-dirties into the next round.
        let round = precopy.dirty.take_bytes();
        let frequency = cluster
            .node(replica.handle.node)
            .expect("source node exists") // simlint::allow(P1, reason = "a migrating replica's source node holds its deployment")
            .npu_config()
            .frequency;
        let cycles = chaos_transfer(
            state,
            replica.handle.node,
            precopy.to,
            now,
            cost_model.transfer_cycles(round, frequency).get(),
        );
        let ends_at = links.reserve(replica.handle.node, precopy.to, now, cycles);
        precopy.rounds += 1;
        precopy.last_round_bytes = round;
        precopy.round_bytes.push(round);
        precopy.precopy_cycles += ends_at - now;
        precopy.round_ends_at = ends_at;
        events.push(ends_at, EV_COPY_ROUND, index);
        sink.on_copy_round(
            now,
            ends_at,
            replica.handle.node,
            precopy.to,
            index,
            precopy.rounds - 1,
            round,
        );
    }

    /// Releases a fully drained replica's vNPU back to the cluster.
    fn retire_if_drained(
        cluster: &mut NpuCluster,
        replica: &mut ReplicaSim,
        dispatch_index: &mut ReplicaIndex,
        now: u64,
        state: &mut ServeState,
    ) {
        if !replica.draining
            || replica.retired
            || replica.in_service.is_some()
            || !replica.queue.is_empty()
            || replica.pending_migration.is_some()
        {
            return;
        }
        let released = cluster.undeploy(replica.handle).is_ok();
        debug_assert!(released, "a live drained replica must release cleanly");
        replica.retired = true;
        replica.batch_timeout_at = None;
        dispatch_index.retire(replica.handle);
        state.control.released += 1;
        state.live_replicas -= 1;
        state.replica_cycles += now.saturating_sub(replica.activated_at);
    }

    /// Starts the next service pass if the replica is idle and available:
    /// drops expired requests (when enabled), then collects up to
    /// `max_batch` queued requests into one batch — unless a batch-formation
    /// window is configured and still open, in which case the queue is held
    /// (bounded by `max_batch_wait`) to let the batch fill.
    fn start_next<S: ObsSink + ?Sized>(
        replica: &mut ReplicaSim,
        now: u64,
        events: &mut EventQueue,
        index: usize,
        state: &mut ServeState,
        sink: &mut S,
    ) {
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
        if state.drop_expired {
            let deadline = &mut state.deadline;
            let sampling = state.sampling;
            let windows = &mut state.windows;
            let slo = &mut state.slo;
            let node = replica.handle.node;
            replica.queue.retain(|queued| match queued.deadline {
                Some(d) if d < now => {
                    deadline.record_dropped();
                    if sampling {
                        windows
                            .entry(queued.model)
                            .or_default()
                            .metrics
                            .record_dropped();
                    }
                    // An expiry is an unmet request: it burns the error
                    // budget of every covering SLO.
                    if let Some(engine) = slo.as_mut() {
                        engine.observe_expired(now, queued.model, queued.priority);
                    }
                    sink.on_expire(
                        now,
                        queued.sequence,
                        queued.model,
                        queued.arrived,
                        node,
                        index,
                    );
                    false
                }
                _ => true,
            });
        }
        if replica.queue.is_empty() {
            return;
        }
        // Hold a sub-max_batch queue while the batch-formation window is
        // open; draining replicas flush immediately (their batch can never
        // fill again).
        if replica.queue.len() < state.max_batch && !replica.draining {
            if let Some(wait) = state.max_batch_wait {
                let oldest = replica.queue.oldest_arrival().expect("non-empty queue"); // simlint::allow(P1, reason = "the is_empty() check above returned on an empty queue")
                let due = oldest.saturating_add(wait);
                if now < due {
                    if replica.batch_timeout_at.is_none() {
                        replica.batch_timeout_at = Some(due);
                        events.push(due, EV_BATCH_TIMEOUT, index);
                    }
                    return;
                }
            }
        }
        replica.batch_timeout_at = None;
        let size = replica.queue.len().min(state.max_batch);
        let mut batch = state.batch_pool.pop().unwrap_or_default();
        replica.queue.drain_into(size, &mut batch);
        let base = replica.batch_cycles[size - 1];
        let factor = match &mut state.rng {
            Some(rng) => lognormal_factor(rng, replica.cv),
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
        replica.in_service = Some((batch, now, finish));
        state.batches += 1;
        events.push(finish, EV_COMPLETION, index);
    }

    /// Runs the stop-and-copy phases of a migration: snapshot + transfer +
    /// remap. The replica goes dark until `available_at` and then resumes on
    /// the destination node with its queue intact. For a cold migration the
    /// transfer moves the full resident state; for a pre-copy switch-over it
    /// moves only the residual dirty delta plus the architectural context,
    /// queueing behind any transfer already on the link.
    ///
    /// Under the sharded runner, a destination owned by another partition is
    /// intercepted before the local `migrate` call: the replica is exported
    /// into a [`MigrationEnvelope`] for barrier delivery instead.
    #[allow(clippy::too_many_arguments)]
    fn execute_migration<S: ObsSink + ?Sized>(
        cluster: &mut NpuCluster,
        replica: &mut ReplicaSim,
        dispatch_index: &mut ReplicaIndex,
        now: u64,
        to: NodeId,
        drain_cycles: u64,
        cost_model: &MigrationCostModel,
        records: &mut Vec<MigrationRecord>,
        events: &mut EventQueue,
        links: &mut LinkSchedule,
        index: usize,
        state: &mut ServeState,
        shard: &mut Option<ShardContext>,
        sink: &mut S,
    ) {
        if let Some(context) = shard.as_mut() {
            if cluster.node(to).is_none() && context.owners.contains_key(&to) {
                Self::export_replica(
                    cluster,
                    replica,
                    dispatch_index,
                    now,
                    to,
                    drain_cycles,
                    cost_model,
                    links,
                    index,
                    state,
                    context,
                );
                return;
            }
        }
        let source_frequency = cluster
            .node(replica.handle.node)
            .expect("source node exists") // simlint::allow(P1, reason = "a migrating replica's source node holds its deployment")
            .npu_config()
            .frequency;
        match cluster.migrate(replica.handle, to, cost_model, Some(drain_cycles)) {
            Ok(outcome) => {
                let mut record = outcome.record;
                if let Some(precopy) = replica.precopy.take() {
                    // Live switch-over: the dark window moves the residual
                    // dirty pages plus the register/queue context — not the
                    // full state the cold-priced record assumed — and waits
                    // its turn on the contended link.
                    let residual = precopy.dirty.dirty_bytes() + cost_model.context_bytes;
                    let cycles = chaos_transfer(
                        state,
                        record.from,
                        record.to,
                        now,
                        cost_model.transfer_cycles(residual, source_frequency).get(),
                    );
                    record.mode = MigrationMode::PreCopy;
                    record.transfer_cycles =
                        links.reserve(record.from, record.to, now, cycles) - now;
                    record.precopy_rounds = precopy.rounds;
                    record.precopy_bytes = precopy.round_bytes.iter().sum();
                    record.round_bytes = precopy.round_bytes;
                    record.precopy_cycles = precopy.precopy_cycles;
                    record.converged = precopy.converged;
                } else {
                    // Cold transfers occupy the same board-to-board link as
                    // everything else: a transfer already in flight delays
                    // this one (on an idle link the window is unchanged).
                    let cycles =
                        chaos_transfer(state, record.from, record.to, now, record.transfer_cycles);
                    record.transfer_cycles =
                        links.reserve(record.from, record.to, now, cycles) - now;
                }
                let post_drain = record.transfer_cycles + record.remap_cycles;
                let old_handle = replica.handle;
                replica.handle = VnpuHandle {
                    node: record.to,
                    vnpu: record.dest_vnpu,
                };
                replica.available_at = now + post_drain;
                // A draining replica (scale-down raced with the migration)
                // already left the routable sets; only its handle re-keys.
                dispatch_index.relocate(
                    old_handle,
                    replica.handle,
                    index,
                    replica.model,
                    !replica.draining,
                );
                sink.on_stop_copy(now, replica.available_at, index, &record);
                records.push(record);
                events.push(replica.available_at, EV_RESUME, index);
            }
            Err(_) => {
                // The destination refused (capacity raced away); the replica
                // keeps serving from its source node, any pre-copy effort
                // abandoned.
                replica.precopy = None;
                state.control.migrations_rejected += 1;
                sink.on_migration_rejected(now, index);
                Self::start_next(replica, now, events, index, state, sink);
            }
        }
    }

    /// Packs `replicas[index]` into a cross-partition [`MigrationEnvelope`]:
    /// the transfer is priced source-side (chaos windows and link contention
    /// included), the queue drained in pop order, the vNPU released — and the
    /// envelope waits in `shard.exports` for barrier delivery to the owning
    /// partition.
    #[allow(clippy::too_many_arguments)]
    fn export_replica(
        cluster: &mut NpuCluster,
        replica: &mut ReplicaSim,
        dispatch_index: &mut ReplicaIndex,
        now: u64,
        to: NodeId,
        drain_cycles: u64,
        cost_model: &MigrationCostModel,
        links: &mut LinkSchedule,
        index: usize,
        state: &mut ServeState,
        shard: &mut ShardContext,
    ) {
        let handle = replica.handle;
        let Some(deployment) = cluster.deployment(handle).copied() else {
            // The deployment raced away (cannot happen for a live replica);
            // account it like any refused migration rather than panicking.
            state.control.migrations_rejected += 1;
            return;
        };
        let spec = deployment.spec();
        let state_bytes = cluster.resident_state_bytes(handle).unwrap_or(0);
        let frequency = cluster
            .node(handle.node)
            .expect("source node exists") // simlint::allow(P1, reason = "a migrating replica's source node holds its deployment")
            .npu_config()
            .frequency;
        // Cross-partition moves are always cold: the pre-copy loop needs
        // destination-side state the source partition cannot see.
        replica.precopy = None;
        let cycles = chaos_transfer(
            state,
            handle.node,
            to,
            now,
            cost_model.transfer_cycles(state_bytes, frequency).get(),
        );
        let transfer_ends = links.reserve(handle.node, to, now, cycles);
        let ready_at = transfer_ends + cost_model.remap_cycles;
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
        dispatch_index.evict(index, replica.model, handle.node, handle, !replica.draining);
        replica.retired = true;
        replica.batch_timeout_at = None;
        replica.pending_migration = None;
        state.replica_cycles += now.saturating_sub(replica.activated_at);
        state.live_replicas -= 1;
        let undeployed = cluster.undeploy(handle);
        debug_assert!(
            undeployed.is_ok(),
            "an exporting replica's deployment must exist"
        );
        shard.exports.push(MigrationEnvelope {
            from_node: handle.node,
            from_slot: index,
            to_node: to,
            spec,
            queue,
            ready_at,
            record,
            bounced: false,
        });
    }

    /// Drains the envelopes exported since the last barrier (empty on the
    /// sequential path).
    pub(crate) fn take_exports(&mut self) -> Vec<MigrationEnvelope> {
        match &mut self.shard {
            Some(shard) => std::mem::take(&mut shard.exports),
            None => Vec::new(),
        }
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
    /// counted, mirroring the sequential refused-migration path).
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
        let mut sim = self.cache.replica_sim(cluster, &deployment, barrier);
        let resume_at = envelope.ready_at.max(barrier);
        sim.available_at = resume_at;
        for request in envelope.queue {
            sim.enqueue(request);
        }
        let slot = Self::add_replica(
            &mut self.replicas,
            &mut self.dispatch_index,
            &mut self.state,
            sim,
        );
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
    /// request is lost — attributed through the chaos ledger or the sink,
    /// never silently. The rejection statistic was already counted at the
    /// partition that first refused the import.
    pub(crate) fn abandon_envelope<S: ObsSink + ?Sized>(
        &mut self,
        envelope: MigrationEnvelope,
        barrier: u64,
        sink: &mut S,
    ) {
        let from = envelope.from_node;
        for request in envelope.queue {
            if let Some(chaos) = &mut self.state.chaos {
                chaos.note_lost(request.model);
            }
            sink.on_lost(barrier, request.sequence, request.model, from);
        }
    }

    /// Counts a destination-side import rejection on the partition that
    /// refused it, and reports it to that partition's sink like a sequential
    /// refused migration (the bounce back to the source still happens).
    pub(crate) fn note_migration_rejected<S: ObsSink + ?Sized>(
        &mut self,
        now: u64,
        from_slot: usize,
        sink: &mut S,
    ) {
        self.state.control.migrations_rejected += 1;
        sink.on_migration_rejected(now, from_slot);
    }

    /// Adopts a replica the coordinator just deployed on this partition's
    /// cluster (a control-plane scale-up placed fleet-wide at the barrier).
    pub(crate) fn adopt_replica<S: ObsSink + ?Sized>(
        &mut self,
        cluster: &NpuCluster,
        handle: VnpuHandle,
        now: u64,
        action: &ControlAction,
        sink: &mut S,
    ) {
        sink.on_control(now, action);
        let deployment = *cluster
            .deployment(handle)
            .expect("coordinator deployed this handle"); // simlint::allow(P1, reason = "the coordinator deployed this handle on this partition's cluster one barrier step earlier")
        let replica = self.cache.replica_sim(cluster, &deployment, now);
        Self::add_replica(
            &mut self.replicas,
            &mut self.dispatch_index,
            &mut self.state,
            replica,
        );
        self.state.control.scale_ups += 1;
    }

    /// Counts a fleet-wide scale-up the coordinator could not place anywhere.
    pub(crate) fn note_scale_up_rejected<S: ObsSink + ?Sized>(
        &mut self,
        now: u64,
        action: &ControlAction,
        sink: &mut S,
    ) {
        sink.on_control(now, action);
        self.state.control.scale_up_rejected += 1;
    }

    /// Applies a scale-down or migration action to the owning partition at a
    /// barrier (scale-ups are placed fleet-wide by the coordinator instead).
    pub(crate) fn apply_barrier_action<S: ObsSink + ?Sized>(
        &mut self,
        cluster: &mut NpuCluster,
        action: ControlAction,
        now: u64,
        sink: &mut S,
    ) {
        Self::apply_action(
            cluster,
            &mut self.replicas,
            &mut self.dispatch_index,
            &mut self.cache,
            action,
            now,
            &self.options.cost_model,
            &mut self.migration_records,
            &mut self.events,
            &mut self.links,
            &mut self.state,
            &mut self.shard,
            sink,
        );
    }

    /// Runs the telemetry-tick side effects for one partition at a barrier:
    /// failure detection and failover, frame sampling, and the fleet-counter
    /// scan for an active sink. The coordinator merges the per-partition
    /// frames and invokes the control plane fleet-wide, and owns
    /// `ControlStats::samples` (one per barrier tick) — it is never bumped
    /// here.
    pub(crate) fn barrier_tick<S: ObsSink + ?Sized>(
        &mut self,
        cluster: &mut NpuCluster,
        now: u64,
        sink: &mut S,
    ) {
        Self::chaos_tick(
            cluster,
            &mut self.replicas,
            &mut self.dispatch_index,
            &mut self.cache,
            &mut self.router,
            &mut self.views,
            now,
            &self.options.cost_model,
            self.options.failover_edf,
            &mut self.events,
            &mut self.links,
            &mut self.state,
            sink,
        );
        Self::sample_into(
            &mut self.frame,
            &mut self.stale_models,
            &mut self.replicas,
            now,
            &mut self.state,
        );
        Self::observe_tick(sink, cluster, &self.replicas, now, &self.frame);
    }

    /// The frame produced by the last [`barrier_tick`](Self::barrier_tick).
    pub(crate) fn frame(&self) -> &TelemetryFrame {
        &self.frame
    }

    /// Bumps the merged sample counter; called by the coordinator once per
    /// barrier tick on the lowest-indexed partition so the merged report
    /// counts ticks, not ticks × partitions.
    pub(crate) fn count_sample(&mut self) {
        self.state.control.samples += 1;
    }

    /// Whether this partition can still make progress: pending arrivals or
    /// events, live queued/in-service work, or an export awaiting barrier
    /// delivery.
    pub(crate) fn busy(&self) -> bool {
        Self::work_left(
            self.next_arrival,
            self.arrivals,
            &self.replicas,
            &self.events,
            self.recovery_armed,
        ) || self
            .shard
            .as_ref()
            .is_some_and(|shard| !shard.exports.is_empty())
    }

    /// Whether a cross-partition transfer is pending or imminent: an export
    /// awaiting delivery, or a busy replica draining toward a board another
    /// partition owns. The coordinator keeps barrier windows at the
    /// interconnect lookahead while this holds.
    pub(crate) fn pending_remote(&self) -> bool {
        let Some(shard) = &self.shard else {
            return false;
        };
        !shard.exports.is_empty()
            || self.replicas.iter().any(|replica| {
                replica.live()
                    && replica
                        .pending_migration
                        .is_some_and(|(to, _)| !shard.owns(to))
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
        let Some(shard) = &self.shard else {
            return;
        };
        for replica in self.replicas.iter().filter(|r| r.live() && !r.draining) {
            weights
                .entry(replica.model)
                .or_insert_with(|| vec![0; partitions])[shard.index] += 1;
        }
    }

    /// Installs the plan rebuilt at a barrier.
    pub(crate) fn set_plan(&mut self, plan: ShardPlan) {
        if let Some(shard) = &mut self.shard {
            shard.plan = plan;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::DeploySpec;
    use crate::migration::{DirtyRateModel, PreCopyConfig};
    use crate::placement::PlacementPolicy;
    use workloads::RequestArrival;

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
        // Overload: the queue builds, so mid-run frames see a backlog.
        let trace = burst_trace(20, service / 4);
        let mut probe = Probe { frames: Vec::new() };
        let options = ServingOptions::new(DispatchPolicy::LeastLoaded).with_telemetry(service);
        let report =
            ClusterServingSim::new(options).run_with_controller(&mut fleet, &trace, &mut probe);
        assert_eq!(report.control.samples, probe.frames.len());
        assert!(probe.frames.len() > 1);
        let mid = &probe.frames[probe.frames.len() / 2];
        assert_eq!(mid.replicas.len(), 1);
        let sample = mid.model(ModelId::Mnist).expect("model is served");
        assert_eq!(sample.replicas, 1);
        assert!(
            sample.outstanding() > 0,
            "overload must show up as backlog in the frame"
        );
        assert!(
            mid.replicas[0].utilization > 0.9,
            "a saturated replica reports a busy window ({})",
            mid.replicas[0].utilization
        );
        // Window completions across all frames cover most of the run (the
        // final partial window is not flushed).
        let windowed: usize = probe
            .frames
            .iter()
            .filter_map(|f| f.model(ModelId::Mnist))
            .map(|m| m.latency.count)
            .sum();
        assert!(windowed >= report.stats.completed - 1);
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
        // stop-and-copy pause (~371k cycles in). The unaware router keeps
        // packing the replica that is about to go dark, stranding part of
        // the burst in its queue through the pause; the aware router steers
        // the whole burst to the untouched replica, which drains it within
        // the deadline slack.
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
        let run = |aware: bool| {
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
            let mut options = ServingOptions::new(DispatchPolicy::RoundRobin)
                .with_live_migration(Cycles(service), a, spare)
                .with_cost_model(cost.clone());
            if aware {
                options = options.with_migration_aware_dispatch();
            }
            ClusterServingSim::new(options).run(&mut fleet, &trace)
        };
        let plain = run(false);
        let aware = run(true);
        assert_eq!(plain.migrations.len(), 1);
        assert_eq!(aware.migrations.len(), 1);
        assert_eq!(plain.stats.completed, plain.stats.admitted);
        assert_eq!(aware.stats.completed, aware.stats.admitted);
        let misses = |r: &ServingReport| r.deadline.missed + r.deadline.dropped;
        assert!(
            misses(&plain) > 0,
            "the unaware router must strand part of the burst in the dark window"
        );
        assert!(
            misses(&aware) < misses(&plain),
            "steering away from the migrating replica must cut deadline misses ({} vs {})",
            misses(&aware),
            misses(&plain)
        );
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
            .with_migration_aware_dispatch()
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
