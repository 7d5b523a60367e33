//! Fleet observability: structured tracing, a metrics registry and
//! Chrome/Perfetto export for the serving simulator.
//!
//! The serving event loop is instrumented behind the [`ObsSink`] trait. The
//! loop is generic over the sink and the default implementation of every
//! hook is empty, so [`ClusterServingSim::run`](crate::ClusterServingSim::run)
//! monomorphizes against [`NoopSink`] and compiles to *exactly* the
//! uninstrumented loop — zero cost, zero allocations, bit-identical reports
//! (the golden-digest suite locks this). Passing a [`TraceRecorder`] to
//! [`ClusterServingSim::run_observed`](crate::ClusterServingSim::run_observed)
//! turns the same hooks into:
//!
//! * a **span trace** — per-request lifecycle (arrival → dispatch/reject →
//!   queue → service → complete/expire), per-copy-round migration spans,
//!   control-action and telemetry-tick instants — recorded into a bounded
//!   ring with seeded head-sampling, so trace memory is `O(capacity)` at any
//!   arrival count;
//! * an exact **metrics registry** ([`MetricsRegistry`]) — counters, gauges
//!   and quantile-sketch histograms accumulated over *every* event, sampled
//!   or not, in one array slot per declared [`Metric`], fed through the one
//!   hook→metric mapping (`mapping.rs`) that also feeds the time series;
//! * a **Chrome `trace_event` JSON export** ([`export_chrome_trace`]) that
//!   opens directly in <https://ui.perfetto.dev>: pid = board, tid = replica
//!   slot, flow events stitching each sampled request from dispatch to
//!   completion across replicas and migrations, plus fleet-level counter
//!   tracks (queue depth, in-flight batch occupancy, resident HBM bytes,
//!   in-flight migrations).
//!
//! On top of the whole-run layer sits the **temporal** layer added by this
//! module's `timeseries`/`slo`/`openmetrics` submodules:
//!
//! * [`TimeSeriesRecorder`] — the same mapping's facts aggregated into
//!   fixed-width cycle-aligned windows per (metric, label set), held in a
//!   bounded overwrite-oldest ring so memory is `O(series × ring)` at any
//!   arrival count;
//! * [`SloEngine`] — declarative [`SloSpec`]s evaluated by paired fast/slow
//!   burn-rate windows ([`BurnRatePolicy`]) inside the event loop, emitting
//!   a deterministic [`AlertLog`] of fire/resolve edges that the control
//!   plane can react to;
//! * [`export_openmetrics`] / [`export_timeseries_openmetrics`] — an
//!   OpenMetrics text exposition over registry and time-series state, with
//!   [`validate_openmetrics`] as the strict dependency-free parser.

mod mapping;
mod openmetrics;
mod perfetto;
mod registry;
mod slo;
mod timeseries;
mod trace;

pub use mapping::SeriesLabels;
pub use openmetrics::{
    export_openmetrics, export_timeseries_openmetrics, validate_openmetrics, OpenMetricsSummary,
};
pub use perfetto::{export_chrome_trace, validate_chrome_trace, TraceValidation};
pub use registry::{Metric, MetricsRegistry, METRIC_NAMES};
pub use slo::{
    AlertKind, AlertLog, AlertSeverity, AlertTransition, BurnRatePolicy, SloConfig, SloEngine,
    SloSpec,
};
pub use timeseries::{TimeSeriesConfig, TimeSeriesRecorder, TimeSeriesStats};
pub use trace::{TraceConfig, TraceRecorder, TraceStats};

use workloads::{ModelId, PriorityClass};

use crate::fault::FaultEvent;
use crate::migration::MigrationRecord;
use crate::telemetry::{ControlAction, TelemetryFrame};
use crate::NodeId;

/// Why the router turned an arrival away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// No live replica serves the model.
    NoReplica,
    /// Every candidate replica was over the admission-control queue bound.
    Overload,
}

impl RejectReason {
    /// Short stable label used in exported traces.
    pub fn label(self) -> &'static str {
        match self {
            RejectReason::NoReplica => "no-replica",
            RejectReason::Overload => "overload",
        }
    }
}

/// Fleet-wide gauges computed at a telemetry tick for the counter tracks.
///
/// Gathered by the event loop only when the sink is
/// [`active`](ObsSink::active), so disabled runs never pay for the scan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetCounters {
    /// Requests waiting in replica queues.
    pub queued: u64,
    /// Requests in service across all in-flight batches.
    pub in_flight: u64,
    /// Live (non-retired) replicas.
    pub live_replicas: u64,
    /// Replicas with a migration in flight (pre-copy rounds or a pending
    /// drain-then-move).
    pub migrations_in_flight: u64,
    /// Bytes of vNPU state (SRAM + HBM working set) resident across live
    /// replicas.
    pub resident_bytes: u64,
}

/// The serving event loop's instrumentation surface.
///
/// Every hook has an empty default body: a sink only overrides what it
/// consumes, and the [`NoopSink`] overrides nothing, which lets the
/// monomorphized disabled path fold every call site away. Hooks receive
/// deterministic simulation timestamps (cycles), never wall-clock time, so
/// anything recorded is reproducible run-to-run.
///
/// Hook order mirrors the event loop: request hooks fire in dispatch order,
/// [`on_service_request`](ObsSink::on_service_request) fires for each batch
/// member immediately before the batch's single
/// [`on_service_batch`](ObsSink::on_service_batch), and
/// [`on_tick`](ObsSink::on_tick) fires after the telemetry frame is built but
/// before the control plane acts on it.
#[allow(unused_variables)]
pub trait ObsSink {
    /// Whether the sink wants optional, costly-to-gather data (batch member
    /// iteration, [`FleetCounters`] scans). `false` — the default — lets the
    /// event loop skip that work entirely.
    fn active(&self) -> bool {
        false
    }

    /// A trace arrival entered the router.
    fn on_arrival(&mut self, now: u64, sequence: u64, model: ModelId) {}

    /// The router dispatched the arrival to `slot` on `node`.
    fn on_dispatch(&mut self, now: u64, sequence: u64, model: ModelId, node: NodeId, slot: usize) {}

    /// The router turned the arrival away.
    fn on_reject(&mut self, now: u64, sequence: u64, model: ModelId, reason: RejectReason) {}

    /// A queued request left the queue into a forming batch (its queue span
    /// is `arrived..start`).
    fn on_service_request(
        &mut self,
        start: u64,
        sequence: u64,
        model: ModelId,
        arrived: u64,
        node: NodeId,
        slot: usize,
    ) {
    }

    /// A batch of `batch` requests started service, finishing at `finish`.
    fn on_service_batch(
        &mut self,
        start: u64,
        finish: u64,
        model: ModelId,
        node: NodeId,
        slot: usize,
        batch: usize,
    ) {
    }

    /// A request completed service; `deadline_met` is `None` for requests
    /// that carried no deadline.
    #[allow(clippy::too_many_arguments)]
    fn on_complete(
        &mut self,
        now: u64,
        sequence: u64,
        model: ModelId,
        priority: PriorityClass,
        arrived: u64,
        node: NodeId,
        slot: usize,
        deadline_met: Option<bool>,
    ) {
    }

    /// A queued request was dropped unserved because its deadline expired.
    fn on_expire(
        &mut self,
        now: u64,
        sequence: u64,
        model: ModelId,
        arrived: u64,
        node: NodeId,
        slot: usize,
    ) {
    }

    /// A live pre-copy round started streaming `bytes` over the
    /// `from → to` link, ending at `finish`. Round 0 is the full-state copy.
    #[allow(clippy::too_many_arguments)]
    fn on_copy_round(
        &mut self,
        start: u64,
        finish: u64,
        from: NodeId,
        to: NodeId,
        slot: usize,
        round: u32,
        bytes: u64,
    ) {
    }

    /// A migration executed its dark window (`start..finish` is the
    /// downtime); `record` carries the full per-mode accounting.
    fn on_stop_copy(&mut self, start: u64, finish: u64, slot: usize, record: &MigrationRecord) {}

    /// A requested migration was refused (destination capacity raced away or
    /// the placement went stale).
    fn on_migration_rejected(&mut self, now: u64, slot: usize) {}

    /// The control plane issued (or the operator scheduled) `action`.
    fn on_control(&mut self, now: u64, action: &ControlAction) {}

    /// A telemetry tick fired with the settled `frame`; `counters` is only
    /// gathered when [`active`](ObsSink::active) is `true`.
    fn on_tick(&mut self, now: u64, frame: &TelemetryFrame, counters: &FleetCounters) {}

    /// The SLO burn-rate engine emitted an alert edge (fire or resolve).
    /// Only fires when the run was configured with
    /// [`ServingOptions::with_slo`](crate::ServingOptions::with_slo).
    fn on_alert(&mut self, now: u64, alert: &AlertTransition) {}

    /// A scheduled fault was injected. Only fires when the run was
    /// configured with
    /// [`ServingOptions::with_faults`](crate::ServingOptions::with_faults).
    fn on_fault(&mut self, now: u64, fault: &FaultEvent) {}

    /// The missed-frame detector declared `node` dead and failed it over:
    /// `replicas_failed` replicas were fenced and retired,
    /// `redispatched` orphaned requests moved to surviving replicas, and the
    /// fault went undetected for `detect_cycles`.
    fn on_failover(
        &mut self,
        now: u64,
        node: NodeId,
        replicas_failed: u64,
        redispatched: u64,
        detect_cycles: u64,
    ) {
    }

    /// Failover re-placed a replacement replica at `slot` on `node`; its
    /// state restore occupies the interconnect for `restore_cycles`.
    fn on_replica_restored(&mut self, now: u64, node: NodeId, slot: usize, restore_cycles: u64) {}

    /// Failover found no room to re-place a replica of the dead `node`.
    fn on_restore_rejected(&mut self, now: u64, node: NodeId) {}

    /// An admitted request was lost to a fault (no surviving replica could
    /// take it, or it was still marooned on an undetected dead board at run
    /// end). `node` is the board the request died on.
    fn on_lost(&mut self, now: u64, sequence: u64, model: ModelId, node: NodeId) {}
}

/// The disabled sink: every hook is the empty default, so the event loop
/// monomorphized against it is the uninstrumented loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopSink;

impl ObsSink for NoopSink {}
