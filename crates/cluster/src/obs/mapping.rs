//! The one hook→metric mapping.
//!
//! Which [`Metric`] each [`ObsSink`] hook feeds, with what value, labels and
//! kind (counter, gauge or summary), is written once here, as the
//! [`ObsSink`] implementation of every [`MetricStore`]. Two stores sit
//! behind it: the [`MetricsRegistry`](crate::obs::MetricsRegistry) keeps
//! whole-run totals and ignores the cycle and the labels, and the
//! [`TimeSeriesRecorder`](crate::obs::TimeSeriesRecorder) windows the same
//! facts by cycle and label set. The
//! [`TraceRecorder`](crate::obs::TraceRecorder) feeds its registry through
//! this mapping beside its spans, so a metric added here reaches every
//! report that reads either store.

use workloads::{ModelId, PriorityClass};

use crate::fault::{FaultEvent, FaultKind};
use crate::migration::{MigrationMode, MigrationRecord};
use crate::obs::{AlertKind, AlertTransition, FleetCounters, Metric, ObsSink, RejectReason};
use crate::telemetry::{ControlAction, TelemetryFrame};
use crate::NodeId;

/// The label set of one series: each dimension is optional, so one metric
/// name fans out only as far as its hook can attribute.
///
/// Labels order as (model, node, priority) with `None` first, giving every
/// export a stable, deterministic series order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct SeriesLabels {
    /// The model, for per-tenant series.
    pub model: Option<ModelId>,
    /// The board, for per-node series.
    pub node: Option<NodeId>,
    /// The priority class, for per-QoS series.
    pub priority: Option<PriorityClass>,
}

impl SeriesLabels {
    /// The empty label set (fleet-wide series).
    pub fn none() -> Self {
        SeriesLabels::default()
    }

    /// Labels carrying only the model.
    pub fn model(model: ModelId) -> Self {
        SeriesLabels {
            model: Some(model),
            ..SeriesLabels::default()
        }
    }

    /// Adds the board dimension.
    pub fn with_node(mut self, node: NodeId) -> Self {
        self.node = Some(node);
        self
    }

    /// Adds the priority-class dimension.
    pub fn with_priority(mut self, priority: PriorityClass) -> Self {
        self.priority = Some(priority);
        self
    }

    /// Whether no dimension is set.
    pub fn is_empty(&self) -> bool {
        self.model.is_none() && self.node.is_none() && self.priority.is_none()
    }
}

/// Where the mapping writes: a metric updated at cycle `at` under `labels`.
pub(crate) trait MetricStore {
    /// Adds `by` to the counter `metric`.
    fn add_at(&mut self, at: u64, metric: Metric, labels: SeriesLabels, by: u64);

    /// Sets the gauge `metric` to its latest value.
    fn set_at(&mut self, at: u64, metric: Metric, labels: SeriesLabels, value: f64);

    /// Records one sample into the summary `metric`.
    fn observe_at(&mut self, at: u64, metric: Metric, labels: SeriesLabels, value: u64);
}

impl<S: MetricStore> ObsSink for S {
    fn active(&self) -> bool {
        true
    }

    fn on_arrival(&mut self, now: u64, _sequence: u64, model: ModelId) {
        self.add_at(now, Metric::ServingArrivals, SeriesLabels::model(model), 1);
    }

    fn on_dispatch(
        &mut self,
        now: u64,
        _sequence: u64,
        model: ModelId,
        node: NodeId,
        _slot: usize,
    ) {
        let labels = SeriesLabels::model(model).with_node(node);
        self.add_at(now, Metric::ServingDispatched, labels, 1);
    }

    fn on_reject(&mut self, now: u64, _sequence: u64, model: ModelId, reason: RejectReason) {
        let metric = match reason {
            RejectReason::NoReplica => Metric::ServingRejectedNoReplica,
            RejectReason::Overload => Metric::ServingRejectedOverload,
        };
        self.add_at(now, metric, SeriesLabels::model(model), 1);
    }

    fn on_service_batch(
        &mut self,
        start: u64,
        _finish: u64,
        model: ModelId,
        node: NodeId,
        _slot: usize,
        batch: usize,
    ) {
        let labels = SeriesLabels::model(model).with_node(node);
        self.add_at(start, Metric::ServingBatches, labels, 1);
        self.observe_at(start, Metric::ServingBatchSize, labels, batch as u64);
    }

    fn on_complete(
        &mut self,
        now: u64,
        _sequence: u64,
        model: ModelId,
        priority: PriorityClass,
        arrived: u64,
        node: NodeId,
        _slot: usize,
        deadline_met: Option<bool>,
    ) {
        let qos = SeriesLabels::model(model).with_priority(priority);
        self.add_at(now, Metric::ServingCompleted, qos.with_node(node), 1);
        let latency = now.saturating_sub(arrived);
        self.observe_at(now, Metric::ServingLatencyCycles, qos, latency);
        if let Some(met) = deadline_met {
            let metric = if met {
                Metric::ServingDeadlineMet
            } else {
                Metric::ServingDeadlineMissed
            };
            self.add_at(now, metric, qos, 1);
        }
    }

    fn on_expire(
        &mut self,
        now: u64,
        _sequence: u64,
        model: ModelId,
        arrived: u64,
        node: NodeId,
        _slot: usize,
    ) {
        let labels = SeriesLabels::model(model).with_node(node);
        self.add_at(now, Metric::ServingExpired, labels, 1);
        let wait = now.saturating_sub(arrived);
        self.observe_at(now, Metric::ServingExpiredWaitCycles, labels, wait);
    }

    fn on_copy_round(
        &mut self,
        start: u64,
        _finish: u64,
        from: NodeId,
        _to: NodeId,
        _slot: usize,
        _round: u32,
        bytes: u64,
    ) {
        let labels = SeriesLabels::none().with_node(from);
        self.add_at(start, Metric::MigrationCopyRounds, labels, 1);
        self.add_at(start, Metric::MigrationCopyBytes, labels, bytes);
    }

    fn on_stop_copy(&mut self, start: u64, _finish: u64, _slot: usize, record: &MigrationRecord) {
        let labels = SeriesLabels::none().with_node(record.from);
        let metric = match record.mode {
            MigrationMode::Cold => Metric::MigrationCold,
            MigrationMode::PreCopy => Metric::MigrationPrecopy,
        };
        self.add_at(start, metric, labels, 1);
        if record.mode == MigrationMode::PreCopy && !record.converged {
            self.add_at(start, Metric::MigrationPrecopyFallbacks, labels, 1);
        }
        let downtime = record.downtime().get();
        self.observe_at(start, Metric::MigrationDowntimeCycles, labels, downtime);
    }

    fn on_migration_rejected(&mut self, now: u64, _slot: usize) {
        self.add_at(now, Metric::MigrationRejected, SeriesLabels::none(), 1);
    }

    fn on_control(&mut self, now: u64, action: &ControlAction) {
        let (metric, labels) = match action {
            ControlAction::ScaleUp { spec, .. } => {
                (Metric::ControlScaleUps, SeriesLabels::model(spec.model))
            }
            ControlAction::ScaleDown { handle } => (
                Metric::ControlScaleDowns,
                SeriesLabels::none().with_node(handle.node),
            ),
            ControlAction::Migrate { handle, .. } => (
                Metric::ControlMigrations,
                SeriesLabels::none().with_node(handle.node),
            ),
        };
        self.add_at(now, metric, labels, 1);
    }

    fn on_tick(&mut self, now: u64, _frame: &TelemetryFrame, counters: &FleetCounters) {
        let fleet = SeriesLabels::none();
        self.add_at(now, Metric::TelemetryTicks, fleet, 1);
        for (metric, value) in [
            (Metric::FleetQueued, counters.queued),
            (Metric::FleetInFlight, counters.in_flight),
            (Metric::FleetLiveReplicas, counters.live_replicas),
            (
                Metric::FleetMigrationsInFlight,
                counters.migrations_in_flight,
            ),
            (Metric::FleetResidentBytes, counters.resident_bytes),
        ] {
            self.set_at(now, metric, fleet, value as f64);
        }
    }

    fn on_alert(&mut self, now: u64, alert: &AlertTransition) {
        let mut labels = SeriesLabels::model(alert.model);
        if let Some(priority) = alert.priority {
            labels = labels.with_priority(priority);
        }
        let metric = match alert.kind {
            AlertKind::Fired => Metric::SloAlertsFired,
            AlertKind::Resolved => Metric::SloAlertsResolved,
        };
        self.add_at(now, metric, labels, 1);
    }

    fn on_fault(&mut self, now: u64, fault: &FaultEvent) {
        let labels = SeriesLabels::none().with_node(fault.kind.node());
        self.add_at(now, Metric::FaultInjected, labels, 1);
        let metric = match fault.kind {
            FaultKind::BoardCrash { .. } => Metric::FaultBoardCrashes,
            FaultKind::BoardHang { .. } => Metric::FaultBoardHangs,
            FaultKind::LinkDegrade { .. } => Metric::FaultLinkDegrades,
            FaultKind::Straggler { .. } => Metric::FaultStragglers,
            FaultKind::TelemetryDropout { .. } => Metric::FaultTelemetryDropouts,
        };
        self.add_at(now, metric, labels, 1);
    }

    fn on_failover(
        &mut self,
        now: u64,
        node: NodeId,
        _replicas_failed: u64,
        redispatched: u64,
        detect_cycles: u64,
    ) {
        let labels = SeriesLabels::none().with_node(node);
        self.add_at(now, Metric::RecoveryFailovers, labels, 1);
        self.add_at(now, Metric::RecoveryRedispatched, labels, redispatched);
        self.observe_at(now, Metric::RecoveryDetectCycles, labels, detect_cycles);
    }

    fn on_replica_restored(&mut self, now: u64, node: NodeId, _slot: usize, restore_cycles: u64) {
        let labels = SeriesLabels::none().with_node(node);
        self.add_at(now, Metric::RecoveryReplicasRestored, labels, 1);
        self.observe_at(now, Metric::RecoveryRestoreCycles, labels, restore_cycles);
    }

    fn on_restore_rejected(&mut self, now: u64, node: NodeId) {
        let labels = SeriesLabels::none().with_node(node);
        self.add_at(now, Metric::RecoveryRestoreRejected, labels, 1);
    }

    fn on_lost(&mut self, now: u64, _sequence: u64, model: ModelId, node: NodeId) {
        let labels = SeriesLabels::model(model).with_node(node);
        self.add_at(now, Metric::RecoveryLostRequests, labels, 1);
    }
}
