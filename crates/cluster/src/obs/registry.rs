//! The metrics registry: counters, gauges and sketch-backed histograms over
//! the declared [`Metric`] taxonomy.
//!
//! Names are `&'static str` dotted paths, `subsystem.metric[_unit]` —
//! `serving.latency_cycles`, `migration.copy_bytes`, `fleet.queued` —
//! compiled into the [`Metric`] enum, whose variants are declared in name
//! order. The registry keeps one slot per metric in fixed arrays indexed by
//! the enum, so an update is an array access and every iteration (and
//! therefore every export) walks the slots in name order. Histograms are
//! [`QuantileSketch`]es: exact up to the sketch's cap, `α`-bounded streaming
//! quantiles beyond it, never a retained per-sample vector.

use std::fmt::Write as _;

use neu10::{LatencySummary, QuantileSketch};

use crate::obs::mapping::{MetricStore, SeriesLabels};

/// Declares [`Metric`] and [`METRIC_NAMES`] from one list, so the enum's
/// declaration order — and with it the derived `Ord` — is the name table's.
macro_rules! taxonomy {
    ($($variant:ident = $name:literal,)+) => {
        /// A declared metric: the only names an [`ObsSink`] impl may emit.
        ///
        /// This is the contract dashboards and exporters are built against.
        /// Registry and time-series entry points take a `Metric`, so an
        /// undeclared or misspelled name is a compile error, not an invisible
        /// metric. Variants are declared in name order, so the derived `Ord`
        /// sorts by [`name`](Metric::name).
        ///
        /// [`ObsSink`]: crate::obs::ObsSink
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
        pub enum Metric {
            $(#[doc = $name] $variant,)+
        }

        /// The declared metric-name taxonomy: [`Metric::name`] of every
        /// variant, in name (and enum) order.
        pub const METRIC_NAMES: &[&str] = &[$($name,)+];

        impl Metric {
            /// Every metric, in name order.
            pub(crate) const ALL: &'static [Metric] = &[$(Metric::$variant,)+];
        }
    };
}

taxonomy! {
    // Control plane: one counter per applied action kind.
    ControlMigrations = "control.migrations",
    ControlScaleDowns = "control.scale_downs",
    ControlScaleUps = "control.scale_ups",
    // Fault injection: one counter per injected fault kind.
    FaultBoardCrashes = "fault.board_crashes",
    FaultBoardHangs = "fault.board_hangs",
    FaultInjected = "fault.injected",
    FaultLinkDegrades = "fault.link_degrades",
    FaultStragglers = "fault.stragglers",
    FaultTelemetryDropouts = "fault.telemetry_dropouts",
    // Fleet-wide gauges, sampled at each telemetry tick.
    FleetInFlight = "fleet.in_flight",
    FleetLiveReplicas = "fleet.live_replicas",
    FleetMigrationsInFlight = "fleet.migrations_in_flight",
    FleetQueued = "fleet.queued",
    FleetResidentBytes = "fleet.resident_bytes",
    // Migration lifecycle: per-mode completions, pre-copy round/byte
    // accounting, downtime distribution.
    MigrationCold = "migration.cold",
    MigrationCopyBytes = "migration.copy_bytes",
    MigrationCopyRounds = "migration.copy_rounds",
    MigrationDowntimeCycles = "migration.downtime_cycles",
    MigrationPrecopy = "migration.precopy",
    MigrationPrecopyFallbacks = "migration.precopy_fallbacks",
    MigrationRejected = "migration.rejected",
    // Failure detection and failover: declarations, re-placements,
    // re-dispatches, losses, and the detect/restore latency histograms.
    RecoveryDetectCycles = "recovery.detect_cycles",
    RecoveryFailovers = "recovery.failovers",
    RecoveryLostRequests = "recovery.lost_requests",
    RecoveryRedispatched = "recovery.redispatched",
    RecoveryReplicasRestored = "recovery.replicas_restored",
    RecoveryRestoreCycles = "recovery.restore_cycles",
    RecoveryRestoreRejected = "recovery.restore_rejected",
    // Serving hot path: request lifecycle counters and latency histograms.
    ServingArrivals = "serving.arrivals",
    ServingBatchSize = "serving.batch_size",
    ServingBatches = "serving.batches",
    ServingCompleted = "serving.completed",
    ServingDeadlineMet = "serving.deadline_met",
    ServingDeadlineMissed = "serving.deadline_missed",
    ServingDispatched = "serving.dispatched",
    ServingExpired = "serving.expired",
    ServingExpiredWaitCycles = "serving.expired_wait_cycles",
    ServingLatencyCycles = "serving.latency_cycles",
    ServingRejectedNoReplica = "serving.rejected_no_replica",
    ServingRejectedOverload = "serving.rejected_overload",
    // SLO burn-rate engine: one counter per alert edge kind.
    SloAlertsFired = "slo.alerts_fired",
    SloAlertsResolved = "slo.alerts_resolved",
    // Telemetry bus heartbeat.
    TelemetryTicks = "telemetry.ticks",
    // Time-series recorder bookkeeping (exported as OpenMetrics
    // meta-metrics).
    TimeseriesSamples = "timeseries.samples",
    TimeseriesSeries = "timeseries.series",
    TimeseriesWindowsEvicted = "timeseries.windows_evicted",
}

/// Slots per registry array: one per declared metric.
const SLOTS: usize = METRIC_NAMES.len();

impl Metric {
    /// The dotted taxonomy name, e.g. `serving.latency_cycles`.
    pub fn name(self) -> &'static str {
        METRIC_NAMES[self as usize]
    }
}

/// Counters, gauges and streaming-quantile histograms, one slot per
/// [`Metric`]: the whole-run store behind the one hook→metric mapping, so
/// a registry is itself an [`ObsSink`](crate::obs::ObsSink).
///
/// The registry accumulates **exact** aggregates: unlike the span ring it is
/// not subject to head-sampling, so `serving.completed` is the true fleet
/// count however small the trace sample rate was. A slot is present once
/// touched — a counter added by 0 or a gauge set to 0.0 still exports.
#[derive(Debug, Clone)]
pub struct MetricsRegistry {
    counters: [Option<u64>; SLOTS],
    gauges: [Option<f64>; SLOTS],
    histograms: [Option<QuantileSketch>; SLOTS],
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry {
            counters: [None; SLOTS],
            gauges: [None; SLOTS],
            histograms: [const { None }; SLOTS],
        }
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `by` to the counter `metric`.
    pub fn add(&mut self, metric: Metric, by: u64) {
        let slot = &mut self.counters[metric as usize];
        *slot = Some(slot.unwrap_or(0) + by);
    }

    /// Sets the gauge `metric` to its latest value.
    pub fn set_gauge(&mut self, metric: Metric, value: f64) {
        self.gauges[metric as usize] = Some(value);
    }

    /// Records one sample into the histogram `metric`.
    pub fn observe(&mut self, metric: Metric, value: u64) {
        self.histograms[metric as usize]
            .get_or_insert_with(QuantileSketch::default)
            .record(value);
    }

    /// The counter's current value (0 if never touched).
    pub fn counter(&self, metric: Metric) -> u64 {
        self.counters[metric as usize].unwrap_or(0)
    }

    /// The gauge's latest value, if ever set.
    pub fn gauge(&self, metric: Metric) -> Option<f64> {
        self.gauges[metric as usize]
    }

    /// The histogram sketch behind `metric`, if any sample was recorded.
    pub fn histogram(&self, metric: Metric) -> Option<&QuantileSketch> {
        self.histograms[metric as usize].as_ref()
    }

    /// Every counter, in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        present(&self.counters).map(|(name, value)| (name, *value))
    }

    /// Every gauge, in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        present(&self.gauges).map(|(name, value)| (name, *value))
    }

    /// Every histogram summarized, in name order.
    pub fn histogram_summaries(&self) -> impl Iterator<Item = (&'static str, LatencySummary)> + '_ {
        self.histograms_iter()
            .map(|(name, sketch)| (name, sketch.summary()))
    }

    /// Every histogram's backing sketch, in name order.
    pub(crate) fn histograms_iter(&self) -> impl Iterator<Item = (&'static str, &QuantileSketch)> {
        present(&self.histograms)
    }

    /// Folds `other` into `self`: counters add, gauges keep `other`'s value
    /// where set (last-write-wins, matching [`set_gauge`](Self::set_gauge)),
    /// histograms merge sketch-to-sketch. This is the combination step for
    /// per-partition registries in a sharded event loop: merging the shards
    /// yields the same exact totals a single fleet-wide registry would have
    /// accumulated.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for &metric in Metric::ALL {
            let slot = metric as usize;
            if let Some(value) = other.counters[slot] {
                self.add(metric, value);
            }
            if let Some(value) = other.gauges[slot] {
                self.set_gauge(metric, value);
            }
            if let Some(sketch) = &other.histograms[slot] {
                self.histograms[slot]
                    .get_or_insert_with(QuantileSketch::default)
                    .merge(sketch);
            }
        }
    }

    /// Whether nothing was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.iter().all(Option::is_none)
            && self.gauges.iter().all(Option::is_none)
            && self.histograms.iter().all(Option::is_none)
    }

    /// Renders the registry as one JSON object
    /// (`{"counters":{…},"gauges":{…},"histograms":{…}}`), appended to
    /// `out`. Deterministic: names are emitted in name order.
    pub fn render_json(&self, out: &mut String) {
        out.push_str("{\"counters\":{");
        for (i, (name, value)) in self.counters().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{value}");
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, value)) in self.gauges().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{}", json_f64(value));
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, s)) in self.histogram_summaries().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{name}\":{{\"count\":{},\"mean\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"max\":{}}}",
                s.count,
                json_f64(s.mean),
                s.p50,
                s.p95,
                s.p99,
                s.max
            );
        }
        out.push_str("}}");
    }
}

/// The whole-run store: every update lands in the metric's one slot,
/// whatever its cycle and labels.
impl MetricStore for MetricsRegistry {
    fn add_at(&mut self, _at: u64, metric: Metric, _labels: SeriesLabels, by: u64) {
        self.add(metric, by);
    }

    fn set_at(&mut self, _at: u64, metric: Metric, _labels: SeriesLabels, value: f64) {
        self.set_gauge(metric, value);
    }

    fn observe_at(&mut self, _at: u64, metric: Metric, _labels: SeriesLabels, value: u64) {
        self.observe(metric, value);
    }
}

/// The present slots of one registry array, named, in name order.
fn present<T>(slots: &[Option<T>; SLOTS]) -> impl Iterator<Item = (&'static str, &T)> {
    METRIC_NAMES
        .iter()
        .zip(slots)
        .filter_map(|(name, slot)| slot.as_ref().map(|value| (*name, value)))
}

/// A finite JSON number for `value` (`NaN`/`±inf` degrade to 0, which JSON
/// cannot represent).
fn json_f64(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::obs::export_openmetrics;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The string-keyed registry the dense one replaced (its update, merge
    /// and render paths, unchanged), the oracle for
    /// [`dense_registry_matches_the_string_keyed_reference`].
    #[derive(Debug, Clone, Default)]
    struct Reference {
        counters: BTreeMap<&'static str, u64>,
        gauges: BTreeMap<&'static str, f64>,
        histograms: BTreeMap<&'static str, QuantileSketch>,
    }

    impl Reference {
        fn add(&mut self, name: &'static str, by: u64) {
            *self.counters.entry(name).or_insert(0) += by;
        }

        fn set_gauge(&mut self, name: &'static str, value: f64) {
            self.gauges.insert(name, value);
        }

        fn observe(&mut self, name: &'static str, value: u64) {
            self.histograms.entry(name).or_default().record(value);
        }

        fn merge(&mut self, other: &Reference) {
            for (name, value) in &other.counters {
                self.add(name, *value);
            }
            for (name, value) in &other.gauges {
                self.set_gauge(name, *value);
            }
            for (name, sketch) in &other.histograms {
                self.histograms.entry(name).or_default().merge(sketch);
            }
        }

        fn render_json(&self, out: &mut String) {
            out.push_str("{\"counters\":{");
            for (i, (name, value)) in self.counters.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{name}\":{value}");
            }
            out.push_str("},\"gauges\":{");
            for (i, (name, value)) in self.gauges.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{name}\":{}", json_f64(*value));
            }
            out.push_str("},\"histograms\":{");
            for (i, (name, sketch)) in self.histograms.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let s = sketch.summary();
                let _ = write!(
                    out,
                    "\"{name}\":{{\"count\":{},\"mean\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"max\":{}}}",
                    s.count,
                    json_f64(s.mean),
                    s.p50,
                    s.p95,
                    s.p99,
                    s.max
                );
            }
            out.push_str("}}");
        }

        /// The OpenMetrics exposition as `export_openmetrics` rendered it
        /// over the string-keyed maps.
        fn openmetrics(&self) -> String {
            let mut out = String::new();
            for (name, value) in &self.counters {
                let family = name.replace('.', "_");
                let _ = writeln!(out, "# TYPE {family} counter");
                let _ = writeln!(out, "{family}_total {value}");
            }
            for (name, value) in &self.gauges {
                let family = name.replace('.', "_");
                let _ = writeln!(out, "# TYPE {family} gauge");
                let _ = writeln!(out, "{family} {}", json_f64(*value));
            }
            for (name, sketch) in &self.histograms {
                let family = name.replace('.', "_");
                let _ = writeln!(out, "# TYPE {family} summary");
                for (label, percentile) in [("0.5", 50.0), ("0.95", 95.0), ("0.99", 99.0)] {
                    let _ = writeln!(
                        out,
                        "{family}{{quantile=\"{label}\"}} {}",
                        sketch.percentile(percentile)
                    );
                }
                let _ = writeln!(out, "{family}_count {}", sketch.count());
                let _ = writeln!(out, "{family}_sum {}", sketch.sum());
            }
            out.push_str("# EOF\n");
            out
        }
    }

    /// Applies `ops` random operations to both registries in lockstep.
    fn drive(rng: &mut StdRng, dense: &mut MetricsRegistry, reference: &mut Reference, ops: usize) {
        for _ in 0..ops {
            let metric = Metric::ALL[rng.gen_range(0..Metric::ALL.len())];
            let name = metric.name();
            match rng.gen_range(0..7u32) {
                0 => {
                    dense.add(metric, 1);
                    reference.add(name, 1);
                }
                1 => {
                    dense.add(metric, 0);
                    reference.add(name, 0);
                }
                2 => {
                    let by = rng.gen_range(0..1_000_000u64);
                    dense.add(metric, by);
                    reference.add(name, by);
                }
                3 => {
                    let value =
                        [0.0, f64::NAN, f64::INFINITY, -2.5, 1e12][rng.gen_range(0..5usize)];
                    dense.set_gauge(metric, value);
                    reference.set_gauge(name, value);
                }
                4 => {
                    // Past the sketch's exact cap into log-bucket mode.
                    let samples = rng.gen_range(0..(QuantileSketch::DEFAULT_EXACT_CAP + 4_000));
                    for _ in 0..samples {
                        let value = rng.gen_range(0..1u64 << 40);
                        dense.observe(metric, value);
                        reference.observe(name, value);
                    }
                }
                _ => {
                    let value = rng.gen_range(0..10_000u64);
                    dense.observe(metric, value);
                    reference.observe(name, value);
                }
            }
        }
    }

    fn assert_same(dense: &MetricsRegistry, reference: &Reference) {
        let (mut a, mut b) = (String::new(), String::new());
        dense.render_json(&mut a);
        reference.render_json(&mut b);
        assert_eq!(a, b, "render_json diverged");
        assert_eq!(export_openmetrics(dense), reference.openmetrics());
        let counters: Vec<_> = reference.counters.iter().map(|(n, v)| (*n, *v)).collect();
        assert_eq!(dense.counters().collect::<Vec<_>>(), counters);
        let gauges: Vec<_> = reference
            .gauges
            .iter()
            .map(|(n, v)| (*n, v.to_bits()))
            .collect();
        let dense_gauges: Vec<_> = dense.gauges().map(|(n, v)| (n, v.to_bits())).collect();
        assert_eq!(dense_gauges, gauges);
        let summaries: Vec<_> = reference
            .histograms
            .iter()
            .map(|(n, s)| format!("{n}:{:?}", s.summary()))
            .collect();
        let dense_summaries: Vec<_> = dense
            .histogram_summaries()
            .map(|(n, s)| format!("{n}:{s:?}"))
            .collect();
        assert_eq!(dense_summaries, summaries);
        assert_eq!(
            dense.is_empty(),
            reference.counters.is_empty()
                && reference.gauges.is_empty()
                && reference.histograms.is_empty()
        );
    }

    #[test]
    fn dense_registry_matches_the_string_keyed_reference() {
        for seed in 0..24u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (mut a, mut ref_a) = (MetricsRegistry::new(), Reference::default());
            let (mut b, mut ref_b) = (MetricsRegistry::new(), Reference::default());
            let ops = rng.gen_range(0..12usize);
            drive(&mut rng, &mut a, &mut ref_a, ops);
            let ops = rng.gen_range(0..12usize);
            drive(&mut rng, &mut b, &mut ref_b, ops);
            assert_same(&a, &ref_a);
            assert_same(&b, &ref_b);
            // Merge in both directions.
            let (mut ab, mut ref_ab) = (a.clone(), ref_a.clone());
            ab.merge(&b);
            ref_ab.merge(&ref_b);
            assert_same(&ab, &ref_ab);
            let (mut ba, mut ref_ba) = (b.clone(), ref_b.clone());
            ba.merge(&a);
            ref_ba.merge(&ref_a);
            assert_same(&ba, &ref_ba);
        }
    }

    #[test]
    fn registry_accumulates_and_renders_deterministically() {
        let mut registry = MetricsRegistry::new();
        registry.add(Metric::ServingCompleted, 1);
        registry.add(Metric::ServingCompleted, 2);
        registry.set_gauge(Metric::FleetQueued, 5.0);
        registry.observe(Metric::ServingLatencyCycles, 100);
        registry.observe(Metric::ServingLatencyCycles, 300);
        assert_eq!(registry.counter(Metric::ServingCompleted), 3);
        assert_eq!(registry.gauge(Metric::FleetQueued), Some(5.0));
        let sketch = registry.histogram(Metric::ServingLatencyCycles).unwrap();
        assert_eq!(sketch.count(), 2);
        assert_eq!(sketch.max(), 300);
        let mut a = String::new();
        registry.render_json(&mut a);
        let mut b = String::new();
        registry.render_json(&mut b);
        assert_eq!(a, b, "rendering is deterministic");
        assert!(a.contains("\"serving.completed\":3"));
        assert!(a.contains("\"fleet.queued\":5"));
        assert!(a.contains("\"p99\":300"));
    }

    #[test]
    fn taxonomy_is_sorted_and_duplicate_free() {
        assert!(
            METRIC_NAMES.windows(2).all(|w| w[0] < w[1]),
            "METRIC_NAMES must be strictly sorted so the taxonomy is \
             greppable and duplicate-free"
        );
        // The enum is declared from the same list: its order is name order.
        assert_eq!(Metric::ALL.len(), METRIC_NAMES.len());
        for (index, metric) in Metric::ALL.iter().enumerate() {
            assert_eq!(*metric as usize, index);
            assert_eq!(metric.name(), METRIC_NAMES[index]);
        }
        assert!(Metric::ALL
            .windows(2)
            .all(|w| w[0] < w[1] && w[0].name() < w[1].name()));
    }

    #[test]
    fn merge_combines_partitions_exactly() {
        let mut a = MetricsRegistry::new();
        a.add(Metric::ServingCompleted, 3);
        a.set_gauge(Metric::FleetQueued, 1.0);
        a.observe(Metric::ServingLatencyCycles, 100);
        let mut b = MetricsRegistry::new();
        b.add(Metric::ServingCompleted, 4);
        b.add(Metric::ServingExpired, 1);
        b.set_gauge(Metric::FleetQueued, 7.0);
        b.observe(Metric::ServingLatencyCycles, 300);
        a.merge(&b);
        assert_eq!(a.counter(Metric::ServingCompleted), 7);
        assert_eq!(a.counter(Metric::ServingExpired), 1);
        assert_eq!(
            a.gauge(Metric::FleetQueued),
            Some(7.0),
            "gauges last-write-win"
        );
        let sketch = a.histogram(Metric::ServingLatencyCycles).unwrap();
        assert_eq!(sketch.count(), 2);
        assert_eq!(sketch.max(), 300);
    }

    #[test]
    fn untouched_names_read_as_empty() {
        let registry = MetricsRegistry::new();
        assert!(registry.is_empty());
        assert_eq!(registry.counter(Metric::ServingArrivals), 0);
        assert_eq!(registry.gauge(Metric::FleetQueued), None);
        assert!(registry.histogram(Metric::ServingLatencyCycles).is_none());
    }
}
