//! Windowed time series over the serving event stream.
//!
//! The [`TraceRecorder`](crate::obs::TraceRecorder)'s registry answers "what
//! happened over the whole run" — exact totals, one quantile sketch per
//! metric. The [`TimeSeriesRecorder`] answers the *temporal* questions those
//! totals erase: *when* did p99 start climbing, which priority class was
//! burning, how fast did the autoscaler's capacity catch the ramp. It is the
//! windowed store behind the one hook→metric mapping (`obs/mapping.rs`):
//! every hook lands in fixed-width, cycle-aligned windows
//! (`window = now / width`), keyed by [`Metric`] plus a small label set
//! ([`SeriesLabels`]: model, board, priority class), and each series is
//! held in a bounded overwrite-oldest ring of windows — memory is
//! O(series × ring) at any arrival count, and everything is deterministic
//! (cycle timestamps only, `BTreeMap` iteration, no wall clock).
//!
//! Per-window values come in three kinds, mirroring the registry:
//! **counters** (events in the window), **gauges** (last value seen in the
//! window) and **latency summaries** ([`QuantileSketch`] per window). Series
//! reuse the registry's declared [`Metric`] taxonomy — a
//! `timeseries.*`-prefixed meta-series would tell you about the recorder,
//! not the fleet, so recorder bookkeeping lives in [`TimeSeriesStats`]
//! instead and is exported under the declared `timeseries.*` names by the
//! OpenMetrics exporter.

use std::collections::BTreeMap;

use neu10::{LatencySummary, QuantileSketch};

use crate::obs::mapping::{MetricStore, SeriesLabels};
use crate::obs::Metric;

/// Window width and retention of a [`TimeSeriesRecorder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimeSeriesConfig {
    /// Window width in cycles; events at `now` land in window `now / width`.
    pub width: u64,
    /// Windows retained per series; older windows are overwritten in place.
    pub ring: usize,
}

impl Default for TimeSeriesConfig {
    /// 65 536-cycle windows, 64 retained per series.
    fn default() -> Self {
        TimeSeriesConfig {
            width: 65_536,
            ring: 64,
        }
    }
}

impl TimeSeriesConfig {
    /// Windows of `width` cycles with the default retention.
    pub fn new(width: u64) -> Self {
        TimeSeriesConfig {
            width: width.max(1),
            ..TimeSeriesConfig::default()
        }
    }

    /// Overrides the per-series window retention.
    pub fn with_ring(mut self, ring: usize) -> Self {
        self.ring = ring.max(1);
        self
    }
}

/// Recorder bookkeeping, exported as the `timeseries.*` meta-metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimeSeriesStats {
    /// Points recorded across all series (counter increments, gauge sets,
    /// summary observations).
    pub samples: u64,
    /// Windows evicted ring-wide because a newer window claimed their slot.
    pub windows_evicted: u64,
}

/// Sentinel for a ring cell no window has claimed yet.
const EMPTY_WINDOW: u64 = u64::MAX;

/// One bounded overwrite-oldest ring of per-window values.
#[derive(Debug, Clone)]
struct Ring<T> {
    /// `(window index, value)` cells, slot = `window % len`.
    cells: Vec<(u64, T)>,
}

impl<T: Default> Ring<T> {
    fn new(len: usize) -> Self {
        Ring {
            cells: (0..len).map(|_| (EMPTY_WINDOW, T::default())).collect(),
        }
    }

    /// The cell of `window`, evicting an older occupant; `evicted` counts
    /// the displacement. The value of a reclaimed cell is reset by `reset`
    /// (which may reuse its allocations).
    fn cell(&mut self, window: u64, evicted: &mut u64, reset: impl Fn(&mut T)) -> &mut T {
        let len = self.cells.len() as u64;
        let slot = (window % len) as usize;
        let (stored, value) = &mut self.cells[slot];
        if *stored != window {
            if *stored != EMPTY_WINDOW {
                *evicted += 1;
            }
            *stored = window;
            reset(value);
        }
        value
    }

    /// Live `(window, value)` pairs, oldest window first.
    fn windows(&self) -> Vec<(u64, &T)> {
        let mut live: Vec<(u64, &T)> = self
            .cells
            .iter()
            .filter(|(window, _)| *window != EMPTY_WINDOW)
            .map(|(window, value)| (*window, value))
            .collect();
        live.sort_by_key(|(window, _)| *window);
        live
    }
}

/// The key of one series: metric plus labels.
type SeriesKey = (Metric, SeriesLabels);

/// The windowed time-series [`ObsSink`](crate::obs::ObsSink): every hook
/// lands in the window of its cycle timestamp, keyed by metric + labels, in
/// bounded memory.
///
/// Attach one via
/// [`ClusterServingSim::run_observed`](crate::ClusterServingSim::run_observed)
/// (or `run_observed_with_controller`), then query windows directly or export
/// with [`export_timeseries_openmetrics`](crate::obs::export_timeseries_openmetrics).
#[derive(Debug, Clone)]
pub struct TimeSeriesRecorder {
    config: TimeSeriesConfig,
    counters: BTreeMap<SeriesKey, Ring<u64>>,
    gauges: BTreeMap<SeriesKey, Ring<f64>>,
    summaries: BTreeMap<SeriesKey, Ring<QuantileSketch>>,
    stats: TimeSeriesStats,
}

impl Default for TimeSeriesRecorder {
    fn default() -> Self {
        TimeSeriesRecorder::new(TimeSeriesConfig::default())
    }
}

impl TimeSeriesRecorder {
    /// A recorder with the given window width and retention.
    pub fn new(config: TimeSeriesConfig) -> Self {
        TimeSeriesRecorder {
            config: TimeSeriesConfig {
                width: config.width.max(1),
                ring: config.ring.max(1),
            },
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            summaries: BTreeMap::new(),
            stats: TimeSeriesStats::default(),
        }
    }

    /// The configuration the recorder was built with.
    pub fn config(&self) -> TimeSeriesConfig {
        self.config
    }

    /// Recorder bookkeeping (points recorded, windows evicted).
    pub fn stats(&self) -> TimeSeriesStats {
        self.stats
    }

    /// Distinct (metric, labels) series across all kinds.
    pub fn series_count(&self) -> usize {
        self.counters.len() + self.gauges.len() + self.summaries.len()
    }

    /// The window index of cycle `now`.
    pub fn window_of(&self, now: u64) -> u64 {
        now / self.config.width
    }

    /// The retained `(window, count)` pairs of one counter series, oldest
    /// window first; empty if the series was never touched.
    pub fn counter_windows(&self, metric: Metric, labels: SeriesLabels) -> Vec<(u64, u64)> {
        self.counters
            .get(&(metric, labels))
            .map(|ring| ring.windows().into_iter().map(|(w, v)| (w, *v)).collect())
            .unwrap_or_default()
    }

    /// The retained `(window, value)` pairs of one gauge series.
    pub fn gauge_windows(&self, metric: Metric, labels: SeriesLabels) -> Vec<(u64, f64)> {
        self.gauges
            .get(&(metric, labels))
            .map(|ring| ring.windows().into_iter().map(|(w, v)| (w, *v)).collect())
            .unwrap_or_default()
    }

    /// The retained `(window, summary)` pairs of one latency-summary series.
    pub fn summary_windows(
        &self,
        metric: Metric,
        labels: SeriesLabels,
    ) -> Vec<(u64, LatencySummary)> {
        self.summary_sketches(metric, labels)
            .into_iter()
            .map(|(w, sketch)| (w, sketch.summary()))
            .collect()
    }

    /// Every counter series key, in (metric, labels) order.
    pub fn counter_series(&self) -> impl Iterator<Item = (Metric, SeriesLabels)> + '_ {
        self.counters.keys().copied()
    }

    /// Every gauge series key, in (metric, labels) order.
    pub fn gauge_series(&self) -> impl Iterator<Item = (Metric, SeriesLabels)> + '_ {
        self.gauges.keys().copied()
    }

    /// Every summary series key, in (metric, labels) order.
    pub fn summary_series(&self) -> impl Iterator<Item = (Metric, SeriesLabels)> + '_ {
        self.summaries.keys().copied()
    }

    /// The `(window, sketch count/sum)` pairs of one summary series —
    /// the exporter needs the raw totals, not just the summary.
    pub(crate) fn summary_sketches(
        &self,
        metric: Metric,
        labels: SeriesLabels,
    ) -> Vec<(u64, &QuantileSketch)> {
        self.summaries
            .get(&(metric, labels))
            .map(|ring| ring.windows())
            .unwrap_or_default()
    }

    /// Merges another recorder's windows into this one (per-partition
    /// recorders combined at a barrier): counters add, gauges keep the
    /// other's value (partitions own disjoint label sets, so overlap means
    /// the same series and last-write-wins is as good as any), summaries
    /// merge sketch-wise. Both recorders must share a configuration.
    ///
    /// Windows only one side retained survive; windows neither retained are
    /// gone on both and stay gone — merging cannot resurrect evicted data.
    pub fn merge(&mut self, other: &TimeSeriesRecorder) {
        debug_assert_eq!(
            self.config, other.config,
            "merging recorders with different window/ring configurations"
        );
        let width = self.config.width;
        for (&(metric, labels), ring) in &other.counters {
            for (window, value) in ring.windows() {
                self.add_at(window * width, metric, labels, *value);
                self.stats.samples -= 1;
            }
        }
        for (&(metric, labels), ring) in &other.gauges {
            for (window, value) in ring.windows() {
                self.set_at(window * width, metric, labels, *value);
                self.stats.samples -= 1;
            }
        }
        for (key, ring) in &other.summaries {
            for (window, sketch) in ring.windows() {
                let target = self
                    .summaries
                    .entry(*key)
                    .or_insert_with(|| Ring::new(self.config.ring));
                target
                    .cell(
                        window,
                        &mut self.stats.windows_evicted,
                        QuantileSketch::clear,
                    )
                    .merge(sketch);
            }
        }
        self.stats.samples += other.stats.samples;
    }
}

/// The windowed store: each update lands in the window of its cycle.
impl MetricStore for TimeSeriesRecorder {
    fn add_at(&mut self, at: u64, metric: Metric, labels: SeriesLabels, by: u64) {
        self.stats.samples += 1;
        let window = at / self.config.width;
        let ring = self
            .counters
            .entry((metric, labels))
            .or_insert_with(|| Ring::new(self.config.ring));
        *ring.cell(window, &mut self.stats.windows_evicted, |v| *v = 0) += by;
    }

    fn set_at(&mut self, at: u64, metric: Metric, labels: SeriesLabels, value: f64) {
        self.stats.samples += 1;
        let window = at / self.config.width;
        let ring = self
            .gauges
            .entry((metric, labels))
            .or_insert_with(|| Ring::new(self.config.ring));
        *ring.cell(window, &mut self.stats.windows_evicted, |v| *v = 0.0) = value;
    }

    fn observe_at(&mut self, at: u64, metric: Metric, labels: SeriesLabels, value: u64) {
        self.stats.samples += 1;
        let window = at / self.config.width;
        let ring = self
            .summaries
            .entry((metric, labels))
            .or_insert_with(|| Ring::new(self.config.ring));
        ring.cell(
            window,
            &mut self.stats.windows_evicted,
            QuantileSketch::clear,
        )
        .record(value);
    }
}

#[cfg(test)]
mod tests {
    use workloads::{ModelId, PriorityClass};

    use super::*;
    use crate::obs::{FleetCounters, ObsSink};
    use crate::telemetry::TelemetryFrame;
    use crate::NodeId;

    #[test]
    fn windows_align_and_accumulate_by_label() {
        let mut ts = TimeSeriesRecorder::new(TimeSeriesConfig::new(1_000));
        ts.on_arrival(10, 0, ModelId::Mnist);
        ts.on_arrival(999, 1, ModelId::Mnist);
        ts.on_arrival(1_000, 2, ModelId::Mnist);
        ts.on_arrival(500, 3, ModelId::Bert);
        let mnist =
            ts.counter_windows(Metric::ServingArrivals, SeriesLabels::model(ModelId::Mnist));
        assert_eq!(mnist, vec![(0, 2), (1, 1)]);
        let bert = ts.counter_windows(Metric::ServingArrivals, SeriesLabels::model(ModelId::Bert));
        assert_eq!(bert, vec![(0, 1)]);
        assert_eq!(ts.series_count(), 2);
        assert_eq!(ts.stats().samples, 4);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_evictions() {
        let mut ts = TimeSeriesRecorder::new(TimeSeriesConfig::new(100).with_ring(4));
        for window in 0..10u64 {
            ts.add_at(
                window * 100,
                Metric::ServingArrivals,
                SeriesLabels::none(),
                1,
            );
        }
        let windows = ts.counter_windows(Metric::ServingArrivals, SeriesLabels::none());
        assert_eq!(
            windows,
            vec![(6, 1), (7, 1), (8, 1), (9, 1)],
            "only the newest `ring` windows survive"
        );
        assert_eq!(ts.stats().windows_evicted, 6);
    }

    #[test]
    fn latency_summaries_are_per_window_and_per_priority() {
        let mut ts = TimeSeriesRecorder::new(TimeSeriesConfig::new(1_000));
        ts.on_complete(
            100,
            0,
            ModelId::Mnist,
            PriorityClass::Interactive,
            0,
            NodeId(0),
            0,
            Some(true),
        );
        ts.on_complete(
            1_500,
            1,
            ModelId::Mnist,
            PriorityClass::Interactive,
            500,
            NodeId(0),
            0,
            Some(false),
        );
        ts.on_complete(
            1_600,
            2,
            ModelId::Mnist,
            PriorityClass::Batch,
            0,
            NodeId(1),
            0,
            None,
        );
        let interactive =
            SeriesLabels::model(ModelId::Mnist).with_priority(PriorityClass::Interactive);
        let summaries = ts.summary_windows(Metric::ServingLatencyCycles, interactive);
        assert_eq!(summaries.len(), 2);
        assert_eq!(summaries[0].0, 0);
        assert_eq!(summaries[0].1.max, 100);
        assert_eq!(summaries[1].1.max, 1_000);
        assert_eq!(
            ts.counter_windows(Metric::ServingDeadlineMet, interactive),
            vec![(0, 1)]
        );
        assert_eq!(
            ts.counter_windows(Metric::ServingDeadlineMissed, interactive),
            vec![(1, 1)]
        );
        let batch = SeriesLabels::model(ModelId::Mnist).with_priority(PriorityClass::Batch);
        assert_eq!(
            ts.summary_windows(Metric::ServingLatencyCycles, batch)
                .len(),
            1
        );
    }

    #[test]
    fn gauges_keep_the_last_value_per_window() {
        let mut ts = TimeSeriesRecorder::new(TimeSeriesConfig::new(1_000));
        let frame = TelemetryFrame {
            at: npu_sim::Cycles::ZERO,
            replicas: Vec::new(),
            deadlines: BTreeMap::new(),
        };
        let mut counters = FleetCounters {
            queued: 5,
            ..FleetCounters::default()
        };
        ts.on_tick(100, &frame, &counters);
        counters.queued = 9;
        ts.on_tick(900, &frame, &counters);
        counters.queued = 2;
        ts.on_tick(1_100, &frame, &counters);
        assert_eq!(
            ts.gauge_windows(Metric::FleetQueued, SeriesLabels::none()),
            vec![(0, 9.0), (1, 2.0)]
        );
        assert_eq!(
            ts.counter_windows(Metric::TelemetryTicks, SeriesLabels::none()),
            vec![(0, 2), (1, 1)]
        );
    }

    #[test]
    fn merge_combines_partition_recorders() {
        let config = TimeSeriesConfig::new(1_000).with_ring(8);
        let mut a = TimeSeriesRecorder::new(config);
        let mut b = TimeSeriesRecorder::new(config);
        a.on_arrival(100, 0, ModelId::Mnist);
        b.on_arrival(150, 1, ModelId::Mnist);
        b.on_arrival(1_200, 2, ModelId::Bert);
        a.observe_at(
            100,
            Metric::ServingLatencyCycles,
            SeriesLabels::model(ModelId::Mnist),
            10,
        );
        b.observe_at(
            200,
            Metric::ServingLatencyCycles,
            SeriesLabels::model(ModelId::Mnist),
            30,
        );
        a.merge(&b);
        assert_eq!(
            a.counter_windows(Metric::ServingArrivals, SeriesLabels::model(ModelId::Mnist)),
            vec![(0, 2)]
        );
        assert_eq!(
            a.counter_windows(Metric::ServingArrivals, SeriesLabels::model(ModelId::Bert)),
            vec![(1, 1)]
        );
        let merged = a.summary_windows(
            Metric::ServingLatencyCycles,
            SeriesLabels::model(ModelId::Mnist),
        );
        assert_eq!(merged[0].1.count, 2);
        assert_eq!(merged[0].1.max, 30);
        assert_eq!(
            a.stats().samples,
            5,
            "merge folds the other side's samples in"
        );
    }

    #[test]
    fn unknown_series_read_as_empty() {
        let ts = TimeSeriesRecorder::default();
        assert!(ts
            .counter_windows(Metric::ServingArrivals, SeriesLabels::none())
            .is_empty());
        assert!(ts
            .gauge_windows(Metric::FleetQueued, SeriesLabels::none())
            .is_empty());
        assert!(ts
            .summary_windows(Metric::ServingLatencyCycles, SeriesLabels::none())
            .is_empty());
    }
}
