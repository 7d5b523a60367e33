//! Latency / throughput / utilization metrics used by the evaluation
//! harnesses.

use std::sync::Arc;

use npu_sim::{Cycles, Frequency};
use workloads::Memo;

/// Returns the `p`-th percentile (0–100) of `values` using the nearest-rank
/// definition: the smallest sample whose ordinal rank is at least
/// `⌈p/100 · N⌉` (rank 1 for `p = 0`), with no interpolation between
/// samples. Returns 0 for an empty slice.
pub fn percentile(values: &[u64], p: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    sorted_percentile(&sorted, p)
}

/// Exact nearest-rank percentile of samples already sorted ascending.
fn sorted_percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let p = p.clamp(0.0, 100.0) / 100.0;
    let rank = (p * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Arithmetic mean of `values`; 0 for an empty slice.
pub fn mean(values: &[u64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().map(|v| *v as f64).sum::<f64>() / values.len() as f64
}

/// Throughput in requests per second given a completed-request count and a
/// makespan in cycles.
pub fn throughput_rps(completed: usize, makespan: Cycles, frequency: Frequency) -> f64 {
    let secs = frequency.cycles_to_time(makespan).as_secs();
    if secs <= 0.0 {
        return 0.0;
    }
    completed as f64 / secs
}

/// A latency summary (all values in cycles).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: usize,
    /// Mean latency.
    pub mean: f64,
    /// Median (p50) latency.
    pub p50: u64,
    /// 95th-percentile latency (the paper's tail-latency metric).
    pub p95: u64,
    /// 99th-percentile latency.
    pub p99: u64,
    /// Maximum latency.
    pub max: u64,
}

impl LatencySummary {
    /// Summarizes a set of latency samples.
    ///
    /// The mean is accumulated in the order given (so results are bit-stable
    /// for a fixed input order); the percentiles are taken from one shared
    /// sorted copy rather than re-sorting per percentile.
    pub fn from_samples(values: &[u64]) -> Self {
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        LatencySummary {
            count: values.len(),
            mean: mean(values),
            p50: sorted_percentile(&sorted, 50.0),
            p95: sorted_percentile(&sorted, 95.0),
            p99: sorted_percentile(&sorted, 99.0),
            max: sorted.last().copied().unwrap_or(0),
        }
    }

    /// Summarizes latency samples that are already sorted ascending, without
    /// cloning them. The allocation-free summary path of the fleet serving
    /// report, which sorts its latency buffer exactly once.
    pub fn from_sorted(sorted: &[u64]) -> Self {
        debug_assert!(sorted.is_sorted(), "samples must be sorted ascending");
        LatencySummary {
            count: sorted.len(),
            mean: mean(sorted),
            p50: sorted_percentile(sorted, 50.0),
            p95: sorted_percentile(sorted, 95.0),
            p99: sorted_percentile(sorted, 99.0),
            max: sorted.last().copied().unwrap_or(0),
        }
    }
}

/// A streaming quantile sketch over `u64` latency samples with bounded
/// memory.
///
/// The sketch is **exact** until [`QuantileSketch::exact_cap`] samples have
/// been recorded: below the cap it retains the raw samples and every summary
/// is bit-identical to the eager [`LatencySummary`] constructors (this is
/// what keeps the serving golden digests stable). Past the cap it folds the
/// retained buffer into DDSketch-style logarithmic buckets — one bucket per
/// multiplicative step of `γ = (1+α)/(1−α)` plus a dedicated zero bucket —
/// and stops retaining samples, so memory is `O(exact_cap + log_γ(u64::MAX))`
/// however many samples follow (about 2 200 buckets at the default
/// `α = 0.01`).
///
/// In sketch mode a quantile query walks the cumulative bucket counts to the
/// nearest-rank bucket and returns its midpoint `2γ^i/(γ+1)`, which is within
/// a relative error of `α` of the exact nearest-rank answer (±1 cycle of
/// integer rounding). Count, min, max and the mean (via a running sum) stay
/// exact in both modes.
///
/// A value's bucket is `⌈ln v / ln γ⌉`, but a record computes no logarithm:
/// it looks the bucket up in a boundary table built once per `α` per
/// process. Debug builds check every lookup against the formula.
#[derive(Debug, Clone)]
pub struct QuantileSketch {
    exact_cap: usize,
    alpha: f64,
    ln_gamma: f64,
    /// The shared boundary table of `alpha`, fetched on the switch to
    /// sketch mode.
    bounds: Option<Arc<BucketBounds>>,
    /// Retained raw samples while in exact mode; drained into `buckets` on
    /// the record that crosses `exact_cap`.
    exact: Vec<u64>,
    /// Log-bucket counts, allocated lazily on the switch to sketch mode.
    buckets: Vec<u64>,
    zero_count: u64,
    count: u64,
    /// Running sum in insertion order — bit-identical to folding the raw
    /// samples left to right.
    sum: f64,
    min: u64,
    max: u64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        QuantileSketch::with_config(
            QuantileSketch::DEFAULT_EXACT_CAP,
            QuantileSketch::DEFAULT_ALPHA,
        )
    }
}

impl QuantileSketch {
    /// Samples retained before the default sketch switches to log buckets.
    pub const DEFAULT_EXACT_CAP: usize = 16_384;

    /// Default relative-error bound `α` of sketch-mode quantiles.
    pub const DEFAULT_ALPHA: f64 = 0.01;

    /// Builds a sketch with an explicit exact-mode cap and relative-error
    /// bound `alpha` (clamped to `[1e-4, 0.5]`; a NaN `alpha` takes
    /// [`Self::DEFAULT_ALPHA`]).
    pub fn with_config(exact_cap: usize, alpha: f64) -> Self {
        let alpha = if alpha.is_nan() {
            Self::DEFAULT_ALPHA
        } else {
            alpha.clamp(1e-4, 0.5)
        };
        let gamma = (1.0 + alpha) / (1.0 - alpha);
        QuantileSketch {
            exact_cap: exact_cap.max(1),
            alpha,
            ln_gamma: gamma.ln(), // simlint::allow(D4, reason = "once per sketch; records use the boundary table")
            bounds: None,
            exact: Vec::new(),
            buckets: Vec::new(),
            zero_count: 0,
            count: 0,
            sum: 0.0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Samples retained before the sketch switches to log buckets.
    pub fn exact_cap(&self) -> usize {
        self.exact_cap
    }

    /// The configured relative-error bound `α` of sketch-mode quantiles.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Whether every recorded sample is still retained (summaries exact).
    pub fn is_exact(&self) -> bool {
        self.buckets.is_empty() && self.zero_count == 0
    }

    /// Samples recorded since construction or the last [`Self::clear`].
    pub fn count(&self) -> usize {
        self.count as usize
    }

    /// Exact maximum recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max
        }
    }

    /// Exact minimum recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact running sum of every recorded sample, folded in insertion order.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum += value as f64;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        if self.is_exact() {
            if self.exact.len() < self.exact_cap {
                self.exact.push(value);
                return;
            }
            self.spill_to_buckets();
        }
        self.bucket_record(value, 1);
    }

    /// Folds another sketch into this one. If either side has switched to
    /// sketch mode (or the union overflows the exact cap) the merged result
    /// is in sketch mode; two small exact sketches merge exactly, with
    /// `other`'s samples appended after `self`'s.
    ///
    /// Buckets of equal `α` add index by index. When the two `α` differ,
    /// each of `other`'s buckets is re-recorded at its midpoint, so a merged
    /// quantile is within `(1+α_self)(1+α_other) − 1` of exact.
    pub fn merge(&mut self, other: &QuantileSketch) {
        if other.count == 0 {
            return;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        if self.is_exact()
            && other.is_exact()
            && self.exact.len() + other.exact.len() <= self.exact_cap
        {
            self.exact.extend_from_slice(&other.exact);
            return;
        }
        if self.is_exact() {
            self.spill_to_buckets();
        }
        if other.is_exact() {
            for &value in &other.exact {
                self.bucket_record(value, 1);
            }
        } else if other.alpha != self.alpha {
            self.zero_count += other.zero_count;
            for (index, &n) in other.buckets.iter().enumerate() {
                if n > 0 {
                    self.bucket_record(other.bucket_value(index), n);
                }
            }
        } else {
            self.zero_count += other.zero_count;
            if self.buckets.len() < other.buckets.len() {
                self.buckets.resize(other.buckets.len(), 0);
            }
            for (index, &n) in other.buckets.iter().enumerate() {
                self.buckets[index] += n;
            }
        }
    }

    /// Resets the sketch for reuse, keeping its allocations (the exact
    /// buffer's capacity and any bucket table survive) so a windowed caller
    /// stays allocation-free in steady state.
    pub fn clear(&mut self) {
        self.exact.clear();
        self.buckets.clear();
        self.zero_count = 0;
        self.count = 0;
        self.sum = 0.0;
        self.min = u64::MAX;
        self.max = 0;
    }

    /// Nearest-rank percentile estimate (`p` in 0–100). Exact below the cap;
    /// within relative error `α` (±1 of rounding) in sketch mode. 0 when
    /// empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if self.is_exact() {
            return percentile(&self.exact, p);
        }
        let p = p.clamp(0.0, 100.0) / 100.0;
        let rank = ((p * self.count as f64).ceil().max(1.0) as u64).min(self.count);
        if rank == self.count {
            return self.max;
        }
        let mut seen = self.zero_count;
        if rank <= seen {
            return self.min;
        }
        for (index, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if rank <= seen {
                return self.bucket_value(index);
            }
        }
        self.max
    }

    /// Summarizes the recorded samples with the same semantics as
    /// [`LatencySummary::from_samples`]: in exact mode the result is
    /// bit-identical (the mean folds samples in insertion order). In sketch
    /// mode the mean is `sum/count` and percentiles carry the `α` bound.
    pub fn summary(&self) -> LatencySummary {
        if self.count == 0 {
            return LatencySummary::default();
        }
        if self.is_exact() {
            return LatencySummary::from_samples(&self.exact);
        }
        self.sketch_summary()
    }

    /// Summarizes like sorting the samples and calling
    /// [`LatencySummary::from_sorted`] — the variant whose mean folds the
    /// samples in **ascending** order, used by the fleet serving report.
    /// Sorts the retained buffer in place (exact mode), so it takes
    /// `&mut self`; bit-identical below the cap.
    pub fn summary_sorted(&mut self) -> LatencySummary {
        if self.count == 0 {
            return LatencySummary::default();
        }
        if self.is_exact() {
            self.exact.sort_unstable();
            return LatencySummary::from_sorted(&self.exact);
        }
        self.sketch_summary()
    }

    fn sketch_summary(&self) -> LatencySummary {
        LatencySummary {
            count: self.count as usize,
            mean: self.sum / self.count as f64,
            p50: self.percentile(50.0),
            p95: self.percentile(95.0),
            p99: self.percentile(99.0),
            max: self.max,
        }
    }

    fn spill_to_buckets(&mut self) {
        // Taking the buffer (rather than draining in place) keeps the borrow
        // checker happy; the allocation is dropped — the sketch is leaving
        // exact mode for good until the next clear().
        let retained = std::mem::take(&mut self.exact);
        // Seed the bucket table so is_exact() flips even when every retained
        // sample lands in the zero bucket.
        self.buckets.resize(1, 0);
        for value in retained {
            self.bucket_record(value, 1);
        }
    }

    /// Counts `n` samples of `value` in its bucket.
    fn bucket_record(&mut self, value: u64, n: u64) {
        if value == 0 {
            self.zero_count += n;
            return;
        }
        let (alpha, ln_gamma) = (self.alpha, self.ln_gamma);
        let index = self
            .bounds
            .get_or_insert_with(|| BucketBounds::shared(alpha, ln_gamma))
            .index(value);
        debug_assert_eq!(
            index,
            formula_index(value, ln_gamma),
            "boundary table diverged from the formula at {value}"
        );
        if index >= self.buckets.len() {
            self.buckets.resize(index + 1, 0);
        }
        self.buckets[index] += n;
    }

    /// The midpoint of bucket `index`, `2γ^i/(γ+1)`, clamped to the exact
    /// observed [min, max] envelope.
    fn bucket_value(&self, index: usize) -> u64 {
        let gamma = (1.0 + self.alpha) / (1.0 - self.alpha);
        let mid = 2.0 * gamma.powi(index as i32) / (gamma + 1.0);
        (mid.round() as u64).clamp(self.min, self.max)
    }
}

/// The log bucket of a positive value, `⌈ln v / ln γ⌉`: the definition the
/// boundary table reproduces.
fn formula_index(value: u64, ln_gamma: f64) -> usize {
    ((value as f64).ln() / ln_gamma).ceil().max(0.0) as usize // simlint::allow(D4, reason = "the reference formula: table builds and debug checks only")
}

/// The bucket boundaries of one `α`: where [`formula_index`] steps, found
/// once, so a record finds its bucket with integer operations only.
///
/// `upper[i]` is the largest value in bucket `i`. The integers are cut into
/// cells by their binary exponent and the `cell_bits` mantissa bits below
/// the leading one; a cell is never wider than one bucket step, so it spans
/// at most two buckets, and `first` holds the bucket of each cell's smallest
/// integer. A lookup is then one table read and one boundary comparison.
struct BucketBounds {
    upper: Box<[u64]>,
    cell_bits: u32,
    first: Box<[u32]>,
}

impl std::fmt::Debug for BucketBounds {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BucketBounds")
            .field("buckets", &self.upper.len())
            .field("cell_bits", &self.cell_bits)
            .finish_non_exhaustive()
    }
}

/// The process-wide boundary tables, keyed by `α`'s bits.
static BOUNDS: Memo<u64, BucketBounds> = Memo::new();

impl BucketBounds {
    /// The shared table of `alpha`, whose `ln γ` is `ln_gamma`.
    fn shared(alpha: f64, ln_gamma: f64) -> Arc<Self> {
        BOUNDS.get_or_insert_with(alpha.to_bits(), || {
            BucketBounds::build((1.0 + alpha) / (1.0 - alpha), ln_gamma)
        })
    }

    fn build(gamma: f64, ln_gamma: f64) -> Self {
        let index = |value: u64| formula_index(value, ln_gamma);
        let last = index(u64::MAX);
        let mut upper = Vec::with_capacity(last + 1);
        for bucket in 1..=last {
            // The smallest value of `bucket` lies next to γ^(bucket−1).
            let seed = ((bucket - 1) as f64 * ln_gamma).exp() as u64; // simlint::allow(D4, reason = "boundary table build, once per α per process")
            upper.push(first_at_least(bucket, seed, index) - 1);
        }
        upper.push(u64::MAX);
        // The widest cell must not exceed one bucket step.
        let mut cell_bits = 0;
        while 1.0 / f64::from(1u32 << cell_bits) > gamma - 1.0 {
            cell_bits += 1;
        }
        loop {
            let mut table = BucketBounds {
                upper: upper.into_boxed_slice(),
                cell_bits,
                first: Box::default(),
            };
            let cells = 64usize << cell_bits;
            let mut first = vec![0u32; cells];
            let mut spans_one_step = true;
            for (cell, slot) in first.iter_mut().enumerate() {
                let Some((low, high)) = table.cell_range(cell) else {
                    continue;
                };
                let bucket = table.upper.partition_point(|&upper| upper < low);
                *slot = bucket as u32;
                spans_one_step &= bucket + 1 >= table.upper.partition_point(|&upper| upper < high);
            }
            if spans_one_step {
                table.first = first.into_boxed_slice();
                return table;
            }
            upper = table.upper.into_vec();
            cell_bits += 1;
        }
    }

    /// The smallest and largest integer in `cell`, if it holds any.
    fn cell_range(&self, cell: usize) -> Option<(u64, u64)> {
        let bits = self.cell_bits;
        let exponent = (cell >> bits) as u32;
        let mantissa = (1u64 << bits) | (cell as u64 & ((1 << bits) - 1));
        if exponent >= bits {
            let low = mantissa << (exponent - bits);
            Some((low, low + ((1u64 << (exponent - bits)) - 1)))
        } else {
            let shift = bits - exponent;
            (mantissa.trailing_zeros() >= shift).then(|| (mantissa >> shift, mantissa >> shift))
        }
    }

    /// The bucket of a positive value.
    fn index(&self, value: u64) -> usize {
        let bits = self.cell_bits;
        let exponent = 63 - value.leading_zeros();
        let mantissa = if exponent >= bits {
            value >> (exponent - bits)
        } else {
            value << (bits - exponent)
        };
        let cell = ((exponent as usize) << bits) | (mantissa as usize & ((1 << bits) - 1));
        let bucket = self.first[cell] as usize;
        bucket + usize::from(value > self.upper[bucket])
    }
}

/// The smallest value whose [`formula_index`] reaches `bucket`, searched
/// outward from `seed` and then by bisection. Bisection copes with large
/// values, where many neighbouring integers convert to one `f64`.
fn first_at_least(bucket: usize, seed: u64, index: impl Fn(u64) -> usize) -> u64 {
    let probe = seed.max(1);
    let mut step = 1u64;
    // Invariant: index(low) < bucket <= index(high); index(1) = 0 < bucket.
    let (mut low, mut high) = if index(probe) >= bucket {
        let mut high = probe;
        loop {
            let low = high.saturating_sub(step).max(1);
            if index(low) < bucket {
                break (low, high);
            }
            high = low;
            step = step.saturating_mul(2);
        }
    } else {
        let mut low = probe;
        loop {
            let high = low.saturating_add(step);
            if index(high) >= bucket {
                break (low, high);
            }
            low = high;
            step = step.saturating_mul(2);
        }
    };
    while high - low > 1 {
        let mid = low + (high - low) / 2;
        if index(mid) >= bucket {
            high = mid;
        } else {
            low = mid;
        }
    }
    high
}

/// Deadline bookkeeping for a serving run: how many requests carried a
/// deadline and how they fared.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeadlineStats {
    /// Requests that carried a deadline.
    pub with_deadline: usize,
    /// Deadline-carrying requests completed at or before their deadline.
    pub met: usize,
    /// Deadline-carrying requests completed after their deadline.
    pub missed: usize,
    /// Deadline-carrying requests dropped unserved because the deadline had
    /// already passed (drop-on-expiry).
    pub dropped: usize,
}

impl DeadlineStats {
    /// Records the completion of a deadline-carrying request.
    pub fn record_completion(&mut self, met: bool) {
        self.with_deadline += 1;
        if met {
            self.met += 1;
        } else {
            self.missed += 1;
        }
    }

    /// Records a deadline-carrying request dropped unserved on expiry.
    pub fn record_dropped(&mut self) {
        self.with_deadline += 1;
        self.dropped += 1;
    }

    /// Adds `other`'s counts: the tally of both sets of requests.
    pub fn merge(&mut self, other: &DeadlineStats) {
        self.with_deadline += other.with_deadline;
        self.met += other.met;
        self.missed += other.missed;
        self.dropped += other.dropped;
    }

    /// Requests that failed their deadline, served late or dropped.
    pub fn failed(&self) -> usize {
        self.missed + self.dropped
    }

    /// Fraction of deadline-carrying requests that failed their deadline;
    /// 0.0 when no request carried one.
    pub fn miss_rate(&self) -> f64 {
        if self.with_deadline == 0 {
            return 0.0;
        }
        self.failed() as f64 / self.with_deadline as f64
    }
}

/// Ratio helper that treats a zero denominator as "no change" (1.0).
pub fn normalized(value: f64, baseline: f64) -> f64 {
    if baseline <= 0.0 {
        1.0
    } else {
        value / baseline
    }
}

/// Geometric mean of a set of (positive) ratios; 1.0 for an empty slice.
pub fn geometric_mean(ratios: &[f64]) -> f64 {
    let positive: Vec<f64> = ratios.iter().copied().filter(|r| *r > 0.0).collect();
    if positive.is_empty() {
        return 1.0;
    }
    let log_sum: f64 = positive.iter().map(|r| r.ln()).sum(); // simlint::allow(D4, reason = "harness summaries only; never on a serving path")
    (log_sum / positive.len() as f64).exp() // simlint::allow(D4, reason = "harness summaries only; never on a serving path")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_handles_edges() {
        assert_eq!(percentile(&[], 95.0), 0);
        assert_eq!(percentile(&[7], 95.0), 7);
        let values: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&values, 0.0), 1);
        assert_eq!(percentile(&values, 100.0), 100);
        let p95 = percentile(&values, 95.0);
        assert!((94..=96).contains(&p95));
    }

    #[test]
    fn percentile_is_exactly_nearest_rank() {
        // Nearest rank: rank = ceil(p/100 * N), 1-indexed, no interpolation.
        let hundred: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&hundred, 99.0), 99, "p99 of 1..=100 is rank 99");
        assert_eq!(percentile(&hundred, 95.0), 95);
        assert_eq!(percentile(&hundred, 50.0), 50);
        assert_eq!(percentile(&hundred, 0.1), 1, "rank ceil(0.1) = 1");
        // Even-length slice: nearest-rank p50 is the lower of the two middle
        // samples — the old linear-rank rounding returned the upper one.
        let ten: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&ten, 50.0), 5);
        assert_eq!(percentile(&ten, 90.0), 9);
        assert_eq!(percentile(&ten, 91.0), 10, "rank ceil(9.1) = 10");
        // Unsorted input is handled.
        assert_eq!(percentile(&[30, 10, 20], 50.0), 20);
    }

    #[test]
    fn deadline_stats_track_misses_and_drops() {
        let mut stats = DeadlineStats::default();
        assert_eq!(stats.miss_rate(), 0.0);
        stats.record_completion(true);
        stats.record_completion(false);
        stats.record_dropped();
        assert_eq!(stats.with_deadline, 3);
        assert_eq!(stats.met, 1);
        assert_eq!(stats.missed, 1);
        assert_eq!(stats.dropped, 1);
        assert_eq!(stats.failed(), 2);
        assert!((stats.miss_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn summary_is_consistent() {
        let values: Vec<u64> = (1..=1000).collect();
        let s = LatencySummary::from_samples(&values);
        assert_eq!(s.count, 1000);
        assert!((s.mean - 500.5).abs() < 1e-9);
        assert!(s.p50 <= s.p95);
        assert!(s.p95 <= s.p99);
        assert!(s.p99 <= s.max);
        assert_eq!(s.max, 1000);
    }

    #[test]
    fn sketch_is_bit_identical_below_the_cap() {
        // Deliberately unsorted input with repeats so the two mean-fold
        // orders differ; both summary flavors must match their eager
        // counterparts bit for bit.
        let values: Vec<u64> = (0..1000u64).map(|i| (i * 2_654_435_761) % 4096).collect();
        let mut sketch = QuantileSketch::default();
        for &v in &values {
            sketch.record(v);
        }
        assert!(sketch.is_exact());
        let eager = LatencySummary::from_samples(&values);
        let summary = sketch.summary();
        assert_eq!(summary.count, eager.count);
        assert_eq!(summary.mean.to_bits(), eager.mean.to_bits());
        assert_eq!(
            (summary.p50, summary.p95, summary.p99, summary.max),
            (eager.p50, eager.p95, eager.p99, eager.max)
        );
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let eager_sorted = LatencySummary::from_sorted(&sorted);
        let summary_sorted = sketch.summary_sorted();
        assert_eq!(summary_sorted.mean.to_bits(), eager_sorted.mean.to_bits());
        assert_eq!(summary_sorted.p99, eager_sorted.p99);
    }

    #[test]
    fn sketch_switches_modes_and_bounds_memory() {
        let mut sketch = QuantileSketch::with_config(64, 0.01);
        for v in 0..64u64 {
            sketch.record(v);
        }
        assert!(sketch.is_exact());
        sketch.record(64);
        assert!(!sketch.is_exact());
        for v in 65..100_000u64 {
            sketch.record(v);
        }
        assert_eq!(sketch.count(), 100_000);
        assert_eq!(sketch.max(), 99_999);
        assert_eq!(sketch.min(), 0);
        // ~2200 buckets suffice for the full u64 range at alpha = 0.01.
        assert!(sketch.percentile(100.0) == 99_999);
        let p50 = sketch.percentile(50.0);
        assert!(
            (p50 as f64 - 50_000.0).abs() <= 0.01 * 50_000.0 + 1.0,
            "p50 = {p50}"
        );
        // The mean stays exact in sketch mode.
        let exact_mean = (0..100_000u64).map(|v| v as f64).sum::<f64>() / 100_000.0;
        assert!((sketch.summary().mean - exact_mean).abs() < 1e-6);
    }

    #[test]
    fn sketch_clear_returns_to_exact_mode() {
        let mut sketch = QuantileSketch::with_config(4, 0.01);
        for v in 0..100u64 {
            sketch.record(v);
        }
        assert!(!sketch.is_exact());
        sketch.clear();
        assert_eq!(sketch.count(), 0);
        assert_eq!(sketch.summary(), LatencySummary::default());
        sketch.record(7);
        assert!(sketch.is_exact());
        assert_eq!(sketch.percentile(50.0), 7);
    }

    #[test]
    fn sketch_merge_combines_counts_and_extremes() {
        let mut a = QuantileSketch::with_config(8, 0.01);
        let mut b = QuantileSketch::with_config(8, 0.01);
        for v in [1u64, 2, 3] {
            a.record(v);
        }
        for v in [100u64, 200, 300] {
            b.record(v);
        }
        a.merge(&b);
        assert!(a.is_exact());
        assert_eq!(a.count(), 6);
        assert_eq!(a.max(), 300);
        // Exact merge appends, so the summary matches the concatenation.
        let eager = LatencySummary::from_samples(&[1, 2, 3, 100, 200, 300]);
        assert_eq!(a.summary().mean.to_bits(), eager.mean.to_bits());
        // Overflowing merge degrades to sketch mode but keeps exact counts.
        let mut big = QuantileSketch::with_config(4, 0.01);
        for v in 0..100u64 {
            big.record(v);
        }
        a.merge(&big);
        assert!(!a.is_exact());
        assert_eq!(a.count(), 106);
        assert_eq!(a.max(), 300);
    }

    #[test]
    fn sketch_merge_across_alphas_keeps_both_bounds() {
        // Regression: buckets used to add index by index, though bucket i
        // means γ^i of each sketch's own γ.
        let small: Vec<u64> = (1_000..=2_000).collect();
        let large: Vec<u64> = (1_000..=2_000).map(|v| v * 1_000).collect();
        let mut merged = QuantileSketch::with_config(4, 0.01);
        let mut coarse = QuantileSketch::with_config(4, 0.2);
        small.iter().for_each(|&v| merged.record(v));
        large.iter().for_each(|&v| coarse.record(v));
        merged.merge(&coarse);
        assert_eq!(merged.count(), 2_002);
        let all = [small, large].concat();
        let bound = (1.0 + 0.01) * (1.0 + 0.2) - 1.0;
        for p in [1.0, 25.0, 50.0, 60.0, 75.0, 90.0, 99.0] {
            let exact = percentile(&all, p);
            let estimate = merged.percentile(p);
            assert!(
                (estimate as f64 - exact as f64).abs() <= bound * exact as f64 + 1.0,
                "p{p}: {estimate} vs exact {exact}"
            );
        }
    }

    #[test]
    fn boundary_table_matches_the_formula() {
        let mut rng = proptest::TestRng::from_name("boundary_table_matches_the_formula");
        for alpha in [QuantileSketch::DEFAULT_ALPHA, 1e-3, 0.2, 0.5] {
            let sketch = QuantileSketch::with_config(1, alpha);
            let bounds = BucketBounds::shared(sketch.alpha, sketch.ln_gamma);
            let check = |value: u64| {
                assert_eq!(
                    bounds.index(value),
                    formula_index(value, sketch.ln_gamma),
                    "α {alpha}, value {value}"
                );
            };
            // Every boundary and its neighbours.
            for &upper in bounds.upper.iter() {
                for value in [upper.saturating_sub(1), upper, upper.saturating_add(1)] {
                    check(value.max(1));
                }
            }
            // Seeded values spread over every magnitude of u64.
            for _ in 0..1_000_000 {
                let shift = rng.next_u64() % 64;
                check((rng.next_u64() >> shift).max(1));
            }
            check(1);
            check(u64::MAX);
        }
    }

    #[test]
    fn sketch_mode_records_share_one_table_per_alpha() {
        let mut a = QuantileSketch::with_config(2, 0.01);
        let mut b = QuantileSketch::with_config(2, 0.01);
        for value in [5, 50, 500, 5_000] {
            a.record(value);
            b.record(value * 3);
        }
        let (Some(ta), Some(tb)) = (&a.bounds, &b.bounds) else {
            panic!("sketch mode fetches the boundary table");
        };
        assert!(Arc::ptr_eq(ta, tb), "one table per α per process");
        assert!(QuantileSketch::with_config(2, 0.01).bounds.is_none());
    }

    #[test]
    fn nan_alpha_takes_the_default() {
        let mut sketch = QuantileSketch::with_config(4, f64::NAN);
        assert_eq!(sketch.alpha(), QuantileSketch::DEFAULT_ALPHA);
        for v in 10..=10_000u64 {
            sketch.record(v);
        }
        // Nearest rank over 9 991 samples: p50 is rank 4 996, p99 rank 9 892.
        for (p, exact) in [(50.0, 5_005u64), (99.0, 9_901)] {
            let estimate = sketch.percentile(p);
            assert!(
                (estimate as f64 - exact as f64).abs() <= 0.01 * exact as f64 + 1.0,
                "p{p}: {estimate} vs exact {exact}"
            );
        }
        // Infinite bounds already clamped; they still do.
        assert_eq!(QuantileSketch::with_config(4, f64::INFINITY).alpha(), 0.5);
        assert_eq!(
            QuantileSketch::with_config(4, f64::NEG_INFINITY).alpha(),
            1e-4
        );
    }

    mod sketch_properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn sketch_quantiles_stay_within_alpha_of_exact(
                seeds in proptest::collection::vec(1u64..=1_000_000_000, 80..400),
                p in 1.0f64..=99.0,
            ) {
                // Cap of 64 forces sketch mode for every sampled vector.
                let mut sketch = QuantileSketch::with_config(64, 0.01);
                for &v in &seeds {
                    sketch.record(v);
                }
                prop_assert!(!sketch.is_exact());
                let exact = percentile(&seeds, p);
                let estimate = sketch.percentile(p);
                let bound = 0.01 * exact as f64 + 1.0;
                prop_assert!(
                    (estimate as f64 - exact as f64).abs() <= bound,
                    "p{} exact {} vs sketch {} (bound {})", p, exact, estimate, bound
                );
            }

            #[test]
            fn exact_mode_percentiles_match_nearest_rank(
                seeds in proptest::collection::vec(0u64..=10_000, 1..64),
                p in 0.0f64..=100.0,
            ) {
                let mut sketch = QuantileSketch::default();
                for &v in &seeds {
                    sketch.record(v);
                }
                prop_assert!(sketch.is_exact());
                prop_assert_eq!(sketch.percentile(p), percentile(&seeds, p));
            }
        }
    }

    #[test]
    fn throughput_uses_frequency() {
        let f = Frequency::from_mhz(1000.0);
        // 10 requests over 1e9 cycles (1 second) = 10 rps.
        let rps = throughput_rps(10, Cycles(1_000_000_000), f);
        assert!((rps - 10.0).abs() < 1e-9);
        assert_eq!(throughput_rps(10, Cycles::ZERO, f), 0.0);
    }

    #[test]
    fn normalization_and_geomean() {
        assert!((normalized(2.0, 4.0) - 0.5).abs() < 1e-12);
        assert_eq!(normalized(2.0, 0.0), 1.0);
        let g = geometric_mean(&[1.0, 4.0]);
        assert!((g - 2.0).abs() < 1e-9);
        assert_eq!(geometric_mean(&[]), 1.0);
    }
}
