//! Traffic scenario generators for autoscaling experiments.
//!
//! A fixed-rate Poisson trace ([`crate::ClusterTrace::poisson`]) cannot
//! exercise a control plane: nothing ever changes, so the right answer is a
//! constant replica count. Real accelerator fleets see strongly **diurnal**
//! demand (day/night swings of 3–10×), **bursty** arrivals (correlated
//! spikes far above the mean) and occasional **flash crowds** (a step to
//! many times the baseline within seconds). This module layers those shapes
//! over [`ClusterTrace`]:
//!
//! * [`DiurnalTrace`] — a sinusoidal day/night rate profile;
//! * [`BurstyTrace`] — a Markov-modulated Poisson process alternating
//!   between a baseline and an on-state spike rate with exponential dwell
//!   times;
//! * [`FlashCrowdTrace`] — a baseline rate with one multiplicative step.
//!
//! All generators are **deterministic for a fixed seed** (thinning of a
//! peak-rate homogeneous Poisson stream with a seeded generator), so
//! autoscaling runs driven by them stay reproducible end to end. QoS terms
//! attach afterwards through [`ClusterTrace::with_model_qos`] /
//! [`ClusterTrace::with_uniform_qos`] exactly like any other trace.

use npu_sim::Cycles;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::request::{stream_seed, ClusterTrace, StreamTimes};
use crate::suite::ModelId;

/// Appends one stream's arrival times over `[0, horizon)` to `times` by
/// thinning: candidate arrivals are drawn at the peak rate (`peak_mean` mean
/// inter-arrival cycles) and accepted with probability `multiplier(t)` ∈
/// [0, 1].
fn thinned_arrivals(
    times: &mut Vec<Cycles>,
    peak_mean: u64,
    horizon: u64,
    seed: u64,
    mut multiplier: impl FnMut(u64) -> f64,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mean = peak_mean.max(1) as f64;
    let mut now = 0.0f64;
    loop {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        now += -mean * u.ln(); // simlint::allow(D4, reason = "one exponential gap per generated arrival")
        if now >= horizon as f64 {
            return;
        }
        let at = now as u64;
        let keep: f64 = rng.gen_range(0.0..1.0);
        if keep < multiplier(at).clamp(0.0, 1.0) {
            times.push(Cycles(at));
        }
    }
}

/// A sinusoidal day/night demand profile.
///
/// The per-model rate swings between `trough_to_peak × peak` (at `t = 0`)
/// and the peak rate (at `t = period / 2`), completing one full cycle every
/// `period` cycles:
///
/// ```text
/// rate(t) = peak · (trough + (1 − trough) · (1 − cos(2πt / period)) / 2)
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DiurnalTrace {
    /// Per-model peak rates, as `(model, mean inter-arrival cycles at peak)`.
    pub streams: Vec<(ModelId, u64)>,
    /// Cycles per simulated "day".
    pub period: u64,
    /// Trace length in cycles.
    pub horizon: u64,
    /// Trough rate as a fraction of the peak rate, in `[0, 1]`.
    pub trough_to_peak: f64,
}

impl DiurnalTrace {
    /// A one-period trace starting at the trough.
    ///
    /// # Example
    ///
    /// ```
    /// use workloads::{DiurnalTrace, ModelId};
    ///
    /// let day = DiurnalTrace::new(vec![(ModelId::Mnist, 5_000)], 1_000_000)
    ///     .with_trough_to_peak(0.2);
    /// let trace = day.generate(7);
    /// assert!(!trace.arrivals().is_empty());
    /// // The day starts at the trough and ramps toward the mid-period
    /// // peak, so the second quarter is busier than the first.
    /// let q = 250_000;
    /// let count = |lo, hi| {
    ///     trace.arrivals().iter().filter(|a| a.at.get() >= lo && a.at.get() < hi).count()
    /// };
    /// assert!(count(0, q) < count(q, 2 * q));
    /// ```
    pub fn new(streams: Vec<(ModelId, u64)>, period: u64) -> Self {
        DiurnalTrace {
            streams,
            period: period.max(1),
            horizon: period.max(1),
            trough_to_peak: 0.25,
        }
    }

    /// Overrides the horizon (e.g. several periods).
    pub fn with_horizon(mut self, horizon: u64) -> Self {
        self.horizon = horizon.max(1);
        self
    }

    /// Overrides the trough-to-peak rate ratio.
    pub fn with_trough_to_peak(mut self, ratio: f64) -> Self {
        self.trough_to_peak = if ratio.is_finite() {
            ratio.clamp(0.0, 1.0)
        } else {
            0.0
        };
        self
    }

    /// The rate multiplier (fraction of the peak rate) at time `t`.
    pub fn rate_multiplier(&self, t: u64) -> f64 {
        let trough = self.trough_to_peak;
        let phase = (t % self.period) as f64 / self.period as f64;
        // simlint::allow(D4, reason = "one thinning test per candidate arrival")
        trough + (1.0 - trough) * (1.0 - (std::f64::consts::TAU * phase).cos()) / 2.0
    }

    /// Generates the merged trace, ordered by time, then by stream index,
    /// then by position in the stream. Deterministic per seed.
    pub fn generate(&self, seed: u64) -> ClusterTrace {
        ClusterTrace::merge(self.stream_times(seed))
    }

    /// Every stream's arrival times, in stream order.
    fn stream_times(&self, seed: u64) -> StreamTimes {
        let mut drawn = StreamTimes::default();
        for (index, &(model, peak_mean)) in self.streams.iter().enumerate() {
            let seed = stream_seed(seed, index as u64);
            thinned_arrivals(&mut drawn.times, peak_mean, self.horizon, seed, |t| {
                self.rate_multiplier(t)
            });
            drawn.end_stream(model);
        }
        drawn
    }
}

/// A Markov-modulated Poisson process: baseline traffic with on/off spikes.
///
/// Each stream alternates between an *off* state at the baseline rate and an
/// *on* state at `burst_multiplier ×` the baseline, with exponentially
/// distributed dwell times (`mean_off` / `mean_on` cycles). The state path
/// is drawn from the seed, so the same seed reproduces both the spikes and
/// the arrivals within them.
#[derive(Debug, Clone, PartialEq)]
pub struct BurstyTrace {
    /// Per-model baseline rates, as `(model, mean inter-arrival cycles)`.
    pub streams: Vec<(ModelId, u64)>,
    /// Rate multiplier while a spike is on (≥ 1).
    pub burst_multiplier: f64,
    /// Mean cycles a spike lasts.
    pub mean_on: u64,
    /// Mean cycles between spikes.
    pub mean_off: u64,
    /// Trace length in cycles.
    pub horizon: u64,
}

impl BurstyTrace {
    /// A bursty trace with 4× spikes.
    pub fn new(streams: Vec<(ModelId, u64)>, mean_on: u64, mean_off: u64, horizon: u64) -> Self {
        BurstyTrace {
            streams,
            burst_multiplier: 4.0,
            mean_on: mean_on.max(1),
            mean_off: mean_off.max(1),
            horizon: horizon.max(1),
        }
    }

    /// Overrides the on-state rate multiplier.
    pub fn with_burst_multiplier(mut self, multiplier: f64) -> Self {
        self.burst_multiplier = if multiplier.is_finite() {
            multiplier.max(1.0)
        } else {
            1.0
        };
        self
    }

    /// The `[start, end)` windows during which the modulating chain is *on*,
    /// for one stream seed. Exposed so tests and harnesses can line reports
    /// up against the spike schedule.
    pub fn on_windows(&self, seed: u64, stream_index: usize) -> Vec<(u64, u64)> {
        let mut rng = StdRng::seed_from_u64(stream_seed(
            seed ^ 0xA5A5_5A5A_0F0F_F0F0,
            stream_index as u64,
        ));
        let mut windows = Vec::new();
        let mut now = 0.0f64;
        loop {
            // Off dwell, then on dwell.
            let u_off: f64 = rng.gen_range(f64::EPSILON..1.0);
            now += -(self.mean_off as f64) * u_off.ln(); // simlint::allow(D4, reason = "one exponential dwell per generated burst window")
            if now >= self.horizon as f64 {
                return windows;
            }
            let start = now as u64;
            let u_on: f64 = rng.gen_range(f64::EPSILON..1.0);
            now += -(self.mean_on as f64) * u_on.ln(); // simlint::allow(D4, reason = "one exponential dwell per generated burst window")
            let end = (now as u64).min(self.horizon);
            windows.push((start, end));
            if now >= self.horizon as f64 {
                return windows;
            }
        }
    }

    /// Generates the merged trace, ordered by time, then by stream index,
    /// then by position in the stream. Deterministic per seed.
    pub fn generate(&self, seed: u64) -> ClusterTrace {
        ClusterTrace::merge(self.stream_times(seed))
    }

    /// Every stream's arrival times, in stream order.
    fn stream_times(&self, seed: u64) -> StreamTimes {
        let mut drawn = StreamTimes::default();
        for (index, &(model, base_mean)) in self.streams.iter().enumerate() {
            let windows = self.on_windows(seed, index);
            // Thin against the on-state (peak) rate: candidates arrive at
            // burst_multiplier × baseline and off-state candidates survive
            // with probability 1 / burst_multiplier.
            let peak_mean = (base_mean.max(1) as f64 / self.burst_multiplier).max(1.0) as u64;
            let off_keep = 1.0 / self.burst_multiplier;
            let mut cursor = 0usize;
            let seed = stream_seed(seed, index as u64);
            thinned_arrivals(&mut drawn.times, peak_mean, self.horizon, seed, |t| {
                while cursor < windows.len() && windows[cursor].1 <= t {
                    cursor += 1;
                }
                let on = cursor < windows.len() && windows[cursor].0 <= t;
                if on {
                    1.0
                } else {
                    off_keep
                }
            });
            drawn.end_stream(model);
        }
        drawn
    }
}

/// A flash crowd: baseline traffic that steps to `multiplier ×` the baseline
/// over `[start, end)` and back.
#[derive(Debug, Clone, PartialEq)]
pub struct FlashCrowdTrace {
    /// Per-model baseline rates, as `(model, mean inter-arrival cycles)`.
    pub streams: Vec<(ModelId, u64)>,
    /// Rate multiplier during the crowd (≥ 1).
    pub multiplier: f64,
    /// When the crowd arrives.
    pub start: u64,
    /// When the crowd disperses.
    pub end: u64,
    /// Trace length in cycles.
    pub horizon: u64,
}

impl FlashCrowdTrace {
    /// A flash crowd of `multiplier ×` the baseline over `[start, end)`.
    pub fn new(
        streams: Vec<(ModelId, u64)>,
        multiplier: f64,
        start: u64,
        end: u64,
        horizon: u64,
    ) -> Self {
        FlashCrowdTrace {
            streams,
            multiplier: if multiplier.is_finite() {
                multiplier.max(1.0)
            } else {
                1.0
            },
            start,
            end: end.max(start),
            horizon: horizon.max(1),
        }
    }

    /// Generates the merged trace, ordered by time, then by stream index,
    /// then by position in the stream. Deterministic per seed.
    pub fn generate(&self, seed: u64) -> ClusterTrace {
        ClusterTrace::merge(self.stream_times(seed))
    }

    /// Every stream's arrival times, in stream order.
    fn stream_times(&self, seed: u64) -> StreamTimes {
        let off_keep = 1.0 / self.multiplier;
        let mut drawn = StreamTimes::default();
        for (index, &(model, base_mean)) in self.streams.iter().enumerate() {
            let peak_mean = (base_mean.max(1) as f64 / self.multiplier).max(1.0) as u64;
            let seed = stream_seed(seed, index as u64);
            thinned_arrivals(&mut drawn.times, peak_mean, self.horizon, seed, |t| {
                if (self.start..self.end).contains(&t) {
                    1.0
                } else {
                    off_keep
                }
            });
            drawn.end_stream(model);
        }
        drawn
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{poisson_streams, RequestArrival};

    fn count_in(trace: &ClusterTrace, from: u64, to: u64) -> usize {
        trace
            .arrivals()
            .iter()
            .filter(|a| (from..to).contains(&a.at.get()))
            .count()
    }

    #[test]
    fn diurnal_peak_outweighs_trough() {
        let period = 4_000_000u64;
        let scenario =
            DiurnalTrace::new(vec![(ModelId::Mnist, 2_000)], period).with_trough_to_peak(0.2);
        let trace = scenario.generate(11);
        assert!(!trace.is_empty());
        assert!(trace.horizon() < Cycles(period));
        // Quarter around the trough (wrapping start/end) vs the peak.
        let trough = count_in(&trace, 0, period / 8) + count_in(&trace, period * 7 / 8, period);
        let peak = count_in(&trace, period * 3 / 8, period * 5 / 8);
        assert!(
            peak as f64 > 2.0 * trough.max(1) as f64,
            "the day peak must dominate the night trough ({peak} vs {trough})"
        );
        // Rate profile endpoints.
        assert!((scenario.rate_multiplier(0) - 0.2).abs() < 1e-9);
        assert!((scenario.rate_multiplier(period / 2) - 1.0).abs() < 1e-9);
        // Determinism.
        assert_eq!(trace, scenario.generate(11));
        assert_ne!(trace, scenario.generate(12));
    }

    #[test]
    fn bursty_spikes_concentrate_arrivals() {
        let horizon = 8_000_000u64;
        let scenario = BurstyTrace::new(vec![(ModelId::Mnist, 4_000)], 200_000, 600_000, horizon)
            .with_burst_multiplier(6.0);
        let windows = scenario.on_windows(5, 0);
        assert!(!windows.is_empty(), "the chain must visit the on state");
        assert!(windows.windows(2).all(|w| w[0].1 <= w[1].0));
        let trace = scenario.generate(5);
        let on_cycles: u64 = windows.iter().map(|(s, e)| e - s).sum();
        let on_count: usize = windows.iter().map(|(s, e)| count_in(&trace, *s, *e)).sum();
        let off_cycles = horizon - on_cycles;
        let off_count = trace.len() - on_count;
        let on_rate = on_count as f64 / on_cycles.max(1) as f64;
        let off_rate = off_count as f64 / off_cycles.max(1) as f64;
        assert!(
            on_rate > 3.0 * off_rate,
            "spikes must carry a far higher rate (on {on_rate:.2e} vs off {off_rate:.2e})"
        );
        assert_eq!(trace, scenario.generate(5), "seeded generation is stable");
    }

    #[test]
    fn flash_crowd_steps_and_recovers() {
        let horizon = 6_000_000u64;
        let (start, end) = (2_000_000u64, 3_000_000u64);
        let scenario = FlashCrowdTrace::new(
            vec![(ModelId::Mnist, 4_000), (ModelId::Dlrm, 8_000)],
            5.0,
            start,
            end,
            horizon,
        );
        let trace = scenario.generate(9);
        let before = count_in(&trace, 0, start);
        let during = count_in(&trace, start, end);
        let after = count_in(&trace, end, horizon);
        // Normalize per cycle: the crowd window is 1/2 the length of the
        // before window but must still carry far more arrivals.
        assert!(
            during as f64 / (end - start) as f64 > 3.0 * before as f64 / start as f64,
            "the crowd must step the rate up ({during} in-window vs {before} before)"
        );
        let before_rate = before as f64 / start as f64;
        let after_rate = after as f64 / (horizon - end) as f64;
        assert!(
            after_rate < 2.0 * before_rate,
            "the rate must recover after the crowd ({after_rate:.2e} vs {before_rate:.2e})"
        );
        assert_eq!(trace.models().len(), 2);
        assert_eq!(trace, scenario.generate(9));
    }

    /// Random stream sets — up to nine streams, models in no particular
    /// order, mean gaps of 1–3 cycles so arrivals tie across and within
    /// streams, and horizons short enough to leave some streams empty —
    /// merge in every generator exactly as `ClusterTrace::from_arrivals`
    /// orders the concatenation of the same per-stream arrivals, sequence
    /// numbers included.
    #[test]
    fn every_generator_merges_like_a_stable_sort_of_its_streams() {
        let models = ModelId::all();
        let mut rng = StdRng::seed_from_u64(30);
        let (mut reordering_ties, mut stream_ties, mut empty_streams) = (0, 0, 0);
        for case in 0..300 {
            let streams: Vec<(ModelId, u64)> = (0..rng.gen_range(0..10usize))
                .map(|_| {
                    let model = models[rng.gen_range(0..models.len())];
                    (model, rng.gen_range(1..=3u64))
                })
                .collect();
            let horizon = if rng.gen_bool(0.3) {
                rng.gen_range(1..=4u64)
            } else {
                rng.gen_range(20..=200u64)
            };
            let seed = rng.gen_range(0..u64::MAX);
            let per_model = rng.gen_range(0..=40usize);
            let diurnal = DiurnalTrace::new(streams.clone(), rng.gen_range(1..=400u64))
                .with_horizon(horizon)
                .with_trough_to_peak(rng.gen_range(0.0..=1.0));
            let bursty = BurstyTrace::new(
                streams.clone(),
                rng.gen_range(1..=50u64),
                rng.gen_range(1..=50u64),
                horizon,
            )
            .with_burst_multiplier(rng.gen_range(1.0..=6.0));
            let start = rng.gen_range(0..=horizon);
            let flash = FlashCrowdTrace::new(
                streams.clone(),
                rng.gen_range(1.0..=6.0),
                start,
                rng.gen_range(start..=horizon),
                horizon,
            );
            let generated = [
                (
                    ClusterTrace::poisson(&streams, per_model, seed),
                    poisson_streams(&streams, per_model, seed),
                ),
                (diurnal.generate(seed), diurnal.stream_times(seed)),
                (bursty.generate(seed), bursty.stream_times(seed)),
                (flash.generate(seed), flash.stream_times(seed)),
            ];
            for (kind, (trace, drawn)) in generated.into_iter().enumerate() {
                assert_eq!(drawn.streams.len(), streams.len());
                for (_, times) in drawn.iter() {
                    empty_streams += usize::from(times.is_empty());
                    stream_ties += times.windows(2).filter(|w| w[0] == w[1]).count();
                }
                let concatenation = drawn
                    .iter()
                    .flat_map(|(model, times)| {
                        times.iter().map(move |&at| RequestArrival::new(at, model))
                    })
                    .collect();
                let reference = ClusterTrace::from_arrivals(concatenation);
                reordering_ties += reference
                    .arrivals()
                    .windows(2)
                    .filter(|w| w[0].at == w[1].at && w[0].model > w[1].model)
                    .count();
                assert_eq!(trace, reference, "case {case}, generator {kind}");
            }
        }
        // The sets must tie a later stream's lower model with an earlier
        // stream's arrival, or ordering ties by model would pass too.
        assert!(reordering_ties > 0 && stream_ties > 0 && empty_streams > 0);
    }

    #[test]
    fn degenerate_parameters_are_clamped() {
        let diurnal =
            DiurnalTrace::new(vec![(ModelId::Mnist, 1_000)], 0).with_trough_to_peak(f64::NAN);
        assert_eq!(diurnal.period, 1);
        assert_eq!(diurnal.trough_to_peak, 0.0);
        let bursty = BurstyTrace::new(vec![], 0, 0, 0).with_burst_multiplier(f64::INFINITY);
        assert_eq!(bursty.burst_multiplier, 1.0);
        assert!(bursty.generate(1).is_empty());
        let flash = FlashCrowdTrace::new(vec![(ModelId::Mnist, 1_000)], 0.5, 10, 5, 100_000);
        assert_eq!(flash.multiplier, 1.0);
        assert!(flash.end >= flash.start);
        assert!(!flash.generate(2).is_empty());
    }
}
