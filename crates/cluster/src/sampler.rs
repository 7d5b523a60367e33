//! Service-time sampling: per-replica counter streams and a shared
//! one-uniform lognormal table.
//!
//! Every replica draws its stochastic service factors from its own
//! counter-based stream (Salmon et al., "Parallel Random Numbers: As Easy as
//! 1, 2, 3", SC 2011): draw `n` of a replica is
//! `splitmix64(key + n·0x9E37_79B9_7F4A_7C15)`, where the key mixes the run
//! seed with the replica's identity — the handle it was first deployed under
//! and the cycle it was deployed at. No event order, partition layout or
//! other replica can disturb a stream, and a replica carries its key and
//! counter with it when it migrates.
//!
//! A draw turns one 64-bit word into a lognormal factor of mean 1 through a
//! table of the quantile function: the top [`CELL_BITS`] bits pick one of
//! 4,096 equal-probability cells and the next [`FRACTION_BITS`] bits
//! interpolate linearly between the cell's two knots. The two outermost
//! cells, whose outer knot is not finite, compute the quantile exactly, so
//! 4,094 draws in 4,096 call no transcendental function.

use std::sync::Arc;

use workloads::Memo;

use crate::cluster::VnpuHandle;

/// The golden-ratio increment of SplitMix64, also the stream's counter step.
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64: the deterministic, stateless hash behind trace sampling and
/// the service streams.
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(GOLDEN_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One replica's service-time stream: its key and how many words it has
/// drawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ServiceStream {
    key: u64,
    drawn: u64,
}

impl ServiceStream {
    /// The stream of the replica first deployed under `handle` at cycle
    /// `deployed_at` of a run seeded with `seed`. The cycle tells apart
    /// replicas that a board gave the same recycled vNPU id.
    pub(crate) fn new(seed: u64, handle: VnpuHandle, deployed_at: u64) -> Self {
        let identity = (u64::from(handle.node.0) << 32) | u64::from(handle.vnpu.0);
        ServiceStream {
            key: splitmix64(splitmix64(splitmix64(seed) ^ identity) ^ deployed_at),
            drawn: 0,
        }
    }

    /// The next word of the stream.
    pub(crate) fn next_word(&mut self) -> u64 {
        let word = splitmix64(self.key.wrapping_add(self.drawn.wrapping_mul(GOLDEN_GAMMA)));
        self.drawn += 1;
        word
    }

    /// The stream's key.
    #[cfg(test)]
    pub(crate) fn key(&self) -> u64 {
        self.key
    }

    /// Words drawn so far: the counter of the next draw.
    #[cfg(test)]
    pub(crate) fn drawn(&self) -> u64 {
        self.drawn
    }
}

/// Bits of a word that pick the table cell.
const CELL_BITS: u32 = 12;
/// Equal-probability cells of the quantile table.
const CELLS: usize = 1 << CELL_BITS;
/// Bits of a word below the cell bits that give the position in the cell.
const FRACTION_BITS: u32 = 41;

/// The lognormal service-time dispersion of one coefficient of variation:
/// mean 1, `σ² = ln(1 + cv²)`, and the quantile function
/// `exp(−σ²/2 + σ·Φ⁻¹(u))` tabulated at `u = k/4096`.
///
/// One table exists per σ per process ([`Lognormal::from_cv`] memoizes it),
/// and every replica of every shape with that σ shares it.
pub(crate) struct Lognormal {
    sigma_sq: f64,
    sigma: f64,
    /// The quantile at `u = k/4096` for `k = 0..=4096`. The end knots (0 and
    /// infinity) are never interpolated: their cells compute exactly.
    knots: Box<[f64]>,
}

impl std::fmt::Debug for Lognormal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Lognormal")
            .field("sigma", &self.sigma)
            .finish_non_exhaustive()
    }
}

/// The process-wide quantile tables, keyed by σ's bits.
static TABLES: Memo<u64, Lognormal> = Memo::new();

impl Lognormal {
    /// The shared dispersion of coefficient of variation `cv`; `None` for a
    /// degenerate one (zero, negative or non-finite), whose replicas serve
    /// deterministically and draw nothing from their stream.
    pub(crate) fn from_cv(cv: f64) -> Option<Arc<Self>> {
        if cv <= 0.0 || !cv.is_finite() {
            return None;
        }
        let sigma_sq = (1.0 + cv * cv).ln(); // simlint::allow(D4, reason = "once per calibrated shape, not per draw")
        let sigma = sigma_sq.sqrt();
        Some(TABLES.get_or_insert_with(sigma.to_bits(), || Self::build(sigma_sq, sigma)))
    }

    fn build(sigma_sq: f64, sigma: f64) -> Self {
        let mut table = Lognormal {
            sigma_sq,
            sigma,
            knots: vec![0.0; CELLS + 1].into_boxed_slice(),
        };
        for k in 1..CELLS {
            table.knots[k] = table.quantile(inverse_normal_cdf(k as f64 / CELLS as f64));
        }
        table.knots[CELLS] = f64::INFINITY;
        table
    }

    /// The factor at standard normal quantile `z`.
    fn quantile(&self, z: f64) -> f64 {
        (-0.5 * self.sigma_sq + self.sigma * z).exp() // simlint::allow(D4, reason = "table build and the two exact tail cells only")
    }

    /// The factor that `word` selects: `u` in the open interval (0, 1) is
    /// `(cell + fraction)/4096`, with the cell from the top 12 bits and the
    /// fraction `(f + ½)/2⁴¹` from the next 41.
    pub(crate) fn sample(&self, word: u64) -> f64 {
        let cell = (word >> (64 - CELL_BITS)) as usize;
        let bits = (word >> (64 - CELL_BITS - FRACTION_BITS)) & ((1 << FRACTION_BITS) - 1);
        let fraction = (bits as f64 + 0.5) * (1.0 / (1u64 << FRACTION_BITS) as f64);
        if cell == 0 {
            // u = fraction/4096 exactly: the lower tail.
            return self.quantile(inverse_normal_cdf(fraction / CELLS as f64));
        }
        if cell == CELLS - 1 {
            // 1 − u = (1 − fraction)/4096 exactly: the upper tail, by symmetry.
            return self.quantile(-inverse_normal_cdf((1.0 - fraction) / CELLS as f64));
        }
        let low = self.knots[cell];
        low + (self.knots[cell + 1] - low) * fraction
    }
}

/// The standard normal quantile `Φ⁻¹(p)` for `p` in (0, 1), by Acklam's
/// rational approximation (relative error below 1.15e-9).
fn inverse_normal_cdf(p: f64) -> f64 {
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.024_25;
    let tail = |q: f64| {
        let r = (-2.0 * q.ln()).sqrt(); // simlint::allow(D4, reason = "table build and the two exact tail cells only")
        (((((C[0] * r + C[1]) * r + C[2]) * r + C[3]) * r + C[4]) * r + C[5])
            / ((((D[0] * r + D[1]) * r + D[2]) * r + D[3]) * r + 1.0)
    };
    if p < P_LOW {
        tail(p)
    } else if p > 1.0 - P_LOW {
        -tail(1.0 - p)
    } else {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeId;
    use neu10::VnpuId;

    fn handle(node: u32, vnpu: u32) -> VnpuHandle {
        VnpuHandle {
            node: NodeId(node),
            vnpu: VnpuId(vnpu),
        }
    }

    /// The complementary error function (Numerical Recipes' `erfcc`,
    /// fractional error below 1.2e-7 everywhere).
    fn erfc(x: f64) -> f64 {
        let t = 1.0 / (1.0 + 0.5 * x.abs());
        let y = t
            * (-x * x - 1.265_512_23
                + t * (1.000_023_68
                    + t * (0.374_091_96
                        + t * (0.096_784_18
                            + t * (-0.186_288_06
                                + t * (0.278_868_07
                                    + t * (-1.135_203_98
                                        + t * (1.488_515_87
                                            + t * (-0.822_152_23 + t * 0.170_872_77)))))))))
                .exp();
        if x >= 0.0 {
            y
        } else {
            2.0 - y
        }
    }

    fn normal_cdf(z: f64) -> f64 {
        0.5 * erfc(-z / std::f64::consts::SQRT_2)
    }

    /// A Box–Muller reference draw fed from the same counter stream: two
    /// words per factor.
    fn box_muller(stream: &mut ServiceStream, sigma_sq: f64) -> f64 {
        let unit = |word: u64| (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let u1 = 1.0 - unit(stream.next_word()); // (0, 1]
        let u2 = unit(stream.next_word());
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        (-0.5 * sigma_sq + sigma_sq.sqrt() * z).exp()
    }

    /// Checks `factors` against the exact lognormal of coefficient `cv`: the
    /// mean within 3 standard errors of 1, and the Kolmogorov–Smirnov
    /// distance below the 1% critical value 1.63/√N.
    fn assert_lognormal(label: &str, cv: f64, mut factors: Vec<f64>) {
        let n = factors.len() as f64;
        let mean = factors.iter().sum::<f64>() / n;
        let variance = factors.iter().map(|f| (f - mean).powi(2)).sum::<f64>() / (n - 1.0);
        let se = (variance / n).sqrt();
        assert!(
            (mean - 1.0).abs() <= 3.0 * se,
            "{label} cv {cv}: mean {mean} is more than 3 SE ({se}) from 1"
        );
        let sigma_sq = (1.0 + cv * cv).ln();
        let sigma = sigma_sq.sqrt();
        factors.sort_by(f64::total_cmp);
        let ks = factors
            .iter()
            .enumerate()
            .map(|(i, &x)| {
                let cdf = normal_cdf((x.ln() + 0.5 * sigma_sq) / sigma);
                (cdf - i as f64 / n).max((i + 1) as f64 / n - cdf)
            })
            .fold(0.0f64, f64::max);
        let bound = 1.63 / n.sqrt();
        assert!(
            ks < bound,
            "{label} cv {cv}: KS distance {ks} exceeds {bound}"
        );
    }

    const N: usize = 100_000;
    const CVS: [f64; 4] = [0.05, 0.2, 0.5, 1.0];

    #[test]
    fn table_and_box_muller_draws_match_the_exact_lognormal() {
        for cv in CVS {
            let table = Lognormal::from_cv(cv).expect("positive cv");
            let sigma_sq = (1.0 + cv * cv).ln();
            // One key.
            let mut one = ServiceStream::new(11, handle(3, 1), 0);
            let drawn: Vec<f64> = (0..N).map(|_| table.sample(one.next_word())).collect();
            assert_lognormal("table, one key", cv, drawn);
            let mut one = ServiceStream::new(11, handle(3, 1), 0);
            let drawn: Vec<f64> = (0..N).map(|_| box_muller(&mut one, sigma_sq)).collect();
            assert_lognormal("Box–Muller, one key", cv, drawn);
            // Pooled over 64 keys, round-robin.
            let mut keys: Vec<ServiceStream> = (0..64)
                .map(|i| ServiceStream::new(11, handle(i % 8, i / 8), u64::from(i) * 1_000))
                .collect();
            let drawn: Vec<f64> = (0..N)
                .map(|i| table.sample(keys[i % 64].next_word()))
                .collect();
            assert_lognormal("table, 64 keys", cv, drawn);
            let mut keys: Vec<ServiceStream> = (0..64)
                .map(|i| ServiceStream::new(11, handle(i % 8, i / 8), u64::from(i) * 1_000))
                .collect();
            let drawn: Vec<f64> = (0..N)
                .map(|i| box_muller(&mut keys[i % 64], sigma_sq))
                .collect();
            assert_lognormal("Box–Muller, 64 keys", cv, drawn);
        }
    }

    #[test]
    fn inverse_normal_cdf_inverts_the_normal_cdf() {
        for k in 1..4096 {
            let p = k as f64 / 4096.0;
            let z = inverse_normal_cdf(p);
            assert!(
                (normal_cdf(z) - p).abs() <= 1e-6 * p.min(1.0 - p),
                "p {p}: Φ(Φ⁻¹(p)) = {}",
                normal_cdf(z)
            );
            assert!(
                (z + inverse_normal_cdf(1.0 - p)).abs() < 1e-9,
                "symmetry at {p}"
            );
        }
        for p in [1e-300, 1e-16, 2f64.powi(-53), 1e-6] {
            assert!(
                (normal_cdf(inverse_normal_cdf(p)) / p - 1.0).abs() < 1e-5,
                "tail p {p}"
            );
        }
    }

    #[test]
    fn extreme_words_stay_finite_and_ordered() {
        let table = Lognormal::from_cv(0.5).expect("positive cv");
        let lowest = table.sample(0);
        let highest = table.sample(u64::MAX);
        assert!(lowest > 0.0 && lowest < table.knots[1], "lowest {lowest}");
        assert!(
            highest.is_finite() && highest > table.knots[CELLS - 1],
            "highest {highest}"
        );
        // Within and across cells the factor never decreases in the word.
        let mut previous = 0.0;
        for word in (0..=u16::MAX).map(|w| u64::from(w) << 48 | 0x0000_8000_0000_0000 >> 16) {
            let factor = table.sample(word);
            assert!(factor >= previous, "word {word:#x}");
            previous = factor;
        }
    }

    #[test]
    fn tables_are_shared_per_sigma() {
        let a = Lognormal::from_cv(0.3).expect("positive cv");
        let b = Lognormal::from_cv(0.3).expect("positive cv");
        assert!(Arc::ptr_eq(&a, &b), "one table per σ per process");
        assert!(Lognormal::from_cv(0.0).is_none());
        assert!(Lognormal::from_cv(f64::NAN).is_none());
    }

    #[test]
    fn draw_n_is_the_hash_of_key_plus_n_gammas() {
        let mut stream = ServiceStream::new(5, handle(2, 7), 300);
        let key = stream.key();
        for n in 0..4u64 {
            assert_eq!(stream.drawn(), n);
            assert_eq!(
                stream.next_word(),
                splitmix64(key.wrapping_add(n.wrapping_mul(GOLDEN_GAMMA)))
            );
        }
        assert_ne!(
            ServiceStream::new(5, handle(2, 7), 300).key(),
            ServiceStream::new(5, handle(2, 7), 301).key(),
            "the deploy cycle is part of the identity"
        );
        assert_ne!(
            ServiceStream::new(5, handle(2, 7), 300).key(),
            ServiceStream::new(6, handle(2, 7), 300).key(),
            "the seed is part of the key"
        );
    }
}
