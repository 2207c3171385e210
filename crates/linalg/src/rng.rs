//! Seeded randomness helpers.
//!
//! Every stochastic component in the workspace (graph generation, edge
//! sampling, noise injection, initialisation) takes an explicit RNG so that
//! experiments are reproducible from a single `u64` seed. This module
//! centralises RNG construction and Gaussian sampling.
//!
//! It has two Gaussian samplers. [`gaussian`] draws the DP noise: one
//! normal per two uniforms, through host libm. [`box_muller_fill`] draws
//! the generator's latent noise: both Box–Muller normals per two
//! uniforms, through the dispatched [`backend::box_muller`] kernel, whose
//! maths is the crate's own and gives the same bits on every backend.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::backend;
use crate::matrix::DenseMatrix;

/// Creates the workspace-standard RNG from a `u64` seed.
///
/// `SmallRng` is a fast, non-cryptographic generator; DP noise quality in a
/// *research reproduction* does not require a CSPRNG, and determinism across
/// runs matters more for regenerating the paper's tables.
pub fn seeded(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed)
}

/// Captures the full internal state of a workspace RNG (four xoshiro256++
/// words) for checkpointing; [`rng_from_state`] restores it.
///
/// # Examples
/// ```
/// use advsgm_linalg::rng::{rng_from_state, rng_state, seeded};
/// use rand::Rng;
///
/// let mut a = seeded(7);
/// let _ = a.gen::<u64>(); // advance
/// let mut b = rng_from_state(rng_state(&a));
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>()); // identical stream resumes
/// ```
pub fn rng_state(rng: &SmallRng) -> [u64; 4] {
    rng.state()
}

/// Rebuilds an RNG from a state captured by [`rng_state`], resuming the
/// exact output stream — the primitive behind bitwise-exact training
/// checkpoint/resume.
pub fn rng_from_state(state: [u64; 4]) -> SmallRng {
    SmallRng::from_state(state)
}

/// Derives a stream of independent sub-seeds from a master seed.
///
/// Uses SplitMix64, the standard seed-expansion permutation, so that
/// sub-seeded RNGs do not share low-entropy prefixes.
pub fn derive_seed(master: u64, stream: u64) -> u64 {
    let mut z = master.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Draws one sample from `N(0, std^2)` using Box–Muller.
///
/// We hand-roll the transform instead of pulling in `rand_distr`, keeping the
/// dependency set to the sanctioned crates.
#[inline]
pub fn gaussian(rng: &mut impl Rng, std: f64) -> f64 {
    debug_assert!(std >= 0.0, "standard deviation must be non-negative");
    if std == 0.0 {
        return 0.0;
    }
    // Box-Muller: u1 in (0, 1] so ln(u1) is finite.
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    let mag = (-2.0 * u1.ln()).sqrt();
    std * mag * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Fills `out` with i.i.d. `N(0, std^2)` samples.
fn gaussian_fill(rng: &mut impl Rng, std: f64, out: &mut [f64]) {
    for v in out.iter_mut() {
        *v = gaussian(rng, std);
    }
}

/// Returns a fresh vector of `n` i.i.d. `N(0, std^2)` samples.
pub fn gaussian_vec(rng: &mut impl Rng, std: f64, n: usize) -> Vec<f64> {
    let mut out = vec![0.0; n];
    gaussian_fill(rng, std, &mut out);
    out
}

/// Returns a `rows x cols` matrix of i.i.d. `N(0, std^2)` samples.
pub fn gaussian_matrix(rng: &mut impl Rng, std: f64, rows: usize, cols: usize) -> DenseMatrix {
    let mut m = DenseMatrix::zeros(rows, cols);
    gaussian_fill(rng, std, m.as_mut_slice());
    m
}

/// Uniform pairs [`box_muller_fill`] stages on the stack per kernel call
/// (1 KiB): one `r = 128` fake in one call.
const BOX_MULLER_PAIRS: usize = 64;

/// Fills `out` with i.i.d. `N(0, 1)` samples, both Box–Muller normals
/// per pair of uniforms: `out[2p]` and `out[2p + 1]` come from pair `p`
/// (an odd `out` drops the last sine half).
///
/// The `2⌈n/2⌉` uniforms are drawn serially from `rng`, `u₁ = 1 − gen()`
/// then `u₂ = gen()` per pair, into a stack buffer, which the dispatched
/// [`backend::box_muller`] kernel turns into normals. The result is a
/// function of the stream alone, the same bits on every backend.
pub fn box_muller_fill(rng: &mut impl Rng, out: &mut [f64]) {
    let mut u1 = [0.0; BOX_MULLER_PAIRS];
    let mut u2 = [0.0; BOX_MULLER_PAIRS];
    for chunk in out.chunks_mut(2 * BOX_MULLER_PAIRS) {
        let pairs = chunk.len().div_ceil(2);
        for (a, b) in u1[..pairs].iter_mut().zip(&mut u2[..pairs]) {
            *a = 1.0 - rng.gen::<f64>();
            *b = rng.gen::<f64>();
        }
        backend::box_muller(&u1[..pairs], &u2[..pairs], chunk);
    }
}

/// Advances `rng` past exactly the `2⌈n/2⌉` words [`box_muller_fill`]
/// takes to fill `n` values, without computing them.
pub fn skip_box_muller_fill(rng: &mut impl Rng, n: usize) {
    for _ in 0..2 * n.div_ceil(2) {
        rng.next_u64();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_is_deterministic() {
        let mut a = seeded(42);
        let mut b = seeded(42);
        for _ in 0..16 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = seeded(1);
        let mut b = seeded(2);
        let xa: Vec<u64> = (0..4).map(|_| a.gen()).collect();
        let xb: Vec<u64> = (0..4).map(|_| b.gen()).collect();
        assert_ne!(xa, xb);
    }

    #[test]
    fn derive_seed_streams_are_distinct() {
        let s0 = derive_seed(7, 0);
        let s1 = derive_seed(7, 1);
        let s2 = derive_seed(8, 0);
        assert_ne!(s0, s1);
        assert_ne!(s0, s2);
    }

    #[test]
    fn gaussian_zero_std_is_zero() {
        let mut rng = seeded(3);
        assert_eq!(gaussian(&mut rng, 0.0), 0.0);
    }

    #[test]
    fn gaussian_moments_roughly_correct() {
        let mut rng = seeded(4);
        let n = 200_000;
        let std = 2.5;
        let xs = gaussian_vec(&mut rng, std, n);
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64;
        assert!(mean.abs() < 0.05, "mean={mean}");
        assert!((var.sqrt() - std).abs() < 0.05, "std={}", var.sqrt());
    }

    #[test]
    fn gaussian_matrix_shape() {
        let mut rng = seeded(5);
        let m = gaussian_matrix(&mut rng, 1.0, 3, 4);
        assert_eq!(m.shape(), (3, 4));
        // Not all zero (overwhelmingly likely).
        assert!(m.as_slice().iter().any(|&v| v != 0.0));
    }

    /// Mean, variance, skewness and excess kurtosis.
    fn moments(xs: &[f64]) -> [f64; 4] {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let central = |p: i32| xs.iter().map(|x| (x - mean).powi(p)).sum::<f64>() / n;
        let var = central(2);
        [
            mean,
            var,
            central(3) / var.powf(1.5),
            central(4) / (var * var) - 3.0,
        ]
    }

    #[test]
    fn box_muller_fill_matches_the_libm_draw_in_distribution() {
        const N: usize = 1 << 20;
        let mut fill = vec![0.0; N];
        box_muller_fill(&mut seeded(61), &mut fill);
        let libm = gaussian_vec(&mut seeded(62), 1.0, N);

        // Moments: each within about five standard errors of N(0, 1)'s
        // (mean 1/√N, variance √(2/N), skewness √(6/N), kurtosis √(24/N)).
        let n = N as f64;
        let bounds = [
            5.0 / n.sqrt(),
            5.0 * (2.0 / n).sqrt(),
            5.0 * (6.0 / n).sqrt(),
            5.0 * (24.0 / n).sqrt(),
        ];
        let want = [0.0, 1.0, 0.0, 0.0];
        for (name, xs) in [("box_muller_fill", &fill), ("gaussian", &libm)] {
            let got = moments(xs);
            for k in 0..4 {
                assert!(
                    (got[k] - want[k]).abs() < bounds[k],
                    "{name}: moment {k} is {} (bound {})",
                    got[k],
                    bounds[k]
                );
            }
        }

        // Two-sample Kolmogorov–Smirnov: the largest gap between the two
        // empirical CDFs, against its critical value at α = 0.001,
        // 1.949·√(2/N).
        let (mut a, mut b) = (fill, libm);
        a.sort_by(f64::total_cmp);
        b.sort_by(f64::total_cmp);
        let (mut i, mut j, mut d) = (0, 0, 0.0f64);
        while i < N && j < N {
            if a[i] <= b[j] {
                i += 1;
            } else {
                j += 1;
            }
            d = d.max((i as f64 - j as f64).abs() / n);
        }
        let critical = 1.949 * (2.0 / n).sqrt();
        assert!(d < critical, "KS statistic {d} >= {critical}");
    }

    #[test]
    fn box_muller_fill_takes_two_words_per_pair_and_fills_odd_lengths() {
        for n in [0, 1, 2, 3, 127, 128, 129, 300] {
            let mut drawn = seeded(70 + n as u64);
            let mut skipped = drawn.clone();
            let mut out = vec![f64::NAN; n];
            box_muller_fill(&mut drawn, &mut out);
            skip_box_muller_fill(&mut skipped, n);
            assert_eq!(rng_state(&drawn), rng_state(&skipped), "n = {n}");
            assert!(out.iter().all(|z| z.is_finite()), "n = {n}");
            // The prefix of an odd fill is the even fill's.
            let mut even = vec![0.0; n + n % 2];
            box_muller_fill(&mut seeded(70 + n as u64), &mut even);
            assert_eq!(out, even[..n], "n = {n}");
        }
    }
}
