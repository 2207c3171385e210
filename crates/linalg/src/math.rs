//! Repo-owned `ln`, `sin`/`cos` and `exp` for the generator's fakes, and
//! the scalar form of the two fake kernels built on them (DESIGN.md §15).
//!
//! AdvSGM's generator makes a fake neighbour `v' = φ(θ_t + z)` with
//! `z ~ N(0, I_r)` for every item it trains on. Host libm (`f64::ln`,
//! `cos`, `exp`) sits outside the kernel backend's bitwise contract and
//! costs most of a fake, so the fake path computes them here instead:
//! fdlibm/musl polynomials in plain IEEE-754 operations (add, subtract,
//! multiply, divide, square root, and exact integer work on the bits) in
//! a fixed order, with no FMA. `backend/avx2.rs` runs the same sequence
//! four lanes at a time, so both forms return the same bits.
//!
//! Each function covers only the domain the fake path feeds it:
//!
//! * [`ln`] on `[2⁻⁵³, 1]`, Box–Muller's `u₁ = 1 − gen::<f64>()`;
//! * [`sincos_2pi`] on `[0, 1)`, `u₂ = gen::<f64>()`, with the turn
//!   reduced exactly in `u` before any rounding;
//! * [`exp`] on `(−∞, 0]`, all the branch-free [`sigmoid`] asks of it.
//!
//! Outside its domain a function still returns the same bits on every
//! backend, but not a logarithm, sine or exponential.

/// The sign bit of an `f64`.
pub(crate) const SIGN: u64 = 1 << 63;

/// `2⁵²` as bits: OR-ing an integer `e < 2⁵²` into its mantissa gives
/// the double `2⁵² + e`.
pub(crate) const TWO52_BITS: u64 = 0x4330_0000_0000_0000;
/// `2⁵² + 1023`: subtracted from `2⁵² + e` it leaves the unbiased
/// exponent `e − 1023`, exactly.
pub(crate) const TWO52_PLUS_BIAS: f64 = 4_503_599_627_371_519.0;
/// Added to the high word of `x`'s bits, it moves the mantissa range
/// `[√2/2, √2)` onto one binade (musl's `0x3ff00000 − 0x3fe6a09e`).
pub(crate) const LN_REDUCE: u64 = (0x3ff0_0000 - 0x3fe6_a09e) << 32;
/// The mantissa bits of an `f64`.
pub(crate) const MANTISSA: u64 = 0x000f_ffff_ffff_ffff;
/// The bits of `√2/2`'s high word, the bottom of the reduced range.
pub(crate) const LN_OFFSET: u64 = 0x3fe6_a09e << 32;

/// `ln 2` split so that `k · LN2_HI` is exact for `|k| < 2²⁰`.
pub(crate) const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000); // 6.93147180369123816490e-01
pub(crate) const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76); // 1.90821492927058770002e-10

/// musl `log.c` polynomial in `s²` on `[0, 0.1716]`.
pub(crate) const LG1: f64 = f64::from_bits(0x3fe5_5555_5555_5593); // 6.666666666666735130e-01
pub(crate) const LG2: f64 = f64::from_bits(0x3fd9_9999_9997_fa04); // 3.999999999940941908e-01
pub(crate) const LG3: f64 = f64::from_bits(0x3fd2_4924_9422_9359); // 2.857142874366239149e-01
pub(crate) const LG4: f64 = f64::from_bits(0x3fcc_71c5_1d8e_78af); // 2.222219843214978396e-01
pub(crate) const LG5: f64 = f64::from_bits(0x3fc7_4664_96cb_03de); // 1.818357216161805012e-01
pub(crate) const LG6: f64 = f64::from_bits(0x3fc3_9a09_d078_c69f); // 1.531383769920937332e-01
pub(crate) const LG7: f64 = f64::from_bits(0x3fc2_f112_df3e_5244); // 1.479819860511658591e-01

/// `π/4`, rounded: the only rounded factor in [`sincos_2pi`]'s reduction.
pub(crate) const FRAC_PI_4: f64 = std::f64::consts::FRAC_PI_4;

/// musl `__sin.c` on `[−π/4, π/4]`.
pub(crate) const S1: f64 = f64::from_bits(0xbfc5_5555_5555_5549); // -1.66666666666666324348e-01
pub(crate) const S2: f64 = f64::from_bits(0x3f81_1111_1110_f8a6); // 8.33333333332248946124e-03
pub(crate) const S3: f64 = f64::from_bits(0xbf2a_01a0_19c1_61d5); // -1.98412698298579493134e-04
pub(crate) const S4: f64 = f64::from_bits(0x3ec7_1de3_57b1_fe7d); // 2.75573137070700676789e-06
pub(crate) const S5: f64 = f64::from_bits(0xbe5a_e5e6_8a2b_9ceb); // -2.50507602534068634195e-08
pub(crate) const S6: f64 = f64::from_bits(0x3de5_d93a_5acf_d57c); // 1.58969099521155010221e-10

/// musl `__cos.c` on `[−π/4, π/4]`.
pub(crate) const C1: f64 = f64::from_bits(0x3fa5_5555_5555_554c); // 4.16666666666666019037e-02
pub(crate) const C2: f64 = f64::from_bits(0xbf56_c16c_16c1_5177); // -1.38888888888741095749e-03
pub(crate) const C3: f64 = f64::from_bits(0x3efa_01a0_19cb_1590); // 2.48015872894767294178e-05
pub(crate) const C4: f64 = f64::from_bits(0xbe92_7e4f_809c_52ad); // -2.75573143513906633035e-07
pub(crate) const C5: f64 = f64::from_bits(0x3e21_ee9e_bdb4_b1c4); // 2.08757232129817482790e-09
pub(crate) const C6: f64 = f64::from_bits(0xbda8_fae9_be88_38d4); // -1.13596475577881948265e-11

/// [`exp`] clamps its argument here: `e⁻⁷⁴⁶` rounds to `+0`, so every
/// argument below it may too, and the scale factors stay normal.
pub(crate) const EXP_MIN: f64 = -746.0;
/// `1/ln 2`.
pub(crate) const INV_LN2: f64 = f64::from_bits(0x3ff7_1547_652b_82fe); // 1.44269504088896338700e+00
/// `1.5 · 2⁵²`: `(y + ROUND_SHIFT) − ROUND_SHIFT` rounds `y` to the
/// nearest integer, and the sum's low bits hold it in two's complement.
pub(crate) const ROUND_SHIFT: f64 = f64::from_bits(0x4338_0000_0000_0000);

/// musl `exp.c` polynomial on `[−ln2/2, ln2/2]`.
pub(crate) const P1: f64 = f64::from_bits(0x3fc5_5555_5555_553e); // 1.66666666666666019037e-01
pub(crate) const P2: f64 = f64::from_bits(0xbf66_c16c_16be_bd93); // -2.77777777770155933842e-03
pub(crate) const P3: f64 = f64::from_bits(0x3f11_566a_af25_de2c); // 6.61375632143793436117e-05
pub(crate) const P4: f64 = f64::from_bits(0xbebb_bd41_c5d2_6bf1); // -1.65339022054652515390e-06
pub(crate) const P5: f64 = f64::from_bits(0x3e66_3769_72be_a4d0); // 4.13813679705723846039e-08

/// `if_set` where `mask`'s top bit is set, else `if_clear`: the bitwise
/// select `_mm256_blendv_pd` performs, with no branch.
#[inline]
fn select(mask: u64, if_set: f64, if_clear: f64) -> f64 {
    let all = ((mask as i64) >> 63) as u64;
    f64::from_bits((if_clear.to_bits() & !all) | (if_set.to_bits() & all))
}

/// Natural logarithm on `[2⁻⁵³, 1]` (musl `log`).
///
/// The exponent `k` comes from the bits, after a shift that puts the
/// mantissa `m` in `[√2/2, √2)`; then `ln x = k·ln 2 + ln m`, with
/// `ln m` from `s = f/(2 + f)`, `f = m − 1`. Every argument in the
/// domain is normal, so no subnormal path is needed.
#[inline]
fn ln(x: f64) -> f64 {
    let ix = x.to_bits().wrapping_add(LN_REDUCE);
    let k = f64::from_bits(TWO52_BITS | (ix >> 52)) - TWO52_PLUS_BIAS;
    let f = f64::from_bits((ix & MANTISSA).wrapping_add(LN_OFFSET)) - 1.0;
    let hfsq = 0.5 * f * f;
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let t1 = w * (LG2 + w * (LG4 + w * LG6));
    let t2 = z * (LG1 + w * (LG3 + w * (LG5 + w * LG7)));
    let r = t2 + t1;
    (((s * (hfsq + r) + k * LN2_LO) - hfsq) + f) + k * LN2_HI
}

/// `sin a` on `[0, π/4]` (musl `__sin` with no tail).
#[inline]
fn sin_pi4(a: f64) -> f64 {
    let z = a * a;
    let w = z * z;
    let r = (S2 + z * (S3 + z * S4)) + z * w * (S5 + z * S6);
    let v = z * a;
    a + v * (S1 + z * r)
}

/// `cos a` on `[0, π/4]` (musl `__cos` with no tail).
#[inline]
fn cos_pi4(a: f64) -> f64 {
    let z = a * a;
    let w = z * z;
    let r = z * (C1 + z * (C2 + z * C3)) + w * w * (C4 + z * (C5 + z * C6));
    let hz = 0.5 * z;
    let w = 1.0 - hz;
    w + (((1.0 - w) - hz) + z * r)
}

/// `(sin 2πu, cos 2πu)` on `[0, 1)`.
///
/// The turn is reduced in `u` itself, exactly: `t = 8u`, octant
/// `n = ⌊t⌋`, `g = t − n`, and odd octants use `1 − g`, so the angle
/// left is `a = g·π/4 ∈ [0, π/4]` and only that product rounds. The
/// octant's bits then pick, with no branch, which of `sin a` and
/// `cos a` each output is (bit 0 XOR bit 1 swaps them) and its sign
/// (bit 2 for the sine, bit 1 XOR bit 2 for the cosine).
#[inline]
fn sincos_2pi(u: f64) -> (f64, f64) {
    let t = 8.0 * u;
    let n = t as i32;
    let g = t - f64::from(n);
    let n = n as u64;
    let a = select(n << 63, 1.0 - g, g) * FRAC_PI_4;
    let (s, c) = (sin_pi4(a), cos_pi4(a));
    let gray = n ^ (n >> 1);
    let swap = gray << 63;
    let sin = f64::from_bits(select(swap, c, s).to_bits() ^ ((n << 61) & SIGN));
    let cos = f64::from_bits(select(swap, s, c).to_bits() ^ ((gray << 62) & SIGN));
    (sin, cos)
}

/// `eˣ` on `(−∞, 0]` (musl `exp`, branch-free).
///
/// `x` is clamped to [`EXP_MIN`] (a NaN passes through), `k` is `x/ln 2`
/// rounded to the nearest integer, and `eˣ = 2ᵏ·e^r` with
/// `r = x − k·ln 2`. The scale `2ᵏ` is applied as two normal factors
/// `2^⌊k/2⌋·2^⌈k/2⌉`, so a result below `2⁻¹⁰²²` rounds once, to the
/// subnormal grid.
#[inline]
fn exp(x: f64) -> f64 {
    let x = if EXP_MIN > x { EXP_MIN } else { x };
    let shifted = x * INV_LN2 + ROUND_SHIFT;
    let k = shifted - ROUND_SHIFT;
    let hi = x - k * LN2_HI;
    let lo = k * LN2_LO;
    let r = hi - lo;
    let rr = r * r;
    let c = r - rr * (P1 + rr * (P2 + rr * (P3 + rr * (P4 + rr * P5))));
    let y = 1.0 + ((r * c / (2.0 - c) - lo) + hi);
    // k in two's complement; h = ⌊k/2⌋ + 1024, so 2^⌊k/2⌋ has biased
    // exponent h − 1 and 2^(k − ⌊k/2⌋) has k − h + 2047.
    let k = shifted.to_bits().wrapping_sub(ROUND_SHIFT.to_bits());
    let h = k.wrapping_add(2048) >> 1;
    let lo_scale = f64::from_bits(h.wrapping_sub(1) << 52);
    let hi_scale = f64::from_bits(k.wrapping_add(2047).wrapping_sub(h) << 52);
    y * lo_scale * hi_scale
}

/// The logistic sigmoid, branch-free: `num / (1 + e)` with
/// `e = exp(−|x|)` and `num = 1` for `x ≥ 0`, else `e`. A NaN gives NaN.
#[inline]
fn sigmoid(x: f64) -> f64 {
    let e = exp(f64::from_bits(x.to_bits() | SIGN));
    let num = if x >= 0.0 { 1.0 } else { e };
    num / (1.0 + e)
}

/// The latent stage's scalar form: pair `p`'s uniforms `(u1[p], u2[p])`
/// become Box–Muller's two standard normals, `out[2p] = m·cos 2πu₂` and
/// `out[2p + 1] = m·sin 2πu₂` with `m = √(−2 ln u₁)`. When `out` is odd,
/// the last pair's sine half is dropped. The caller checks
/// `u1.len() == u2.len() == ⌈out.len()/2⌉`.
pub(crate) fn box_muller(u1: &[f64], u2: &[f64], out: &mut [f64]) {
    for (pair, (&a, &b)) in out.chunks_mut(2).zip(u1.iter().zip(u2)) {
        let mag = (-2.0 * ln(a)).sqrt();
        let (sin, cos) = sincos_2pi(b);
        pair[0] = mag * cos;
        if let Some(z) = pair.get_mut(1) {
            *z = mag * sin;
        }
    }
}

/// The sigmoid stage's scalar form: `z[i] = φ(theta[i] + z[i])`. The
/// caller checks `theta.len() == z.len()`.
pub(crate) fn sigmoid_of_sum(theta: &[f64], z: &mut [f64]) {
    for (z, &t) in z.iter_mut().zip(theta) {
        *z = sigmoid(t + *z);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Distance in units in the last place between two finite doubles:
    /// how many doubles apart they are, the two zeros counting as one.
    fn ulps(a: f64, b: f64) -> u64 {
        let key = |x: f64| {
            let bits = x.to_bits() as i64;
            if bits < 0 {
                i64::MIN - bits
            } else {
                bits
            }
        };
        key(a).abs_diff(key(b))
    }

    /// `(hi, lo)` with `hi + lo = a·b` exactly (Dekker's product, so the
    /// reference needs no FMA either).
    fn two_product(a: f64, b: f64) -> (f64, f64) {
        let split = |x: f64| {
            let c = 134_217_729.0 * x; // 2^27 + 1
            let hi = c - (c - x);
            (hi, x - hi)
        };
        let p = a * b;
        let ((ah, al), (bh, bl)) = (split(a), split(b));
        (p, ((ah * bh - p) + ah * bl + al * bh) + al * bl)
    }

    /// Host libm's `(sin 2πu, cos 2πu)` with the turn reduced as
    /// precisely as libm can be asked: the same exact octant reduction,
    /// then `π/4` in double-double, libm at the rounded angle and a
    /// first-order correction for the angle's low part. So the
    /// comparison measures `sincos_2pi`'s own error, not the error of
    /// rounding `2πu` before calling libm.
    fn reference_sincos_2pi(u: f64) -> (f64, f64) {
        const PI_4_LO: f64 = 3.061_616_997_868_383e-17;
        let t = 8.0 * u;
        let n = t.floor();
        let g = t - n;
        let n = n as u64;
        let g = if n % 2 == 1 { 1.0 - g } else { g };
        let (hi, lo) = two_product(g, FRAC_PI_4);
        let lo = lo + g * PI_4_LO;
        let (s, c) = (hi.sin() + lo * hi.cos(), hi.cos() - lo * hi.sin());
        let (s, c) = if (n ^ (n >> 1)) & 1 == 1 {
            (c, s)
        } else {
            (s, c)
        };
        let sin = if (n >> 2) & 1 == 1 { -s } else { s };
        let cos = if ((n >> 1) ^ (n >> 2)) & 1 == 1 {
            -c
        } else {
            c
        };
        (sin, cos)
    }

    /// Every `step`-th uniform of the generator's grid `k·2⁻⁵³` on
    /// `[0, 1)`, offset so consecutive grids do not repeat.
    fn uniform_grid(points: u64) -> impl Iterator<Item = f64> {
        let step = (1u64 << 53) / points;
        (0..points).map(move |i| (i * step + (i * 7919) % step) as f64 / (1u64 << 53) as f64)
    }

    #[test]
    fn ln_is_within_one_ulp_of_libm_on_the_uniform_domain() {
        let mut worst = 0;
        let tiny = 1.0 / (1u64 << 53) as f64;
        let edges = [tiny, 2.0 * tiny, 3.0 * tiny, 0.5, 1.0 - tiny, 1.0];
        // Dense over the whole domain, and dense in its smallest binades.
        let dense = uniform_grid(200_000).map(|u| 1.0 - u);
        let small = (1..=50_000u64).map(|k| k as f64 * tiny);
        for x in edges.into_iter().chain(dense).chain(small) {
            let (got, want) = (ln(x), x.ln());
            assert!(ulps(got, want) <= 1, "ln({x:e}) = {got:e}, libm {want:e}");
            worst = worst.max(ulps(got, want));
        }
        assert_eq!(ln(1.0).to_bits(), 0, "ln 1 is +0");
        assert_eq!(ln(tiny), tiny.ln());
        println!("ln: max {worst} ulp against libm");
    }

    #[test]
    fn sincos_2pi_is_within_two_ulps_of_libm_on_the_uniform_domain() {
        let mut worst = (0, 0);
        for u in uniform_grid(200_000) {
            let (s, c) = sincos_2pi(u);
            let (rs, rc) = reference_sincos_2pi(u);
            let (es, ec) = (ulps(s, rs), ulps(c, rc));
            assert!(
                es <= 2 && ec <= 2,
                "u {u:e}: ({s:e}, {c:e}) vs ({rs:e}, {rc:e})"
            );
            worst = (worst.0.max(es), worst.1.max(ec));
        }
        println!("sincos_2pi: max {worst:?} ulp (sin, cos) against libm");
    }

    #[test]
    fn sincos_2pi_is_exact_at_the_octant_edges() {
        let half_sqrt2 = std::f64::consts::FRAC_1_SQRT_2;
        let (s0, c0) = sincos_2pi(0.0);
        assert_eq!((s0.to_bits(), c0), (0, 1.0));
        for k in 1..8u32 {
            let (s, c) = sincos_2pi(f64::from(k) / 8.0);
            let turn = f64::from(k) * std::f64::consts::FRAC_PI_4;
            // Quarter turns land on exact zeros and ones; odd eighths on
            // ±√2/2, within an ulp of the rounded constant.
            for (got, want) in [(s, turn.sin()), (c, turn.cos())] {
                if k % 2 == 0 {
                    assert_eq!(got.abs(), want.round().abs(), "k {k}: {got:e}");
                } else {
                    assert!(ulps(got.abs(), half_sqrt2) <= 1, "k {k}: {got:e}");
                }
                assert!(got == 0.0 || got.signum() == want.signum(), "k {k}: sign");
            }
        }
        let last = 1.0 - 1.0 / (1u64 << 53) as f64;
        let (s, c) = sincos_2pi(last);
        let (rs, rc) = reference_sincos_2pi(last);
        assert!(ulps(s, rs) <= 2 && ulps(c, rc) <= 2, "u = 1 − 2⁻⁵³");
        assert!(s < 0.0 && s > -1e-15 && c == 1.0);
    }

    #[test]
    fn exp_is_within_one_ulp_of_libm_on_the_non_positive_axis() {
        let mut worst = 0;
        let edges = [
            0.0,
            -0.0,
            -1e-300,
            -708.39,
            -708.4,
            -709.0,
            -745.0,
            -745.13,
            -745.133_219_101_941_1,
            -745.2,
            -746.0,
            -800.0,
        ];
        let grid = (0..=200_000).map(|i| -746.0 * f64::from(i) / 200_000.0);
        let near_zero = (0..=20_000).map(|i| -f64::from(i) * 1e-5);
        for x in edges.into_iter().chain(grid).chain(near_zero) {
            let (got, want) = (exp(x), x.exp());
            assert!(ulps(got, want) <= 1, "exp({x:e}) = {got:e}, libm {want:e}");
            worst = worst.max(ulps(got, want));
        }
        assert_eq!(exp(0.0), 1.0);
        assert_eq!(exp(-0.0), 1.0);
        assert_eq!(exp(f64::NEG_INFINITY).to_bits(), 0);
        assert!(exp(f64::NAN).is_nan());
        println!("exp: max {worst} ulp against libm");
    }

    #[test]
    fn sigmoid_matches_the_two_branch_form_and_its_limits() {
        for i in -4000..=4000 {
            let x = f64::from(i) * 0.01;
            let want = crate::activations::sigmoid(x);
            assert!(
                ulps(sigmoid(x), want) <= 2,
                "x {x}: {} vs {want}",
                sigmoid(x)
            );
        }
        assert_eq!(sigmoid(0.0), 0.5);
        assert_eq!(sigmoid(-0.0), 0.5);
        assert_eq!(sigmoid(f64::INFINITY), 1.0);
        assert_eq!(sigmoid(f64::NEG_INFINITY).to_bits(), 0);
        assert_eq!(sigmoid(800.0), 1.0);
        assert_eq!(sigmoid(-800.0).to_bits(), 0);
        assert!(sigmoid(f64::NAN).is_nan());
    }

    #[test]
    fn box_muller_drops_only_the_last_sine_of_an_odd_fill() {
        let (u1, u2) = ([0.3, 0.9], [0.1, 0.7]);
        let mut even = [0.0; 4];
        let mut odd = [0.0; 3];
        box_muller(&u1, &u2, &mut even);
        box_muller(&u1, &u2, &mut odd);
        assert_eq!(odd, even[..3]);
        let mag = (-2.0 * 0.3f64.ln()).sqrt();
        let turn = 2.0 * std::f64::consts::PI * 0.1;
        assert!((even[0] - mag * turn.cos()).abs() < 1e-15);
        assert!((even[1] - mag * turn.sin()).abs() < 1e-15);
    }
}
