//! AVX2 kernel implementations (x86-64).
//!
//! All `unsafe` in `advsgm-linalg` lives in this module (and its NEON
//! sibling). Every function is `unsafe fn` with a `# Safety` contract
//! — the dispatcher in [`super`] checks CPU support and slice lengths
//! before calling — and `unsafe_op_in_unsafe_fn` is denied, so each
//! pointer dereference carries its own justification.
//!
//! Every kernel (`dot2`, `dot16`, `axpy`, `fused_axpy_scale`,
//! `dist_sq_2x16`, `box_muller`, `sigmoid_of_sum`) enables **only**
//! `avx2`: with no FMA in the feature set and no fast-math flags, each
//! lane performs the exact scalar operation sequence (separate
//! `vmulpd`/`vaddpd`, IEEE-754 exactly-rounded per op), so results are
//! bitwise-identical to `crate::vector` and `crate::math`. Operand order
//! is kept identical to the scalar code (`mul(x, row)`, `add(acc, prod)`)
//! so even NaN payload propagation — x86 returns the first NaN operand —
//! matches.
#![deny(unsafe_op_in_unsafe_fn)]

use core::arch::x86_64::{
    __m256d, __m256i, _mm256_add_epi64, _mm256_add_pd, _mm256_and_si256, _mm256_blendv_pd,
    _mm256_castpd_si256, _mm256_castsi256_pd, _mm256_cmp_pd, _mm256_cvtepi32_epi64,
    _mm256_cvtepi32_pd, _mm256_cvttpd_epi32, _mm256_div_pd, _mm256_loadu_pd, _mm256_max_pd,
    _mm256_mul_pd, _mm256_or_si256, _mm256_permute2f128_pd, _mm256_set1_epi64x, _mm256_set1_pd,
    _mm256_set_pd, _mm256_setzero_pd, _mm256_slli_epi64, _mm256_sqrt_pd, _mm256_srli_epi64,
    _mm256_storeu_pd, _mm256_sub_epi64, _mm256_sub_pd, _mm256_unpackhi_pd, _mm256_unpacklo_pd,
    _mm256_xor_si256, _mm_add_pd, _mm_loadu_pd, _mm_mul_pd, _mm_set1_pd, _mm_set_pd,
    _mm_setzero_pd, _mm_storeu_pd, _mm_unpackhi_pd, _mm_unpacklo_pd, _CMP_GE_OQ,
};

use crate::math::{
    self, C1, C2, C3, C4, C5, C6, EXP_MIN, FRAC_PI_4, INV_LN2, LG1, LG2, LG3, LG4, LG5, LG6, LG7,
    LN2_HI, LN2_LO, LN_OFFSET, LN_REDUCE, MANTISSA, P1, P2, P3, P4, P5, ROUND_SHIFT, S1, S2, S3,
    S4, S5, S6, SIGN, TWO52_BITS, TWO52_PLUS_BIAS,
};

/// Two independent dot-product accumulators packed into one 128-bit
/// lane pair: `(x . a, x . b)`, bitwise-identical to [`crate::vector::dot2`].
///
/// Lane `0` is `da`, lane `1` is `db`. Per element the update is
/// `acc = acc + x[i] * [a[i], b[i]]` — exactly the scalar
/// `da += xi * ai; db += xi * bi` per lane, in the same `i` order.
///
/// # Safety
/// The caller must ensure AVX2 is available and
/// `x.len() == a.len() == b.len()`.
#[target_feature(enable = "avx2")]
unsafe fn dot2(x: &[f64], a: &[f64], b: &[f64]) -> (f64, f64) {
    let n = x.len();
    let mut acc = _mm_setzero_pd();
    let mut i = 0;
    while i + 2 <= n {
        // SAFETY: i + 2 <= n == a.len() == b.len() bounds both loads.
        let (ra, rb) = unsafe {
            (
                _mm_loadu_pd(a.as_ptr().add(i)),
                _mm_loadu_pd(b.as_ptr().add(i)),
            )
        };
        // 2x2 transpose: columns [a[i], b[i]] and [a[i+1], b[i+1]].
        let c0 = _mm_unpacklo_pd(ra, rb);
        let c1 = _mm_unpackhi_pd(ra, rb);
        acc = _mm_add_pd(acc, _mm_mul_pd(_mm_set1_pd(x[i]), c0));
        acc = _mm_add_pd(acc, _mm_mul_pd(_mm_set1_pd(x[i + 1]), c1));
        i += 2;
    }
    if i < n {
        // _mm_set_pd lists lanes high-to-low: lanes are [a[i], b[i]].
        let col = _mm_set_pd(b[i], a[i]);
        acc = _mm_add_pd(acc, _mm_mul_pd(_mm_set1_pd(x[i]), col));
    }
    let mut out = [0.0f64; 2];
    // SAFETY: `out` is a properly aligned, writable 16-byte buffer.
    unsafe { _mm_storeu_pd(out.as_mut_ptr(), acc) };
    (out[0], out[1])
}

/// Sixteen independent dot-product accumulators in four `__m256d`s:
/// `out[l] = x . rows[l]`, bitwise-identical to
/// [`crate::vector::dot16`].
///
/// Accumulator `g` holds rows `4g..4g + 4`. Elements are consumed four at
/// a time: per group, a 4x4 transpose turns four contiguous row loads into
/// per-`i` columns `[r0[i], r1[i], r2[i], r3[i]]`, and the accumulator
/// takes them in strict `i` order — each lane sees exactly the scalar
/// operation sequence. The four groups' add chains are independent, so
/// they overlap in the pipeline instead of each waiting on the last add.
///
/// # Safety
/// The caller must ensure AVX2 is available and every row has
/// `x.len()` elements.
#[target_feature(enable = "avx2")]
unsafe fn dot16(x: &[f64], rows: &[&[f64]; 16]) -> [f64; 16] {
    let n = x.len();
    let mut acc = [_mm256_setzero_pd(); 4];
    let mut i = 0;
    while i + 4 <= n {
        let xs = [
            _mm256_set1_pd(x[i]),
            _mm256_set1_pd(x[i + 1]),
            _mm256_set1_pd(x[i + 2]),
            _mm256_set1_pd(x[i + 3]),
        ];
        for (acc, group) in acc.iter_mut().zip(rows.chunks_exact(4)) {
            // SAFETY: i + 4 <= n == every row's length bounds all four
            // 32-byte row loads.
            let (ra, rb, rc, rd) = unsafe {
                (
                    _mm256_loadu_pd(group[0].as_ptr().add(i)),
                    _mm256_loadu_pd(group[1].as_ptr().add(i)),
                    _mm256_loadu_pd(group[2].as_ptr().add(i)),
                    _mm256_loadu_pd(group[3].as_ptr().add(i)),
                )
            };
            // 4x4 transpose to columns ct = [a[i+t], b[i+t], c[i+t], d[i+t]].
            let t0 = _mm256_unpacklo_pd(ra, rb); // [a0, b0, a2, b2]
            let t1 = _mm256_unpackhi_pd(ra, rb); // [a1, b1, a3, b3]
            let t2 = _mm256_unpacklo_pd(rc, rd); // [c0, d0, c2, d2]
            let t3 = _mm256_unpackhi_pd(rc, rd); // [c1, d1, c3, d3]
            let c0 = _mm256_permute2f128_pd::<0x20>(t0, t2);
            let c1 = _mm256_permute2f128_pd::<0x20>(t1, t3);
            let c2 = _mm256_permute2f128_pd::<0x31>(t0, t2);
            let c3 = _mm256_permute2f128_pd::<0x31>(t1, t3);
            *acc = _mm256_add_pd(*acc, _mm256_mul_pd(xs[0], c0));
            *acc = _mm256_add_pd(*acc, _mm256_mul_pd(xs[1], c1));
            *acc = _mm256_add_pd(*acc, _mm256_mul_pd(xs[2], c2));
            *acc = _mm256_add_pd(*acc, _mm256_mul_pd(xs[3], c3));
        }
        i += 4;
    }
    while i < n {
        let xv = _mm256_set1_pd(x[i]);
        for (acc, group) in acc.iter_mut().zip(rows.chunks_exact(4)) {
            // _mm256_set_pd lists lanes high-to-low: [a[i], b[i], c[i], d[i]].
            let col = _mm256_set_pd(group[3][i], group[2][i], group[1][i], group[0][i]);
            *acc = _mm256_add_pd(*acc, _mm256_mul_pd(xv, col));
        }
        i += 1;
    }
    let mut out = [0.0f64; 16];
    for (g, &acc) in acc.iter().enumerate() {
        // SAFETY: each store writes lanes 4g..4g + 4 of a 16-lane array.
        unsafe { _mm256_storeu_pd(out.as_mut_ptr().add(4 * g), acc) };
    }
    out
}

/// Squared distances from two rows to the 16 centroids of one packed
/// block (`super::CentroidPanels`): `out[i][4p + l]` is
/// `‖x_i − c‖²` for centroid `l` of panel `p`, bitwise-identical to
/// [`crate::vector::dist_sq`].
///
/// Per coordinate `k` it broadcasts `x0[k]` and `x1[k]`, loads the four
/// panels' coordinate `k` (one centroid per lane, no transpose), and
/// updates eight independent accumulators by `acc + (x − c)·(x − c)` —
/// each lane the scalar chain in the scalar order.
///
/// # Safety
/// The caller must ensure AVX2 is available, `x1.len() == x0.len()` and
/// `block.len() == 16 * x0.len()`.
#[target_feature(enable = "avx2")]
unsafe fn dist_sq_2x16(block: &[f64], x0: &[f64], x1: &[f64]) -> [[f64; 16]; 2] {
    let dim = x0.len();
    let mut acc0 = [_mm256_setzero_pd(); 4];
    let mut acc1 = [_mm256_setzero_pd(); 4];
    for (k, (&a, &b)) in x0.iter().zip(x1).enumerate() {
        let (xa, xb) = (_mm256_set1_pd(a), _mm256_set1_pd(b));
        for p in 0..4 {
            // SAFETY: p <= 3 and k < dim, so the load ends at
            // (p·dim + k)·4 + 4 <= 16·dim == block.len().
            let c = unsafe { _mm256_loadu_pd(block.as_ptr().add((p * dim + k) * 4)) };
            let da = _mm256_sub_pd(xa, c);
            acc0[p] = _mm256_add_pd(acc0[p], _mm256_mul_pd(da, da));
            let db = _mm256_sub_pd(xb, c);
            acc1[p] = _mm256_add_pd(acc1[p], _mm256_mul_pd(db, db));
        }
    }
    let mut out = [[0.0f64; 16]; 2];
    for p in 0..4 {
        // SAFETY: each store writes lanes 4p..4p + 4 of a 16-lane array.
        unsafe {
            _mm256_storeu_pd(out[0].as_mut_ptr().add(4 * p), acc0[p]);
            _mm256_storeu_pd(out[1].as_mut_ptr().add(4 * p), acc1[p]);
        }
    }
    out
}

/// `y += alpha * x`, four lanes per step; bitwise-identical to
/// [`crate::vector::axpy`] (per element: multiply, then add — no FMA).
///
/// # Safety
/// The caller must ensure AVX2 is available and `x.len() == y.len()`.
#[target_feature(enable = "avx2")]
unsafe fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    let n = y.len();
    let av = _mm256_set1_pd(alpha);
    let mut i = 0;
    while i + 4 <= n {
        // SAFETY: i + 4 <= n == x.len() bounds both loads and the store.
        unsafe {
            let xv = _mm256_loadu_pd(x.as_ptr().add(i));
            let yv = _mm256_loadu_pd(y.as_ptr().add(i));
            let prod = _mm256_mul_pd(av, xv);
            _mm256_storeu_pd(y.as_mut_ptr().add(i), _mm256_add_pd(yv, prod));
        }
        i += 4;
    }
    while i < n {
        y[i] += alpha * x[i];
        i += 1;
    }
}

/// `y = (y + alpha * x) * beta`, four lanes per step; bitwise-identical
/// to [`crate::vector::fused_axpy_scale`] (per element: multiply, add,
/// multiply — the exact scalar chain, no FMA contraction).
///
/// # Safety
/// The caller must ensure AVX2 is available and `x.len() == y.len()`.
#[target_feature(enable = "avx2")]
unsafe fn fused_axpy_scale(y: &mut [f64], alpha: f64, x: &[f64], beta: f64) {
    let n = y.len();
    let av = _mm256_set1_pd(alpha);
    let bv = _mm256_set1_pd(beta);
    let mut i = 0;
    while i + 4 <= n {
        // SAFETY: i + 4 <= n == x.len() bounds both loads and the store.
        unsafe {
            let xv = _mm256_loadu_pd(x.as_ptr().add(i));
            let yv = _mm256_loadu_pd(y.as_ptr().add(i));
            let t = _mm256_mul_pd(av, xv);
            let u = _mm256_add_pd(yv, t);
            _mm256_storeu_pd(y.as_mut_ptr().add(i), _mm256_mul_pd(u, bv));
        }
        i += 4;
    }
    while i < n {
        y[i] = (y[i] + alpha * x[i]) * beta;
        i += 1;
    }
}

// ---------------------------------------------------------------------
// The fake kernels: `crate::math`'s functions four lanes at a time. Each
// lane runs the scalar function's operations in its order, with the
// scalar code's operand order; the integer steps on the bits are the
// same 64-bit operations, and a branch-free scalar select is a blend.
// The short names below for the arithmetic intrinsics keep each lane
// form line-for-line comparable with its scalar form.
// ---------------------------------------------------------------------

#[inline]
#[target_feature(enable = "avx2")]
fn splat(x: f64) -> __m256d {
    _mm256_set1_pd(x)
}

#[inline]
#[target_feature(enable = "avx2")]
fn splat_bits(x: u64) -> __m256i {
    _mm256_set1_epi64x(x as i64)
}

#[inline]
#[target_feature(enable = "avx2")]
fn add(a: __m256d, b: __m256d) -> __m256d {
    _mm256_add_pd(a, b)
}

#[inline]
#[target_feature(enable = "avx2")]
fn sub(a: __m256d, b: __m256d) -> __m256d {
    _mm256_sub_pd(a, b)
}

#[inline]
#[target_feature(enable = "avx2")]
fn mul(a: __m256d, b: __m256d) -> __m256d {
    _mm256_mul_pd(a, b)
}

#[inline]
#[target_feature(enable = "avx2")]
fn div(a: __m256d, b: __m256d) -> __m256d {
    _mm256_div_pd(a, b)
}

/// `x`'s bits XOR `mask`.
#[inline]
#[target_feature(enable = "avx2")]
fn xor_bits(x: __m256d, mask: __m256i) -> __m256d {
    _mm256_castsi256_pd(_mm256_xor_si256(_mm256_castpd_si256(x), mask))
}

/// `crate::math::ln` on four lanes.
#[inline]
#[target_feature(enable = "avx2")]
fn ln_x4(x: __m256d) -> __m256d {
    let ix = _mm256_add_epi64(_mm256_castpd_si256(x), splat_bits(LN_REDUCE));
    let k_bits = _mm256_or_si256(splat_bits(TWO52_BITS), _mm256_srli_epi64::<52>(ix));
    let k = sub(_mm256_castsi256_pd(k_bits), splat(TWO52_PLUS_BIAS));
    let m_bits = _mm256_add_epi64(
        _mm256_and_si256(ix, splat_bits(MANTISSA)),
        splat_bits(LN_OFFSET),
    );
    let f = sub(_mm256_castsi256_pd(m_bits), splat(1.0));
    let hfsq = mul(mul(splat(0.5), f), f);
    let s = div(f, add(splat(2.0), f));
    let z = mul(s, s);
    let w = mul(z, z);
    let t1 = mul(
        w,
        add(splat(LG2), mul(w, add(splat(LG4), mul(w, splat(LG6))))),
    );
    let t2 = mul(
        z,
        add(
            splat(LG1),
            mul(
                w,
                add(splat(LG3), mul(w, add(splat(LG5), mul(w, splat(LG7))))),
            ),
        ),
    );
    let r = add(t2, t1);
    let head = add(mul(s, add(hfsq, r)), mul(k, splat(LN2_LO)));
    add(add(sub(head, hfsq), f), mul(k, splat(LN2_HI)))
}

/// `crate::math::sin_pi4` on four lanes.
#[inline]
#[target_feature(enable = "avx2")]
fn sin_pi4_x4(a: __m256d) -> __m256d {
    let z = mul(a, a);
    let w = mul(z, z);
    let r = add(
        add(splat(S2), mul(z, add(splat(S3), mul(z, splat(S4))))),
        mul(mul(z, w), add(splat(S5), mul(z, splat(S6)))),
    );
    let v = mul(z, a);
    add(a, mul(v, add(splat(S1), mul(z, r))))
}

/// `crate::math::cos_pi4` on four lanes.
#[inline]
#[target_feature(enable = "avx2")]
fn cos_pi4_x4(a: __m256d) -> __m256d {
    let z = mul(a, a);
    let w = mul(z, z);
    let r = add(
        mul(z, add(splat(C1), mul(z, add(splat(C2), mul(z, splat(C3)))))),
        mul(
            mul(w, w),
            add(splat(C4), mul(z, add(splat(C5), mul(z, splat(C6))))),
        ),
    );
    let hz = mul(splat(0.5), z);
    let w = sub(splat(1.0), hz);
    add(w, add(sub(sub(splat(1.0), w), hz), mul(z, r)))
}

/// `crate::math::sincos_2pi` on four lanes: `(sin, cos)`.
#[inline]
#[target_feature(enable = "avx2")]
fn sincos_2pi_x4(u: __m256d) -> (__m256d, __m256d) {
    let t = mul(splat(8.0), u);
    let octant = _mm256_cvttpd_epi32(t);
    let g = sub(t, _mm256_cvtepi32_pd(octant));
    let n = _mm256_cvtepi32_epi64(octant);
    let odd = _mm256_castsi256_pd(_mm256_slli_epi64::<63>(n));
    let a = mul(
        _mm256_blendv_pd(g, sub(splat(1.0), g), odd),
        splat(FRAC_PI_4),
    );
    let (s, c) = (sin_pi4_x4(a), cos_pi4_x4(a));
    let gray = _mm256_xor_si256(n, _mm256_srli_epi64::<1>(n));
    let swap = _mm256_castsi256_pd(_mm256_slli_epi64::<63>(gray));
    let sign = splat_bits(SIGN);
    let sin_sign = _mm256_and_si256(_mm256_slli_epi64::<61>(n), sign);
    let cos_sign = _mm256_and_si256(_mm256_slli_epi64::<62>(gray), sign);
    let sin = xor_bits(_mm256_blendv_pd(s, c, swap), sin_sign);
    let cos = xor_bits(_mm256_blendv_pd(c, s, swap), cos_sign);
    (sin, cos)
}

/// `crate::math::exp` on four lanes. `max(EXP_MIN, x)` returns its
/// second operand unless the first is greater, so a NaN passes through
/// as in the scalar clamp.
#[inline]
#[target_feature(enable = "avx2")]
fn exp_x4(x: __m256d) -> __m256d {
    let x = _mm256_max_pd(splat(EXP_MIN), x);
    let shifted = add(mul(x, splat(INV_LN2)), splat(ROUND_SHIFT));
    let k = sub(shifted, splat(ROUND_SHIFT));
    let hi = sub(x, mul(k, splat(LN2_HI)));
    let lo = mul(k, splat(LN2_LO));
    let r = sub(hi, lo);
    let rr = mul(r, r);
    let poly = add(
        splat(P1),
        mul(
            rr,
            add(
                splat(P2),
                mul(
                    rr,
                    add(splat(P3), mul(rr, add(splat(P4), mul(rr, splat(P5))))),
                ),
            ),
        ),
    );
    let c = sub(r, mul(rr, poly));
    let y = add(
        splat(1.0),
        add(sub(div(mul(r, c), sub(splat(2.0), c)), lo), hi),
    );
    let k = _mm256_sub_epi64(
        _mm256_castpd_si256(shifted),
        splat_bits(ROUND_SHIFT.to_bits()),
    );
    let h = _mm256_srli_epi64::<1>(_mm256_add_epi64(k, splat_bits(2048)));
    let lo_scale = _mm256_slli_epi64::<52>(_mm256_sub_epi64(h, splat_bits(1)));
    let hi_scale =
        _mm256_slli_epi64::<52>(_mm256_sub_epi64(_mm256_add_epi64(k, splat_bits(2047)), h));
    mul(
        mul(y, _mm256_castsi256_pd(lo_scale)),
        _mm256_castsi256_pd(hi_scale),
    )
}

/// `crate::math::sigmoid` on four lanes.
#[inline]
#[target_feature(enable = "avx2")]
fn sigmoid_x4(x: __m256d) -> __m256d {
    let neg_abs = _mm256_castsi256_pd(_mm256_or_si256(_mm256_castpd_si256(x), splat_bits(SIGN)));
    let e = exp_x4(neg_abs);
    let non_negative = _mm256_cmp_pd::<_CMP_GE_OQ>(x, _mm256_setzero_pd());
    let num = _mm256_blendv_pd(e, splat(1.0), non_negative);
    div(num, add(splat(1.0), e))
}

/// The latent stage, four pairs per step: bitwise-identical to
/// `crate::math::box_muller`. The four cosine normals and the four sine
/// normals are interleaved back into pair order on the store; pairs past
/// the last whole group of four, and an odd `out`'s last pair, take the
/// scalar form.
///
/// # Safety
/// The caller must ensure AVX2 is available and
/// `u1.len() == u2.len() == ⌈out.len()/2⌉`.
#[target_feature(enable = "avx2")]
unsafe fn box_muller(u1: &[f64], u2: &[f64], out: &mut [f64]) {
    let whole = out.len() / 2;
    let mut p = 0;
    while p + 4 <= whole {
        // SAFETY: p + 4 <= whole <= u1.len() == u2.len() bounds both loads.
        let (a, b) = unsafe {
            (
                _mm256_loadu_pd(u1.as_ptr().add(p)),
                _mm256_loadu_pd(u2.as_ptr().add(p)),
            )
        };
        let mag = _mm256_sqrt_pd(mul(splat(-2.0), ln_x4(a)));
        let (sin, cos) = sincos_2pi_x4(b);
        let (zc, zs) = (mul(mag, cos), mul(mag, sin));
        let even = _mm256_unpacklo_pd(zc, zs); // [c0, s0, c2, s2]
        let odd = _mm256_unpackhi_pd(zc, zs); // [c1, s1, c3, s3]
                                              // SAFETY: 2p + 8 <= 2·whole <= out.len() bounds both stores.
        unsafe {
            let at = out.as_mut_ptr().add(2 * p);
            _mm256_storeu_pd(at, _mm256_permute2f128_pd::<0x20>(even, odd));
            _mm256_storeu_pd(at.add(4), _mm256_permute2f128_pd::<0x31>(even, odd));
        }
        p += 4;
    }
    math::box_muller(&u1[p..], &u2[p..], &mut out[2 * p..]);
}

/// The sigmoid stage, four values per step: `z[i] = φ(theta[i] + z[i])`,
/// bitwise-identical to `crate::math::sigmoid_of_sum`.
///
/// # Safety
/// The caller must ensure AVX2 is available and `theta.len() == z.len()`.
#[target_feature(enable = "avx2")]
unsafe fn sigmoid_of_sum(theta: &[f64], z: &mut [f64]) {
    let n = z.len();
    let mut i = 0;
    while i + 4 <= n {
        // SAFETY: i + 4 <= n == theta.len() bounds both loads and the store.
        unsafe {
            let t = _mm256_loadu_pd(theta.as_ptr().add(i));
            let zv = _mm256_loadu_pd(z.as_ptr().add(i));
            _mm256_storeu_pd(z.as_mut_ptr().add(i), sigmoid_x4(add(t, zv)));
        }
        i += 4;
    }
    math::sigmoid_of_sum(&theta[i..], &mut z[i..]);
}

// ---------------------------------------------------------------------
// Safe entry points. The dispatcher calls only these: each one verifies
// the CPU feature (std caches the detection in an atomic) and the slice
// lengths the unsafe kernels rely on, so the `unsafe` stays inside this
// module.
// ---------------------------------------------------------------------

/// Asserts AVX2 availability — the safe wrappers' feature gate.
#[inline]
fn require_avx2() {
    assert!(
        std::arch::is_x86_feature_detected!("avx2"),
        "avx2 backend selected on a host without AVX2"
    );
}

/// Safe [`dot2`]: checks feature and lengths, then runs the kernel.
#[inline]
pub(super) fn dot2_checked(x: &[f64], a: &[f64], b: &[f64]) -> (f64, f64) {
    require_avx2();
    assert!(
        x.len() == a.len() && x.len() == b.len(),
        "dot2: length mismatch"
    );
    // SAFETY: AVX2 verified and lengths asserted equal just above.
    unsafe { dot2(x, a, b) }
}

/// Safe [`dot16`]: checks feature and lengths, then runs the kernel.
#[inline]
pub(super) fn dot16_checked(x: &[f64], rows: &[&[f64]; 16]) -> [f64; 16] {
    require_avx2();
    assert!(
        rows.iter().all(|row| row.len() == x.len()),
        "dot16: length mismatch"
    );
    // SAFETY: AVX2 verified and lengths asserted equal just above.
    unsafe { dot16(x, rows) }
}

/// Safe [`dist_sq_2x16`]: checks feature and lengths, then runs the
/// kernel.
#[inline]
pub(super) fn dist_sq_2x16_checked(block: &[f64], x0: &[f64], x1: &[f64]) -> [[f64; 16]; 2] {
    require_avx2();
    assert!(
        x1.len() == x0.len() && block.len() == 16 * x0.len(),
        "dist_sq_2x16: length mismatch"
    );
    // SAFETY: AVX2 verified and lengths asserted just above.
    unsafe { dist_sq_2x16(block, x0, x1) }
}

/// Safe [`axpy`]: checks feature and lengths, then runs the kernel.
#[inline]
pub(super) fn axpy_checked(alpha: f64, x: &[f64], y: &mut [f64]) {
    require_avx2();
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    // SAFETY: AVX2 verified and lengths asserted equal just above.
    unsafe { axpy(alpha, x, y) }
}

/// Safe [`fused_axpy_scale`]: checks feature and lengths, then runs the
/// kernel.
#[inline]
pub(super) fn fused_axpy_scale_checked(y: &mut [f64], alpha: f64, x: &[f64], beta: f64) {
    require_avx2();
    assert_eq!(x.len(), y.len(), "fused_axpy_scale: length mismatch");
    // SAFETY: AVX2 verified and lengths asserted equal just above.
    unsafe { fused_axpy_scale(y, alpha, x, beta) }
}

/// Safe [`box_muller`]: checks feature and lengths, then runs the kernel.
#[inline]
pub(super) fn box_muller_checked(u1: &[f64], u2: &[f64], out: &mut [f64]) {
    require_avx2();
    assert!(
        u1.len() == u2.len() && u1.len() == out.len().div_ceil(2),
        "box_muller: length mismatch"
    );
    // SAFETY: AVX2 verified and lengths asserted just above.
    unsafe { box_muller(u1, u2, out) }
}

/// Safe [`sigmoid_of_sum`]: checks feature and lengths, then runs the
/// kernel.
#[inline]
pub(super) fn sigmoid_of_sum_checked(theta: &[f64], z: &mut [f64]) {
    require_avx2();
    assert_eq!(theta.len(), z.len(), "sigmoid_of_sum: length mismatch");
    // SAFETY: AVX2 verified and lengths asserted equal just above.
    unsafe { sigmoid_of_sum(theta, z) }
}
