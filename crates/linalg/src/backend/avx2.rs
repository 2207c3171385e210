//! AVX2 kernel implementations (x86-64).
//!
//! All `unsafe` in `advsgm-linalg` lives in this module (and its NEON
//! sibling). Every function is `unsafe fn` with a `# Safety` contract
//! — the dispatcher in [`super`] checks CPU support and slice lengths
//! before calling — and `unsafe_op_in_unsafe_fn` is denied, so each
//! pointer dereference carries its own justification.
//!
//! Bitwise-tier functions (`dot2`, `dot16`, `axpy`, `scale`,
//! `fused_axpy_scale`, `dist_sq_2x16`) enable **only** `avx2`: with no FMA in the
//! feature set and no fast-math flags, each lane performs the exact
//! scalar operation sequence (separate `vmulpd`/`vaddpd`, IEEE-754
//! exactly-rounded per op), so results are bitwise-identical to
//! `crate::vector`. Operand order is kept identical to the scalar code
//! (`mul(x, row)`, `add(acc, prod)`) so even NaN payload propagation —
//! x86 returns the first NaN operand — matches.
//!
//! The relaxed-tier `dot_relaxed` additionally enables `fma` and
//! reassociates: four independent lane accumulators, fused
//! multiply-add, fixed-order horizontal sum. See
//! [`super::RelaxedKernels`].
#![deny(unsafe_op_in_unsafe_fn)]

use core::arch::x86_64::{
    __m256d, _mm256_add_pd, _mm256_castpd256_pd128, _mm256_extractf128_pd, _mm256_fmadd_pd,
    _mm256_loadu_pd, _mm256_mul_pd, _mm256_permute2f128_pd, _mm256_set1_pd, _mm256_set_pd,
    _mm256_setzero_pd, _mm256_storeu_pd, _mm256_sub_pd, _mm256_unpackhi_pd, _mm256_unpacklo_pd,
    _mm_add_pd, _mm_add_sd, _mm_cvtsd_f64, _mm_loadu_pd, _mm_mul_pd, _mm_set1_pd, _mm_set_pd,
    _mm_setzero_pd, _mm_storeu_pd, _mm_unpackhi_pd, _mm_unpacklo_pd,
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

/// `x *= alpha`, four lanes per step; bitwise-identical to
/// [`crate::vector::scale`].
///
/// # Safety
/// The caller must ensure AVX2 is available.
#[target_feature(enable = "avx2")]
unsafe fn scale(x: &mut [f64], alpha: f64) {
    let n = x.len();
    let av = _mm256_set1_pd(alpha);
    let mut i = 0;
    while i + 4 <= n {
        // SAFETY: i + 4 <= n bounds the load and the store.
        unsafe {
            let xv = _mm256_loadu_pd(x.as_ptr().add(i));
            _mm256_storeu_pd(x.as_mut_ptr().add(i), _mm256_mul_pd(xv, av));
        }
        i += 4;
    }
    while i < n {
        x[i] *= alpha;
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

/// Relaxed dot product: four independent lane accumulators, fused
/// multiply-add, fixed-order horizontal reduction
/// `((l0 + l2) + (l1 + l3)) + tail`. Deterministic, but **not**
/// bitwise-equal to the scalar sum — see [`super::RelaxedKernels::dot`]
/// for the error bound.
///
/// # Safety
/// The caller must ensure AVX2 **and FMA** are available and
/// `x.len() == y.len()`.
#[target_feature(enable = "avx2,fma")]
unsafe fn dot_relaxed(x: &[f64], y: &[f64]) -> f64 {
    let n = x.len();
    let mut acc: __m256d = _mm256_setzero_pd();
    let mut i = 0;
    while i + 4 <= n {
        // SAFETY: i + 4 <= n == y.len() bounds both loads.
        unsafe {
            let xv = _mm256_loadu_pd(x.as_ptr().add(i));
            let yv = _mm256_loadu_pd(y.as_ptr().add(i));
            acc = _mm256_fmadd_pd(xv, yv, acc);
        }
        i += 4;
    }
    let mut tail = 0.0f64;
    while i < n {
        tail = x[i].mul_add(y[i], tail);
        i += 1;
    }
    let lo = _mm256_castpd256_pd128(acc);
    let hi = _mm256_extractf128_pd::<1>(acc);
    let s2 = _mm_add_pd(lo, hi); // [l0 + l2, l1 + l3]
    let lanes = _mm_add_sd(s2, _mm_unpackhi_pd(s2, s2));
    _mm_cvtsd_f64(lanes) + tail
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

/// Safe [`scale`]: checks the feature, then runs the kernel.
#[inline]
pub(super) fn scale_checked(x: &mut [f64], alpha: f64) {
    require_avx2();
    // SAFETY: AVX2 verified just above; `scale` reads/writes only `x`.
    unsafe { scale(x, alpha) }
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

/// Safe [`dot_relaxed`]: checks AVX2+FMA and lengths, then runs the
/// kernel.
#[inline]
pub(super) fn dot_relaxed_checked(x: &[f64], y: &[f64]) -> f64 {
    require_avx2();
    assert!(
        std::arch::is_x86_feature_detected!("fma"),
        "relaxed avx2 kernels selected on a host without FMA"
    );
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    // SAFETY: AVX2 and FMA verified and lengths asserted equal above.
    unsafe { dot_relaxed(x, y) }
}
