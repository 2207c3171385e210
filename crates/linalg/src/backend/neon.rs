//! NEON kernel implementations (aarch64).
//!
//! The aarch64 sibling of the AVX2 module: all `unsafe` is confined
//! here, every function is `unsafe fn` with a `# Safety` contract, and
//! `unsafe_op_in_unsafe_fn` is denied. NEON is an architectural part of
//! AArch64, so support-detection is a compile-target question.
//!
//! Every kernel uses separate `vmulq_f64`/`vaddq_f64` — never
//! `vfmaq_f64`, whose single rounding would break bit-equality with
//! the scalar multiply-then-add — and keeps the scalar operand order so
//! NaN payload propagation matches. Lanes are independent elements
//! (element-wise kernels) or independent scalar accumulators (`dot2`),
//! exactly as in `crate::vector`. `dot16` and `dist_sq_2x16` run the
//! scalar loops on aarch64.
#![deny(unsafe_op_in_unsafe_fn)]

use core::arch::aarch64::{
    vaddq_f64, vdupq_n_f64, vgetq_lane_f64, vld1q_f64, vmulq_f64, vst1q_f64, vtrn1q_f64, vtrn2q_f64,
};

/// Two independent dot-product accumulators in one 128-bit register:
/// `(x . a, x . b)`, bitwise-identical to [`crate::vector::dot2`].
///
/// Lane `0` is `da`, lane `1` is `db`; per element the update is
/// `acc = acc + x[i] * [a[i], b[i]]` in strict `i` order.
///
/// # Safety
/// The caller must ensure `x.len() == a.len() == b.len()`.
#[target_feature(enable = "neon")]
unsafe fn dot2(x: &[f64], a: &[f64], b: &[f64]) -> (f64, f64) {
    let n = x.len();
    let mut acc = vdupq_n_f64(0.0);
    let mut i = 0;
    while i + 2 <= n {
        // SAFETY: i + 2 <= n == a.len() == b.len() bounds both loads.
        let (ra, rb) = unsafe { (vld1q_f64(a.as_ptr().add(i)), vld1q_f64(b.as_ptr().add(i))) };
        // 2x2 transpose: columns [a[i], b[i]] and [a[i+1], b[i+1]].
        let c0 = vtrn1q_f64(ra, rb);
        let c1 = vtrn2q_f64(ra, rb);
        acc = vaddq_f64(acc, vmulq_f64(vdupq_n_f64(x[i]), c0));
        acc = vaddq_f64(acc, vmulq_f64(vdupq_n_f64(x[i + 1]), c1));
        i += 2;
    }
    if i < n {
        let col = [a[i], b[i]];
        // SAFETY: `col` is a live 16-byte stack buffer.
        let cv = unsafe { vld1q_f64(col.as_ptr()) };
        acc = vaddq_f64(acc, vmulq_f64(vdupq_n_f64(x[i]), cv));
    }
    (vgetq_lane_f64::<0>(acc), vgetq_lane_f64::<1>(acc))
}

/// `y += alpha * x`, two lanes per step; bitwise-identical to
/// [`crate::vector::axpy`].
///
/// # Safety
/// The caller must ensure `x.len() == y.len()`.
#[target_feature(enable = "neon")]
unsafe fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    let n = y.len();
    let av = vdupq_n_f64(alpha);
    let mut i = 0;
    while i + 2 <= n {
        // SAFETY: i + 2 <= n == x.len() bounds both loads and the store.
        unsafe {
            let xv = vld1q_f64(x.as_ptr().add(i));
            let yv = vld1q_f64(y.as_ptr().add(i));
            vst1q_f64(y.as_mut_ptr().add(i), vaddq_f64(yv, vmulq_f64(av, xv)));
        }
        i += 2;
    }
    while i < n {
        y[i] += alpha * x[i];
        i += 1;
    }
}

/// `x *= alpha`, two lanes per step; bitwise-identical to
/// [`crate::vector::scale`].
///
/// # Safety
/// No preconditions beyond running on aarch64 (NEON is architectural).
#[target_feature(enable = "neon")]
unsafe fn scale(x: &mut [f64], alpha: f64) {
    let n = x.len();
    let av = vdupq_n_f64(alpha);
    let mut i = 0;
    while i + 2 <= n {
        // SAFETY: i + 2 <= n bounds the load and the store.
        unsafe {
            let xv = vld1q_f64(x.as_ptr().add(i));
            vst1q_f64(x.as_mut_ptr().add(i), vmulq_f64(xv, av));
        }
        i += 2;
    }
    while i < n {
        x[i] *= alpha;
        i += 1;
    }
}

/// `y = (y + alpha * x) * beta`, two lanes per step; bitwise-identical
/// to [`crate::vector::fused_axpy_scale`].
///
/// # Safety
/// The caller must ensure `x.len() == y.len()`.
#[target_feature(enable = "neon")]
unsafe fn fused_axpy_scale(y: &mut [f64], alpha: f64, x: &[f64], beta: f64) {
    let n = y.len();
    let av = vdupq_n_f64(alpha);
    let bv = vdupq_n_f64(beta);
    let mut i = 0;
    while i + 2 <= n {
        // SAFETY: i + 2 <= n == x.len() bounds both loads and the store.
        unsafe {
            let xv = vld1q_f64(x.as_ptr().add(i));
            let yv = vld1q_f64(y.as_ptr().add(i));
            let u = vaddq_f64(yv, vmulq_f64(av, xv));
            vst1q_f64(y.as_mut_ptr().add(i), vmulq_f64(u, bv));
        }
        i += 2;
    }
    while i < n {
        y[i] = (y[i] + alpha * x[i]) * beta;
        i += 1;
    }
}

// ---------------------------------------------------------------------
// Safe entry points. NEON is architectural on aarch64 (this module only
// compiles for that target), so the wrappers check slice lengths only;
// all `unsafe` stays inside this module.
// ---------------------------------------------------------------------

/// Safe [`dot2`]: checks lengths, then runs the kernel.
#[inline]
pub(super) fn dot2_checked(x: &[f64], a: &[f64], b: &[f64]) -> (f64, f64) {
    assert!(
        x.len() == a.len() && x.len() == b.len(),
        "dot2: length mismatch"
    );
    // SAFETY: NEON is architectural on aarch64; lengths asserted equal.
    unsafe { dot2(x, a, b) }
}

/// Safe [`axpy`]: checks lengths, then runs the kernel.
#[inline]
pub(super) fn axpy_checked(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    // SAFETY: NEON is architectural on aarch64; lengths asserted equal.
    unsafe { axpy(alpha, x, y) }
}

/// Safe [`scale`]: runs the kernel (no length precondition).
#[inline]
pub(super) fn scale_checked(x: &mut [f64], alpha: f64) {
    // SAFETY: NEON is architectural on aarch64; `scale` touches only `x`.
    unsafe { scale(x, alpha) }
}

/// Safe [`fused_axpy_scale`]: checks lengths, then runs the kernel.
#[inline]
pub(super) fn fused_axpy_scale_checked(y: &mut [f64], alpha: f64, x: &[f64], beta: f64) {
    assert_eq!(x.len(), y.len(), "fused_axpy_scale: length mismatch");
    // SAFETY: NEON is architectural on aarch64; lengths asserted equal.
    unsafe { fused_axpy_scale(y, alpha, x, beta) }
}
