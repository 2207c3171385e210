//! Golden-value tests for the DPSGD per-pair gradient clip
//! (`vector::clip_l2`, Eq. 5 / Theorem 6, the clip the trainer runs):
//! exact rescale factors, monotonicity in the threshold, and NaN-freedom
//! at extreme magnitudes.

use advsgm_linalg::vector::clip_l2;

fn norm2(xs: &[f64]) -> f64 {
    xs.iter().map(|v| v * v).sum::<f64>().sqrt()
}

#[test]
fn clip_golden_345_triangle() {
    // ||(3,4)|| = 5; clipping to C=1 applies factor exactly 0.2.
    let mut g = vec![3.0, 4.0];
    let f = clip_l2(&mut g, 1.0);
    assert!((f - 0.2).abs() < 1e-15, "f={f}");
    assert!((g[0] - 0.6).abs() < 1e-15);
    assert!((g[1] - 0.8).abs() < 1e-15);
}

#[test]
fn clip_inside_ball_is_exact_identity() {
    let mut g = vec![0.6, 0.8]; // norm exactly 1.0
    let f = clip_l2(&mut g, 1.0);
    assert_eq!(f, 1.0);
    assert_eq!(g, vec![0.6, 0.8]);
}

#[test]
fn clip_monotone_in_threshold() {
    // Larger C never shrinks the clipped norm.
    let base = vec![7.0, -24.0]; // norm 25
    let mut prev = 0.0;
    for &c in &[0.5, 1.0, 5.0, 24.9, 25.0, 100.0] {
        let mut g = base.clone();
        clip_l2(&mut g, c);
        let n = norm2(&g);
        assert!(n >= prev - 1e-12, "norm not monotone at C={c}");
        assert!(n <= c + 1e-12, "norm {n} exceeds C={c}");
        prev = n;
    }
    // At and beyond the true norm, clipping is a no-op.
    let mut g = base.clone();
    clip_l2(&mut g, 100.0);
    assert_eq!(g, base);
}

#[test]
fn clip_no_nan_at_extreme_inputs() {
    // Large but square-summable magnitudes.
    let mut g = vec![1e150, -1e150];
    let f = clip_l2(&mut g, 1.0);
    assert!(!f.is_nan());
    assert!((norm2(&g) - 1.0).abs() < 1e-9, "norm={}", norm2(&g));
    // Magnitudes whose squares overflow to infinity: factor degenerates to
    // 0 but must never produce NaN in the gradient.
    let mut h = vec![1e200, 1e200, -1e200];
    let f = clip_l2(&mut h, 1.0);
    assert!(!f.is_nan());
    assert!(h.iter().all(|v| !v.is_nan()), "h={h:?}");
    // Zero gradient is untouched.
    let mut z = vec![0.0; 4];
    assert_eq!(clip_l2(&mut z, 1.0), 1.0);
    assert!(z.iter().all(|&v| v == 0.0));
}
