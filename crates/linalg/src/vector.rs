//! BLAS-1 style kernels over `f64` slices.
//!
//! These are the hot inner loops of skip-gram training: every positive or
//! negative pair costs a handful of dot products and axpy updates over
//! `r`-dimensional rows. All functions assert matching lengths in debug
//! builds and rely on iterator zips so the compiler can elide bounds checks.
//!
//! Every reduction here folds from `+0.0`, in ascending index order, like
//! the independent accumulators of [`dot2`]/[`dot16`] and every SIMD lane in
//! [`crate::backend`]. (`Iterator::sum` starts from `-0.0`, so a sum of
//! negative zeros, or of nothing, would come out `-0.0` and disagree with
//! those kernels on the sign of zero.)

/// Dot product `x . y`.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    x.iter().zip(y).fold(0.0, |acc, (a, b)| acc + a * b)
}

/// `y += alpha * x` (the classic axpy update).
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `x *= alpha` in place.
#[inline]
pub fn scale(x: &mut [f64], alpha: f64) {
    for v in x.iter_mut() {
        *v *= alpha;
    }
}

/// Element-wise `out = x - y` into a fresh vector.
#[inline]
pub fn sub(x: &[f64], y: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), y.len(), "sub: length mismatch");
    x.iter().zip(y).map(|(a, b)| a - b).collect()
}

/// Squared Euclidean norm `||x||^2`.
#[inline]
pub fn norm2_sq(x: &[f64]) -> f64 {
    x.iter().fold(0.0, |acc, v| acc + v * v)
}

/// Euclidean norm `||x||`.
#[inline]
pub fn norm2(x: &[f64]) -> f64 {
    norm2_sq(x).sqrt()
}

/// Squared Euclidean distance `||x - y||^2`.
#[inline]
pub fn dist_sq(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dist_sq: length mismatch");
    x.iter()
        .zip(y)
        .fold(0.0, |acc, (a, b)| acc + (a - b) * (a - b))
}

/// DPSGD gradient clipping (Abadi et al. 2016, Eq. (5) of the AdvSGM paper):
/// rescales `x` in place to `x / max(1, ||x||_2 / c)` and returns the factor
/// that was applied (1.0 when no clipping occurred).
///
/// After the call `||x||_2 <= c` holds up to floating-point rounding.
#[inline]
pub fn clip_l2(x: &mut [f64], c: f64) -> f64 {
    assert!(c > 0.0, "clip_l2: threshold must be positive, got {c}");
    let norm = norm2(x);
    if norm > c {
        let factor = c / norm;
        scale(x, factor);
        factor
    } else {
        1.0
    }
}

/// Normalises `x` to unit L2 norm in place. Zero vectors are left unchanged.
/// Returns the original norm.
#[inline]
pub fn normalize(x: &mut [f64]) -> f64 {
    let norm = norm2(x);
    if norm > 0.0 {
        scale(x, 1.0 / norm);
    }
    norm
}

/// Cosine similarity between `x` and `y`; 0.0 if either vector is zero.
#[inline]
pub fn cosine(x: &[f64], y: &[f64]) -> f64 {
    let nx = norm2(x);
    let ny = norm2(y);
    if nx == 0.0 || ny == 0.0 {
        0.0
    } else {
        dot(x, y) / (nx * ny)
    }
}

/// Element-wise Hadamard product `out = x (.) y`.
#[inline]
pub fn hadamard(x: &[f64], y: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), y.len(), "hadamard: length mismatch");
    x.iter().zip(y).map(|(a, b)| a * b).collect()
}

/// `y += x` element-wise.
#[inline]
pub fn add_assign(y: &mut [f64], x: &[f64]) {
    axpy(1.0, x, y);
}

/// Fused `y = (y + alpha * x) * beta` in one pass.
///
/// This is the per-row *apply* step of the trainer's noisy batch update:
/// add the row's share of the batch noise (`alpha = touch count`,
/// `x = noise vector`) and normalise by the touch count
/// (`beta = 1/count`) without re-traversing the row. Each element goes
/// through exactly the operations `(y_i + alpha * x_i) * beta`, i.e. the
/// same floating-point sequence as [`axpy`] followed by [`scale`], so
/// swapping the two-pass form for this kernel is bitwise-neutral.
#[inline]
pub fn fused_axpy_scale(y: &mut [f64], alpha: f64, x: &[f64], beta: f64) {
    assert_eq!(x.len(), y.len(), "fused_axpy_scale: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi = (*yi + alpha * xi) * beta;
    }
}

/// Two dot products against a shared left operand in one pass:
/// returns `(x . a, x . b)`.
///
/// The discriminator's adversarial argument and the generator's score both
/// need `v . partner + v . noise` for the same `v`; fusing the two
/// traversals halves the loads of `x`. The accumulators are independent,
/// so each result is bitwise-identical to the corresponding [`dot`].
#[inline]
pub fn dot2(x: &[f64], a: &[f64], b: &[f64]) -> (f64, f64) {
    assert_eq!(x.len(), a.len(), "dot2: length mismatch (a)");
    assert_eq!(x.len(), b.len(), "dot2: length mismatch (b)");
    let mut da = 0.0;
    let mut db = 0.0;
    for ((&xi, &ai), &bi) in x.iter().zip(a).zip(b) {
        da += xi * ai;
        db += xi * bi;
    }
    (da, db)
}

/// Scaled copy `out = alpha * x` into a fresh vector — the shape of every
/// closed-form skip-gram pair gradient (`c * partner`).
#[inline]
pub fn scaled(alpha: f64, x: &[f64]) -> Vec<f64> {
    x.iter().map(|&v| alpha * v).collect()
}

/// Sixteen dot products against a shared left operand in one pass:
/// `out[l] = x . rows[l]`.
///
/// The serving scan's kernel shape: scoring one query against many rows,
/// sixteen rows per traversal of `x`. Each of the sixteen accumulators
/// starts at `+0.0` and adds `x[k] * rows[l][k]` in ascending `k`, with
/// the multiply and the add rounded separately, so lane `l` is bitwise
/// [`dot`]`(x, rows[l])` and the top-k paths can mix the two kernels
/// without changing a returned neighbor. This is the scalar reference of
/// [`crate::backend::dot16`].
///
/// # Panics
/// Panics if a row's length differs from `x`'s.
#[inline]
pub fn dot16(x: &[f64], rows: &[&[f64]; 16]) -> [f64; 16] {
    for row in rows {
        assert_eq!(x.len(), row.len(), "dot16: length mismatch");
    }
    let mut out = [0.0; 16];
    for (k, &xk) in x.iter().enumerate() {
        for (acc, row) in out.iter_mut().zip(rows) {
            *acc += xk * row[k];
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_matches_manual() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    fn dot_empty_is_zero() {
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn reductions_of_nothing_or_negative_zeros_are_positive_zero() {
        let zeros: [f64; 0] = [];
        for got in [
            dot(&zeros, &zeros),
            dot(&[-1.0, -2.0], &[0.0, 0.0]),
            norm2_sq(&zeros),
            dist_sq(&zeros, &zeros),
        ] {
            assert_eq!(got.to_bits(), 0.0f64.to_bits());
        }
        let (da, db) = dot2(&[-1.0], &[0.0], &[-0.0]);
        assert_eq!(da.to_bits(), dot(&[-1.0], &[0.0]).to_bits());
        assert_eq!(db.to_bits(), dot(&[-1.0], &[-0.0]).to_bits());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 9.0]);
    }

    #[test]
    fn scale_in_place() {
        let mut x = vec![1.0, -2.0];
        scale(&mut x, -3.0);
        assert_eq!(x, vec![-3.0, 6.0]);
    }

    #[test]
    fn norms_agree() {
        let x = [3.0, 4.0];
        assert_eq!(norm2_sq(&x), 25.0);
        assert_eq!(norm2(&x), 5.0);
    }

    #[test]
    fn clip_leaves_short_vectors_alone() {
        let mut x = vec![0.3, 0.4];
        let f = clip_l2(&mut x, 1.0);
        assert_eq!(f, 1.0);
        assert_eq!(x, vec![0.3, 0.4]);
    }

    #[test]
    fn clip_rescales_long_vectors_to_threshold() {
        let mut x = vec![3.0, 4.0];
        let f = clip_l2(&mut x, 1.0);
        assert!((f - 0.2).abs() < 1e-12);
        assert!((norm2(&x) - 1.0).abs() < 1e-12);
        // Direction is preserved.
        assert!((x[0] / x[1] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn clip_boundary_exactly_at_threshold() {
        let mut x = vec![1.0, 0.0];
        assert_eq!(clip_l2(&mut x, 1.0), 1.0);
        assert_eq!(x, vec![1.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "threshold must be positive")]
    fn clip_rejects_nonpositive_threshold() {
        clip_l2(&mut [1.0], 0.0);
    }

    #[test]
    fn normalize_unit_norm() {
        let mut x = vec![3.0, 4.0];
        let n = normalize(&mut x);
        assert_eq!(n, 5.0);
        assert!((norm2(&x) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn normalize_zero_vector_is_noop() {
        let mut x = vec![0.0, 0.0];
        assert_eq!(normalize(&mut x), 0.0);
        assert_eq!(x, vec![0.0, 0.0]);
    }

    #[test]
    fn cosine_of_parallel_vectors_is_one() {
        assert!((cosine(&[1.0, 2.0], &[2.0, 4.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cosine_of_orthogonal_vectors_is_zero() {
        assert!(cosine(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-12);
    }

    #[test]
    fn cosine_with_zero_vector_is_zero() {
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
    }

    #[test]
    fn dist_sq_matches_norm_of_difference() {
        let x = [1.0, 2.0, 3.0];
        let y = [4.0, 6.0, 3.0];
        assert_eq!(dist_sq(&x, &y), norm2_sq(&sub(&x, &y)));
    }

    #[test]
    fn hadamard_elementwise() {
        assert_eq!(hadamard(&[1.0, 2.0], &[3.0, 4.0]), vec![3.0, 8.0]);
    }

    #[test]
    fn sub_is_elementwise() {
        assert_eq!(sub(&[1.0, 2.0], &[0.5, -0.5]), vec![0.5, 2.5]);
    }

    #[test]
    fn fused_axpy_scale_bitwise_matches_two_pass() {
        // The trainer relies on this kernel being a drop-in for
        // axpy-then-scale; check bit equality on awkward values.
        let y0: Vec<f64> = (0..64).map(|i| (i as f64 * 0.37).sin() * 1e3).collect();
        let x: Vec<f64> = (0..64).map(|i| (i as f64 * 0.11).cos() / 3.0).collect();
        let (alpha, beta) = (7.0, 1.0 / 7.0);
        let mut two_pass = y0.clone();
        axpy(alpha, &x, &mut two_pass);
        scale(&mut two_pass, beta);
        let mut fused = y0;
        fused_axpy_scale(&mut fused, alpha, &x, beta);
        for (a, b) in fused.iter().zip(&two_pass) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn dot2_bitwise_matches_two_dots() {
        let x: Vec<f64> = (0..128).map(|i| (i as f64).sqrt() - 5.0).collect();
        let a: Vec<f64> = (0..128).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        let b: Vec<f64> = (0..128).map(|i| (i as f64 * 0.9).tan()).collect();
        let (da, db) = dot2(&x, &a, &b);
        assert_eq!(da.to_bits(), dot(&x, &a).to_bits());
        assert_eq!(db.to_bits(), dot(&x, &b).to_bits());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot2_mismatch_panics() {
        dot2(&[1.0], &[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn scaled_copy() {
        assert_eq!(scaled(2.0, &[1.0, -3.0]), vec![2.0, -6.0]);
    }

    #[test]
    fn dot16_bitwise_matches_sixteen_dots() {
        let x: Vec<f64> = (0..96).map(|i| (i as f64 * 0.7).sin() * 3.0).collect();
        let rows: Vec<Vec<f64>> = (0..16)
            .map(|r| (0..96).map(|i| ((i + r * 31) as f64).cos() / 7.0).collect())
            .collect();
        let lanes: [&[f64]; 16] = std::array::from_fn(|l| rows[l].as_slice());
        let got = dot16(&x, &lanes);
        for (g, row) in got.iter().zip(&rows) {
            assert_eq!(g.to_bits(), dot(&x, row).to_bits());
        }
        // Negative zeros sum to +0.0 in every lane, as in `dot`.
        let zero_lanes = [&[0.0][..]; 16];
        for g in dot16(&[-1.0], &zero_lanes) {
            assert_eq!(g.to_bits(), 0.0f64.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot16_mismatch_panics() {
        let mut lanes = [&[1.0][..]; 16];
        lanes[15] = &[1.0, 2.0];
        dot16(&[1.0], &lanes);
    }
}
