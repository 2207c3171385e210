//! Parameter initialisation.
//!
//! Two details matter for reproducing the paper:
//!
//! 1. Skip-gram embedding matrices are initialised with small uniform values
//!    (the word2vec/LINE convention `U(-0.5/r, 0.5/r)`), and
//! 2. the skip-gram parameters are **row-normalised** so that the gradient
//!    clipping constant can be fixed at `C = 1` (Section VI-A: "We normalize
//!    the parameters of skip-gram module in AdvSGM to ensure that C = 1").

use rand::Rng;

use crate::matrix::DenseMatrix;
use crate::vector;

/// Xavier/Glorot uniform initialisation: `U(-sqrt(6/(fan_in+fan_out)), +...)`.
pub fn xavier_uniform(rng: &mut impl Rng, rows: usize, cols: usize) -> DenseMatrix {
    let bound = (6.0 / (rows + cols) as f64).sqrt();
    DenseMatrix::from_fn(rows, cols, |_, _| rng.gen_range(-bound..bound))
}

/// word2vec-style embedding initialisation: `U(-0.5/cols, 0.5/cols)`.
pub fn embedding_uniform(rng: &mut impl Rng, rows: usize, cols: usize) -> DenseMatrix {
    let bound = 0.5 / cols as f64;
    DenseMatrix::from_fn(rows, cols, |_, _| rng.gen_range(-bound..bound))
}

/// Uniform initialisation over a caller-specified symmetric interval.
pub fn uniform_symmetric(rng: &mut impl Rng, rows: usize, cols: usize, bound: f64) -> DenseMatrix {
    assert!(bound > 0.0, "uniform bound must be positive");
    DenseMatrix::from_fn(rows, cols, |_, _| rng.gen_range(-bound..bound))
}

/// Normalises every row of `m` to unit L2 norm in place (zero rows are left
/// untouched). This is the paper's `C = 1` normalisation.
pub fn normalize_rows(m: &mut DenseMatrix) {
    for i in 0..m.rows() {
        vector::normalize(m.row_mut(i));
    }
}

/// Maximum row L2 norm of `m` (0.0 for an empty matrix).
pub fn max_row_norm(m: &DenseMatrix) -> f64 {
    m.rows_iter().map(vector::norm2).fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded;

    #[test]
    fn xavier_values_within_bound() {
        let mut rng = seeded(1);
        let m = xavier_uniform(&mut rng, 10, 30);
        let bound = (6.0 / 40.0_f64).sqrt();
        assert!(m.as_slice().iter().all(|v| v.abs() <= bound));
    }

    #[test]
    fn embedding_uniform_small_values() {
        let mut rng = seeded(2);
        let m = embedding_uniform(&mut rng, 5, 128);
        assert!(m.as_slice().iter().all(|v| v.abs() <= 0.5 / 128.0));
        assert!(m.as_slice().iter().any(|&v| v != 0.0));
    }

    #[test]
    fn normalize_rows_gives_unit_rows() {
        let mut rng = seeded(3);
        let mut m = xavier_uniform(&mut rng, 6, 9);
        normalize_rows(&mut m);
        for row in m.rows_iter() {
            assert!((vector::norm2(row) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn normalize_rows_skips_zero_rows() {
        let mut m = DenseMatrix::zeros(2, 3);
        m.row_mut(0).copy_from_slice(&[3.0, 0.0, 4.0]);
        normalize_rows(&mut m);
        assert!((vector::norm2(m.row(0)) - 1.0).abs() < 1e-12);
        assert_eq!(m.row(1), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn max_row_norm_reports_largest() {
        let mut m = DenseMatrix::zeros(2, 2);
        m.row_mut(0).copy_from_slice(&[3.0, 4.0]);
        m.row_mut(1).copy_from_slice(&[1.0, 0.0]);
        assert_eq!(max_row_norm(&m), 5.0);
    }
}
