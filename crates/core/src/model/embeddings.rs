//! The discriminator's parameter set `Theta_D = {W_in, W_out}`.
//!
//! Skip-gram keeps two vectors per node: the *input* (node) vector `v_i` in
//! `W_in` and the *output* (context) vector `v_j` in `W_out` (Definition 3
//! of the paper: `v_i in W_in`, `v_j in W_out`). The paper releases and
//! evaluates the node vectors only ("We only employ the node vectors for
//! our experiments"), which [`Embeddings::into_node_vectors`] returns.

use advsgm_linalg::init::{embedding_uniform, normalize_rows};
use advsgm_linalg::DenseMatrix;
use rand::Rng;

/// Applies a descent step `row -= eta * grad`, optionally projecting the
/// row back into the unit ball.
///
/// This is *the* embedding update: [`Embeddings::step_input`],
/// [`Embeddings::step_output`], and the out-of-core engine's partition
/// slots all call it, so every engine applies bit-identical arithmetic.
#[inline]
pub(crate) fn step_row(row: &mut [f64], eta: f64, grad: &[f64], project: bool) {
    for (p, g) in row.iter_mut().zip(grad) {
        *p -= eta * g;
    }
    if project {
        advsgm_linalg::vector::clip_l2(row, 1.0);
    }
}

/// The pair of skip-gram embedding matrices.
#[derive(Debug, Clone)]
pub struct Embeddings {
    w_in: DenseMatrix,
    w_out: DenseMatrix,
}

impl Embeddings {
    /// Initialises both matrices with the word2vec-style uniform law and
    /// row-normalises them (the paper's `C = 1` normalisation).
    pub fn init(num_nodes: usize, dim: usize, rng: &mut impl Rng) -> Self {
        let mut w_in = embedding_uniform(rng, num_nodes, dim);
        let mut w_out = embedding_uniform(rng, num_nodes, dim);
        normalize_rows(&mut w_in);
        normalize_rows(&mut w_out);
        Self { w_in, w_out }
    }

    /// Rebuilds the pair from previously trained matrices (checkpoint
    /// resume). Shapes must match; the session layer validates them
    /// against the graph and configuration before calling.
    pub(crate) fn from_parts(w_in: DenseMatrix, w_out: DenseMatrix) -> Self {
        debug_assert_eq!(w_in.shape(), w_out.shape(), "mismatched embedding shapes");
        Self { w_in, w_out }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.w_in.rows()
    }

    /// Embedding dimension `r`.
    pub fn dim(&self) -> usize {
        self.w_in.cols()
    }

    /// Input (node) vector of node `i`.
    #[inline]
    pub fn input(&self, i: usize) -> &[f64] {
        self.w_in.row(i)
    }

    /// Output (context) vector of node `j`.
    #[inline]
    pub fn output(&self, j: usize) -> &[f64] {
        self.w_out.row(j)
    }

    /// Applies a descent step `W_in[i] -= eta * grad`, optionally projecting
    /// the row back into the unit ball.
    pub fn step_input(&mut self, i: usize, eta: f64, grad: &[f64], project: bool) {
        step_row(self.w_in.row_mut(i), eta, grad, project);
    }

    /// Applies a descent step to `W_out[j]`.
    pub fn step_output(&mut self, j: usize, eta: f64, grad: &[f64], project: bool) {
        step_row(self.w_out.row_mut(j), eta, grad, project);
    }

    /// Read-only view of `W_in`.
    pub fn w_in(&self) -> &DenseMatrix {
        &self.w_in
    }

    /// Read-only view of `W_out`.
    pub fn w_out(&self) -> &DenseMatrix {
        &self.w_out
    }

    /// Consumes the pair, returning the node-vector matrix `W_in` — the
    /// embedding the paper releases for downstream tasks.
    pub fn into_node_vectors(self) -> DenseMatrix {
        self.w_in
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use advsgm_linalg::rng::seeded;
    use advsgm_linalg::vector::norm2;

    #[test]
    fn init_rows_are_unit_norm() {
        let mut rng = seeded(1);
        let e = Embeddings::init(10, 8, &mut rng);
        for i in 0..10 {
            assert!((norm2(e.input(i)) - 1.0).abs() < 1e-9);
            assert!((norm2(e.output(i)) - 1.0).abs() < 1e-9);
        }
        assert_eq!(e.num_nodes(), 10);
        assert_eq!(e.dim(), 8);
    }

    #[test]
    fn in_and_out_matrices_differ() {
        let mut rng = seeded(2);
        let e = Embeddings::init(4, 4, &mut rng);
        assert_ne!(e.input(0), e.output(0));
    }

    #[test]
    fn step_moves_against_gradient() {
        let mut rng = seeded(3);
        let mut e = Embeddings::init(3, 2, &mut rng);
        let before = e.input(1).to_vec();
        let grad = vec![1.0, -1.0];
        e.step_input(1, 0.1, &grad, false);
        let after = e.input(1);
        assert!((after[0] - (before[0] - 0.1)).abs() < 1e-12);
        assert!((after[1] - (before[1] + 0.1)).abs() < 1e-12);
    }

    #[test]
    fn projection_caps_row_norm() {
        let mut rng = seeded(4);
        let mut e = Embeddings::init(2, 2, &mut rng);
        // A huge step would blow past the ball without projection.
        e.step_input(0, 10.0, &[-5.0, -5.0], true);
        assert!(norm2(e.input(0)) <= 1.0 + 1e-12);
        e.step_output(1, 10.0, &[-5.0, -5.0], false);
        assert!(norm2(e.output(1)) > 1.0);
    }

    #[test]
    fn node_vectors_are_w_in() {
        let mut rng = seeded(5);
        let e = Embeddings::init(3, 2, &mut rng);
        let w_in = e.w_in().clone();
        assert_eq!(e.into_node_vectors(), w_in);
    }
}
