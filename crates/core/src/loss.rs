//! Loss evaluation (Eqs. 2, 13, 16/24) and the Fig. 2 metric.
//!
//! Training never materialises these losses (the gradients in [`crate::grad`]
//! are closed-form), but Fig. 2's weight-setting study and the trainer's
//! per-epoch diagnostics evaluate `|L^D_Nov|` directly: the replay engine
//! computes each pair's `PositiveTerms` and negative dot, then folds them
//! in one fixed order (`fold_novel_loss`).

use advsgm_linalg::vector;

use crate::sigmoid::SigmoidKind;
use crate::weighting::WeightMode;

// What only the one-stream evaluation, `novel_loss_batch`, needs.
#[cfg(test)]
use {
    crate::model::{Embeddings, GeneratorPair},
    advsgm_graph::{sampling::negative::NegativePair, Edge},
    advsgm_linalg::rng::gaussian_vec,
    rand::Rng,
};

/// `-ln(1 - S(arg))` — one adversarial discriminator term (Eq. 13).
pub fn adversarial_term_loss(kind: SigmoidKind, arg: f64) -> f64 {
    let s = kind.value(arg);
    -(1.0 - s).ln()
}

/// The dot-product arguments one positive pair contributes to `L_Nov`:
/// the skip-gram score plus the two noisy adversarial arguments (Eq. 13).
///
/// Splitting the evaluation into these pure scalars and the order-fixed
/// fold in [`fold_novel_loss`] is what lets the replay engine compute them
/// on any thread, from rows in place or gathered, and still reproduce the
/// one-stream evaluation's floating-point result bit for bit.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PositiveTerms {
    /// `v_i . v_j`.
    pub dot_ij: f64,
    /// `v_i . fake_j + n1 . v_i`.
    pub arg1: f64,
    /// `fake_i . v_j + n2 . v_j`.
    pub arg2: f64,
    /// Whether the pair is a foe edge: its skip-gram term is the repelling
    /// `-ln S(-dot)` instead of `-ln S(dot)` (arXiv 2512.00307 §IV).
    pub foe: bool,
}

/// Computes one positive pair's [`PositiveTerms`] — each scalar with the
/// exact operation order the in-place evaluation uses.
pub(crate) fn positive_terms(
    vi: &[f64],
    vj: &[f64],
    fake_j: &[f64],
    fake_i: &[f64],
    n1: &[f64],
    n2: &[f64],
    foe: bool,
) -> PositiveTerms {
    PositiveTerms {
        dot_ij: vector::dot(vi, vj),
        arg1: vector::dot(vi, fake_j) + vector::dot(n1, vi),
        arg2: vector::dot(fake_i, vj) + vector::dot(n2, vj),
        foe,
    }
}

/// The dot product one negative sample contributes, `v_n . v_i`: the
/// skip-gram negative term is `-ln S(-(v_n . v_i))` (Eq. 2).
pub(crate) fn negative_dot(vi: &[f64], vn: &[f64]) -> f64 {
    vector::dot(vn, vi)
}

/// Folds per-pair terms into the batch-mean `L_Nov` in the canonical
/// accumulation order: skip-gram and adversarial sums are kept separate,
/// positives are folded first (in slice order), then negatives, then
/// `(sgm + adv) / |positives|`. The skip-gram part is Eq. 2's objective:
/// `-ln S(v_i . v_j)` per positive, `-ln S(-(v_n . v_i))` per negative.
pub(crate) fn fold_novel_loss(
    kind: SigmoidKind,
    mode: WeightMode,
    positives: &[PositiveTerms],
    negative_dots: &[f64],
) -> f64 {
    assert!(!positives.is_empty(), "need at least one positive pair");
    let mut sgm = 0.0;
    let mut adv = 0.0;
    for t in positives {
        // Foe pairs contribute the repelling skip-gram term; the friend
        // branch is the exact pre-sign expression (bitwise-identical for
        // sign-blind batches, whose terms are all friend).
        sgm += if t.foe {
            -kind.log_value(-t.dot_ij)
        } else {
            -kind.log_value(t.dot_ij)
        };
        adv += mode.lambda(kind, t.arg1) * adversarial_term_loss(kind, t.arg1);
        adv += mode.lambda(kind, t.arg2) * adversarial_term_loss(kind, t.arg2);
    }
    for &d in negative_dots {
        sgm += -kind.log_value(-d);
    }
    (sgm + adv) / positives.len() as f64
}

/// Evaluates the novel discriminator loss `L_Nov` (Eq. 24) on one batch:
/// the skip-gram part over `positives`/`negatives` plus the weighted
/// adversarial parts with fresh fake neighbors and noise draws
/// (`noise_std = C * sigma`; pass 0 for the no-DP configuration).
///
/// `signs` carries the positives' foe flags, aligned by index; empty
/// means "all friend" (the sign-blind evaluation, bitwise-identical to
/// the pre-sign loss).
///
/// Returns the batch-mean loss; Fig. 2 reports its absolute value. The
/// literal one-stream evaluation: the sequential engine (the test oracle)
/// runs it, and the replay engine reproduces it bit for bit.
#[cfg(test)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn novel_loss_batch(
    kind: SigmoidKind,
    mode: WeightMode,
    emb: &Embeddings,
    gens: &GeneratorPair,
    positives: &[Edge],
    signs: &[bool],
    negatives: &[NegativePair],
    noise_std: f64,
    rng: &mut impl Rng,
) -> f64 {
    assert!(!positives.is_empty(), "need at least one positive pair");
    let r = emb.dim();
    // Per-batch noise vectors, as in the trainer (zero when noise_std = 0).
    let n1 = gaussian_vec(rng, noise_std.max(0.0), r);
    let n2 = gaussian_vec(rng, noise_std.max(0.0), r);
    let mut terms = Vec::with_capacity(positives.len());
    for (idx, e) in positives.iter().enumerate() {
        let vi = emb.input(e.u().index());
        let vj = emb.output(e.v().index());
        // Adversarial terms with fresh fakes (Eq. 13).
        let fake_j = gens.for_i.generate(e.v().index(), rng).v;
        let fake_i = gens.for_j.generate(e.u().index(), rng).v;
        let foe = signs.get(idx).copied().unwrap_or(false);
        terms.push(positive_terms(vi, vj, &fake_j, &fake_i, &n1, &n2, foe));
    }
    let neg_dots: Vec<f64> = negatives
        .iter()
        .map(|p| negative_dot(emb.input(p.source.index()), emb.output(p.negative.index())))
        .collect();
    fold_novel_loss(kind, mode, &terms, &neg_dots)
}

#[cfg(test)]
mod tests {
    use super::*;
    use advsgm_graph::NodeId;
    use advsgm_linalg::rng::seeded;

    fn fixture() -> (Embeddings, GeneratorPair) {
        let mut rng = seeded(7);
        (
            Embeddings::init(10, 8, &mut rng),
            GeneratorPair::new(10, 8, &mut rng),
        )
    }

    #[test]
    fn adversarial_term_nonnegative() {
        for kind in [SigmoidKind::Plain, SigmoidKind::paper_constrained()] {
            for &x in &[-5.0, 0.0, 5.0] {
                assert!(adversarial_term_loss(kind, x) >= 0.0);
            }
        }
    }

    #[test]
    fn batch_loss_finite_and_deterministic_under_seed() {
        let (emb, gens) = fixture();
        let kind = SigmoidKind::paper_constrained();
        let pos = vec![Edge::from_raw(0, 1), Edge::from_raw(2, 3)];
        let negs = vec![NegativePair {
            source: NodeId(0),
            negative: NodeId(5),
        }];
        let l1 = novel_loss_batch(
            kind,
            WeightMode::InverseS,
            &emb,
            &gens,
            &pos,
            &[],
            &negs,
            5.0,
            &mut seeded(11),
        );
        let l2 = novel_loss_batch(
            kind,
            WeightMode::InverseS,
            &emb,
            &gens,
            &pos,
            &[],
            &negs,
            5.0,
            &mut seeded(11),
        );
        assert!(l1.is_finite());
        assert_eq!(l1, l2);
    }

    #[test]
    fn weight_modes_give_different_losses() {
        let (emb, gens) = fixture();
        let kind = SigmoidKind::paper_constrained();
        let pos = vec![Edge::from_raw(0, 1)];
        let negs = vec![];
        let l_half = novel_loss_batch(
            kind,
            WeightMode::Fixed(0.5),
            &emb,
            &gens,
            &pos,
            &[],
            &negs,
            0.0,
            &mut seeded(3),
        );
        let l_one = novel_loss_batch(
            kind,
            WeightMode::Fixed(1.0),
            &emb,
            &gens,
            &pos,
            &[],
            &negs,
            0.0,
            &mut seeded(3),
        );
        let l_inv = novel_loss_batch(
            kind,
            WeightMode::InverseS,
            &emb,
            &gens,
            &pos,
            &[],
            &negs,
            0.0,
            &mut seeded(3),
        );
        assert!(l_half < l_one, "larger lambda must weigh adversarial more");
        assert!(l_one < l_inv, "1/S exceeds 1 for the constrained sigmoid");
    }

    #[test]
    fn foe_flag_flips_the_skipgram_term() {
        let (emb, gens) = fixture();
        let kind = SigmoidKind::paper_constrained();
        let pos = vec![Edge::from_raw(0, 1)];
        let friend = novel_loss_batch(
            kind,
            WeightMode::InverseS,
            &emb,
            &gens,
            &pos,
            &[false],
            &[],
            0.0,
            &mut seeded(5),
        );
        let foe = novel_loss_batch(
            kind,
            WeightMode::InverseS,
            &emb,
            &gens,
            &pos,
            &[true],
            &[],
            0.0,
            &mut seeded(5),
        );
        // Same draws, only the skip-gram term differs: friend uses
        // -ln S(dot), foe uses -ln S(-dot).
        let dot = vector::dot(emb.input(0), emb.output(1));
        let expected_delta = -kind.log_value(-dot) - -kind.log_value(dot);
        assert!((foe - friend - expected_delta).abs() < 1e-12);
        // An explicit all-friend slice matches the empty (sign-blind) one.
        let blind = novel_loss_batch(
            kind,
            WeightMode::InverseS,
            &emb,
            &gens,
            &pos,
            &[],
            &[],
            0.0,
            &mut seeded(5),
        );
        assert_eq!(friend, blind);
    }

    #[test]
    #[should_panic(expected = "at least one positive")]
    fn empty_batch_rejected() {
        let (emb, gens) = fixture();
        novel_loss_batch(
            SigmoidKind::Plain,
            WeightMode::InverseS,
            &emb,
            &gens,
            &[],
            &[],
            &[],
            0.0,
            &mut seeded(1),
        );
    }
}
