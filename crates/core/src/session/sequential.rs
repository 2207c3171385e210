//! The sequential [`Engine`]: Algorithm 3's steps run literally on one
//! interleaved RNG stream, on one thread. It compiles only under
//! `cfg(test)`, as the oracle the trainer's unit tests hold the replay
//! engine to, bit for bit.
//!
//! This is the literal Algorithm-3 step semantics the repo started from:
//! one `SmallRng` (the continuation of the init stream) drives sampling,
//! fake-neighbor generation, and noise draws in program order, so the
//! whole trajectory is a pure function of the seed. The discriminator
//! update implements Theorem 6 literally: per pair the released direction
//! is `clip(dL_sgm/dv + v')` and a per-batch noise vector
//! `N(0, (C sigma)^2 I)` rides along each summand (Eqs. 22–23), with the
//! per-row touch-count normalisation of DESIGN.md §5.

use std::collections::HashMap;

use advsgm_graph::Graph;
use advsgm_linalg::rng::{gaussian_vec, rng_state};
use advsgm_linalg::{backend, vector};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::error::CoreError;
use crate::loss::novel_loss_batch;
use crate::sampler::{BatchProvider, DiscBatch};
use crate::session::{
    accumulate, apply_noisy_updates, clipped_pair_grads, gradient_noise_std, Engine, EngineKind,
    EngineStreams, PairCtx, PairFakes, SessionCore,
};
use crate::variants::ModelVariant;
use crate::weighting::WeightMode;

/// Single-threaded step execution on one stream: the replay engine's
/// oracle.
pub(crate) struct SequentialEngine {
    /// Algorithm-2 batch provisioning.
    provider: BatchProvider,
    /// The one RNG stream: init-stream continuation, interleaving
    /// sampling, fakes, and noise in program order.
    rng: SmallRng,
    /// The negative half of a sampled iteration, buffered between the two
    /// `next_batch` calls of one discriminator iteration (both batches are
    /// drawn together so the RNG order matches `sample_disc_iteration`).
    pending_neg: Option<DiscBatch>,
}

impl SequentialEngine {
    /// Wraps a provider and the post-init RNG stream.
    pub(crate) fn new(provider: BatchProvider, rng: SmallRng) -> Self {
        Self {
            provider,
            rng,
            pending_neg: None,
        }
    }
}

impl Engine for SequentialEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Sequential
    }

    fn threads(&self) -> usize {
        1
    }

    fn next_batch(&mut self, graph: &Graph) -> Result<DiscBatch, CoreError> {
        match self.pending_neg.take() {
            Some(neg) => Ok(neg),
            None => {
                let (pos, neg) = self.provider.sample_disc_iteration(graph, &mut self.rng)?;
                self.pending_neg = Some(neg);
                Ok(pos)
            }
        }
    }

    /// One discriminator update (Algorithm 3 line 8) over a batch.
    fn disc_update(
        &mut self,
        core: &mut SessionCore,
        _graph: &Graph,
        batch: &DiscBatch,
        _next_in_phase: bool,
    ) -> Result<(), CoreError> {
        let r = core.cfg.dim;
        let variant = core.cfg.variant;
        let clip = core.cfg.clip;
        // Per-batch shared noise vectors (Theorem 6's N_{D,1}, N_{D,2}).
        let noise_std = gradient_noise_std(&core.cfg);
        let n_in = gaussian_vec(&mut self.rng, noise_std, r);
        let n_out = gaussian_vec(&mut self.rng, noise_std, r);

        // Accumulate (sum of clipped per-pair grads, touch count) per row.
        let mut acc_in: HashMap<usize, (Vec<f64>, usize)> = HashMap::new();
        let mut acc_out: HashMap<usize, (Vec<f64>, usize)> = HashMap::new();
        let count = batch.pairs.len();
        debug_assert!(count > 0, "empty batch");

        // For the adversarial variants, sample all fake neighbors up front
        // and (for AdvSGM) compute the batch-mean fakes: the augment uses
        // the *centered* fake `v' - mean(v')` as a control variate, so the
        // common component of the generator output (which would drift every
        // touched row identically and crush the skip-gram signal inside the
        // clip) cancels, while the per-node structure the generator learned
        // passes through. Centering subtracts a pair-independent constant,
        // so Theorem 6's sensitivity/noise argument is unchanged.
        let adversarial = variant.is_adversarial();
        let mut fakes_j: Vec<Vec<f64>> = Vec::new();
        let mut fakes_i: Vec<Vec<f64>> = Vec::new();
        let mut mean_j = vec![0.0; r];
        let mut mean_i = vec![0.0; r];
        if adversarial {
            for &(i, j) in &batch.pairs {
                let fj = core.gens.for_i.generate(j, &mut self.rng).v;
                let fi = core.gens.for_j.generate(i, &mut self.rng).v;
                vector::add_assign(&mut mean_j, &fj);
                vector::add_assign(&mut mean_i, &fi);
                fakes_j.push(fj);
                fakes_i.push(fi);
            }
            vector::scale(&mut mean_j, 1.0 / count as f64);
            vector::scale(&mut mean_i, 1.0 / count as f64);
        }

        for (idx, &(i, j)) in batch.pairs.iter().enumerate() {
            let pair_fakes = adversarial.then(|| PairFakes {
                fake_j: &fakes_j[idx],
                fake_i: &fakes_i[idx],
                mean_j: &mean_j,
                mean_i: &mean_i,
            });
            let (gi, gj) = clipped_pair_grads(
                core.kind,
                variant,
                clip,
                PairCtx::of(batch, idx),
                core.emb.input(i),
                core.emb.output(j),
                pair_fakes,
            );
            accumulate(&mut acc_in, i, gi);
            accumulate(&mut acc_out, j, gj);
        }

        // Apply noisy updates with the per-row touch-count normalisation
        // (DESIGN.md §5): signal and each row's noise share rescale
        // identically, so the privacy analysis is untouched. The tiled
        // helper changes only the order across independent rows.
        let eta = core.cfg.eta_d;
        let project = core.cfg.project_rows && variant != ModelVariant::Sgm;
        apply_noisy_updates(acc_in, &n_in, |i, g| {
            core.emb.step_input(i, eta, g, project)
        });
        apply_noisy_updates(acc_out, &n_out, |j, g| {
            core.emb.step_output(j, eta, g, project)
        });
        Ok(())
    }

    /// One generator iteration (Algorithm 3 lines 14–18, Eq. 17).
    fn generator_update(&mut self, core: &mut SessionCore, graph: &Graph) -> Result<(), CoreError> {
        let r = core.cfg.dim;
        let sample_count = core.cfg.batch_size * (core.cfg.negatives + 1);
        // Activation-input noise only exists in the full AdvSGM loss.
        let noise_std = gradient_noise_std(&core.cfg);
        let ng1 = gaussian_vec(&mut self.rng, noise_std, r);
        let ng2 = gaussian_vec(&mut self.rng, noise_std, r);

        let mut grads_j: HashMap<usize, (Vec<f64>, usize)> = HashMap::new();
        let mut grads_i: HashMap<usize, (Vec<f64>, usize)> = HashMap::new();
        let edges = graph.edges();
        for _ in 0..sample_count {
            let e = edges[self.rng.gen_range(0..edges.len())];
            // Random orientation, matching the discriminator's convention.
            let (s, t) = if self.rng.gen::<bool>() {
                (e.u().index(), e.v().index())
            } else {
                (e.v().index(), e.u().index())
            };
            let vi = core.emb.input(s).to_vec();
            let vj = core.emb.output(t).to_vec();
            // Fake neighbor of the output-side node t, paired with real v_i.
            let f1 = core.gens.for_i.generate(t, &mut self.rng);
            let (s1_fake, s1_noise) = backend::dot2(&vi, &f1.v, &ng1);
            let s1 = s1_fake + s1_noise;
            // d/ds [ln(1 - S(s))] = -S'/(1-S).
            let c1 = -core.kind.neg_log_one_minus_grad(s1);
            let up1 = vector::scaled(c1, &vi);
            core.gens
                .for_i
                .accumulate_grad(f1.node, &f1.v, &up1, &mut grads_j);
            // Fake neighbor of the input-side node s, paired with real v_j.
            let f2 = core.gens.for_j.generate(s, &mut self.rng);
            let (s2_fake, s2_noise) = backend::dot2(&vj, &f2.v, &ng2);
            let s2 = s2_fake + s2_noise;
            let c2 = -core.kind.neg_log_one_minus_grad(s2);
            let up2 = vector::scaled(c2, &vj);
            core.gens
                .for_j
                .accumulate_grad(f2.node, &f2.v, &up2, &mut grads_i);
        }
        core.gens.for_i.step(core.cfg.eta_g, &grads_j);
        core.gens.for_j.step(core.cfg.eta_g, &grads_i);
        Ok(())
    }

    /// `|L_Nov|` on one fresh batch, sampled and noised from the one
    /// stream.
    fn epoch_loss(
        &mut self,
        core: &mut SessionCore,
        graph: &Graph,
        mode: WeightMode,
    ) -> Result<f64, CoreError> {
        let (pos, signs) = self.provider.positives_with_signs(graph, &mut self.rng)?;
        let negs = self.provider.negatives(&pos, &mut self.rng);
        let noise_std = gradient_noise_std(&core.cfg);
        let rng = &mut self.rng;
        let loss = novel_loss_batch(
            core.kind, mode, &core.emb, &core.gens, &pos, &signs, &negs, noise_std, rng,
        );
        Ok(loss.abs())
    }

    fn streams(&self) -> EngineStreams {
        debug_assert!(
            self.pending_neg.is_none(),
            "checkpoint capture mid-iteration"
        );
        EngineStreams {
            rngs: vec![rng_state(&self.rng)],
            edge_permutation: self.provider.edge_permutation().to_vec(),
        }
    }
}
