//! The sharded [`Engine`]: batch-parallel execution (DESIGN.md §7).
//!
//! Executes the same Algorithm-3 steps as the sequential engine but splits
//! every batch across a pool of worker threads, following the structure of
//! the paper's own privacy argument: Theorem 6 releases a *sum of
//! independently clipped per-pair gradients* plus one batch noise vector,
//! so per-pair work is embarrassingly parallel and only the final
//! sum-and-apply is sequential. Per discriminator update:
//!
//! 1. **Sample** — the calling thread runs Algorithm 2
//!    ([`BatchProvider::sample_disc_iteration`]) on the engine's own
//!    sampler stream, as the sequential engine does on its one stream;
//! 2. **Shard** — the batch is cut into fixed-size shards
//!    (`AdvSgmConfig::shard_size`, default `ceil(B / threads)`); shard
//!    `k` of update `u` gets its own RNG stream
//!    `seeded(derive_seed(derive_seed(disc_base, u), 1 + k))`;
//! 3. **Map** — workers compute clipped per-pair gradient contributions
//!    into **thread-local accumulators** (a `row -> (grad sum, touch
//!    count)` map per shard, summed in pair order);
//! 4. **Reduce** — the main thread folds shard accumulators **in shard
//!    order**, so each row's floating-point sum has one fixed association
//!    regardless of OS scheduling;
//! 5. **Apply** — the Theorem-6 batch noise (drawn once per update from
//!    the update's stream 0) and the per-row touch-count normalisation
//!    (DESIGN.md §5) are applied exactly as in the sequential engine.

use std::collections::HashMap;

use advsgm_graph::Graph;
use advsgm_linalg::rng::{derive_seed, gaussian_vec, rng_state, seeded};
use advsgm_linalg::{backend, vector};
use advsgm_parallel::ThreadPool;
use rand::rngs::SmallRng;
use rand::Rng;

use crate::error::CoreError;
use crate::sampler::{BatchProvider, DiscBatch};
use crate::session::{
    accumulate, apply_noisy_updates, clipped_pair_grads, fresh_batch_loss, gradient_noise_std,
    Engine, EngineKind, EngineStreams, PairCtx, PairFakes, RowAcc, SessionCore, STREAM_DISC,
    STREAM_GEN,
};
use crate::variants::ModelVariant;
use crate::weighting::WeightMode;

/// The `threads > 1` execution strategy.
pub(crate) struct ShardedEngine {
    provider: BatchProvider,
    /// Algorithm-2 sampling: every discriminator batch and every
    /// epoch-loss batch, in schedule order.
    sampler: SmallRng,
    /// The epoch-loss diagnostic's noise draws.
    loss_rng: SmallRng,
    /// The negative half of a sampled iteration, buffered between the two
    /// `next_batch` calls of one discriminator iteration.
    pending_neg: Option<DiscBatch>,
    pool: ThreadPool,
    disc_base: u64,
    gen_base: u64,
}

impl ShardedEngine {
    /// Builds the engine for one training run from the sampler and
    /// epoch-loss streams at the cursor's epoch boundary.
    pub(crate) fn new(
        provider: BatchProvider,
        threads: usize,
        seed: u64,
        sampler: SmallRng,
        loss_rng: SmallRng,
    ) -> Self {
        Self {
            provider,
            sampler,
            loss_rng,
            pending_neg: None,
            pool: ThreadPool::new(threads),
            disc_base: derive_seed(seed, STREAM_DISC),
            gen_base: derive_seed(seed, STREAM_GEN),
        }
    }

    /// Pairs per shard for a batch of `count` pairs.
    fn shard_len(&self, core: &SessionCore, count: usize) -> usize {
        if core.cfg.shard_size > 0 {
            core.cfg.shard_size
        } else {
            count.div_ceil(self.pool.threads()).max(1)
        }
    }
}

impl Engine for ShardedEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Sharded
    }

    fn threads(&self) -> usize {
        self.pool.threads()
    }

    fn next_batch(&mut self, graph: &Graph) -> Result<DiscBatch, CoreError> {
        match self.pending_neg.take() {
            Some(neg) => Ok(neg),
            None => {
                let (pos, neg) = self
                    .provider
                    .sample_disc_iteration(graph, &mut self.sampler)?;
                self.pending_neg = Some(neg);
                Ok(pos)
            }
        }
    }

    /// One discriminator update, sharded (module docs, steps 2–5). The
    /// update's stream index is the schedule cursor's `disc_updates`
    /// counter, which also makes resumed runs derive the same streams as
    /// uninterrupted ones.
    fn disc_update(
        &mut self,
        core: &mut SessionCore,
        _graph: &Graph,
        batch: &DiscBatch,
        _next_in_phase: bool,
    ) -> Result<(), CoreError> {
        let r = core.cfg.dim;
        let count = batch.pairs.len();
        if count == 0 {
            // Cannot happen (batch >= 1 after clamping), but an empty
            // update is a well-defined no-op.
            return Ok(());
        }
        let update_seed = derive_seed(self.disc_base, core.cursor.disc_updates);
        let variant = core.cfg.variant;
        let clip = core.cfg.clip;
        let kind = core.kind;
        let shard_len = self.shard_len(core, count);

        // Theorem 6's per-batch noise (N_{D,1}, N_{D,2}): one draw per
        // update from the update's stream 0, like the sequential engine.
        let noise_std = gradient_noise_std(&core.cfg);
        let mut noise_rng = seeded(derive_seed(update_seed, 0));
        let n_in = gaussian_vec(&mut noise_rng, noise_std, r);
        let n_out = gaussian_vec(&mut noise_rng, noise_std, r);

        // Phase A (adversarial variants): generate all fake neighbors in
        // parallel — the only RNG-consuming per-pair work — with one
        // derived stream per shard, and reduce the batch means in shard
        // order (the centering control variate needs the whole batch).
        let adversarial = variant.is_adversarial();
        let (fakes, mean_j, mean_i) = if adversarial {
            let gens = &core.gens;
            let shard_out = self
                .pool
                .map_chunks(&batch.pairs, shard_len, |k, _offset, chunk| {
                    let mut rng = seeded(derive_seed(update_seed, 1 + k as u64));
                    let mut local = Vec::with_capacity(chunk.len());
                    let mut sum_j = vec![0.0; r];
                    let mut sum_i = vec![0.0; r];
                    for &(i, j) in chunk {
                        let fj = gens.for_i.generate(j, &mut rng).v;
                        let fi = gens.for_j.generate(i, &mut rng).v;
                        vector::add_assign(&mut sum_j, &fj);
                        vector::add_assign(&mut sum_i, &fi);
                        local.push((fj, fi));
                    }
                    (local, sum_j, sum_i)
                });
            let mut fakes = Vec::with_capacity(count);
            let mut mean_j = vec![0.0; r];
            let mut mean_i = vec![0.0; r];
            for (local, sum_j, sum_i) in shard_out {
                fakes.extend(local);
                vector::add_assign(&mut mean_j, &sum_j);
                vector::add_assign(&mut mean_i, &sum_i);
            }
            vector::scale(&mut mean_j, 1.0 / count as f64);
            vector::scale(&mut mean_i, 1.0 / count as f64);
            (fakes, mean_j, mean_i)
        } else {
            (Vec::new(), Vec::new(), Vec::new())
        };

        // Phase B: clipped per-pair gradients into thread-local
        // accumulators. RNG-free, so shards only need their data.
        let emb = &core.emb;
        let fakes = &fakes;
        let mean_j = &mean_j;
        let mean_i = &mean_i;
        let shard_accs = self
            .pool
            .map_chunks(&batch.pairs, shard_len, |_k, offset, chunk| {
                let mut acc_in: RowAcc = HashMap::new();
                let mut acc_out: RowAcc = HashMap::new();
                for (local_idx, &(i, j)) in chunk.iter().enumerate() {
                    let idx = offset + local_idx;
                    let pair_fakes = adversarial.then(|| PairFakes {
                        fake_j: &fakes[idx].0,
                        fake_i: &fakes[idx].1,
                        mean_j,
                        mean_i,
                    });
                    let (gi, gj) = clipped_pair_grads(
                        kind,
                        variant,
                        clip,
                        PairCtx::of(batch, idx),
                        emb.input(i),
                        emb.output(j),
                        pair_fakes,
                    );
                    accumulate(&mut acc_in, i, gi);
                    accumulate(&mut acc_out, j, gj);
                }
                (acc_in, acc_out)
            });

        // Deterministic reduction: fold shard accumulators in shard order,
        // so every row's gradient sum has one fixed floating-point
        // association no matter which worker computed which shard.
        let mut acc_in: RowAcc = HashMap::new();
        let mut acc_out: RowAcc = HashMap::new();
        for (shard_in, shard_out) in shard_accs {
            merge_acc(&mut acc_in, shard_in);
            merge_acc(&mut acc_out, shard_out);
        }

        // Apply: identical to the sequential engine (per-row noise share +
        // touch-count normalisation; DESIGN.md §5). Row updates are
        // independent, so the tiled ascending-row order cannot affect the
        // result.
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

    /// One generator iteration (Algorithm 3 lines 14–18), sharded over the
    /// `B (k + 1)` samples with the same per-shard stream scheme; the
    /// iteration's stream index is the cursor's `gen_updates` counter.
    fn generator_update(&mut self, core: &mut SessionCore, graph: &Graph) -> Result<(), CoreError> {
        let r = core.cfg.dim;
        let sample_count = core.cfg.batch_size * (core.cfg.negatives + 1);
        let shard_len = self.shard_len(core, sample_count);
        let parts = sample_count.div_ceil(shard_len);
        let gen_seed = derive_seed(self.gen_base, core.cursor.gen_updates);
        let noise_std = gradient_noise_std(&core.cfg);
        let mut noise_rng = seeded(derive_seed(gen_seed, 0));
        let ng1 = gaussian_vec(&mut noise_rng, noise_std, r);
        let ng2 = gaussian_vec(&mut noise_rng, noise_std, r);

        let emb = &core.emb;
        let gens = &core.gens;
        let kind = core.kind;
        let edges = graph.edges();
        let ng1 = &ng1;
        let ng2 = &ng2;
        let shard_grads = self.pool.map_parts(sample_count, parts, |k, range| {
            let mut rng = seeded(derive_seed(gen_seed, 1 + k as u64));
            let mut grads_j: RowAcc = HashMap::new();
            let mut grads_i: RowAcc = HashMap::new();
            for _ in range {
                let e = edges[rng.gen_range(0..edges.len())];
                let (s, t) = if rng.gen::<bool>() {
                    (e.u().index(), e.v().index())
                } else {
                    (e.v().index(), e.u().index())
                };
                let vi = emb.input(s);
                let vj = emb.output(t);
                let f1 = gens.for_i.generate(t, &mut rng);
                let (s1_fake, s1_noise) = backend::dot2(vi, &f1.v, ng1);
                let c1 = -kind.neg_log_one_minus_grad(s1_fake + s1_noise);
                let up1 = vector::scaled(c1, vi);
                gens.for_i
                    .accumulate_grad(f1.node, &f1.v, &up1, &mut grads_j);
                let f2 = gens.for_j.generate(s, &mut rng);
                let (s2_fake, s2_noise) = backend::dot2(vj, &f2.v, ng2);
                let c2 = -kind.neg_log_one_minus_grad(s2_fake + s2_noise);
                let up2 = vector::scaled(c2, vj);
                gens.for_j
                    .accumulate_grad(f2.node, &f2.v, &up2, &mut grads_i);
            }
            (grads_j, grads_i)
        });

        let mut grads_j: RowAcc = HashMap::new();
        let mut grads_i: RowAcc = HashMap::new();
        for (shard_j, shard_i) in shard_grads {
            merge_acc(&mut grads_j, shard_j);
            merge_acc(&mut grads_i, shard_i);
        }
        core.gens.for_i.step(core.cfg.eta_g, &grads_j);
        core.gens.for_j.step(core.cfg.eta_g, &grads_i);
        Ok(())
    }

    /// `|L_Nov|` on one fresh batch from the sampler stream, noised from
    /// the epoch-loss stream.
    fn epoch_loss(
        &mut self,
        core: &mut SessionCore,
        graph: &Graph,
        mode: WeightMode,
    ) -> Result<f64, CoreError> {
        fresh_batch_loss(
            core,
            graph,
            mode,
            &mut self.provider,
            &mut self.sampler,
            Some(&mut self.loss_rng),
        )
    }

    fn streams(&self) -> EngineStreams {
        debug_assert!(
            self.pending_neg.is_none(),
            "checkpoint capture mid-iteration"
        );
        EngineStreams {
            rngs: vec![rng_state(&self.sampler), rng_state(&self.loss_rng)],
            edge_permutation: self.provider.edge_permutation().to_vec(),
        }
    }
}

/// Folds one shard's accumulator into the global one. Rows are summed in
/// the order shards are folded, which the caller fixes to shard order.
fn merge_acc(into: &mut RowAcc, from: RowAcc) {
    for (row, (grad, c)) in from {
        match into.get_mut(&row) {
            Some((sum, count)) => {
                vector::add_assign(sum, &grad);
                *count += c;
            }
            None => {
                into.insert(row, (grad, c));
            }
        }
    }
}
