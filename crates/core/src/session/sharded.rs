//! The sharded [`Engine`]: producer/worker execution (DESIGN.md §7).
//!
//! Executes the same Algorithm-3 steps as the sequential engine but splits
//! every batch across a pool of worker threads, following the structure of
//! the paper's own privacy argument: Theorem 6 releases a *sum of
//! independently clipped per-pair gradients* plus one batch noise vector,
//! so per-pair work is embarrassingly parallel and only the final
//! sum-and-apply is sequential. Per discriminator update:
//!
//! 1. **Produce** — a dedicated producer thread runs Algorithm 2
//!    ([`BatchProvider::sample_disc_iteration`]) ahead of the consumer
//!    through a bounded queue, so sampling for iteration `t + 1` overlaps
//!    the gradient work of iteration `t`;
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
//!
//! For checkpointing, the producer attaches a [`ProducerSnapshot`] (its
//! RNG state plus the edge sampler's permutation) to each epoch's loss
//! batch: that snapshot *is* the producer's state at the epoch boundary —
//! the live producer has already raced ahead of the consumer, so its
//! current state is never the right thing to persist. Resume seeds a
//! fresh producer from the snapshot and starts it at the next epoch.

use std::collections::HashMap;
use std::sync::mpsc::{Receiver, SyncSender};

use advsgm_graph::sampling::negative::NegativePair;
use advsgm_graph::{Edge, Graph, GraphError};
use advsgm_linalg::rng::{derive_seed, gaussian_vec, rng_state, seeded};
use advsgm_linalg::{backend, vector};
use advsgm_parallel::ThreadPool;
use rand::rngs::SmallRng;
use rand::Rng;

use crate::error::CoreError;
use crate::loss::novel_loss_batch;
use crate::sampler::{BatchProvider, DiscBatch};
use crate::session::{
    accumulate, apply_noisy_updates, clipped_pair_grads, gradient_noise_std, Engine, EngineKind,
    EngineStreams, PairCtx, PairFakes, RowAcc, SessionCore, STREAM_DISC, STREAM_GEN,
};
use crate::variants::ModelVariant;
use crate::weighting::WeightMode;

/// Bounded depth of the producer -> consumer batch queue: enough for
/// sampling to run ahead of gradient work, small enough to cap memory at a
/// few batches.
pub(crate) const QUEUE_DEPTH: usize = 4;

/// The producer's checkpointable state as of an epoch boundary.
#[derive(Debug, Clone)]
pub(crate) struct ProducerSnapshot {
    /// The producer RNG's state after finishing the epoch's production.
    pub rng: [u64; 4],
    /// The edge sampler's index permutation at the same point.
    pub edge_permutation: Vec<u32>,
}

/// Items flowing from the producer thread to the training loop.
pub(crate) enum Produced {
    /// One discriminator update batch.
    Update(DiscBatch),
    /// The epoch-loss diagnostic batch (positives, their foe flags, and
    /// negatives), sent once per epoch, plus the producer's state at this
    /// epoch boundary when the run can checkpoint (`None` otherwise — the
    /// snapshot costs an `O(|E|)` copy, pure waste for a run that will
    /// never capture one).
    Loss(
        Vec<Edge>,
        Vec<bool>,
        Vec<NegativePair>,
        Option<Box<ProducerSnapshot>>,
    ),
    /// Sampling failed; training must abort with this error.
    Failed(GraphError),
}

/// What the producer thread must produce: the epoch range still to run,
/// the per-epoch iteration count, and whether to attach boundary
/// snapshots for checkpointing.
pub(crate) struct ProducePlan {
    /// First epoch to produce (0 for fresh runs, `epochs_done` on resume).
    pub start_epoch: usize,
    /// Total configured epochs.
    pub epochs: usize,
    /// Discriminator iterations per epoch.
    pub disc_iters: usize,
    /// Attach a [`ProducerSnapshot`] to each epoch's loss batch.
    pub snapshots: bool,
}

/// Runs Algorithm 2 production for the plan's epoch range, one iteration
/// ahead of the consumer. Ends when the schedule is produced or the
/// consumer hangs up (early stop / error).
pub(crate) fn produce_batches(
    mut provider: BatchProvider,
    graph: &Graph,
    mut rng: SmallRng,
    plan: &ProducePlan,
    tx: &SyncSender<Produced>,
) {
    for _ in plan.start_epoch..plan.epochs {
        for _ in 0..plan.disc_iters {
            match provider.sample_disc_iteration(graph, &mut rng) {
                Ok((pos, neg)) => {
                    if tx.send(Produced::Update(pos)).is_err()
                        || tx.send(Produced::Update(neg)).is_err()
                    {
                        return;
                    }
                }
                Err(e) => {
                    let _ = tx.send(Produced::Failed(e));
                    return;
                }
            }
        }
        let (loss_pos, loss_signs) = match provider.positives_with_signs(graph, &mut rng) {
            Ok(v) => v,
            Err(e) => {
                let _ = tx.send(Produced::Failed(e));
                return;
            }
        };
        let loss_neg = provider.negatives(&loss_pos, &mut rng);
        // Everything this epoch consumes has now been drawn: this is the
        // state a resume-at-this-boundary producer must start from.
        let snapshot = plan.snapshots.then(|| {
            Box::new(ProducerSnapshot {
                rng: rng_state(&rng),
                edge_permutation: provider.edge_permutation().to_vec(),
            })
        });
        if tx
            .send(Produced::Loss(loss_pos, loss_signs, loss_neg, snapshot))
            .is_err()
        {
            return;
        }
    }
}

/// The `threads > 1` execution strategy. Lives inside `Trainer`'s thread
/// scope: it borrows the worker pool and owns the consumer end of the
/// producer queue.
pub(crate) struct ShardedEngine<'p> {
    pool: &'p mut ThreadPool,
    rx: Receiver<Produced>,
    threads: usize,
    /// Derived stream for the epoch-loss diagnostic's noise draws.
    loss_rng: SmallRng,
    disc_base: u64,
    gen_base: u64,
    /// The producer state at the most recent epoch boundary (updated at
    /// every loss-batch receipt; initialised to the producer's start
    /// state, which is only read if a checkpoint could be captured before
    /// the first epoch completes — it cannot).
    latest: ProducerSnapshot,
}

impl<'p> ShardedEngine<'p> {
    /// Builds the engine for one training run.
    pub(crate) fn new(
        pool: &'p mut ThreadPool,
        rx: Receiver<Produced>,
        threads: usize,
        seed: u64,
        loss_rng: SmallRng,
        initial: ProducerSnapshot,
    ) -> Self {
        Self {
            pool,
            rx,
            threads,
            loss_rng,
            disc_base: derive_seed(seed, STREAM_DISC),
            gen_base: derive_seed(seed, STREAM_GEN),
            latest: initial,
        }
    }

    /// Pairs per shard for a batch of `count` pairs.
    fn shard_len(&self, core: &SessionCore, count: usize) -> usize {
        if core.cfg.shard_size > 0 {
            core.cfg.shard_size
        } else {
            count.div_ceil(self.threads).max(1)
        }
    }

    /// Receives the next produced item, surfacing producer-side failures.
    fn recv_item(&mut self) -> Result<Produced, CoreError> {
        match self.rx.recv() {
            Ok(Produced::Failed(e)) => Err(e.into()),
            Ok(item) => Ok(item),
            Err(_) => Err(CoreError::Config {
                field: "sampler",
                reason: "batch producer terminated before the training schedule completed".into(),
            }),
        }
    }
}

impl Engine for ShardedEngine<'_> {
    fn kind(&self) -> EngineKind {
        EngineKind::Sharded
    }

    fn threads(&self) -> usize {
        self.threads
    }

    fn next_batch(&mut self, _graph: &Graph) -> Result<DiscBatch, CoreError> {
        match self.recv_item()? {
            Produced::Update(b) => Ok(b),
            _ => unreachable!("producer schedule mismatch: expected update"),
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
            // Cannot happen with the current producer (batch >= 1 after
            // clamping), but an empty update is a well-defined no-op.
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

    /// Per-epoch `|L_Nov|` diagnostic on the producer's loss batch; also
    /// records the producer snapshot riding along with it.
    fn epoch_loss(&mut self, core: &mut SessionCore, _graph: &Graph) -> Result<f64, CoreError> {
        let (loss_pos, loss_signs, loss_neg, snapshot) = match self.recv_item()? {
            Produced::Loss(p, sg, n, s) => (p, sg, n, s),
            _ => unreachable!("producer schedule mismatch: expected loss batch"),
        };
        if let Some(s) = snapshot {
            self.latest = *s;
        }
        let mode = if core.cfg.variant.is_adversarial() {
            WeightMode::InverseS
        } else {
            WeightMode::Fixed(0.0)
        };
        Ok(novel_loss_batch(
            core.kind,
            mode,
            &core.emb,
            &core.gens,
            &loss_pos,
            &loss_signs,
            &loss_neg,
            gradient_noise_std(&core.cfg),
            &mut self.loss_rng,
        )
        .abs())
    }

    fn streams(&self) -> EngineStreams {
        EngineStreams {
            rngs: vec![self.latest.rng, rng_state(&self.loss_rng)],
            edge_permutation: self.latest.edge_permutation.clone(),
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
