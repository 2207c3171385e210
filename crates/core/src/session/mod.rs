//! The unified training-session layer (DESIGN.md §10).
//!
//! Algorithm 3 is *one* loop — epochs of `n_D` discriminator iterations
//! (each a positive and a negative mechanism invocation with the
//! Theorem-7 stopping rule) followed by `n_G` generator iterations and an
//! epoch-loss diagnostic — and this module is its single home. The loop
//! (the crate-private `run_schedule`) owns every schedule decision:
//! iteration counts, accounting (`record_and_check`), budget stop,
//! epoch-loss recording, and [`TrainOutcome`] assembly, while the
//! *execution* of each step is delegated to an `Engine` strategy. The
//! one production implementation is `replay::ReplayEngine`: every step
//! *replays* the RNG draws and floating-point accumulation order of
//! Algorithm 3 run literally on one interleaved stream, while a thread
//! pool (above one thread) regenerates fake neighbors and computes the
//! pure per-item work, over one of two row stores: in RAM
//! ([`Trainer::new`](crate::Trainer::new); DESIGN.md §7), or a spill store
//! whose embedding partitions swap through a two-slot pool (out of core;
//! DESIGN.md §14). The literal step execution,
//! `sequential::SequentialEngine`, compiles only under `cfg(test)`: it is
//! the oracle the trainer's unit tests hold the replay engine to, bit for
//! bit, at any thread count and partition count.
//!
//! So every release, epoch loss and spend is a function of the seed and
//! the configuration, whatever width or residency runs it.
//! [`Trainer`](crate::Trainer) is the one training type: a session core
//! plus the engine, with its store chosen at construction (or, on resume,
//! by the checkpoint's [`EngineKind`] and recorded width), and the only
//! caller of the schedule. The engine trait and its implementations are
//! deliberately crate-private, so a third loop cannot appear without
//! touching this layer.
//!
//! # Observability: [`TrainHooks`]
//!
//! The session invokes a caller-supplied hook at every epoch boundary with
//! the epoch index, the `|L_Nov|` diagnostic, the accountant's
//! [`SpendSnapshot`], and the stop reason when the run is ending. Hooks can
//! request a graceful stop ([`SessionControl::Stop`]) and can request
//! checkpoints.
//!
//! # Checkpointing: [`CheckpointState`]
//!
//! A checkpoint captures *everything* the next epoch depends on —
//! parameters, accountant totals, RNG stream positions, the edge sampler's
//! permutation, and the schedule cursor — so resuming an interrupted run
//! is **bitwise-identical** to never having stopped, at 1 and N threads
//! (`tests/checkpoint_resume.rs`). Serialisation to disk lives in
//! `advsgm-store` (`docs/FORMAT.md`, the `.actk` section).
//!
//! Trust boundary (DESIGN.md §10): a checkpoint is *curator-side* state.
//! Its model parameters are post-noise (already accounted — persisting
//! them spends nothing extra, Theorem 5), and its RNG/sampler streams are
//! derivable from the seed the curator already holds, so a checkpoint adds
//! no information beyond (released state, configuration, seed). It is not
//! a public release artifact; only the exported `.aemb` store is.

use std::collections::HashMap;

use advsgm_graph::Graph;
use advsgm_linalg::rng::{derive_seed, seeded};
use advsgm_linalg::{backend, vector, DenseMatrix};
pub use advsgm_privacy::SpendSnapshot;
use advsgm_privacy::{AccountantState, PrivacyError, RdpAccountant};
use rand::rngs::SmallRng;

use crate::config::AdvSgmConfig;
use crate::error::CoreError;
use crate::grad::{advsgm_augment, dpasgm_augment, sgm_negative_grads, sgm_positive_grads};
use crate::model::{Embeddings, GeneratorPair};
use crate::sampler::{BatchProvider, DiscBatch};
use crate::sigmoid::SigmoidKind;
use crate::trainer::TrainOutcome;
use crate::variants::ModelVariant;
use crate::weighting::WeightMode;

pub(crate) mod replay;
#[cfg(test)]
pub(crate) mod sequential;

/// Stream tag for the one RNG stream. The engine initialises parameters
/// from it and then *continues* it through training.
pub(crate) const STREAM_INIT: u64 = 0xAD5;

/// The fixed adversarial weight DP-ASGM uses (`lambda` in Eq. 4; the paper
/// notes `lambda in (0, 1]` is the common choice).
pub(crate) const DPASGM_LAMBDA: f64 = 1.0;

/// Per-coordinate std of the noise entering the applied gradients.
///
/// DP-SGM / DP-ASGM: strict DPSGD calibration `C*sigma` (Abadi et al.;
/// Eqs. 5–6) — at `sigma = 5` this is destructive, which is exactly the
/// behaviour the paper's Table V shows for those baselines.
/// AdvSGM: the activation-argument reading, `C*sigma/r` per coordinate
/// (noise-vector norm ~ `C*sigma/sqrt(r)`), unless `faithful_noise`
/// requests the strict calibration (the ablation setting).
///
/// Shared by every step that draws noise, so no two paths can drift apart
/// on calibration (DESIGN.md §6).
pub(crate) fn gradient_noise_std(cfg: &AdvSgmConfig) -> f64 {
    let base = cfg.clip * cfg.sigma;
    match cfg.variant {
        ModelVariant::DpSgm | ModelVariant::DpAsgm => base,
        // The workload variants keep AdvSGM's mechanism (and calibration)
        // unchanged: signs flip the skip-gram base direction, weights scale
        // post-clip — neither touches the noise (DESIGN.md §16).
        ModelVariant::AdvSgm | ModelVariant::SignedAdvSgm | ModelVariant::SpAdvSgm => {
            if cfg.faithful_noise {
                base
            } else {
                base / cfg.dim as f64
            }
        }
        ModelVariant::Sgm | ModelVariant::AdvSgmNoDp => 0.0,
    }
}

/// Records one mechanism invocation against the accountant (when present)
/// and evaluates Algorithm 3's stopping rule (lines 9–11). Returns `true`
/// when training must stop. Lives here — and only here — so no engine
/// can duplicate schedule logic.
pub(crate) fn record_and_check(
    accountant: &mut Option<RdpAccountant>,
    cfg: &AdvSgmConfig,
    gamma: f64,
) -> Result<bool, CoreError> {
    let Some(acc) = accountant.as_mut() else {
        return Ok(false);
    };
    acc.record_subsampled_gaussian(cfg.sigma, gamma, 1)?;
    match acc.check_budget(cfg.epsilon, cfg.delta) {
        Ok(()) => Ok(false),
        Err(PrivacyError::BudgetExhausted { .. }) => Ok(true),
        Err(e) => Err(e.into()),
    }
}

/// A sparse per-row gradient accumulator: `row -> (grad sum, touch
/// count)`. The insertion order of summands (pair order within a batch)
/// is the load-bearing floating-point association.
pub(crate) type RowAcc = HashMap<usize, (Vec<f64>, usize)>;

/// L1 working-set budget in bytes for one apply tile. Half of a typical
/// 32 KiB L1d: one tile of gradient rows plus the shared noise vector
/// fit together, leaving headroom for the embedding rows streaming
/// through in pass 2.
pub(crate) const APPLY_TILE_BYTES: usize = 16 * 1024;

/// Drains a row accumulator and applies the noisy, touch-count-normalised
/// updates in L1-sized row tiles (DESIGN.md §15).
///
/// Rows are sorted ascending and processed in tiles of
/// [`APPLY_TILE_BYTES`]; within a tile, pass 1 finalises every gradient
/// with [`backend::fused_axpy_scale`] (the shared `noise` vector stays
/// hot in L1 across the whole tile) and pass 2 hands the finished rows to
/// `step` in ascending row order, so the embedding matrix is walked
/// mostly sequentially instead of in hash order.
///
/// Bitwise-neutral by construction: rows are independent (`RowAcc` keys
/// are distinct), each row's arithmetic —
/// `g = (g + c * noise) * (1/c)`, then one `step` — is exactly the
/// per-row sequence performed before tiling, and
/// `fused_axpy_scale` is bitwise-equal on every backend. Only the *order
/// across rows* changes, which no row's result depends on.
pub(crate) fn apply_noisy_updates(acc: RowAcc, noise: &[f64], mut step: impl FnMut(usize, &[f64])) {
    let dim = noise.len().max(1);
    let tile_rows = (APPLY_TILE_BYTES / (dim * std::mem::size_of::<f64>())).max(1);
    let mut rows: Vec<(usize, (Vec<f64>, usize))> = acc.into_iter().collect();
    rows.sort_unstable_by_key(|&(row, _)| row);
    for tile in rows.chunks_mut(tile_rows) {
        for (_, (g, c)) in tile.iter_mut() {
            backend::fused_axpy_scale(g, *c as f64, noise, 1.0 / *c as f64);
        }
        for (row, (g, _)) in tile.iter() {
            step(*row, g);
        }
    }
}

/// Adds one pair's gradient into a row accumulator; returns whether this
/// was the row's first touch.
pub(crate) fn accumulate(acc: &mut RowAcc, row: usize, grad: Vec<f64>) -> bool {
    match acc.get_mut(&row) {
        Some((sum, c)) => {
            vector::add_assign(sum, &grad);
            *c += 1;
            false
        }
        None => {
            acc.insert(row, (grad, 1));
            true
        }
    }
}

/// One pair's adversarial inputs: its two fake neighbors plus the batch
/// means used by AdvSGM's centering control variate.
pub(crate) struct PairFakes<'a> {
    /// The fake neighbor of the output-side node (paired with `v_i`).
    pub fake_j: &'a [f64],
    /// The fake neighbor of the input-side node (paired with `v_j`).
    pub fake_i: &'a [f64],
    /// Batch mean of the `fake_j` draws.
    pub mean_j: &'a [f64],
    /// Batch mean of the `fake_i` draws.
    pub mean_i: &'a [f64],
}

/// One pair's batch context for [`clipped_pair_grads`]: the batch kind
/// plus the pair's sign/weight channels (DESIGN.md §16).
#[derive(Debug, Clone, Copy)]
pub(crate) struct PairCtx {
    /// `true` for a positive (edge) batch, `false` for a negative batch.
    pub positive: bool,
    /// `true` for a foe (antagonistic) edge in a positive batch: the
    /// skip-gram base flips to the repelling direction (arXiv 2512.00307
    /// §IV). Always `false` for sampled negatives and sign-blind batches.
    pub foe: bool,
    /// Structure-preference weight in `(0, 1]`, applied to the *clipped*
    /// gradient (sensitivity stays bounded by the clip norm). `1.0` under
    /// uniform weighting, where no scaling is applied at all.
    pub weight: f64,
}

impl PairCtx {
    /// Context for pair `idx` of `batch`.
    #[inline]
    pub fn of(batch: &DiscBatch, idx: usize) -> Self {
        Self {
            positive: batch.positive,
            foe: batch.foe(idx),
            weight: batch.weight(idx),
        }
    }
}

/// The Theorem-6 per-pair released direction: the closed-form skip-gram
/// gradients, the variant's adversarial augmentation (AdvSGM centers the
/// fake as a control variate; the first-cut DP-ASGM uses it raw), and the
/// DPSGD clip. A foe edge in a positive batch attracts nothing: its base
/// gradient is the repelling (negative-sample) form, same norm bound. A
/// non-unit pair weight scales the gradient *after* the clip, so each
/// summand's sensitivity stays `<= C` and the accountant is unchanged.
/// Lives here — once — so the gradient math can never drift between the
/// replay engine and its oracle. `fakes` is `None` exactly for the
/// non-adversarial variants.
pub(crate) fn clipped_pair_grads(
    kind: SigmoidKind,
    variant: ModelVariant,
    clip: f64,
    ctx: PairCtx,
    vi: &[f64],
    vj: &[f64],
    fakes: Option<PairFakes<'_>>,
) -> (Vec<f64>, Vec<f64>) {
    let attract = ctx.positive && !ctx.foe;
    let grads = if attract {
        sgm_positive_grads(kind, vi, vj)
    } else {
        sgm_negative_grads(kind, vi, vj)
    };
    let mut gi = grads.first;
    let mut gj = grads.second;
    match variant {
        ModelVariant::AdvSgm
        | ModelVariant::AdvSgmNoDp
        | ModelVariant::SignedAdvSgm
        | ModelVariant::SpAdvSgm => {
            // Theorem 6: lambda = 1/S collapses the adversarial gradient
            // to the bare (here: centered) fake neighbor.
            let f = fakes.expect("adversarial variants carry fakes");
            let centered_j = vector::sub(f.fake_j, f.mean_j);
            let centered_i = vector::sub(f.fake_i, f.mean_i);
            advsgm_augment(&mut gi, &centered_j);
            advsgm_augment(&mut gj, &centered_i);
        }
        ModelVariant::DpAsgm => {
            // First-cut: the *real* adversarial gradient (Eq. 11),
            // uncentered — the naive construction the paper shows
            // performs poorly.
            let f = fakes.expect("adversarial variants carry fakes");
            dpasgm_augment(kind, DPASGM_LAMBDA, vi, f.fake_j, &mut gi);
            dpasgm_augment(kind, DPASGM_LAMBDA, vj, f.fake_i, &mut gj);
        }
        ModelVariant::Sgm | ModelVariant::DpSgm => {}
    }
    // DPSGD-style clipping for every variant except plain SGM.
    if variant != ModelVariant::Sgm {
        vector::clip_l2(&mut gi, clip);
        vector::clip_l2(&mut gj, clip);
    }
    // Post-clip pair weighting; the `!= 1.0` gate keeps uniform weighting
    // bitwise-identical to the pre-seam trainer (no multiply by 1.0).
    if ctx.weight != 1.0 {
        vector::scale(&mut gi, ctx.weight);
        vector::scale(&mut gj, ctx.weight);
    }
    (gi, gj)
}

/// Why a training run ended, as reported to [`TrainHooks::on_epoch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// Every configured epoch ran to completion.
    Completed,
    /// The Theorem-7 accountant crossed the `(epsilon, delta)` target
    /// mid-epoch (Algorithm 3, line 11).
    BudgetExhausted,
}

/// A hook's verdict on whether training should continue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionControl {
    /// Keep training.
    Continue,
    /// Stop gracefully at this epoch boundary (the outcome reports the
    /// epochs actually run; this is *not* a budget stop).
    Stop,
}

/// What the session reports to [`TrainHooks::on_epoch`] at each epoch
/// boundary.
#[derive(Debug, Clone)]
pub struct EpochEvent {
    /// 0-based index of the epoch this event concerns.
    pub epoch: usize,
    /// Total epochs the schedule would run (`AdvSgmConfig::epochs`).
    pub epochs_total: usize,
    /// The epoch's `|L_Nov|` diagnostic; `None` when a budget stop aborted
    /// the epoch before its loss evaluation.
    pub loss: Option<f64>,
    /// Discriminator updates applied so far (positive + negative batches).
    pub disc_updates: u64,
    /// The accountant's spend against the configured target (private
    /// variants only).
    pub spend: Option<SpendSnapshot>,
    /// `Some` when this is the run's final event; `None` while training
    /// continues.
    pub stop: Option<StopReason>,
}

/// Observer invoked by the training session at epoch boundaries — the
/// seam behind live CLI progress, the Fig. 2 harness, and checkpointing.
///
/// All methods have no-op defaults, so implementors override only what
/// they need. [`NoHooks`] is the ready-made silent implementation.
pub trait TrainHooks {
    /// Called after every completed epoch, and once more (with
    /// `loss: None`, `stop: Some(BudgetExhausted)`) when the privacy
    /// budget stops training mid-epoch. Returning
    /// [`SessionControl::Stop`] ends training gracefully at this
    /// boundary.
    fn on_epoch(&mut self, event: &EpochEvent) -> SessionControl {
        let _ = event;
        SessionControl::Continue
    }

    /// Asked after each completed epoch (and after `on_epoch`) whether a
    /// checkpoint should be captured; `epochs_done` counts completed
    /// epochs (1-based). Budget-stopped runs are final and are never
    /// offered a checkpoint.
    fn wants_checkpoint(&mut self, epochs_done: usize) -> bool {
        let _ = epochs_done;
        false
    }

    /// Receives the checkpoint requested by
    /// [`TrainHooks::wants_checkpoint`]. Returning
    /// [`SessionControl::Stop`] ends training gracefully (e.g. when the
    /// hook failed to persist the state and continuing would waste work).
    fn on_checkpoint(&mut self, state: &CheckpointState) -> SessionControl {
        let _ = state;
        SessionControl::Continue
    }
}

/// The silent [`TrainHooks`] implementation: no events, no checkpoints.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoHooks;

impl TrainHooks for NoHooks {}

/// Where a checkpoint's rows lived: in RAM or out of core.
/// [`Trainer::resume`](crate::Trainer::resume) resumes on the same store.
/// Every width and store follows the one trajectory and records the one
/// stream, so a state captured on one store also continues bitwise on
/// the other, at any width and partition count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// In RAM ([`Trainer::new`](crate::Trainer::new)), at the width the
    /// checkpoint's `config.num_threads` records.
    Sequential,
    /// Out of core: the replay engine on a spill store
    /// ([`PartitionedTrainer::new`](crate::PartitionedTrainer::new)). Its
    /// checkpoints resume under any partition count.
    Partitioned,
}

/// A complete training checkpoint: everything the remaining epochs depend
/// on, captured at an epoch boundary.
///
/// The contract (enforced by `tests/checkpoint_resume.rs`): resuming from
/// this state runs the tail of the schedule **bitwise-identically** to the
/// uninterrupted run — embeddings, generator tables, epoch losses, update
/// counts, and the reported `epsilon`/`delta` spend all match exactly, at
/// 1 and N threads. Persist it with `advsgm-store`'s checkpoint codec
/// (`docs/FORMAT.md`).
#[derive(Debug, Clone)]
pub struct CheckpointState {
    /// The full training configuration. `num_threads` holds the *resolved*
    /// engine width (not the pre-resolution request), so resume does not
    /// depend on the `ADVSGM_THREADS` environment at restore time.
    pub config: AdvSgmConfig,
    /// Node count of the training graph (resume validates it).
    pub graph_nodes: u64,
    /// Edge count of the training graph (resume validates it).
    pub graph_edges: u64,
    /// FNV-1a fingerprint of the graph's node count and edge list; resume
    /// rejects a graph whose fingerprint differs (same counts are not
    /// enough — batch composition depends on edge identity).
    pub graph_fingerprint: u64,
    /// Completed epochs.
    pub epochs_done: u64,
    /// Discriminator updates applied (positive + negative batches).
    pub disc_updates: u64,
    /// Generator iterations applied.
    pub gen_updates: u64,
    /// Per-epoch `|L_Nov|` diagnostics recorded so far.
    pub epoch_losses: Vec<f64>,
    /// The input (node) vectors `W_in`.
    pub w_in: DenseMatrix,
    /// The output (context) vectors `W_out`.
    pub w_out: DenseMatrix,
    /// Parameter table of the generator faking output-side neighbors.
    pub gen_for_i: DenseMatrix,
    /// Parameter table of the generator faking input-side neighbors.
    pub gen_for_j: DenseMatrix,
    /// The RDP accountant's accumulated state (private variants only).
    pub accountant: Option<AccountantState>,
    /// Which store captured this state.
    pub engine: EngineKind,
    /// The RNG stream positions: the one stream, `[main]`, on either
    /// store.
    pub rng_streams: Vec<[u64; 4]>,
    /// The edge sampler's index permutation at the boundary — the batch
    /// provider's only hidden mutable state.
    pub edge_permutation: Vec<u32>,
}

/// FNV-1a over the graph's node count and edge list: cheap (one pass over
/// `E`), order-sensitive, and enough to catch "resumed against the wrong
/// graph" mistakes. Not cryptographic — checkpoints stay inside the
/// curator trust boundary.
pub(crate) fn graph_fingerprint(graph: &Graph) -> u64 {
    // FNV-1a, 64-bit: offset basis 0xcbf29ce484222325, prime
    // 0x100000001b3 — the exact standard parameters, since FORMAT.md
    // documents this field normatively for independent readers.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x100_0000_01b3);
    };
    mix(graph.num_nodes() as u64);
    for e in graph.edges() {
        mix(e.u().index() as u64);
        mix(e.v().index() as u64);
    }
    // The sign channel is part of edge identity for resume purposes —
    // mixed only when present, so unsigned graphs keep their pre-sign
    // fingerprints (existing checkpoints stay resumable).
    if let Some(signs) = graph.signs() {
        for &foe in signs {
            mix(u64::from(foe));
        }
    }
    h
}

/// Engine-owned state a checkpoint needs: RNG stream positions plus the
/// edge sampler permutation as of the epoch boundary being captured.
pub(crate) struct EngineStreams {
    /// RNG states in the engine's documented order.
    pub rngs: Vec<[u64; 4]>,
    /// The edge sampler's permutation at the boundary.
    pub edge_permutation: Vec<u32>,
}

/// The execution strategy behind the one Algorithm-3 schedule.
///
/// [`replay::ReplayEngine`] is the production implementation; the
/// sequential engine is its test oracle. [`run_schedule`] is the only
/// caller of their steps. An engine executes *steps*; it never sees the
/// epoch structure, iteration counts, accounting, or stopping rule. The
/// one thing it learns of the schedule is the flag [`Engine::disc_update`]
/// receives: whether another discriminator update of the same phase
/// follows (the replay engine then runs that update's draws one update
/// early; DESIGN.md §14).
///
/// Step methods are fallible because the replay engine performs spill
/// I/O inside a step on its spill store, and may sample the next
/// iteration's batches inside a discriminator update.
pub(crate) trait Engine {
    /// Which store this engine's rows live in (persisted in checkpoints).
    fn kind(&self) -> EngineKind;
    /// The resolved worker-thread count.
    fn threads(&self) -> usize;
    /// Produces the next discriminator batch in the fixed schedule order
    /// (positive, negative, positive, negative, ...).
    fn next_batch(&mut self, graph: &Graph) -> Result<DiscBatch, CoreError>;
    /// One discriminator update (Algorithm 3 line 8) over `batch`.
    /// `next_in_phase` is `true` when another discriminator update of this
    /// phase follows, so its batch comes from the next
    /// [`Engine::next_batch`] call before any generator step, epoch loss
    /// or epoch boundary; `graph` is what that batch is sampled from. It
    /// is `false` for the update that exhausts the budget, so nothing is
    /// drawn past a budget stop.
    fn disc_update(
        &mut self,
        core: &mut SessionCore,
        graph: &Graph,
        batch: &DiscBatch,
        next_in_phase: bool,
    ) -> Result<(), CoreError>;
    /// One generator iteration (Algorithm 3 lines 14–18).
    fn generator_update(&mut self, core: &mut SessionCore, graph: &Graph) -> Result<(), CoreError>;
    /// The `|L_Nov|` diagnostic under `mode` on one fresh batch: the
    /// epoch loss, and the Fig. 2 harness's evaluation.
    fn epoch_loss(
        &mut self,
        core: &mut SessionCore,
        graph: &Graph,
        mode: WeightMode,
    ) -> Result<f64, CoreError>;
    /// Writes any engine-resident model state back into `core` so that
    /// `core.emb` is authoritative (checkpoint capture, outcome
    /// assembly). No-op in RAM, where the steps mutate `core.emb`
    /// directly; the spill store materialises its partitions here.
    fn sync_core(&mut self, core: &mut SessionCore) -> Result<(), CoreError> {
        let _ = core;
        Ok(())
    }
    /// RNG/sampler state for checkpoint capture, valid only at an epoch
    /// boundary (the only place [`run_schedule`] calls it).
    fn streams(&self) -> EngineStreams;
}

/// Where the schedule currently stands. Engine-invariant by construction:
/// every field advances identically at every width and store.
#[derive(Debug, Clone, Default)]
pub(crate) struct ScheduleCursor {
    /// Completed epochs.
    pub epochs_done: usize,
    /// Discriminator updates applied.
    pub disc_updates: u64,
    /// Generator iterations applied.
    pub gen_updates: u64,
    /// Per-epoch `|L_Nov|` diagnostics.
    pub epoch_losses: Vec<f64>,
    /// Whether the privacy stopping rule ended training early.
    pub stopped_by_budget: bool,
}

/// The engine-independent half of a training session: configuration,
/// model parameters, accountant, Theorem-7 rates, and the schedule
/// cursor. Engines receive `&mut SessionCore` per step and own only their
/// execution context (providers, RNG streams, pools).
pub(crate) struct SessionCore {
    pub(crate) cfg: AdvSgmConfig,
    pub(crate) kind: SigmoidKind,
    pub(crate) emb: Embeddings,
    pub(crate) gens: GeneratorPair,
    pub(crate) accountant: Option<RdpAccountant>,
    pub(crate) gamma_pos: f64,
    pub(crate) gamma_neg: f64,
    pub(crate) cursor: ScheduleCursor,
}

impl SessionCore {
    /// Builds a fresh session: validates the configuration, initialises
    /// parameters from the one stream, and constructs the batch provider.
    /// Returns the provider and the *post-init* RNG, which the engine
    /// continues.
    pub(crate) fn new(
        graph: &Graph,
        cfg: AdvSgmConfig,
    ) -> Result<(Self, BatchProvider, SmallRng), CoreError> {
        cfg.validate()?;
        if graph.num_edges() == 0 {
            return Err(CoreError::Config {
                field: "graph",
                reason: "cannot train on a graph with no edges".into(),
            });
        }
        let kind = if cfg.variant.uses_constrained_sigmoid() {
            SigmoidKind::constrained(cfg.sigmoid_a, cfg.sigmoid_b)
        } else {
            SigmoidKind::Plain
        };
        let mut rng = seeded(derive_seed(cfg.seed, STREAM_INIT));
        let emb = Embeddings::init(graph.num_nodes(), cfg.dim, &mut rng);
        let gens = GeneratorPair::new(graph.num_nodes(), cfg.dim, &mut rng);
        let provider = BatchProvider::new_for_variant(
            graph,
            cfg.batch_size,
            cfg.negatives,
            cfg.negative_distribution,
            cfg.variant,
        )?;
        let accountant = cfg.variant.is_private().then(RdpAccountant::new);
        let (gamma_pos, gamma_neg) = (provider.gamma_pos(), provider.gamma_neg());
        Ok((
            Self {
                cfg,
                kind,
                emb,
                gens,
                accountant,
                gamma_pos,
                gamma_neg,
                cursor: ScheduleCursor::default(),
            },
            provider,
            rng,
        ))
    }

    /// Rebuilds a session mid-schedule from a checkpoint, validating the
    /// state against the graph it is being resumed on. Returns the
    /// provider with its sampler permutation restored; the caller restores
    /// the engine's RNG streams from `state.rng_streams`.
    pub(crate) fn resume(
        graph: &Graph,
        state: &CheckpointState,
    ) -> Result<(Self, BatchProvider), CoreError> {
        let bad = |reason: String| Err(CoreError::Checkpoint { reason });
        let cfg = state.config.clone();
        cfg.validate()?;

        if state.graph_nodes != graph.num_nodes() as u64
            || state.graph_edges != graph.num_edges() as u64
        {
            return bad(format!(
                "checkpoint was taken on a {}-node/{}-edge graph, resuming on {}/{}",
                state.graph_nodes,
                state.graph_edges,
                graph.num_nodes(),
                graph.num_edges()
            ));
        }
        if state.graph_fingerprint != graph_fingerprint(graph) {
            return bad("graph fingerprint mismatch: same size, different edges — \
                 resume requires the exact training graph"
                .into());
        }
        let (n, r) = (graph.num_nodes(), cfg.dim);
        for (name, m) in [
            ("w_in", &state.w_in),
            ("w_out", &state.w_out),
            ("gen_for_i", &state.gen_for_i),
            ("gen_for_j", &state.gen_for_j),
        ] {
            if m.shape() != (n, r) {
                return bad(format!(
                    "{name} has shape {:?}, expected ({n}, {r})",
                    m.shape()
                ));
            }
        }
        let epochs_done = state.epochs_done as usize;
        if epochs_done > cfg.epochs {
            return bad(format!(
                "{epochs_done} epochs completed exceeds the configured {}",
                cfg.epochs
            ));
        }
        if state.epoch_losses.len() != epochs_done {
            return bad(format!(
                "{} epoch losses recorded for {epochs_done} completed epochs",
                state.epoch_losses.len()
            ));
        }
        // Checkpoints are captured only at boundaries of non-stopped runs,
        // so the cursor is fully determined by the schedule.
        let expect_disc = (epochs_done * cfg.disc_iters * 2) as u64;
        if state.disc_updates != expect_disc {
            return bad(format!(
                "{} discriminator updates recorded, schedule implies {expect_disc}",
                state.disc_updates
            ));
        }
        let expect_gen = if cfg.variant.is_adversarial() {
            (epochs_done * cfg.gen_iters) as u64
        } else {
            0
        };
        if state.gen_updates != expect_gen {
            return bad(format!(
                "{} generator iterations recorded, schedule implies {expect_gen}",
                state.gen_updates
            ));
        }
        if state.rng_streams.len() != 1 {
            return bad(format!(
                "{} RNG streams in a checkpoint (need 1)",
                state.rng_streams.len()
            ));
        }
        if cfg.variant.is_private() != state.accountant.is_some() {
            return bad(format!(
                "accountant state {} but variant {} {} private",
                if state.accountant.is_some() {
                    "present"
                } else {
                    "missing"
                },
                cfg.variant,
                if cfg.variant.is_private() {
                    "is"
                } else {
                    "is not"
                },
            ));
        }
        let accountant =
            match &state.accountant {
                None => None,
                Some(s) => Some(RdpAccountant::from_state(s.clone()).map_err(|e| {
                    CoreError::Checkpoint {
                        reason: format!("accountant state invalid: {e}"),
                    }
                })?),
            };

        let kind = if cfg.variant.uses_constrained_sigmoid() {
            SigmoidKind::constrained(cfg.sigmoid_a, cfg.sigmoid_b)
        } else {
            SigmoidKind::Plain
        };
        let mut provider = BatchProvider::new_for_variant(
            graph,
            cfg.batch_size,
            cfg.negatives,
            cfg.negative_distribution,
            cfg.variant,
        )?;
        provider
            .restore_edge_permutation(state.edge_permutation.clone())
            .map_err(|e| CoreError::Checkpoint {
                reason: format!("edge permutation invalid: {e}"),
            })?;
        let (gamma_pos, gamma_neg) = (provider.gamma_pos(), provider.gamma_neg());
        let emb = Embeddings::from_parts(state.w_in.clone(), state.w_out.clone());
        let gens = GeneratorPair::from_parts(state.gen_for_i.clone(), state.gen_for_j.clone());
        Ok((
            Self {
                cfg,
                kind,
                emb,
                gens,
                accountant,
                gamma_pos,
                gamma_neg,
                cursor: ScheduleCursor {
                    epochs_done,
                    disc_updates: state.disc_updates,
                    gen_updates: state.gen_updates,
                    epoch_losses: state.epoch_losses.clone(),
                    stopped_by_budget: false,
                },
            },
            provider,
        ))
    }

    /// The accountant's spend against the configured target, for hook
    /// events (`None` for non-private variants).
    fn spend(&self) -> Result<Option<SpendSnapshot>, CoreError> {
        match &self.accountant {
            None => Ok(None),
            Some(acc) => Ok(Some(acc.snapshot(self.cfg.epsilon, self.cfg.delta)?)),
        }
    }

    /// Consumes the session into the public outcome — the one place a
    /// [`TrainOutcome`] is assembled.
    pub(crate) fn into_outcome(self) -> Result<TrainOutcome, CoreError> {
        let (epsilon_spent, delta_spent) = match &self.accountant {
            None => (None, None),
            Some(acc) => {
                let snap = acc.snapshot(self.cfg.epsilon, self.cfg.delta)?;
                (Some(snap.epsilon_spent), Some(snap.delta_spent))
            }
        };
        Ok(TrainOutcome {
            context_vectors: self.emb.w_out().clone(),
            node_vectors: self.emb.into_node_vectors(),
            variant: self.cfg.variant,
            epochs_run: self.cursor.epochs_done,
            disc_updates: self.cursor.disc_updates,
            stopped_by_budget: self.cursor.stopped_by_budget,
            epsilon_spent,
            delta_spent,
            epoch_losses: self.cursor.epoch_losses,
        })
    }
}

/// Captures a checkpoint at the current (epoch-boundary) cursor.
fn capture_checkpoint(core: &SessionCore, engine: &dyn Engine, graph: &Graph) -> CheckpointState {
    let streams = engine.streams();
    let mut config = core.cfg.clone();
    // Pin the resolved width so resume cannot drift with ADVSGM_THREADS.
    config.num_threads = engine.threads();
    CheckpointState {
        config,
        graph_nodes: graph.num_nodes() as u64,
        graph_edges: graph.num_edges() as u64,
        graph_fingerprint: graph_fingerprint(graph),
        epochs_done: core.cursor.epochs_done as u64,
        disc_updates: core.cursor.disc_updates,
        gen_updates: core.cursor.gen_updates,
        epoch_losses: core.cursor.epoch_losses.clone(),
        w_in: core.emb.w_in().clone(),
        w_out: core.emb.w_out().clone(),
        gen_for_i: core.gens.for_i.weights().clone(),
        gen_for_j: core.gens.for_j.weights().clone(),
        accountant: core.accountant.as_ref().map(RdpAccountant::state),
        engine: engine.kind(),
        rng_streams: streams.rngs,
        edge_permutation: streams.edge_permutation,
    }
}

/// The Algorithm-3 schedule — the **only** implementation of the epoch /
/// discriminator-iteration / budget-stop loop in the workspace. The
/// engine (and its test oracle) executes under it;
/// [`Trainer`](crate::Trainer) is its only caller.
///
/// Resume-aware: the loop starts at `core.cursor.epochs_done`, so a
/// session restored from a [`CheckpointState`] continues exactly where the
/// interrupted run left off.
pub(crate) fn run_schedule(
    core: &mut SessionCore,
    engine: &mut dyn Engine,
    graph: &Graph,
    hooks: &mut dyn TrainHooks,
) -> Result<(), CoreError> {
    let epochs = core.cfg.epochs;
    let loss_mode = if core.cfg.variant.is_adversarial() {
        WeightMode::InverseS
    } else {
        WeightMode::Fixed(0.0)
    };
    'training: for epoch in core.cursor.epochs_done..epochs {
        for iter in 0..core.cfg.disc_iters {
            // One Algorithm 2 iteration: the positive batch EB, then the
            // negative batch EBk — two *separate* mechanism invocations so
            // their amplification rates compose cleanly (Theorem 7).
            for (half, gamma) in [core.gamma_pos, core.gamma_neg].into_iter().enumerate() {
                let batch = engine.next_batch(graph)?;
                // Only the phase's last update (the final negative batch)
                // has no discriminator update after it, and none follows
                // the update that exhausts the budget: it is charged
                // before it runs, so it never draws ahead and the stream
                // after a budget stop is the same at every width.
                let next_in_phase = half == 0 || iter + 1 < core.cfg.disc_iters;
                let stop = record_and_check(&mut core.accountant, &core.cfg, gamma)?;
                engine.disc_update(core, graph, &batch, next_in_phase && !stop)?;
                core.cursor.disc_updates += 1;
                if stop {
                    core.cursor.stopped_by_budget = true;
                    hooks.on_epoch(&EpochEvent {
                        epoch,
                        epochs_total: epochs,
                        loss: None,
                        disc_updates: core.cursor.disc_updates,
                        spend: core.spend()?,
                        stop: Some(StopReason::BudgetExhausted),
                    });
                    break 'training;
                }
            }
        }
        if core.cfg.variant.is_adversarial() {
            for _ in 0..core.cfg.gen_iters {
                engine.generator_update(core, graph)?;
                core.cursor.gen_updates += 1;
            }
        }
        let loss = engine.epoch_loss(core, graph, loss_mode)?;
        core.cursor.epochs_done += 1;
        core.cursor.epoch_losses.push(loss);
        let finished = core.cursor.epochs_done == epochs;
        let mut control = hooks.on_epoch(&EpochEvent {
            epoch,
            epochs_total: epochs,
            loss: Some(loss),
            disc_updates: core.cursor.disc_updates,
            spend: core.spend()?,
            stop: finished.then_some(StopReason::Completed),
        });
        if hooks.wants_checkpoint(core.cursor.epochs_done) {
            // A spill store holds the embeddings on disk; make core.emb
            // authoritative before capturing.
            engine.sync_core(core)?;
            let state = capture_checkpoint(core, engine, graph);
            if hooks.on_checkpoint(&state) == SessionControl::Stop {
                control = SessionControl::Stop;
            }
        }
        if control == SessionControl::Stop && !finished {
            break 'training;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use advsgm_graph::generators::classic::karate_club;

    #[test]
    fn fingerprint_is_sensitive_to_structure() {
        let a = karate_club();
        let b = karate_club();
        assert_eq!(graph_fingerprint(&a), graph_fingerprint(&b));
        let smaller =
            Graph::from_parts(a.num_nodes(), a.edges()[..a.num_edges() - 1].to_vec(), None);
        assert_ne!(graph_fingerprint(&a), graph_fingerprint(&smaller));
    }

    #[test]
    fn no_hooks_defaults_are_inert() {
        let mut h = NoHooks;
        let event = EpochEvent {
            epoch: 0,
            epochs_total: 1,
            loss: Some(1.0),
            disc_updates: 2,
            spend: None,
            stop: None,
        };
        assert_eq!(h.on_epoch(&event), SessionControl::Continue);
        assert!(!h.wants_checkpoint(1));
    }
}
