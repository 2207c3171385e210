//! The one training type over the session layer (DESIGN.md §10).
//!
//! [`Trainer`] is a session core plus the execution engine chosen when it
//! is built: the sequential engine at one thread, the sharded
//! batch-parallel engine (DESIGN.md §7) above that, or the out-of-core
//! partitioned engine (DESIGN.md §14) through [`PartitionedTrainer::new`].
//! The Algorithm-3 schedule itself — epochs, `n_D`/`n_G` iteration
//! counts, the Theorem-7 stopping rule, outcome assembly — lives once in
//! `session::run_schedule`, and [`Trainer::train_with_hooks`] drives every
//! engine through it from one place, so the engines cannot drift.
//!
//! # Determinism contract
//!
//! * **Sequential** (`threads = 1`): the trajectory is a pure function of
//!   the seed.
//! * **Partitioned**: every step replays the sequential engine's RNG draws
//!   and floating-point accumulation order, so released embeddings, epoch
//!   losses and spend are bit-for-bit the sequential engine's at every
//!   partition count `P >= 1` and thread count
//!   (`tests/ooc_equivalence.rs`), while at most two embedding partitions
//!   are resident ([`SlotPoolStats::high_water`] `<= 2`).
//! * **Sharded** (`threads = N > 1`): run-to-run deterministic for a fixed
//!   `(seed, threads, shard_size)` triple, on its own trajectory, because
//!   per-shard RNG streams replace the one interleaved stream.
//! * **Privacy accounting is engine-invariant**: batch composition, the
//!   `(sigma, gamma)` schedule and the stopping rule depend only on the
//!   configuration, so `disc_updates`, `epochs_run`, `stopped_by_budget`
//!   and the reported spend are bitwise-equal on every engine.
//! * **Checkpoint/resume is bitwise-exact** on every engine
//!   ([`Trainer::resume`], `tests/checkpoint_resume.rs`), and so is
//!   continuing a run a hook stopped with another
//!   [`Trainer::train_with_hooks`] call.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use advsgm_graph::Graph;
use advsgm_linalg::rng::{derive_seed, rng_from_state, seeded};
use advsgm_linalg::DenseMatrix;
use rand::rngs::SmallRng;

use crate::config::AdvSgmConfig;
use crate::error::CoreError;
use crate::sampler::BatchProvider;
use crate::session::partitioned::PartitionedEngine;
use crate::session::sequential::SequentialEngine;
use crate::session::sharded::ShardedEngine;
use crate::session::{
    run_schedule, CheckpointState, Engine, EngineKind, NoHooks, SessionCore, TrainHooks,
    STREAM_LOSS, STREAM_SAMPLER,
};
use crate::variants::ModelVariant;
use crate::weighting::WeightMode;

/// Result of one training run.
#[derive(Debug, Clone)]
pub struct TrainOutcome {
    /// The released node vectors (`W_in`) — the embeddings used downstream.
    pub node_vectors: DenseMatrix,
    /// The context vectors (`W_out`), kept for completeness.
    pub context_vectors: DenseMatrix,
    /// Which variant produced this.
    pub variant: ModelVariant,
    /// Epochs fully completed.
    pub epochs_run: usize,
    /// Total discriminator updates applied (positive + negative batches).
    pub disc_updates: u64,
    /// Whether the privacy stopping rule ended training early.
    pub stopped_by_budget: bool,
    /// `epsilon` actually spent at the configured `delta` (private only).
    pub epsilon_spent: Option<f64>,
    /// `delta_hat` at the configured target `epsilon` (private only).
    pub delta_spent: Option<f64>,
    /// Per-epoch `|L_Nov|` diagnostics (Fig. 2's metric).
    pub epoch_losses: Vec<f64>,
}

/// Observability counters for the partitioned engine's two-slot pool.
///
/// Obtained through [`Trainer::slot_stats`] *before* training consumes the
/// trainer (the handle is `Arc`-shared with the engine), so callers can
/// assert the residency bound after the run: [`SlotPoolStats::high_water`]
/// never exceeds 2 — one `W_in` partition plus one `W_out` partition. The
/// in-RAM engines have no pool; their counters stay zero.
#[derive(Debug, Default)]
pub struct SlotPoolStats {
    pub(crate) resident: AtomicUsize,
    pub(crate) high_water: AtomicUsize,
    pub(crate) loads: AtomicUsize,
    pub(crate) evictions: AtomicUsize,
}

impl SlotPoolStats {
    /// Partitions currently resident in the pool (0, 1, or 2).
    pub fn resident(&self) -> usize {
        self.resident.load(Ordering::Relaxed)
    }

    /// The maximum number of simultaneously resident partitions observed
    /// so far — the memory bound; `<= 2` by construction.
    pub fn high_water(&self) -> usize {
        self.high_water.load(Ordering::Relaxed)
    }

    /// Partition loads from the spill store (including the first load of
    /// each bucket).
    pub fn loads(&self) -> usize {
        self.loads.load(Ordering::Relaxed)
    }

    /// Partition evictions from the pool.
    pub fn evictions(&self) -> usize {
        self.evictions.load(Ordering::Relaxed)
    }
}

/// Trains one model variant on one graph (Algorithm 3) on the engine
/// chosen at construction (module docs have the determinism contract).
///
/// # Examples
/// ```
/// use advsgm_core::{AdvSgmConfig, ModelVariant, Trainer};
/// use advsgm_graph::generators::classic::karate_club;
///
/// let graph = karate_club();
/// let cfg = AdvSgmConfig::test_small(ModelVariant::Sgm).with_threads(2);
/// let trainer = Trainer::new(&graph, cfg).unwrap();
/// assert_eq!(trainer.threads(), 2);
/// let out = trainer.train(&graph).unwrap();
/// assert_eq!(out.node_vectors.rows(), graph.num_nodes());
/// assert!(out.disc_updates > 0);
/// ```
pub struct Trainer {
    core: SessionCore,
    engine: Box<dyn Engine + Send>,
    stats: Arc<SlotPoolStats>,
}

/// Builds the out-of-core [`Trainer`]: disk-resident embedding partitions,
/// bitwise-identical to the sequential engine.
///
/// A stateless name for [`PartitionedTrainer::new`], the one way to build a
/// trainer on the partitioned engine. It remains its own type only because
/// the end-to-end benchmark calls `PartitionedTrainer::new(..)` and reads
/// `slot_stats()` and `train()` on the result.
pub enum PartitionedTrainer {}

impl PartitionedTrainer {
    /// Builds a [`Trainer`] on the partitioned engine with `partitions`
    /// node buckets; validates the configuration against the graph and
    /// spills the freshly initialised embeddings to disk.
    ///
    /// # Errors
    /// Configuration or sampler-construction failures; `partitions = 0`;
    /// [`CoreError::Io`] when the spill store cannot be created.
    ///
    /// # Examples
    /// ```
    /// use advsgm_core::{AdvSgmConfig, ModelVariant, PartitionedTrainer};
    /// use advsgm_graph::generators::classic::karate_club;
    ///
    /// let graph = karate_club();
    /// let cfg = AdvSgmConfig::test_small(ModelVariant::Sgm);
    /// let trainer = PartitionedTrainer::new(&graph, cfg, 4).unwrap();
    /// let stats = trainer.slot_stats();
    /// let out = trainer.train(&graph).unwrap();
    /// assert_eq!(out.node_vectors.rows(), graph.num_nodes());
    /// assert!(stats.high_water() <= 2);
    /// ```
    // Named `new` for its existing callers; it builds the one `Trainer`.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(graph: &Graph, cfg: AdvSgmConfig, partitions: usize) -> Result<Trainer, CoreError> {
        let (core, provider, rng) = SessionCore::new(graph, cfg)?;
        Trainer::partitioned(core, provider, rng, partitions)
    }
}

impl Trainer {
    /// Builds a trainer on an in-RAM engine picked from
    /// [`AdvSgmConfig::effective_threads`]: the sequential engine at one
    /// thread, the sharded engine above that. Validates the configuration
    /// against the graph.
    ///
    /// # Errors
    /// Configuration or sampler-construction failures.
    pub fn new(graph: &Graph, cfg: AdvSgmConfig) -> Result<Self, CoreError> {
        let threads = cfg.effective_threads();
        let (core, provider, rng) = SessionCore::new(graph, cfg)?;
        if threads <= 1 {
            return Ok(Self::in_ram(core, SequentialEngine::new(provider, rng)));
        }
        // The init-stream RNG is dropped: the sharded engine derives its
        // own streams, sharing only the parameter initialisation.
        let seed = core.cfg.seed;
        let stream = |tag| seeded(derive_seed(seed, tag));
        let engine = ShardedEngine::new(
            provider,
            threads,
            seed,
            stream(STREAM_SAMPLER),
            stream(STREAM_LOSS),
        );
        Ok(Self::in_ram(core, engine))
    }

    /// Rebuilds a trainer mid-schedule from a checkpoint captured through
    /// [`TrainHooks::on_checkpoint`], on the engine that captured it: the
    /// trajectory is engine-specific, so the engine (and a sharded run's
    /// thread count) is pinned by the checkpoint, not re-resolved.
    /// `partitions` is the node-bucket count for a partitioned checkpoint
    /// and is ignored otherwise; the partitioned trajectory is `P`-free,
    /// so any `P >= 1` continues the identical run. Training the result is
    /// bitwise-identical to never having interrupted the original run.
    ///
    /// # Errors
    /// [`CoreError::Checkpoint`] when the state is inconsistent or does
    /// not match `graph`; [`CoreError::Config`] for a partitioned
    /// checkpoint resumed with `partitions = 0`.
    pub fn resume(
        graph: &Graph,
        state: &CheckpointState,
        partitions: usize,
    ) -> Result<Self, CoreError> {
        let (core, provider) = SessionCore::resume(graph, state)?;
        let stream = |i: usize| rng_from_state(state.rng_streams[i]);
        match state.engine {
            EngineKind::Sequential => Ok(Self::in_ram(
                core,
                SequentialEngine::new(provider, stream(0)),
            )),
            EngineKind::Sharded => {
                let threads = state.config.num_threads;
                if threads < 2 {
                    return Err(CoreError::Checkpoint {
                        reason: format!(
                            "sharded checkpoint records {threads} thread(s); need >= 2"
                        ),
                    });
                }
                let seed = core.cfg.seed;
                let engine = ShardedEngine::new(provider, threads, seed, stream(0), stream(1));
                Ok(Self::in_ram(core, engine))
            }
            EngineKind::Partitioned => Self::partitioned(core, provider, stream(0), partitions),
        }
    }

    fn in_ram(core: SessionCore, engine: impl Engine + Send + 'static) -> Self {
        Self {
            core,
            engine: Box::new(engine),
            stats: Arc::default(),
        }
    }

    /// Moves `core`'s embeddings into a partitioned engine's slot pool.
    fn partitioned(
        mut core: SessionCore,
        provider: BatchProvider,
        rng: SmallRng,
        partitions: usize,
    ) -> Result<Self, CoreError> {
        if partitions == 0 {
            return Err(CoreError::Config {
                field: "partitions",
                reason: "need at least one partition bucket".into(),
            });
        }
        let stats = Arc::new(SlotPoolStats::default());
        let engine =
            PartitionedEngine::new(&mut core, provider, rng, partitions, Arc::clone(&stats))?;
        Ok(Self {
            core,
            engine: Box::new(engine),
            stats,
        })
    }

    /// The resolved worker-thread count: 1 for the sequential engine; for
    /// the partitioned engine, the workers that run Phase B and regenerate
    /// the next update's fakes, not counting the calling thread, which
    /// joins in on the fakes (its trajectory is thread-invariant).
    pub fn threads(&self) -> usize {
        self.engine.threads()
    }

    /// The validated configuration this trainer was built with. Exporters
    /// (e.g. `advsgm-store`) read the privacy parameters (`sigma`, target
    /// `epsilon`/`delta`) here to stamp released artifacts.
    pub fn config(&self) -> &AdvSgmConfig {
        &self.core.cfg
    }

    /// A shared handle to the partitioned engine's slot-pool counters,
    /// usable after [`Trainer::train`] consumed the trainer; all zero on
    /// the in-RAM engines.
    pub fn slot_stats(&self) -> Arc<SlotPoolStats> {
        Arc::clone(&self.stats)
    }

    /// Runs Algorithm 3 to completion (or budget exhaustion) and returns
    /// the outcome.
    ///
    /// # Errors
    /// Propagates substrate failures; budget exhaustion is *not* an error
    /// (it sets [`TrainOutcome::stopped_by_budget`]).
    pub fn train(mut self, graph: &Graph) -> Result<TrainOutcome, CoreError> {
        self.train_with_hooks(graph, &mut NoHooks)?;
        self.into_outcome()
    }

    /// Runs the rest of the schedule with a [`TrainHooks`] observer
    /// (epoch events, graceful stop, checkpoint capture) and leaves the
    /// trained state in place: [`Trainer::into_outcome`] releases it, and
    /// the Fig. 2 harness evaluates [`Trainer::loss_under_weight_mode`] on
    /// it first. A call once the schedule is done (every epoch run, or the
    /// budget exhausted) does nothing.
    ///
    /// A run a hook stopped continues where it stopped on the next call,
    /// bitwise as if it had never stopped.
    ///
    /// # Errors
    /// Propagates substrate failures.
    pub fn train_with_hooks(
        &mut self,
        graph: &Graph,
        hooks: &mut dyn TrainHooks,
    ) -> Result<(), CoreError> {
        let Self { core, engine, .. } = self;
        if core.cursor.stopped_by_budget || core.cursor.epochs_done >= core.cfg.epochs {
            return Ok(());
        }
        run_schedule(core, engine.as_mut(), graph, hooks)
    }

    /// Consumes the trainer into the outcome of the schedule run so far.
    /// The partitioned engine first materialises the full embeddings from
    /// its slot pool and spill store.
    ///
    /// # Errors
    /// [`CoreError::Io`] when the spill store cannot be read back.
    pub fn into_outcome(mut self) -> Result<TrainOutcome, CoreError> {
        self.engine.sync_core(&mut self.core)?;
        self.core.into_outcome()
    }

    /// Evaluates `|L_Nov|` under an arbitrary weight mode on the current
    /// state (Fig. 2 harness). It draws from the sequential engine's RNG
    /// stream, so it needs that engine.
    ///
    /// # Errors
    /// [`CoreError::Config`] on the sharded and partitioned engines;
    /// propagates sampling failures.
    pub fn loss_under_weight_mode(
        &mut self,
        graph: &Graph,
        mode: WeightMode,
        batches: usize,
    ) -> Result<f64, CoreError> {
        if self.engine.kind() != EngineKind::Sequential {
            return Err(CoreError::Config {
                field: "num_threads",
                reason: "the Fig. 2 loss evaluation needs the sequential engine (one thread, \
                         in RAM)"
                    .into(),
            });
        }
        let mut total = 0.0;
        for _ in 0..batches.max(1) {
            total += self.engine.epoch_loss(&mut self.core, graph, mode)?;
        }
        Ok(total / batches.max(1) as f64)
    }

    /// Convenience: build + train in one call.
    ///
    /// # Errors
    /// See [`Trainer::new`] / [`Trainer::train`].
    pub fn fit(graph: &Graph, cfg: AdvSgmConfig) -> Result<TrainOutcome, CoreError> {
        Trainer::new(graph, cfg)?.train(graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{EpochEvent, SessionControl, StopReason};
    use advsgm_graph::generators::classic::karate_club;
    use advsgm_graph::generators::sbm::{degree_corrected_sbm, SbmConfig};
    use advsgm_linalg::vector;
    use rand::Rng;

    /// The engines every behavioural test below runs on.
    const ENGINES: [EngineKind; 3] = [
        EngineKind::Sequential,
        EngineKind::Sharded,
        EngineKind::Partitioned,
    ];

    /// `cfg` on `engine`: one thread, four threads, or `P = 3` buckets.
    fn build(engine: EngineKind, g: &Graph, cfg: AdvSgmConfig) -> Result<Trainer, CoreError> {
        match engine {
            EngineKind::Sequential => Trainer::new(g, cfg.with_threads(1)),
            EngineKind::Sharded => Trainer::new(g, cfg.with_threads(4)),
            EngineKind::Partitioned => PartitionedTrainer::new(g, cfg.with_threads(1), 3),
        }
    }

    fn fit(engine: EngineKind, g: &Graph, cfg: AdvSgmConfig) -> TrainOutcome {
        build(engine, g, cfg).unwrap().train(g).unwrap()
    }

    fn small_graph() -> Graph {
        let mut rng = seeded(99);
        degree_corrected_sbm(
            &SbmConfig {
                num_nodes: 120,
                num_edges: 600,
                num_blocks: 4,
                mixing: 0.1,
                degree_exponent: 2.5,
            },
            &mut rng,
        )
    }

    fn bits(m: &DenseMatrix) -> Vec<u64> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    /// A configuration whose budget runs out mid-schedule on karate club.
    fn budget_limited() -> AdvSgmConfig {
        let mut cfg = AdvSgmConfig::test_small(ModelVariant::AdvSgm);
        cfg.epochs = 50;
        cfg.disc_iters = 10;
        cfg.sigma = 1.0; // heavy per-step cost
        cfg.epsilon = 0.8;
        cfg
    }

    #[test]
    fn every_variant_trains_without_error() {
        let g = small_graph();
        for engine in ENGINES {
            for v in ModelVariant::all() {
                let cfg = AdvSgmConfig::test_small(v).with_shard_size(7);
                let out = fit(engine, &g, cfg);
                assert_eq!(out.node_vectors.rows(), g.num_nodes());
                assert_eq!(out.node_vectors.cols(), 16);
                assert!(out.disc_updates > 0, "{engine:?} {v}: no updates");
                assert!(
                    out.node_vectors.as_slice().iter().all(|x| x.is_finite()),
                    "{engine:?} {v}: non-finite embedding"
                );
            }
        }
    }

    #[test]
    fn private_variants_report_privacy_spend() {
        let g = small_graph();
        let out = Trainer::fit(&g, AdvSgmConfig::test_small(ModelVariant::AdvSgm)).unwrap();
        assert!(out.epsilon_spent.is_some());
        assert!(out.delta_spent.is_some());
        assert!(out.epsilon_spent.unwrap() > 0.0);
    }

    #[test]
    fn non_private_variants_do_not_account() {
        let g = small_graph();
        let out = Trainer::fit(&g, AdvSgmConfig::test_small(ModelVariant::Sgm)).unwrap();
        assert!(out.epsilon_spent.is_none());
        assert!(!out.stopped_by_budget);
        assert_eq!(out.epochs_run, 2);
    }

    #[test]
    fn tight_budget_stops_every_engine_at_the_same_update() {
        // Budget spend and schedule-derived counters must not depend on
        // the engine or its thread count. `budget_limited` stops after the
        // first update; `later` after one whole epoch and part of the next
        // phase, so the partitioned engine's lookahead has handed over
        // many times before it stops.
        let g = karate_club();
        let mut later = budget_limited();
        later.sigma = 5.0;
        later.epsilon = 5.0;
        for cfg in [budget_limited(), later] {
            let at = format!("epsilon {}", cfg.epsilon);
            let seq = fit(EngineKind::Sequential, &g, cfg.clone());
            assert!(seq.stopped_by_budget, "{at}: expected early stop");
            assert!(seq.epochs_run < 50, "{at}");
            // Spent delta must have crossed the target.
            assert!(seq.delta_spent.unwrap() >= 1e-5, "{at}");
            // The stop falls mid-phase, so above one thread the partitioned
            // engine stops with the next update's draws already taken.
            let phase = 2 * cfg.disc_iters as u64;
            assert_ne!(
                seq.disc_updates % phase,
                0,
                "{at}: the stop must fall mid-phase"
            );
            let partitioned = |threads| {
                PartitionedTrainer::new(&g, cfg.clone().with_threads(threads), 3)
                    .unwrap()
                    .train(&g)
                    .unwrap()
            };
            let (part1, part4) = (partitioned(1), partitioned(4));
            for (engine, out) in [
                ("sharded@4", &fit(EngineKind::Sharded, &g, cfg.clone())),
                (
                    "sharded@2",
                    &Trainer::fit(&g, cfg.clone().with_threads(2)).unwrap(),
                ),
                ("partitioned@1", &part1),
                ("partitioned@4", &part4),
            ] {
                assert!(out.stopped_by_budget, "{at}: {engine}");
                assert_eq!(seq.disc_updates, out.disc_updates, "{at}: {engine}");
                assert_eq!(seq.epochs_run, out.epochs_run, "{at}: {engine}");
                assert_eq!(seq.epsilon_spent, out.epsilon_spent, "{at}: {engine}");
                assert_eq!(seq.delta_spent, out.delta_spent, "{at}: {engine}");
            }
            // Up to the stop, the partitioned engine replays the sequential
            // one.
            for (engine, out) in [("partitioned@1", &part1), ("partitioned@4", &part4)] {
                let what = format!("{at}: {engine}");
                assert_eq!(bits(&seq.node_vectors), bits(&out.node_vectors), "{what}");
                assert_eq!(
                    bits(&seq.context_vectors),
                    bits(&out.context_vectors),
                    "{what}"
                );
            }
        }
    }

    #[test]
    fn generous_budget_completes_all_epochs() {
        let g = small_graph();
        let mut cfg = AdvSgmConfig::test_small(ModelVariant::AdvSgm);
        cfg.epsilon = 1e6; // effectively unbounded
        let (epochs, iters) = (cfg.epochs, cfg.disc_iters);
        for engine in ENGINES {
            let out = fit(engine, &g, cfg.clone());
            assert!(!out.stopped_by_budget, "{engine:?}");
            assert_eq!(out.epochs_run, epochs, "{engine:?}");
            assert_eq!(out.disc_updates, (epochs * iters * 2) as u64, "{engine:?}");
        }
    }

    #[test]
    fn training_is_deterministic_under_seed() {
        let g = small_graph();
        let cfg = AdvSgmConfig::test_small(ModelVariant::AdvSgm);
        let mut reseeded = cfg.clone();
        reseeded.seed = 1;
        for engine in ENGINES {
            let a = fit(engine, &g, cfg.clone());
            let b = fit(engine, &g, cfg.clone());
            assert_eq!(bits(&a.node_vectors), bits(&b.node_vectors), "{engine:?}");
            assert_eq!(a.epoch_losses, b.epoch_losses, "{engine:?}");
            let c = fit(engine, &g, reseeded.clone());
            assert_ne!(bits(&a.node_vectors), bits(&c.node_vectors), "{engine:?}");
        }
    }

    #[test]
    fn partitioned_engine_replays_the_sequential_engine_bitwise() {
        let g = small_graph();
        for v in ModelVariant::all() {
            let cfg = AdvSgmConfig::test_small(v);
            let seq = fit(EngineKind::Sequential, &g, cfg.clone());
            // Phase-B results are chunk-invariant and the lookahead (which
            // needs the pool) moves no draw, so four worker threads
            // reproduce the sequential engine too.
            for (threads, p) in [(1, 3), (4, 2)] {
                let ooc = PartitionedTrainer::new(&g, cfg.clone().with_threads(threads), p)
                    .unwrap()
                    .train(&g)
                    .unwrap();
                let at = format!("{v} at {threads} thread(s)");
                assert_eq!(
                    bits(&seq.node_vectors),
                    bits(&ooc.node_vectors),
                    "{at}: partitioned must reproduce the sequential engine bit-for-bit"
                );
                assert_eq!(
                    bits(&seq.context_vectors),
                    bits(&ooc.context_vectors),
                    "{at}"
                );
                assert_eq!(seq.epoch_losses, ooc.epoch_losses, "{at}");
                assert_eq!(seq.disc_updates, ooc.disc_updates, "{at}");
                assert_eq!(seq.epsilon_spent, ooc.epsilon_spent, "{at}");
                assert_eq!(seq.delta_spent, ooc.delta_spent, "{at}");
            }
        }
    }

    #[test]
    fn shard_size_changes_trajectory_but_stays_deterministic() {
        let g = small_graph();
        let base = AdvSgmConfig::test_small(ModelVariant::AdvSgm).with_threads(3);
        let a1 = Trainer::fit(&g, base.clone().with_shard_size(4)).unwrap();
        let a2 = Trainer::fit(&g, base.clone().with_shard_size(4)).unwrap();
        assert_eq!(bits(&a1.node_vectors), bits(&a2.node_vectors));
        let b = Trainer::fit(&g, base.with_shard_size(5)).unwrap();
        assert_ne!(
            bits(&a1.node_vectors),
            bits(&b.node_vectors),
            "different sharding must follow a different derived-stream trajectory"
        );
    }

    #[test]
    fn auto_thread_resolution_trains_and_is_deterministic() {
        // num_threads = 0 resolves via ADVSGM_THREADS (CI runs this suite
        // with it set to 4, routing it through the sharded engine) and
        // falls back to the sequential engine otherwise; either way
        // training must succeed and be reproducible.
        let g = small_graph();
        let cfg = AdvSgmConfig::test_small(ModelVariant::AdvSgm);
        assert_eq!(cfg.num_threads, 0, "test_small must leave threads auto");
        let trainer = Trainer::new(&g, cfg.clone()).unwrap();
        assert_eq!(trainer.threads(), cfg.effective_threads());
        let a = trainer.train(&g).unwrap();
        let b = Trainer::fit(&g, cfg).unwrap();
        assert_eq!(bits(&a.node_vectors), bits(&b.node_vectors));
    }

    #[test]
    fn sgm_training_improves_link_reconstruction() {
        // After non-private skip-gram training, positive pairs should score
        // higher on average than random pairs, on every engine.
        let g = small_graph();
        let mut cfg = AdvSgmConfig::test_small(ModelVariant::Sgm);
        cfg.epochs = 12;
        cfg.disc_iters = 20;
        cfg.batch_size = 64;
        for engine in ENGINES {
            let out = fit(engine, &g, cfg.clone());
            let emb = &out.node_vectors;
            let ctx = &out.context_vectors;
            let mut rng = seeded(5);
            let mut pos_mean = 0.0;
            for e in g.edges() {
                pos_mean += vector::dot(emb.row(e.u().index()), ctx.row(e.v().index()));
            }
            pos_mean /= g.num_edges() as f64;
            let mut neg_mean = 0.0;
            let trials = 2000;
            for _ in 0..trials {
                let a = rng.gen_range(0..g.num_nodes());
                let b = rng.gen_range(0..g.num_nodes());
                neg_mean += vector::dot(emb.row(a), ctx.row(b));
            }
            neg_mean /= trials as f64;
            assert!(
                pos_mean > neg_mean,
                "{engine:?}: positive mean {pos_mean} not above random mean {neg_mean}"
            );
        }
    }

    #[test]
    fn rows_stay_in_unit_ball_when_projecting() {
        let g = small_graph();
        let mut cfg = AdvSgmConfig::test_small(ModelVariant::AdvSgm);
        cfg.project_rows = true;
        for engine in ENGINES {
            let out = fit(engine, &g, cfg.clone());
            for i in 0..out.node_vectors.rows() {
                assert!(
                    vector::norm2(out.node_vectors.row(i)) <= 1.0 + 1e-9,
                    "{engine:?}: row {i}"
                );
            }
        }
    }

    #[test]
    fn loss_under_weight_modes_orders_as_figure2() {
        // lambda = 1/S should produce the largest |L_Nov|, then 1, then 0.5
        // (Fig. 2's bars), because lambda multiplies a non-negative term.
        let g = small_graph();
        let cfg = AdvSgmConfig::test_small(ModelVariant::AdvSgm);
        let mut t = build(EngineKind::Sequential, &g, cfg.clone()).unwrap();
        let l_half = t
            .loss_under_weight_mode(&g, WeightMode::Fixed(0.5), 3)
            .unwrap();
        let l_one = t
            .loss_under_weight_mode(&g, WeightMode::Fixed(1.0), 3)
            .unwrap();
        let l_inv = t
            .loss_under_weight_mode(&g, WeightMode::InverseS, 3)
            .unwrap();
        assert!(l_half <= l_one + 1e-9, "half={l_half} one={l_one}");
        assert!(l_one <= l_inv + 1e-9, "one={l_one} inv={l_inv}");
        // The other engines refuse with a typed error instead of panicking.
        for engine in [EngineKind::Sharded, EngineKind::Partitioned] {
            let mut t = build(engine, &g, cfg.clone()).unwrap();
            let err = t
                .loss_under_weight_mode(&g, WeightMode::InverseS, 1)
                .unwrap_err();
            assert!(matches!(err, CoreError::Config { .. }), "{engine:?}: {err}");
        }
    }

    #[test]
    fn empty_graph_rejected() {
        let g = Graph::from_parts(5, vec![], None);
        for engine in ENGINES {
            let cfg = AdvSgmConfig::test_small(ModelVariant::Sgm);
            assert!(build(engine, &g, cfg).is_err(), "{engine:?}");
        }
    }

    #[test]
    fn zero_partitions_rejected() {
        let g = small_graph();
        let cfg = AdvSgmConfig::test_small(ModelVariant::Sgm);
        assert!(matches!(
            PartitionedTrainer::new(&g, cfg, 0),
            Err(CoreError::Config {
                field: "partitions",
                ..
            })
        ));
    }

    #[test]
    fn slot_pool_never_holds_more_than_two_partitions() {
        let g = small_graph();
        let cfg = AdvSgmConfig::test_small(ModelVariant::AdvSgm).with_threads(1);
        let trainer = PartitionedTrainer::new(&g, cfg.clone(), 4).unwrap();
        let stats = trainer.slot_stats();
        trainer.train(&g).unwrap();
        assert!(stats.high_water() <= 2, "high water {}", stats.high_water());
        assert!(stats.loads() > 0);
        assert!(stats.evictions() > 0, "P=4 must swap partitions");
        // The in-RAM engines have no pool: their counters stay zero.
        for engine in [EngineKind::Sequential, EngineKind::Sharded] {
            let trainer = build(engine, &g, cfg.clone()).unwrap();
            let stats = trainer.slot_stats();
            trainer.train(&g).unwrap();
            let counters = [stats.resident(), stats.high_water(), stats.loads()];
            assert_eq!(counters, [0; 3], "{engine:?}");
            assert_eq!(stats.evictions(), 0, "{engine:?}");
        }
    }

    /// Records every epoch event and the checkpoints offered; optionally
    /// stops after `stop_after` epochs.
    struct Recorder {
        events: Vec<EpochEvent>,
        stop_after: Option<usize>,
        checkpoint: Option<CheckpointState>,
    }

    impl Recorder {
        fn new(stop_after: Option<usize>) -> Self {
            Self {
                events: Vec::new(),
                stop_after,
                checkpoint: None,
            }
        }
    }

    impl TrainHooks for Recorder {
        fn on_epoch(&mut self, event: &EpochEvent) -> SessionControl {
            self.events.push(event.clone());
            match self.stop_after {
                Some(k) if self.events.len() >= k => SessionControl::Stop,
                _ => SessionControl::Continue,
            }
        }

        fn wants_checkpoint(&mut self, epochs_done: usize) -> bool {
            self.checkpoint.is_none() && self.stop_after == Some(epochs_done)
        }

        fn on_checkpoint(&mut self, state: &CheckpointState) -> SessionControl {
            self.checkpoint = Some(state.clone());
            SessionControl::Continue
        }
    }

    /// Trains `trainer` under `hooks`, then releases its outcome.
    fn train_observed(mut trainer: Trainer, g: &Graph, hooks: &mut Recorder) -> TrainOutcome {
        trainer.train_with_hooks(g, hooks).unwrap();
        trainer.into_outcome().unwrap()
    }

    #[test]
    fn hooks_observe_every_epoch_with_spend() {
        let g = small_graph();
        let cfg = AdvSgmConfig::test_small(ModelVariant::AdvSgm);
        let epochs = cfg.epochs;
        for engine in ENGINES {
            let mut rec = Recorder::new(None);
            let out = train_observed(build(engine, &g, cfg.clone()).unwrap(), &g, &mut rec);
            assert_eq!(rec.events.len(), epochs, "{engine:?}");
            for (i, e) in rec.events.iter().enumerate() {
                assert_eq!(e.epoch, i);
                assert_eq!(e.epochs_total, epochs);
                assert_eq!(e.loss, Some(out.epoch_losses[i]));
                let spend = e.spend.expect("private variant reports spend");
                assert!(spend.epsilon_spent > 0.0);
            }
            assert_eq!(rec.events.last().unwrap().stop, Some(StopReason::Completed));
            assert!(rec.events[..epochs - 1].iter().all(|e| e.stop.is_none()));
        }
    }

    #[test]
    fn hooks_see_budget_stop_event() {
        let g = karate_club();
        for engine in ENGINES {
            let mut rec = Recorder::new(None);
            let out = train_observed(build(engine, &g, budget_limited()).unwrap(), &g, &mut rec);
            assert!(out.stopped_by_budget, "{engine:?}");
            let last = rec.events.last().unwrap();
            assert_eq!(last.stop, Some(StopReason::BudgetExhausted));
            assert_eq!(last.loss, None, "mid-epoch stop has no epoch loss");
        }
    }

    #[test]
    fn hook_stop_ends_training_gracefully() {
        let g = small_graph();
        let mut cfg = AdvSgmConfig::test_small(ModelVariant::AdvSgm);
        cfg.epochs = 5;
        for engine in ENGINES {
            let mut rec = Recorder::new(Some(2));
            let out = train_observed(build(engine, &g, cfg.clone()).unwrap(), &g, &mut rec);
            assert_eq!(out.epochs_run, 2, "{engine:?}");
            assert!(!out.stopped_by_budget);
            assert_eq!(out.epoch_losses.len(), 2);
        }
    }

    #[test]
    fn a_hook_stopped_run_continues_in_place_bitwise() {
        // A hook stops the run after epoch 2; a second call finishes it,
        // and the release is the uninterrupted run's on every engine.
        let g = small_graph();
        let mut cfg = AdvSgmConfig::test_small(ModelVariant::AdvSgm);
        cfg.epochs = 5;
        cfg.epsilon = 1e6;
        let loss_bits =
            |o: &TrainOutcome| -> Vec<u64> { o.epoch_losses.iter().map(|l| l.to_bits()).collect() };
        for engine in ENGINES {
            let whole = fit(engine, &g, cfg.clone());
            let mut trainer = build(engine, &g, cfg.clone()).unwrap();
            let mut rec = Recorder::new(Some(2));
            trainer.train_with_hooks(&g, &mut rec).unwrap();
            assert_eq!(rec.events.len(), 2, "{engine:?}");
            trainer.train_with_hooks(&g, &mut NoHooks).unwrap();
            let out = trainer.into_outcome().unwrap();
            assert_eq!(out.epochs_run, 5, "{engine:?}");
            assert_eq!(
                bits(&whole.node_vectors),
                bits(&out.node_vectors),
                "{engine:?}"
            );
            assert_eq!(loss_bits(&whole), loss_bits(&out), "{engine:?}");
            assert_eq!(whole.disc_updates, out.disc_updates, "{engine:?}");
            assert_eq!(whole.epsilon_spent, out.epsilon_spent, "{engine:?}");
            assert_eq!(whole.delta_spent, out.delta_spent, "{engine:?}");
        }
    }

    #[test]
    fn a_finished_schedule_trains_no_further() {
        let g = small_graph();
        let cfg = AdvSgmConfig::test_small(ModelVariant::AdvSgm);
        let once = Trainer::fit(&g, cfg.clone().with_threads(1)).unwrap();
        for engine in ENGINES {
            let mut trainer = build(engine, &g, cfg.clone()).unwrap();
            trainer.train_with_hooks(&g, &mut NoHooks).unwrap();
            trainer.train_with_hooks(&g, &mut NoHooks).unwrap();
            let out = trainer.into_outcome().unwrap();
            assert_eq!(out.epochs_run, cfg.epochs, "{engine:?}");
            assert_eq!(out.disc_updates, once.disc_updates, "{engine:?}");
        }
        // A budget-stopped schedule is done too.
        let g = karate_club();
        let mut trainer = build(EngineKind::Sequential, &g, budget_limited()).unwrap();
        trainer.train_with_hooks(&g, &mut NoHooks).unwrap();
        trainer.train_with_hooks(&g, &mut NoHooks).unwrap();
        let out = trainer.into_outcome().unwrap();
        let once = fit(EngineKind::Sequential, &g, budget_limited());
        assert_eq!(out.disc_updates, once.disc_updates);
    }

    #[test]
    fn resume_restores_the_capturing_engine() {
        let g = small_graph();
        let mut cfg = AdvSgmConfig::test_small(ModelVariant::AdvSgm);
        cfg.epochs = 3;
        for engine in ENGINES {
            let mut rec = Recorder::new(Some(1));
            train_observed(build(engine, &g, cfg.clone()).unwrap(), &g, &mut rec);
            let state = rec.checkpoint.expect("checkpoint captured");
            let resumed = Trainer::resume(&g, &state, 2).unwrap();
            let want = if engine == EngineKind::Sharded { 4 } else { 1 };
            assert_eq!(resumed.threads(), want, "{engine:?}");
            let stats = resumed.slot_stats();
            let out = resumed.train(&g).unwrap();
            assert_eq!(out.epochs_run, 3, "{engine:?}");
            assert_eq!(stats.loads() > 0, engine == EngineKind::Partitioned);
            if engine == EngineKind::Partitioned {
                assert!(matches!(
                    Trainer::resume(&g, &state, 0),
                    Err(CoreError::Config {
                        field: "partitions",
                        ..
                    })
                ));
            }
        }
    }
}
