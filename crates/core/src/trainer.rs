//! The one training type over the session layer (DESIGN.md §10).
//!
//! [`Trainer`] is a session core plus the execution engine chosen when it
//! is built: the sequential engine at one thread, the replay engine in RAM
//! above that (DESIGN.md §7), or the replay engine on a spill store, out
//! of core (DESIGN.md §14), through [`PartitionedTrainer::new`].
//! The Algorithm-3 schedule itself — epochs, `n_D`/`n_G` iteration
//! counts, the Theorem-7 stopping rule, outcome assembly — lives once in
//! `session::run_schedule`, and [`Trainer::train_with_hooks`] drives every
//! engine through it from one place, so the engines cannot drift.
//!
//! # Determinism contract
//!
//! Released embeddings, epoch losses and spend are a function of the seed
//! and the configuration: no thread count or partition count moves a bit.
//!
//! * **Sequential** (`threads = 1`): the trajectory is a pure function of
//!   the seed.
//! * **Replay** (`threads = N > 1` in RAM, or any width out of core):
//!   every step replays the sequential engine's RNG draws and
//!   floating-point accumulation order, so released embeddings, epoch
//!   losses and spend are bit-for-bit the sequential engine's at every
//!   thread count (`tests/sharded_determinism.rs`) and every partition
//!   count `P >= 1` (`tests/ooc_equivalence.rs`), while at most two
//!   embedding partitions are resident out of core
//!   ([`SlotPoolStats::high_water`] `<= 2`).
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
use advsgm_linalg::rng::rng_from_state;
use advsgm_linalg::DenseMatrix;
use rand::rngs::SmallRng;

use crate::config::AdvSgmConfig;
use crate::error::CoreError;
use crate::sampler::BatchProvider;
use crate::session::replay::ReplayEngine;
use crate::session::sequential::SequentialEngine;
use crate::session::{
    run_schedule, CheckpointState, Engine, EngineKind, NoHooks, SessionCore, TrainHooks,
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

/// Observability counters for the spill store's two-slot pool.
///
/// Obtained through [`Trainer::slot_stats`] *before* training consumes the
/// trainer (the handle is `Arc`-shared with the engine), so callers can
/// assert the residency bound after the run: [`SlotPoolStats::high_water`]
/// never exceeds 2 — one `W_in` partition plus one `W_out` partition.
/// Training in RAM has no pool; its counters stay zero.
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
    /// Builds a trainer in RAM on the engine
    /// [`AdvSgmConfig::effective_threads`] picks: the sequential engine at
    /// one thread, the replay engine above that. Both follow the one
    /// sequential trajectory. Validates the configuration against the
    /// graph.
    ///
    /// # Errors
    /// Configuration or sampler-construction failures.
    pub fn new(graph: &Graph, cfg: AdvSgmConfig) -> Result<Self, CoreError> {
        let (core, provider, rng) = SessionCore::new(graph, cfg)?;
        Self::in_ram(core, provider, rng)
    }

    /// Rebuilds a trainer mid-schedule from a checkpoint captured through
    /// [`TrainHooks::on_checkpoint`]. An in-RAM checkpoint resumes in RAM
    /// on the engine its recorded `config.num_threads` picks; a
    /// partitioned one resumes out of core with `partitions` node buckets
    /// (ignored otherwise). Every engine follows the sequential
    /// trajectory, so any width and any `P >= 1` continues the identical
    /// run: training the result is bitwise-identical to never having
    /// interrupted the original run.
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
        let rng = rng_from_state(state.rng_streams[0]);
        match state.engine {
            EngineKind::Sequential => Self::in_ram(core, provider, rng),
            EngineKind::Partitioned => Self::partitioned(core, provider, rng, partitions),
        }
    }

    /// The sequential engine at one thread, else the replay engine with
    /// its rows in `core.emb`.
    fn in_ram(
        core: SessionCore,
        provider: BatchProvider,
        rng: SmallRng,
    ) -> Result<Self, CoreError> {
        if core.cfg.effective_threads() > 1 {
            return Self::replay(core, provider, rng, 0);
        }
        Ok(Self {
            core,
            engine: Box::new(SequentialEngine::new(provider, rng)),
            stats: Arc::default(),
        })
    }

    /// The replay engine out of core, with `partitions >= 1` node buckets.
    fn partitioned(
        core: SessionCore,
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
        Self::replay(core, provider, rng, partitions)
    }

    /// The replay engine: in RAM at `partitions == 0`, else on a spill
    /// store that takes `core`'s embeddings.
    fn replay(
        mut core: SessionCore,
        provider: BatchProvider,
        rng: SmallRng,
        partitions: usize,
    ) -> Result<Self, CoreError> {
        let stats = Arc::new(SlotPoolStats::default());
        let engine = ReplayEngine::new(&mut core, provider, rng, partitions, Arc::clone(&stats))?;
        Ok(Self {
            core,
            engine: Box::new(engine),
            stats,
        })
    }

    /// The resolved worker-thread count: 1 for the sequential engine; for
    /// the replay engine, the workers that run Phase B and regenerate the
    /// next update's fakes, not counting the calling thread, which joins
    /// in on the fakes (its trajectory is thread-invariant).
    pub fn threads(&self) -> usize {
        self.engine.threads()
    }

    /// The validated configuration this trainer was built with. Exporters
    /// (e.g. `advsgm-store`) read the privacy parameters (`sigma`, target
    /// `epsilon`/`delta`) here to stamp released artifacts.
    pub fn config(&self) -> &AdvSgmConfig {
        &self.core.cfg
    }

    /// A shared handle to the spill store's slot-pool counters, usable
    /// after [`Trainer::train`] consumed the trainer; all zero in RAM.
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
    /// Out of core, the full embeddings are first read back from the
    /// spill store.
    ///
    /// # Errors
    /// [`CoreError::Io`] when the spill store cannot be read back.
    pub fn into_outcome(mut self) -> Result<TrainOutcome, CoreError> {
        self.engine.sync_core(&mut self.core)?;
        self.core.into_outcome()
    }

    /// Evaluates `|L_Nov|` under an arbitrary weight mode on the current
    /// state (Fig. 2 harness). It draws from the one sequential stream, so
    /// every engine returns the same bits.
    ///
    /// # Errors
    /// Propagates sampling and spill failures.
    pub fn loss_under_weight_mode(
        &mut self,
        graph: &Graph,
        mode: WeightMode,
        batches: usize,
    ) -> Result<f64, CoreError> {
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
    use advsgm_linalg::rng::seeded;
    use advsgm_linalg::vector;
    use rand::Rng;

    /// An engine a behavioural test below runs on.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Setup {
        /// The sequential engine (one thread, in RAM).
        Sequential,
        /// The replay engine in RAM at four threads.
        InRam4,
        /// The replay engine out of core, one thread, `P = 3` buckets.
        Partitioned,
    }

    /// The engines every behavioural test below runs on.
    const ENGINES: [Setup; 3] = [Setup::Sequential, Setup::InRam4, Setup::Partitioned];

    /// `cfg` on `engine`.
    fn build(engine: Setup, g: &Graph, cfg: AdvSgmConfig) -> Result<Trainer, CoreError> {
        match engine {
            Setup::Sequential => Trainer::new(g, cfg.with_threads(1)),
            Setup::InRam4 => Trainer::new(g, cfg.with_threads(4)),
            Setup::Partitioned => PartitionedTrainer::new(g, cfg.with_threads(1), 3),
        }
    }

    fn fit(engine: Setup, g: &Graph, cfg: AdvSgmConfig) -> TrainOutcome {
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
                let cfg = AdvSgmConfig::test_small(v);
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
        // The stop, the spend and the released bits must not depend on
        // the engine or its thread count. `budget_limited` stops after the
        // first update; `later` after one whole epoch and part of the next
        // phase, so the replay engine's lookahead has handed over many
        // times before it stops.
        let g = karate_club();
        let mut later = budget_limited();
        later.sigma = 5.0;
        later.epsilon = 5.0;
        for cfg in [budget_limited(), later] {
            let at = format!("epsilon {}", cfg.epsilon);
            let seq = fit(Setup::Sequential, &g, cfg.clone());
            assert!(seq.stopped_by_budget, "{at}: expected early stop");
            assert!(seq.epochs_run < 50, "{at}");
            // Spent delta must have crossed the target.
            assert!(seq.delta_spent.unwrap() >= 1e-5, "{at}");
            // The stop falls mid-phase, so above one thread the replay
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
            let in_ram = |threads| Trainer::fit(&g, cfg.clone().with_threads(threads)).unwrap();
            for (engine, out) in [
                ("in-RAM@4", &in_ram(4)),
                ("in-RAM@2", &in_ram(2)),
                ("partitioned@1", &partitioned(1)),
                ("partitioned@4", &partitioned(4)),
            ] {
                let what = format!("{at}: {engine}");
                assert!(out.stopped_by_budget, "{what}");
                assert_eq!(seq.disc_updates, out.disc_updates, "{what}");
                assert_eq!(seq.epochs_run, out.epochs_run, "{what}");
                assert_eq!(seq.epsilon_spent, out.epsilon_spent, "{what}");
                assert_eq!(seq.delta_spent, out.delta_spent, "{what}");
                // Up to the stop, every engine replays the sequential one.
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
    fn replay_engine_replays_the_sequential_engine_bitwise() {
        let g = small_graph();
        for v in ModelVariant::all() {
            let cfg = AdvSgmConfig::test_small(v);
            let seq = fit(Setup::Sequential, &g, cfg.clone());
            // Phase-B results are chunk-invariant and the lookahead (which
            // needs the pool) moves no draw, so any worker count, in RAM
            // (`P = 0`) or out of core, reproduces the sequential engine.
            for (threads, p) in [(2, 0), (4, 0), (1, 3), (4, 2)] {
                let cfg = cfg.clone().with_threads(threads);
                let ooc = match p {
                    0 => Trainer::new(&g, cfg),
                    p => PartitionedTrainer::new(&g, cfg, p),
                };
                let ooc = ooc.unwrap().train(&g).unwrap();
                let at = format!("{v} at {threads} thread(s), P = {p}");
                assert_eq!(
                    bits(&seq.node_vectors),
                    bits(&ooc.node_vectors),
                    "{at}: the replay engine must reproduce the sequential engine bit-for-bit"
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
    fn auto_thread_resolution_trains_and_is_deterministic() {
        // num_threads = 0 resolves via ADVSGM_THREADS (CI runs this suite
        // with it set to 4, routing it through the in-RAM replay engine)
        // and falls back to the sequential engine otherwise; either way
        // training must release the sequential engine's bits.
        let g = small_graph();
        let cfg = AdvSgmConfig::test_small(ModelVariant::AdvSgm);
        assert_eq!(cfg.num_threads, 0, "test_small must leave threads auto");
        let trainer = Trainer::new(&g, cfg.clone()).unwrap();
        assert_eq!(trainer.threads(), cfg.effective_threads());
        let a = trainer.train(&g).unwrap();
        let b = Trainer::fit(&g, cfg.with_threads(1)).unwrap();
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
        // Every engine draws the one sequential stream, so each evaluates
        // the same bits.
        let g = small_graph();
        let cfg = AdvSgmConfig::test_small(ModelVariant::AdvSgm);
        let modes = [
            WeightMode::Fixed(0.5),
            WeightMode::Fixed(1.0),
            WeightMode::InverseS,
        ];
        let losses = |engine| -> Vec<u64> {
            let mut t = build(engine, &g, cfg.clone()).unwrap();
            let mut losses = Vec::new();
            for mode in modes {
                let loss = t.loss_under_weight_mode(&g, mode, 3).unwrap();
                losses.push(loss.to_bits());
            }
            losses
        };
        let seq = losses(Setup::Sequential);
        let [l_half, l_one, l_inv] = [0, 1, 2].map(|k| f64::from_bits(seq[k]));
        assert!(l_half <= l_one + 1e-9, "half={l_half} one={l_one}");
        assert!(l_one <= l_inv + 1e-9, "one={l_one} inv={l_inv}");
        for engine in [Setup::InRam4, Setup::Partitioned] {
            assert_eq!(seq, losses(engine), "{engine:?}");
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
        // Training in RAM has no pool: its counters stay zero.
        for engine in [Setup::Sequential, Setup::InRam4] {
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
        let mut trainer = build(Setup::Sequential, &g, budget_limited()).unwrap();
        trainer.train_with_hooks(&g, &mut NoHooks).unwrap();
        trainer.train_with_hooks(&g, &mut NoHooks).unwrap();
        let out = trainer.into_outcome().unwrap();
        let once = fit(Setup::Sequential, &g, budget_limited());
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
            let want = if engine == Setup::InRam4 { 4 } else { 1 };
            assert_eq!(resumed.threads(), want, "{engine:?}");
            let stats = resumed.slot_stats();
            let out = resumed.train(&g).unwrap();
            assert_eq!(out.epochs_run, 3, "{engine:?}");
            assert_eq!(stats.loads() > 0, engine == Setup::Partitioned);
            if engine == Setup::Partitioned {
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
