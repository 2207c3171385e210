//! The out-of-core training facade over the session layer (DESIGN.md §14).
//!
//! [`PartitionedTrainer`] runs the same Algorithm 3 as [`crate::Trainer`]
//! — literally the same loop, `session::run_schedule` — but executes each
//! step through the partitioned engine
//! (`session::partitioned::PartitionedEngine`): the embedding matrices
//! are split into `P` node buckets that swap through a two-slot pool
//! (one `W_in` bucket and one `W_out` bucket resident at a time, the
//! rest in one spill file per matrix, overwritten in place), sized for
//! graphs whose embeddings do not fit in RAM. Each step gathers the rows
//! it reads role by role, visiting every touched bucket once from the
//! resident one on, so a discriminator update loads at most `4 (P - 1)`
//! partitions ([`SlotPoolStats::loads`]).
//!
//! # Determinism contract
//!
//! * **Bitwise identity with the sequential trainer**: every step replays
//!   the sequential engine's RNG draws and floating-point accumulation
//!   order (the engine's module docs hold the phase-by-phase argument),
//!   so at a fixed seed the released embeddings, per-epoch losses, and
//!   privacy spend are bit-for-bit equal to [`crate::Trainer`]'s — for
//!   every partition count `P >= 1` and every thread count
//!   (`tests/ooc_equivalence.rs`).
//! * **Residency bound**: at most two embedding partitions are in memory
//!   at any point during stepping, observable as
//!   [`SlotPoolStats::high_water`] `<= 2`. (Checkpoint capture and final
//!   outcome assembly materialise the full matrices by necessity; the
//!   next step drops that copy again.)
//! * **Checkpoint/resume is bitwise-exact and `P`-free**: the partition
//!   count shapes residency, never the trajectory, so a checkpoint
//!   captured at one `P` resumes identically under any other.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use advsgm_graph::Graph;
use advsgm_linalg::rng::rng_from_state;

use crate::config::AdvSgmConfig;
use crate::error::CoreError;
use crate::session::partitioned::PartitionedEngine;
use crate::session::{
    run_schedule, CheckpointState, Engine, EngineKind, NoHooks, SessionCore, TrainHooks,
};
use crate::trainer::TrainOutcome;

/// Observability counters for the partitioned engine's two-slot pool.
///
/// Obtained *before* training consumes the trainer (the handle is
/// `Arc`-shared with the engine), so tests and callers can assert the
/// residency bound after the run:
/// [`SlotPoolStats::high_water`] never exceeds 2 — one `W_in` partition
/// plus one `W_out` partition.
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

    /// Partition evictions from the pool (clean or dirty).
    pub fn evictions(&self) -> usize {
        self.evictions.load(Ordering::Relaxed)
    }
}

/// Out-of-core Algorithm 3: disk-resident embedding partitions, bitwise
/// identical to the sequential [`crate::Trainer`] (module docs have the
/// full contract).
pub struct PartitionedTrainer {
    core: SessionCore,
    engine: PartitionedEngine,
    partitions: usize,
    stats: Arc<SlotPoolStats>,
}

impl PartitionedTrainer {
    /// Builds a partitioned trainer with `partitions` node buckets;
    /// validates the configuration against the graph and spills the
    /// freshly initialised embeddings to disk.
    ///
    /// # Errors
    /// Configuration or sampler-construction failures; `partitions = 0`;
    /// [`CoreError::Io`] when the spill store cannot be created.
    pub fn new(graph: &Graph, cfg: AdvSgmConfig, partitions: usize) -> Result<Self, CoreError> {
        if partitions == 0 {
            return Err(CoreError::Config {
                field: "partitions",
                reason: "need at least one partition bucket".into(),
            });
        }
        let (mut core, provider, rng) = SessionCore::new(graph, cfg)?;
        let stats = Arc::new(SlotPoolStats::default());
        let engine =
            PartitionedEngine::new(&mut core, provider, rng, partitions, Arc::clone(&stats))?;
        Ok(Self {
            core,
            engine,
            partitions,
            stats,
        })
    }

    /// Rebuilds a trainer mid-schedule from a partitioned checkpoint
    /// captured through [`TrainHooks::on_checkpoint`]. The partition
    /// count is caller-supplied, not persisted: the trajectory is
    /// `P`-invariant, so any `P >= 1` continues the identical run.
    ///
    /// # Errors
    /// [`CoreError::Checkpoint`] when the state is inconsistent, was
    /// captured by an in-RAM engine, or does not match `graph`.
    pub fn resume(
        graph: &Graph,
        state: &CheckpointState,
        partitions: usize,
    ) -> Result<Self, CoreError> {
        if partitions == 0 {
            return Err(CoreError::Config {
                field: "partitions",
                reason: "need at least one partition bucket".into(),
            });
        }
        if state.engine != EngineKind::Partitioned {
            return Err(CoreError::Checkpoint {
                reason: "checkpoint was captured by an in-RAM engine; resume it through \
                         Trainer::resume or ShardedTrainer::resume"
                    .into(),
            });
        }
        let (mut core, provider) = SessionCore::resume(graph, state)?;
        let rng = rng_from_state(state.rng_streams[0]);
        let stats = Arc::new(SlotPoolStats::default());
        let engine =
            PartitionedEngine::new(&mut core, provider, rng, partitions, Arc::clone(&stats))?;
        Ok(Self {
            core,
            engine,
            partitions,
            stats,
        })
    }

    /// The resolved worker-thread count (Phase-B computation only; the
    /// trajectory is thread-invariant).
    pub fn threads(&self) -> usize {
        self.engine.threads()
    }

    /// The validated configuration this trainer was built with.
    pub fn config(&self) -> &AdvSgmConfig {
        &self.core.cfg
    }

    /// The number of node buckets the embeddings are partitioned into.
    pub fn partitions(&self) -> usize {
        self.partitions
    }

    /// A shared handle to the slot-pool counters, usable after
    /// [`PartitionedTrainer::train`] consumed the trainer.
    pub fn slot_stats(&self) -> Arc<SlotPoolStats> {
        Arc::clone(&self.stats)
    }

    /// Runs Algorithm 3 to completion (or budget exhaustion) and returns
    /// the outcome — the out-of-core counterpart of [`crate::Trainer::run`].
    ///
    /// # Errors
    /// Propagates substrate failures; budget exhaustion is *not* an error
    /// (it sets [`TrainOutcome::stopped_by_budget`]).
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
    pub fn train(self, graph: &Graph) -> Result<TrainOutcome, CoreError> {
        self.train_with_hooks(graph, &mut NoHooks)
    }

    /// [`PartitionedTrainer::train`] with a [`TrainHooks`] observer (epoch
    /// events, graceful stop, checkpoint capture).
    ///
    /// # Errors
    /// See [`PartitionedTrainer::train`].
    pub fn train_with_hooks(
        mut self,
        graph: &Graph,
        hooks: &mut dyn TrainHooks,
    ) -> Result<TrainOutcome, CoreError> {
        run_schedule(&mut self.core, &mut self.engine, graph, hooks)?;
        // Materialise the final embeddings from the slot pool + spill
        // store; until here `core.emb` is an empty placeholder.
        self.engine.sync_core(&mut self.core)?;
        self.core.into_outcome()
    }

    /// Convenience: build + train in one call.
    ///
    /// # Errors
    /// See [`PartitionedTrainer::new`] / [`PartitionedTrainer::train`].
    pub fn fit(
        graph: &Graph,
        cfg: AdvSgmConfig,
        partitions: usize,
    ) -> Result<TrainOutcome, CoreError> {
        PartitionedTrainer::new(graph, cfg, partitions)?.train(graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::Trainer;
    use crate::variants::ModelVariant;
    use advsgm_graph::generators::sbm::{degree_corrected_sbm, SbmConfig};
    use advsgm_linalg::rng::seeded;

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

    fn bits(m: &advsgm_linalg::DenseMatrix) -> Vec<u64> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn every_variant_is_bitwise_identical_to_sequential() {
        let g = small_graph();
        for v in ModelVariant::all() {
            let cfg = AdvSgmConfig::test_small(v).with_threads(1);
            let seq = Trainer::fit(&g, cfg.clone()).unwrap();
            let ooc = PartitionedTrainer::fit(&g, cfg, 3).unwrap();
            assert_eq!(
                bits(&seq.node_vectors),
                bits(&ooc.node_vectors),
                "{v}: partitioned must reproduce the sequential trainer bit-for-bit"
            );
            assert_eq!(bits(&seq.context_vectors), bits(&ooc.context_vectors));
            assert_eq!(seq.epoch_losses, ooc.epoch_losses);
            assert_eq!(seq.disc_updates, ooc.disc_updates);
            assert_eq!(seq.epsilon_spent, ooc.epsilon_spent);
            assert_eq!(seq.delta_spent, ooc.delta_spent);
        }
    }

    #[test]
    fn worker_threads_do_not_change_the_bits() {
        // Phase-B results are chunk-invariant, so the pool must be
        // invisible: threads = 4 reproduces the sequential trainer too.
        let g = small_graph();
        let cfg = AdvSgmConfig::test_small(ModelVariant::AdvSgm);
        let seq = Trainer::fit(&g, cfg.clone().with_threads(1)).unwrap();
        let ooc = PartitionedTrainer::fit(&g, cfg.with_threads(4), 2).unwrap();
        assert_eq!(bits(&seq.node_vectors), bits(&ooc.node_vectors));
        assert_eq!(seq.epoch_losses, ooc.epoch_losses);
    }

    #[test]
    fn slot_pool_never_holds_more_than_two_partitions() {
        let g = small_graph();
        let cfg = AdvSgmConfig::test_small(ModelVariant::AdvSgm).with_threads(1);
        let trainer = PartitionedTrainer::new(&g, cfg, 4).unwrap();
        let stats = trainer.slot_stats();
        trainer.train(&g).unwrap();
        assert!(stats.high_water() <= 2, "high water {}", stats.high_water());
        assert!(stats.loads() > 0);
        assert!(stats.evictions() > 0, "P=4 must swap partitions");
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
    fn resume_rejects_in_ram_checkpoints() {
        use crate::session::{EpochEvent, SessionControl};

        struct Grab(Option<CheckpointState>);
        impl TrainHooks for Grab {
            fn on_epoch(&mut self, _e: &EpochEvent) -> SessionControl {
                SessionControl::Continue
            }
            fn may_checkpoint(&self) -> bool {
                true
            }
            fn wants_checkpoint(&mut self, _epochs_done: usize) -> bool {
                self.0.is_none()
            }
            fn on_checkpoint(&mut self, state: &CheckpointState) -> SessionControl {
                self.0 = Some(state.clone());
                SessionControl::Continue
            }
        }

        let g = small_graph();
        let cfg = AdvSgmConfig::test_small(ModelVariant::Sgm);
        let mut grab = Grab(None);
        Trainer::new(&g, cfg)
            .unwrap()
            .run_with_hooks(&g, &mut grab)
            .unwrap();
        let state = grab.0.expect("captured a sequential checkpoint");
        let err = match PartitionedTrainer::resume(&g, &state, 2) {
            Err(e) => e,
            Ok(_) => panic!("sequential checkpoint must not resume as partitioned"),
        };
        assert!(matches!(err, CoreError::Checkpoint { .. }));
    }
}
