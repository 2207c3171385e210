//! The pipeline lifecycle: train → release → persist → resume.
//!
//! [`Pipeline`] owns one training run end to end. It is produced by
//! [`PipelineBuilder::build`] (fresh runs) or [`Pipeline::resume`]
//! (checkpointed runs), executes through the session layer's engine
//! strategies without the caller ever naming an engine, and yields a
//! [`Trained`] handle sitting exactly on the paper's Theorem-5 release
//! boundary: everything reachable from `Trained` — the embedding store,
//! the serving handle, the privacy spend — is post-processing of the
//! released matrix and costs no further budget.
//!
//! [`PipelineBuilder::build`]: crate::api::PipelineBuilder::build

use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};

use advsgm_core::{
    AdvSgmConfig, CheckpointState, EpochEvent, SessionControl, SpendSnapshot, TrainHooks,
    TrainOutcome, Trainer,
};
use advsgm_graph::Graph;
use advsgm_linalg::DenseMatrix;
use advsgm_privacy::RdpAccountant;
use advsgm_store::{load_checkpoint, save_checkpoint, EmbeddingStore};

use crate::api::error::{Error, Result};
use crate::api::service::EmbeddingService;

/// What a [`Pipeline`] observer receives while training runs.
///
/// # Examples
/// ```
/// use advsgm::api::{ModelVariant, PipelineBuilder, PipelineEvent};
/// use advsgm::graph::generators::classic::karate_club;
///
/// let graph = karate_club();
/// let mut epochs_seen = Vec::new();
/// PipelineBuilder::test_small(ModelVariant::Sgm)
///     .build(&graph)?
///     .observe(|event| {
///         if let PipelineEvent::Epoch(e) = event {
///             epochs_seen.push(e.epoch);
///         }
///     })
///     .train()?;
/// assert_eq!(epochs_seen, vec![0, 1]);
/// # Ok::<(), advsgm::api::Error>(())
/// ```
#[derive(Debug)]
#[non_exhaustive]
pub enum PipelineEvent<'a> {
    /// An epoch boundary: loss, updates, privacy spend, stop reason.
    Epoch(&'a EpochEvent),
    /// A periodic checkpoint (requested through
    /// [`Pipeline::checkpoint_every`]) was written.
    CheckpointSaved {
        /// The checkpoint file that was written.
        path: &'a Path,
        /// Completed epochs at the captured boundary.
        epochs_done: u64,
    },
}

/// A loaded training checkpoint, ready to resume.
///
/// Wraps the session layer's [`CheckpointState`] with the accessors a
/// driver needs *before* resuming — notably [`Checkpoint::seed`], so a
/// synthetic training graph can be rebuilt deterministically, and
/// [`Checkpoint::extend_epochs`], the one legal configuration override
/// (batch draws never depend on the total epoch count, so extending the
/// schedule preserves the bitwise trajectory).
///
/// # Examples
/// ```
/// use advsgm::api::{ModelVariant, Pipeline, PipelineBuilder, Checkpoint};
/// use advsgm::graph::generators::classic::karate_club;
///
/// let graph = karate_club();
/// let dir = std::env::temp_dir().join("advsgm_api_checkpoint_doc");
/// std::fs::create_dir_all(&dir)?;
/// let path = dir.join("doc.actk");
///
/// // Train a short run, keeping its final state resumable.
/// PipelineBuilder::test_small(ModelVariant::Sgm)
///     .build(&graph)?
///     .keep_checkpoint()
///     .train()?
///     .save_checkpoint(&path)?;
///
/// // Load it back, extend the schedule, and resume.
/// let mut ckpt = Checkpoint::load(&path)?;
/// assert_eq!(ckpt.epochs_done(), 2);
/// ckpt.extend_epochs(4)?;
/// let trained = Pipeline::resume_from(&graph, ckpt)?.train()?;
/// assert_eq!(trained.outcome().epochs_run, 4);
/// # std::fs::remove_file(&path)?;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Checkpoint {
    state: CheckpointState,
    /// The partition-count *hint* for resuming out-of-core checkpoints
    /// ([`Checkpoint::set_partitions`]). Never persisted: the trajectory
    /// is partition-invariant, so the bucket count is free to change
    /// between the captured run and the resumed one.
    partitions: usize,
}

impl Checkpoint {
    /// Loads and verifies an `.actk` checkpoint file.
    ///
    /// # Errors
    /// [`Error::Store`] on I/O failures or any of the codec's typed
    /// corruption modes.
    pub fn load(path: impl AsRef<Path>) -> Result<Self> {
        Ok(Self {
            state: load_checkpoint(path)?,
            partitions: 0,
        })
    }

    /// Sets the node-bucket count used when resuming a checkpoint that
    /// was captured by the out-of-core partitioned engine (defaults to 1
    /// when unset). The continued trajectory is bitwise-identical under
    /// *any* count — this is purely a memory-residency choice, which is
    /// why it is a resume-time hint and not part of the persisted state.
    /// Ignored for in-RAM checkpoints.
    pub fn set_partitions(&mut self, partitions: usize) {
        self.partitions = partitions;
    }

    /// The base RNG seed of the checkpointed run (rebuild synthetic
    /// graphs from this before resuming).
    pub fn seed(&self) -> u64 {
        self.state.config.seed
    }

    /// Completed epochs at the captured boundary.
    pub fn epochs_done(&self) -> u64 {
        self.state.epochs_done
    }

    /// Discriminator updates applied so far.
    pub fn disc_updates(&self) -> u64 {
        self.state.disc_updates
    }

    /// The full pinned configuration (including the resolved thread
    /// count — resume never re-reads `ADVSGM_THREADS`).
    pub fn config(&self) -> &AdvSgmConfig {
        &self.state.config
    }

    /// Extends (or shortens, down to the completed count) the total
    /// epoch schedule — the only configuration override resume permits.
    ///
    /// # Errors
    /// [`Error::InvalidParameter`] when `epochs` is below the completed
    /// count.
    pub fn extend_epochs(&mut self, epochs: usize) -> Result<()> {
        if (epochs as u64) < self.state.epochs_done {
            return Err(Error::invalid(
                "epochs",
                format!(
                    "{epochs} is below the checkpoint's {} completed epochs",
                    self.state.epochs_done
                ),
            ));
        }
        self.state.config.epochs = epochs;
        Ok(())
    }

    /// The wrapped session-layer state (internals escape hatch).
    pub fn state(&self) -> &CheckpointState {
        &self.state
    }
}

/// Where periodic checkpoints go, and how often.
#[derive(Debug, Clone)]
struct CheckpointPolicy {
    every: NonZeroUsize,
    path: PathBuf,
}

/// The boxed observer a [`Pipeline`] carries.
type Observer<'g> = Box<dyn FnMut(PipelineEvent<'_>) + 'g>;

/// One training run, engine-agnostic: built by
/// [`PipelineBuilder::build`] or [`Pipeline::resume`], consumed by
/// [`Pipeline::train`].
///
/// The row store is selected at construction: in RAM at the width
/// [`AdvSgmConfig::effective_threads`] resolves, or out of core when the
/// builder asked for node buckets ([`PipelineBuilder::partitions`]); the
/// replay engine trains either way. A `Pipeline` run is
/// bitwise-identical to the equivalent hand-wired [`Trainer`] run
/// (`tests/api_facade.rs`, `tests/ooc_equivalence.rs`).
///
/// [`PipelineBuilder::partitions`]: crate::api::PipelineBuilder::partitions
///
/// [`PipelineBuilder::build`]: crate::api::PipelineBuilder::build
///
/// # Examples
/// ```
/// use advsgm::api::{ModelVariant, PipelineBuilder};
/// use advsgm::graph::generators::classic::karate_club;
///
/// let graph = karate_club();
/// let pipeline = PipelineBuilder::test_small(ModelVariant::AdvSgm)
///     .threads(1)
///     .build(&graph)?;
/// assert_eq!(pipeline.threads(), 1);
/// let trained = pipeline.train()?;
/// assert!(trained.outcome().disc_updates > 0);
/// # Ok::<(), advsgm::api::Error>(())
/// ```
pub struct Pipeline<'g> {
    graph: &'g Graph,
    trainer: Trainer,
    checkpoints: Option<CheckpointPolicy>,
    keep_checkpoint: bool,
    observer: Option<Observer<'g>>,
    /// The accountant's spend at the resumed-from boundary, so a resumed
    /// run whose schedule is already complete (zero epochs to replay,
    /// hence zero epoch events) still reports its spend on [`Trained`].
    resumed_spend: Option<SpendSnapshot>,
}

impl std::fmt::Debug for Pipeline<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pipeline")
            .field("threads", &self.threads())
            .field("config", self.config())
            .field("checkpoints", &self.checkpoints)
            .field("keep_checkpoint", &self.keep_checkpoint)
            .field("observer", &self.observer.is_some())
            .finish()
    }
}

impl<'g> Pipeline<'g> {
    /// Wraps an already-constructed trainer (crate-internal: the builder
    /// and resume paths are the public constructors).
    pub(crate) fn from_trainer(graph: &'g Graph, trainer: Trainer) -> Self {
        Self {
            graph,
            trainer,
            checkpoints: None,
            keep_checkpoint: false,
            observer: None,
            resumed_spend: None,
        }
    }

    /// Resumes a checkpointed run from an `.actk` file, against the same
    /// graph it was captured on. The row store (in RAM or out of core)
    /// and the thread count come from the checkpoint; every engine
    /// follows the one trajectory, and the continued run is
    /// bitwise-identical to never having interrupted the original.
    ///
    /// # Errors
    /// [`Error::Store`] on load/codec failures, [`Error::Core`] when the
    /// state is inconsistent or does not match `graph`.
    pub fn resume(graph: &'g Graph, path: impl AsRef<Path>) -> Result<Self> {
        Self::resume_from(graph, Checkpoint::load(path)?)
    }

    /// [`Pipeline::resume`] from an already-loaded [`Checkpoint`] — the
    /// entry point when the driver needs the checkpoint's seed or epoch
    /// counts (or to [`Checkpoint::extend_epochs`]) before resuming.
    ///
    /// # Errors
    /// [`Error::Core`] when the state is inconsistent or does not match
    /// `graph`.
    pub fn resume_from(graph: &'g Graph, checkpoint: Checkpoint) -> Result<Self> {
        // The engine recorded in the checkpoint decides; the bucket-count
        // hint matters only to out-of-core captures, and any count
        // continues the same bitwise trajectory.
        let trainer = Trainer::resume(graph, &checkpoint.state, checkpoint.partitions.max(1))?;
        // Seed the spend from the checkpointed accountant: if every epoch
        // is already done, no epoch event will ever fire to report it.
        let resumed_spend = match &checkpoint.state.accountant {
            Some(s) => {
                let cfg = &checkpoint.state.config;
                Some(RdpAccountant::from_state(s.clone())?.snapshot(cfg.epsilon, cfg.delta)?)
            }
            None => None,
        };
        let mut pipeline = Self::from_trainer(graph, trainer);
        pipeline.resumed_spend = resumed_spend;
        Ok(pipeline)
    }

    /// Writes a crash-safe `.actk` checkpoint to `path` every `every`
    /// completed epochs (and reports each write to the observer as
    /// [`PipelineEvent::CheckpointSaved`]). The most recent captured
    /// state is also kept in memory for [`Trained::save_checkpoint`].
    #[must_use]
    pub fn checkpoint_every(mut self, every: NonZeroUsize, path: impl Into<PathBuf>) -> Self {
        self.checkpoints = Some(CheckpointPolicy {
            every,
            path: path.into(),
        });
        self
    }

    /// Captures the final epoch boundary's state in memory so
    /// [`Trained::save_checkpoint`] can persist a resumable handle after
    /// the run (used to extend a finished schedule later). Budget-stopped
    /// runs are final and capture nothing.
    #[must_use]
    pub fn keep_checkpoint(mut self) -> Self {
        self.keep_checkpoint = true;
        self
    }

    /// Installs an observer for [`PipelineEvent`]s (live progress lines,
    /// metrics export). Purely observational: it cannot alter the
    /// trajectory, which stays bitwise-identical with or without it.
    #[must_use]
    pub fn observe(mut self, observer: impl FnMut(PipelineEvent<'_>) + 'g) -> Self {
        self.observer = Some(Box::new(observer));
        self
    }

    /// The resolved worker-thread count (1 runs every step on the calling
    /// thread).
    pub fn threads(&self) -> usize {
        self.trainer.threads()
    }

    /// The validated configuration this pipeline will run.
    pub fn config(&self) -> &AdvSgmConfig {
        self.trainer.config()
    }

    /// Runs Algorithm 3 to completion (or budget exhaustion, which is
    /// *not* an error — see [`TrainOutcome::stopped_by_budget`]) and
    /// crosses the Theorem-5 release boundary: the returned [`Trained`]
    /// handle owns the released embedding store stamped with the
    /// accountant's spend.
    ///
    /// # Errors
    /// Substrate failures via their layer's [`enum@Error`] variant;
    /// [`Error::CheckpointWrite`] when a periodic checkpoint write
    /// failed (training stops gracefully at that boundary).
    pub fn train(self) -> Result<Trained> {
        let Pipeline {
            graph,
            mut trainer,
            checkpoints,
            keep_checkpoint,
            mut observer,
            resumed_spend,
        } = self;
        let cfg = trainer.config().clone();
        let mut hooks = PipelineHooks {
            policy: checkpoints,
            keep_final: keep_checkpoint,
            epochs_total: cfg.epochs,
            observer: observer.as_deref_mut(),
            latest: None,
            last_spend: resumed_spend,
            periodic_due: false,
            checkpoints_written: 0,
            write_error: None,
        };
        trainer.train_with_hooks(graph, &mut hooks)?;
        let outcome = trainer.into_outcome()?;
        if let Some((path, source)) = hooks.write_error {
            return Err(Error::CheckpointWrite { path, source });
        }
        let store = EmbeddingStore::from_outcome(&outcome, &cfg)?;
        Ok(Trained {
            outcome,
            store,
            spend: hooks.last_spend,
            checkpoint: hooks.latest,
            checkpoints_written: hooks.checkpoints_written,
        })
    }
}

/// The session-layer hook implementation behind [`Pipeline::train`]:
/// relays epoch events to the observer, executes the checkpoint policy,
/// and records the final spend snapshot for [`Trained::spend`].
struct PipelineHooks<'a, 'g> {
    policy: Option<CheckpointPolicy>,
    keep_final: bool,
    epochs_total: usize,
    observer: Option<&'a mut (dyn FnMut(PipelineEvent<'_>) + 'g)>,
    latest: Option<CheckpointState>,
    last_spend: Option<SpendSnapshot>,
    /// Set by [`TrainHooks::wants_checkpoint`] when the periodic policy
    /// asked for the capture; consumed by `on_checkpoint` so the
    /// periodic predicate lives in exactly one place.
    periodic_due: bool,
    checkpoints_written: usize,
    write_error: Option<(PathBuf, advsgm_store::StoreError)>,
}

impl TrainHooks for PipelineHooks<'_, '_> {
    fn on_epoch(&mut self, event: &EpochEvent) -> SessionControl {
        if event.spend.is_some() {
            self.last_spend = event.spend;
        }
        if let Some(observer) = self.observer.as_mut() {
            observer(PipelineEvent::Epoch(event));
        }
        SessionControl::Continue
    }

    fn wants_checkpoint(&mut self, epochs_done: usize) -> bool {
        self.periodic_due = matches!(
            &self.policy,
            Some(p) if epochs_done.is_multiple_of(p.every.get())
        );
        let final_keep = self.keep_final && epochs_done == self.epochs_total;
        self.periodic_due || final_keep
    }

    fn on_checkpoint(&mut self, state: &CheckpointState) -> SessionControl {
        self.latest = Some(state.clone());
        let periodic = std::mem::take(&mut self.periodic_due);
        if let (true, Some(p)) = (periodic, &self.policy) {
            match save_checkpoint(&p.path, state) {
                Ok(()) => {
                    self.checkpoints_written += 1;
                    if let Some(observer) = self.observer.as_mut() {
                        observer(PipelineEvent::CheckpointSaved {
                            path: &p.path,
                            epochs_done: state.epochs_done,
                        });
                    }
                }
                Err(e) => {
                    self.write_error = Some((p.path.clone(), e));
                    return SessionControl::Stop;
                }
            }
        }
        SessionControl::Continue
    }
}

/// A finished training run on the release side of Theorem 5.
///
/// Owns the [`TrainOutcome`] and the released [`EmbeddingStore`] stamped
/// with the accountant's spend. Everything here — saving, serving,
/// inspecting the spend — is post-processing: no further privacy budget
/// is consumed regardless of how the handle is used.
///
/// # Examples
/// ```
/// use advsgm::api::{ModelVariant, PipelineBuilder};
/// use advsgm::graph::generators::classic::karate_club;
///
/// let graph = karate_club();
/// let trained = PipelineBuilder::test_small(ModelVariant::AdvSgm)
///     .build(&graph)?
///     .train()?;
/// let spend = trained.spend().expect("AdvSGM is private");
/// assert!(spend.epsilon_spent > 0.0);
///
/// // Serving is post-processing of the released store.
/// let service = trained.serve();
/// assert_eq!(service.len(), graph.num_nodes());
/// assert!(service.privacy().is_private());
/// # Ok::<(), advsgm::api::Error>(())
/// ```
#[derive(Debug)]
pub struct Trained {
    outcome: TrainOutcome,
    store: EmbeddingStore,
    spend: Option<SpendSnapshot>,
    checkpoint: Option<CheckpointState>,
    checkpoints_written: usize,
}

impl Trained {
    /// The accountant's final spend against the configured target —
    /// `None` for non-private variants. This is the number stamped into
    /// every artifact released from this handle.
    pub fn spend(&self) -> Option<SpendSnapshot> {
        self.spend
    }

    /// The full training outcome (epochs run, update counts, losses, the
    /// raw matrices).
    pub fn outcome(&self) -> &TrainOutcome {
        &self.outcome
    }

    /// The released node-vector matrix `W_in` — the embeddings used
    /// downstream.
    pub fn embeddings(&self) -> &DenseMatrix {
        &self.outcome.node_vectors
    }

    /// The released store: embeddings plus the privacy stamp.
    pub fn store(&self) -> &EmbeddingStore {
        &self.store
    }

    /// Periodic checkpoints written during the run
    /// ([`Pipeline::checkpoint_every`]).
    pub fn checkpoints_written(&self) -> usize {
        self.checkpoints_written
    }

    /// Persists the released embeddings as an `.aemb` file
    /// (`docs/FORMAT.md`), privacy stamp included; the roundtrip back
    /// through [`EmbeddingService::open`] is bitwise-exact.
    ///
    /// # Errors
    /// [`Error::Store`] on I/O failures.
    pub fn save_embeddings(&self, path: impl AsRef<Path>) -> Result<()> {
        Ok(self.store.save(path)?)
    }

    /// Persists the run's most recent captured checkpoint as an `.actk`
    /// file, from which [`Pipeline::resume`] continues (or extends) the
    /// schedule bitwise-exactly.
    ///
    /// # Errors
    /// [`Error::InvalidParameter`] when no checkpoint was captured —
    /// enable [`Pipeline::keep_checkpoint`] or
    /// [`Pipeline::checkpoint_every`] before training (budget-stopped
    /// runs are final and never capture state); [`Error::Store`] on
    /// write failures.
    pub fn save_checkpoint(&self, path: impl AsRef<Path>) -> Result<()> {
        let state = self.checkpoint.as_ref().ok_or_else(|| {
            Error::invalid(
                "checkpoint",
                "no checkpoint captured; enable Pipeline::keep_checkpoint or \
                 Pipeline::checkpoint_every before training",
            )
        })?;
        Ok(save_checkpoint(path, state)?)
    }

    /// The released store serialized to `.aemb` bytes — exactly what a
    /// [`Trained::save_embeddings`] file contains, without touching the
    /// filesystem. This is the Theorem-5 adversary's complete view of
    /// the run; the membership-inference audit
    /// ([`audit_membership`](crate::api::audit_membership)) attacks
    /// these bytes and nothing else.
    pub fn release_bytes(&self) -> Vec<u8> {
        self.store.to_bytes()
    }

    /// Opens a long-lived serving handle over a copy of the released
    /// store (thread width auto-resolved; see
    /// [`EmbeddingService::from_store`]).
    pub fn serve(&self) -> EmbeddingService {
        EmbeddingService::from_store(self.store.clone())
    }
}
