//! The typed, validate-at-construction entry point of the pipeline.
//!
//! [`PipelineBuilder`] is the only front door: privacy and shape
//! parameters arrive as the typed newtypes of [`crate::api::types`]
//! (whose constructors already rejected out-of-range values), and
//! [`PipelineBuilder::build`] runs [`AdvSgmConfig::validate`] **exactly
//! once** over the assembled configuration before any engine exists —
//! so an invalid config is unrepresentable past the builder, and no
//! caller ever threads a raw `AdvSgmConfig` between crates by hand.

use std::path::Path;

use advsgm_core::{AdvSgmConfig, ModelVariant, PartitionedTrainer, Trainer};
use advsgm_graph::Graph;

use crate::api::error::Result;
use crate::api::pipeline::Pipeline;
use crate::api::types::{Delta, Dim, Epsilon, NoiseSigma};

/// Builds a [`Pipeline`] from typed parameters, with the paper's
/// Section VI-A defaults for everything left unset.
///
/// # Examples
/// ```
/// use advsgm::api::{Dim, Epsilon, ModelVariant, PipelineBuilder};
/// use advsgm::graph::generators::classic::karate_club;
///
/// let graph = karate_club();
/// let trained = PipelineBuilder::test_small(ModelVariant::AdvSgm)
///     .dim(Dim::new(8)?)
///     .epsilon(Epsilon::new(6.0)?)
///     .build(&graph)?
///     .train()?;
/// assert!(trained.spend().is_some(), "private variants report spend");
/// # Ok::<(), advsgm::api::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct PipelineBuilder {
    cfg: AdvSgmConfig,
    /// `0` trains in RAM; `>= 1` trains out of core, on a spill store
    /// with this many node buckets. The replay engine runs either way.
    /// Deliberately *not* part of
    /// [`AdvSgmConfig`]: the trajectory is partition-invariant, so the
    /// bucket count is an execution-resource choice, never pinned into
    /// checkpoints or release metadata.
    partitions: usize,
}

impl PipelineBuilder {
    /// A builder with the paper's full experimental defaults
    /// (`dim = 128`, `epochs = 50`, `sigma = 5`, ...) for `variant`.
    pub fn new(variant: ModelVariant) -> Self {
        Self::from_config(AdvSgmConfig::for_variant(variant))
    }

    /// A builder with the scaled-down test configuration
    /// ([`AdvSgmConfig::test_small`]): tiny embeddings and few epochs,
    /// fast but exercising every code path. The right starting point for
    /// examples, doctests, and smoke tests.
    pub fn test_small(variant: ModelVariant) -> Self {
        Self::from_config(AdvSgmConfig::test_small(variant))
    }

    /// Wraps an existing configuration — the bridge for callers that
    /// already assembled an [`AdvSgmConfig`] (e.g. loaded from a sweep
    /// harness). [`PipelineBuilder::build`] still validates it exactly
    /// once, so this cannot smuggle an invalid config past the builder.
    pub fn from_config(cfg: AdvSgmConfig) -> Self {
        Self { cfg, partitions: 0 }
    }

    /// The configuration as assembled so far (not yet validated).
    pub fn config(&self) -> &AdvSgmConfig {
        &self.cfg
    }

    /// Sets the model variant to train (keeping every other parameter).
    #[must_use]
    pub fn variant(mut self, variant: ModelVariant) -> Self {
        self.cfg.variant = variant;
        self
    }

    /// Sets the embedding dimension `r`.
    #[must_use]
    pub fn dim(mut self, dim: Dim) -> Self {
        self.cfg.dim = dim.get();
        self
    }

    /// Sets the target privacy budget `epsilon`.
    #[must_use]
    pub fn epsilon(mut self, epsilon: Epsilon) -> Self {
        self.cfg.epsilon = epsilon.get();
        self
    }

    /// Sets the target failure probability `delta`.
    #[must_use]
    pub fn delta(mut self, delta: Delta) -> Self {
        self.cfg.delta = delta.get();
        self
    }

    /// Sets the noise multiplier `sigma`.
    #[must_use]
    pub fn sigma(mut self, sigma: NoiseSigma) -> Self {
        self.cfg.sigma = sigma.get();
        self
    }

    /// Sets the number of training epochs `n_epoch`.
    #[must_use]
    pub fn epochs(mut self, epochs: usize) -> Self {
        self.cfg.epochs = epochs;
        self
    }

    /// Sets the batch size `B`.
    #[must_use]
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        self.cfg.batch_size = batch_size;
        self
    }

    /// Sets the negative sampling number `k`.
    #[must_use]
    pub fn negatives(mut self, negatives: usize) -> Self {
        self.cfg.negatives = negatives;
        self
    }

    /// Sets the discriminator iterations per epoch `n_D`.
    #[must_use]
    pub fn disc_iters(mut self, disc_iters: usize) -> Self {
        self.cfg.disc_iters = disc_iters;
        self
    }

    /// Sets the generator iterations per epoch `n_G`.
    #[must_use]
    pub fn gen_iters(mut self, gen_iters: usize) -> Self {
        self.cfg.gen_iters = gen_iters;
        self
    }

    /// Sets both learning rates `eta_d = eta_g` (the paper keeps them
    /// equal, Section VI-A).
    #[must_use]
    pub fn learning_rate(mut self, lr: f64) -> Self {
        self.cfg.eta_d = lr;
        self.cfg.eta_g = lr;
        self
    }

    /// Sets the base RNG seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Sets the worker-thread count (mapped to
    /// [`AdvSgmConfig::with_threads`]). `0` means *auto*: the
    /// `ADVSGM_THREADS` environment variable if set, else 1; an explicit
    /// `N > 0` always takes precedence over the environment. The
    /// resulting [`Pipeline::train`] runs the replay engine at the
    /// resolved width — callers never name an engine, and no count moves
    /// a released bit.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.cfg = self.cfg.with_threads(threads);
        self
    }

    /// Selects the out-of-core partitioned engine with `partitions` node
    /// buckets: embeddings live on disk and at most two bucket
    /// partitions are resident at once, while the trajectory (released
    /// bytes, losses, privacy spend) stays bitwise-identical to the
    /// in-RAM engines (`tests/ooc_equivalence.rs`). `0` (the default)
    /// keeps the in-RAM engine selection by thread count.
    #[must_use]
    pub fn partitions(mut self, partitions: usize) -> Self {
        self.partitions = partitions;
        self
    }

    /// Validates the assembled configuration — the builder's single
    /// [`AdvSgmConfig::validate`] call — and stands up a [`Pipeline`]
    /// with the engine auto-selected: the out-of-core partitioned engine
    /// when [`PipelineBuilder::partitions`] is `>= 1`, otherwise the
    /// in-RAM engine for [`AdvSgmConfig::effective_threads`].
    ///
    /// # Errors
    /// [`Error::Core`](crate::api::Error::Core) on any cross-field
    /// configuration violation, or on graph/sampler construction
    /// failures (e.g. an empty graph).
    pub fn build(self, graph: &Graph) -> Result<Pipeline<'_>> {
        self.cfg.validate()?;
        let trainer = if self.partitions >= 1 {
            PartitionedTrainer::new(graph, self.cfg, self.partitions)?
        } else {
            Trainer::new(graph, self.cfg)?
        };
        Ok(Pipeline::from_trainer(graph, trainer))
    }
}

/// Loads a training graph from disk, dispatching on the extension:
/// `.agph` goes through the verified streaming codec
/// ([`advsgm_store::load_agph`], `docs/FORMAT.md`), anything else is
/// parsed as a whitespace edge-list.
///
/// # Errors
/// [`Error::Store`](crate::api::Error::Store) /
/// [`Error::Graph`](crate::api::Error::Graph) on read or decode failures
/// (including every `.agph` corruption mode).
pub fn load_graph(path: impl AsRef<Path>) -> Result<Graph> {
    let path = path.as_ref();
    if path.extension().is_some_and(|e| e == "agph") {
        Ok(advsgm_store::load_agph(path)?)
    } else {
        Ok(advsgm_graph::io::read_edge_list_file(path, None)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use advsgm_graph::generators::classic::karate_club;

    #[test]
    fn build_rejects_cross_field_violations() {
        // The newtypes cannot express these; build()'s validate call must.
        let g = karate_club();
        let err = PipelineBuilder::test_small(ModelVariant::AdvSgm)
            .gen_iters(0)
            .build(&g)
            .unwrap_err();
        assert!(err.to_string().starts_with("core: invalid configuration"));
        let err = PipelineBuilder::test_small(ModelVariant::Sgm)
            .learning_rate(-0.5)
            .build(&g)
            .unwrap_err();
        assert!(err.to_string().contains("learning rates"));
        assert!(PipelineBuilder::test_small(ModelVariant::Sgm)
            .epochs(0)
            .build(&g)
            .is_err());
    }

    #[test]
    fn build_rejects_empty_graph() {
        let g = Graph::from_parts(5, vec![], None);
        let err = PipelineBuilder::test_small(ModelVariant::Sgm)
            .build(&g)
            .unwrap_err();
        assert!(err.to_string().contains("no edges"), "{err}");
    }

    #[test]
    fn setters_land_in_the_config() {
        let b = PipelineBuilder::new(ModelVariant::DpSgm)
            .dim(Dim::new(32).unwrap())
            .epsilon(Epsilon::new(2.0).unwrap())
            .delta(Delta::new(1e-6).unwrap())
            .sigma(NoiseSigma::new(3.0).unwrap())
            .epochs(7)
            .batch_size(64)
            .negatives(3)
            .disc_iters(9)
            .gen_iters(4)
            .learning_rate(0.05)
            .seed(9)
            .threads(4);
        let c = b.config();
        assert_eq!(c.variant, ModelVariant::DpSgm);
        assert_eq!((c.dim, c.epsilon, c.delta, c.sigma), (32, 2.0, 1e-6, 3.0));
        assert_eq!((c.epochs, c.batch_size, c.negatives), (7, 64, 3));
        assert_eq!((c.disc_iters, c.gen_iters), (9, 4));
        assert_eq!((c.eta_d, c.eta_g), (0.05, 0.05));
        assert_eq!((c.seed, c.num_threads), (9, 4));
    }

    #[test]
    fn partitions_select_the_out_of_core_engine_bitwise() {
        // Same seed, in-RAM vs partitioned build: identical release bytes.
        let g = karate_club();
        let a = PipelineBuilder::test_small(ModelVariant::AdvSgm)
            .threads(1)
            .build(&g)
            .unwrap()
            .train()
            .unwrap();
        let b = PipelineBuilder::test_small(ModelVariant::AdvSgm)
            .threads(1)
            .partitions(3)
            .build(&g)
            .unwrap()
            .train()
            .unwrap();
        assert_eq!(a.release_bytes(), b.release_bytes());
    }

    #[test]
    fn load_graph_dispatches_on_extension() {
        let g = karate_club();
        let dir = std::env::temp_dir().join("advsgm_api_builder_load_graph");
        std::fs::create_dir_all(&dir).unwrap();
        let agph = dir.join("karate.agph");
        advsgm_store::save_agph(&agph, &g, 4).unwrap();
        let edges = dir.join("karate.edges");
        let mut text = String::new();
        for e in g.edges() {
            let (u, v) = e.endpoints();
            text.push_str(&format!("{} {}\n", u.0, v.0));
        }
        std::fs::write(&edges, text).unwrap();

        let from_agph = load_graph(&agph).unwrap();
        let from_list = load_graph(&edges).unwrap();
        assert_eq!(from_agph.num_nodes(), g.num_nodes());
        assert_eq!(from_agph.num_edges(), g.num_edges());
        assert_eq!(from_list.num_edges(), g.num_edges());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn explicit_threads_take_precedence_over_auto() {
        // num_threads > 0 pins the width; 0 defers to ADVSGM_THREADS.
        let pinned = PipelineBuilder::test_small(ModelVariant::Sgm).threads(3);
        assert_eq!(pinned.config().effective_threads(), 3);
        let auto = PipelineBuilder::test_small(ModelVariant::Sgm).threads(0);
        assert_eq!(auto.config().num_threads, 0);
    }
}
