//! Training configuration with the paper's defaults (Section VI-A).

use advsgm_graph::sampling::negative::NegativeDistribution;

use crate::error::CoreError;
use crate::variants::ModelVariant;

/// Full configuration for one training run.
///
/// Defaults reproduce the paper's experimental setup: `n_epoch = 50`,
/// `n_D = 15`, `n_G = 5`, `r = 128`, `k = 5`, `B = 128`,
/// `eta_d = eta_g = 0.1`, `C = 1`, `sigma = 5`, `delta = 1e-5`,
/// constrained-sigmoid bounds `a = 1e-5`, `b = 120`, and a privacy budget
/// `epsilon` varied in `{1..6}` (default 6).
#[derive(Debug, Clone, PartialEq)]
pub struct AdvSgmConfig {
    /// Which model to train.
    pub variant: ModelVariant,
    /// Embedding dimension `r`.
    pub dim: usize,
    /// Negative sampling number `k`.
    pub negatives: usize,
    /// Batch size `B`.
    pub batch_size: usize,
    /// Training epochs `n_epoch`.
    pub epochs: usize,
    /// Discriminator iterations per epoch `n_D`.
    pub disc_iters: usize,
    /// Generator iterations per epoch `n_G`.
    pub gen_iters: usize,
    /// Discriminator learning rate `eta_d`.
    pub eta_d: f64,
    /// Generator learning rate `eta_g`.
    pub eta_g: f64,
    /// Gradient clipping threshold `C`.
    pub clip: f64,
    /// Noise multiplier `sigma`.
    pub sigma: f64,
    /// Target privacy budget `epsilon` (ignored by non-private variants).
    pub epsilon: f64,
    /// Target failure probability `delta`.
    pub delta: f64,
    /// Constrained-sigmoid lower bound `a`.
    pub sigmoid_a: f64,
    /// Constrained-sigmoid upper bound `b` (Table IV sweeps this).
    pub sigmoid_b: f64,
    /// Negative sampling distribution (the paper's Algorithm 2 is uniform).
    pub negative_distribution: NegativeDistribution,
    /// Project embedding rows back onto the unit ball after each update
    /// (the paper's "normalize the parameters ... to ensure C = 1").
    pub project_rows: bool,
    /// Noise-calibration reading for AdvSGM's activation-noise terms.
    ///
    /// `false` (default): the utility noise entering AdvSGM's gradients has
    /// per-coordinate std `C*sigma/r` (vector norm ~ `C*sigma/sqrt(r)`) —
    /// the *activation-argument* reading of `N_{D}(C^2 sigma^2 I) . v`,
    /// under which the paper's Table V utility levels are achievable.
    /// `true`: strict per-coordinate std `C*sigma`, the textbook Gaussian-
    /// mechanism calibration; at the paper's `sigma = 5` this makes AdvSGM
    /// indistinguishable from DP-SGM (chance-level utility at every
    /// epsilon) — the ablation benches demonstrate this. DP-SGM/DP-ASGM
    /// always use the strict DPSGD calibration (Abadi et al., Eq. 5/6),
    /// which is what reproduces their flat ~0.505 rows in Table V.
    /// The privacy accountant follows Theorem 7 verbatim in both modes.
    pub faithful_noise: bool,
    /// Worker threads of the replay engine, in RAM
    /// ([`crate::trainer::Trainer::new`]) or out of core.
    ///
    /// `0` means *auto*: the `ADVSGM_THREADS` environment variable if set,
    /// otherwise 1. At 1 every step runs on the calling thread; at
    /// `N > 1` the engine uses the threads for Phase-B computation and to
    /// regenerate the next update's fake neighbors while the current one
    /// computes. The
    /// calling thread also fills fakes once its own part of a step is
    /// done, so `N + 1` threads can be busy while fakes are regenerated.
    /// No count moves a bit: every release, epoch loss and spend is a
    /// function of the seed and the rest of the configuration.
    pub num_threads: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for AdvSgmConfig {
    fn default() -> Self {
        Self {
            variant: ModelVariant::AdvSgm,
            dim: 128,
            negatives: 5,
            batch_size: 128,
            epochs: 50,
            disc_iters: 15,
            gen_iters: 5,
            eta_d: 0.1,
            eta_g: 0.1,
            clip: 1.0,
            sigma: 5.0,
            epsilon: 6.0,
            delta: 1e-5,
            sigmoid_a: 1e-5,
            sigmoid_b: 120.0,
            negative_distribution: NegativeDistribution::Uniform,
            project_rows: true,
            faithful_noise: false,
            num_threads: 0,
            seed: 0,
        }
    }
}

impl AdvSgmConfig {
    /// Paper defaults for a given variant.
    pub fn for_variant(variant: ModelVariant) -> Self {
        Self {
            variant,
            ..Self::default()
        }
    }

    /// A scaled-down configuration for unit/integration tests: small graph
    /// budgets, few epochs, tiny embeddings — fast but exercising every
    /// code path.
    pub fn test_small(variant: ModelVariant) -> Self {
        Self {
            variant,
            dim: 16,
            negatives: 2,
            batch_size: 16,
            epochs: 2,
            disc_iters: 3,
            gen_iters: 2,
            ..Self::default()
        }
    }

    /// Sets the worker-thread count (builder style); see [`Self::num_threads`].
    ///
    /// # Examples
    /// ```
    /// use advsgm_core::{AdvSgmConfig, ModelVariant};
    ///
    /// let cfg = AdvSgmConfig::for_variant(ModelVariant::AdvSgm).with_threads(4);
    /// assert_eq!(cfg.num_threads, 4);
    /// assert_eq!(cfg.effective_threads(), 4);
    /// // 0 requests auto-resolution (ADVSGM_THREADS, else 1).
    /// let auto = cfg.with_threads(0);
    /// assert_eq!(auto.num_threads, 0);
    /// ```
    #[must_use]
    pub fn with_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = num_threads;
        self
    }

    /// The thread count training will actually use: an explicit
    /// [`Self::num_threads`], else the `ADVSGM_THREADS` environment
    /// variable, else 1 (see [`advsgm_parallel::resolve_threads`]).
    pub fn effective_threads(&self) -> usize {
        advsgm_parallel::resolve_threads(self.num_threads)
    }

    /// Validates the configuration.
    ///
    /// # Errors
    /// Returns [`CoreError::Config`] naming the first offending field.
    pub fn validate(&self) -> Result<(), CoreError> {
        let bad = |field: &'static str, reason: String| Err(CoreError::Config { field, reason });
        if self.dim == 0 {
            return bad("dim", "embedding dimension must be positive".into());
        }
        if self.batch_size == 0 {
            return bad("batch_size", "batch size must be positive".into());
        }
        if self.negatives == 0 {
            return bad(
                "negatives",
                "negative sampling number must be positive".into(),
            );
        }
        if self.epochs == 0 || self.disc_iters == 0 {
            return bad(
                "epochs",
                "need at least one epoch and one discriminator iteration".into(),
            );
        }
        if self.variant.is_adversarial() && self.gen_iters == 0 {
            return bad(
                "gen_iters",
                "adversarial variants need generator iterations".into(),
            );
        }
        if self.eta_d.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater)
            || self.eta_g.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater)
        {
            return bad(
                "eta",
                format!(
                    "learning rates must be positive, got {} / {}",
                    self.eta_d, self.eta_g
                ),
            );
        }
        if self.clip.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return bad("clip", "clipping threshold must be positive".into());
        }
        if self.variant.is_private() {
            if self.sigma.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
                return bad(
                    "sigma",
                    "private variants need positive noise multiplier".into(),
                );
            }
            if self.epsilon.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
                return bad("epsilon", "privacy budget must be positive".into());
            }
            if !(self.delta > 0.0 && self.delta < 1.0) {
                return bad(
                    "delta",
                    format!("delta must be in (0,1), got {}", self.delta),
                );
            }
        }
        if self.num_threads > advsgm_parallel::MAX_THREADS {
            return bad(
                "num_threads",
                format!(
                    "at most {} worker threads, got {}",
                    advsgm_parallel::MAX_THREADS,
                    self.num_threads
                ),
            );
        }
        if self.variant.uses_constrained_sigmoid()
            && !(self.sigmoid_a > 0.0 && self.sigmoid_b > self.sigmoid_a)
        {
            return bad(
                "sigmoid_b",
                format!(
                    "need 0 < a < b, got a={} b={}",
                    self.sigmoid_a, self.sigmoid_b
                ),
            );
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = AdvSgmConfig::default();
        assert_eq!(c.dim, 128);
        assert_eq!(c.negatives, 5);
        assert_eq!(c.batch_size, 128);
        assert_eq!(c.epochs, 50);
        assert_eq!(c.disc_iters, 15);
        assert_eq!(c.gen_iters, 5);
        assert_eq!(c.eta_d, 0.1);
        assert_eq!(c.sigma, 5.0);
        assert_eq!(c.delta, 1e-5);
        assert_eq!(c.sigmoid_b, 120.0);
        c.validate().unwrap();
    }

    #[test]
    fn test_small_is_valid_for_all_variants() {
        for v in ModelVariant::all() {
            AdvSgmConfig::test_small(v).validate().unwrap();
        }
    }

    #[test]
    fn rejects_zero_dim() {
        let c = AdvSgmConfig {
            dim: 0,
            ..AdvSgmConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn rejects_bad_delta_only_for_private() {
        let mut c = AdvSgmConfig::for_variant(ModelVariant::AdvSgm);
        c.delta = 0.0;
        assert!(c.validate().is_err());
        c.variant = ModelVariant::Sgm;
        c.validate().unwrap(); // non-private ignores delta
    }

    #[test]
    fn rejects_inverted_sigmoid_bounds() {
        let mut c = AdvSgmConfig::for_variant(ModelVariant::AdvSgm);
        c.sigmoid_b = 1e-9;
        assert!(c.validate().is_err());
        // Plain-sigmoid variants don't care.
        c.variant = ModelVariant::DpSgm;
        c.validate().unwrap();
    }

    #[test]
    fn thread_builders_roundtrip() {
        let c = AdvSgmConfig::default().with_threads(8);
        assert_eq!(c.num_threads, 8);
        assert_eq!(c.effective_threads(), 8);
        c.validate().unwrap();
    }

    #[test]
    fn rejects_absurd_thread_count() {
        let c = AdvSgmConfig::default().with_threads(4096);
        assert!(c.validate().is_err());
    }

    #[test]
    fn rejects_zero_gen_iters_for_adversarial_only() {
        let mut c = AdvSgmConfig::for_variant(ModelVariant::AdvSgm);
        c.gen_iters = 0;
        assert!(c.validate().is_err());
        c.variant = ModelVariant::DpSgm;
        c.validate().unwrap();
    }
}
