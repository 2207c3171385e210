//! The facade's audit entry point: wiring real pipeline training into
//! the membership-inference harness of `advsgm-attack`.
//!
//! The harness (`advsgm_attack::run_audit`) is deliberately blind to the
//! training stack — it consumes a *release function* mapping `(graph,
//! seed)` to released `.aemb` bytes. This module supplies that function
//! from a [`PipelineBuilder`]: each paired-world run clones the builder,
//! pins the derived seed, forces one training thread (`threads(1)` —
//! the harness owns the fan-out), trains, and hands back
//! [`Trained::release_bytes`]. The attack then reads scores through the
//! released bytes only, exactly the Theorem-5 adversary's view, so the
//! audit consumes no privacy budget beyond the training runs themselves.
//!
//! [`Trained::release_bytes`]: crate::api::Trained::release_bytes

use advsgm_attack::{
    run_audit, AttackError, AuditConfig, AuditOutcome, AuditReport, ReleaseProfile,
};
use advsgm_core::ModelVariant;
use advsgm_graph::Graph;

use crate::api::builder::PipelineBuilder;
use crate::api::error::Result;

/// Runs the full membership-inference audit against releases trained by
/// `builder`, and (when `with_ablation` is set) repeats it with the DP
/// machinery switched off ([`ModelVariant::AdvSgmNoDp`]) as the σ→0
/// sensitivity check: if the harness cannot certify a large `epsilon`
/// even without noise, the panel is too weak for the private result to
/// mean anything.
///
/// The returned [`AuditReport`] is byte-deterministic in `(graph,
/// builder, cfg)` — rerunning at the same seed reproduces
/// `results/AUDIT_membership.json` exactly (`tests/audit_harness.rs`).
///
/// # Examples
/// ```
/// use advsgm::api::{audit_membership, AuditConfig, ModelVariant, PipelineBuilder};
/// use advsgm::graph::generators::classic::karate_club;
///
/// let graph = karate_club();
/// let builder = PipelineBuilder::test_small(ModelVariant::AdvSgm);
/// let mut cfg = AuditConfig::new(7);
/// cfg.targets = 1;
/// cfg.runs_per_world = 2;
/// let report = audit_membership(&graph, &builder, &cfg, false)?;
/// assert_eq!(report.experiment, "audit_membership");
/// assert!(report.audit.stamped_epsilon.is_some(), "AdvSGM stamps spend");
/// # Ok::<(), advsgm::api::Error>(())
/// ```
///
/// # Errors
/// [`Error::Attack`](crate::api::Error::Attack) on audit-config
/// violations, panels larger than the held-out edge set, or any failed
/// training run (the underlying pipeline error is carried in the
/// attack-layer `Release` message).
pub fn audit_membership(
    graph: &Graph,
    builder: &PipelineBuilder,
    cfg: &AuditConfig,
    with_ablation: bool,
) -> Result<AuditReport> {
    let outcome = audit_outcome(graph, builder, cfg)?;
    let ablation = if with_ablation {
        let no_dp = builder.clone().variant(ModelVariant::AdvSgmNoDp);
        Some(audit_outcome(graph, &no_dp, cfg)?)
    } else {
        None
    };
    Ok(AuditReport::assemble(
        cfg,
        release_profile(builder),
        &outcome,
        ablation.as_ref(),
    ))
}

/// One audited condition: the harness run without report assembly — the
/// building block for callers composing their own ablation grids.
///
/// # Errors
/// As [`audit_membership`].
pub fn audit_outcome(
    graph: &Graph,
    builder: &PipelineBuilder,
    cfg: &AuditConfig,
) -> Result<AuditOutcome> {
    let release = |g: &Graph, seed: u64| -> std::result::Result<Vec<u8>, AttackError> {
        let trained = builder
            .clone()
            .seed(seed)
            .threads(1)
            .build(g)
            .and_then(|p| p.train())
            .map_err(|e| AttackError::release(e.to_string()))?;
        Ok(trained.release_bytes())
    };
    Ok(run_audit(graph, cfg, release)?)
}

/// The [`ReleaseProfile`] the report echoes, read off the builder's
/// assembled configuration.
fn release_profile(builder: &PipelineBuilder) -> ReleaseProfile {
    let c = builder.config();
    ReleaseProfile {
        variant: c.variant.paper_name().to_string(),
        dim: c.dim,
        epochs: c.epochs,
        batch_size: c.batch_size,
        learning_rate: c.eta_d,
        sigma: c.sigma,
        epsilon_target: c.epsilon,
        delta: c.delta,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use advsgm_graph::generators::erdos_renyi::gnm_random_graph;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn small_graph() -> Graph {
        let mut rng = SmallRng::seed_from_u64(5);
        gnm_random_graph(40, 120, &mut rng)
    }

    fn tiny_cfg(seed: u64) -> AuditConfig {
        let mut cfg = AuditConfig::new(seed);
        cfg.targets = 1;
        cfg.runs_per_world = 2;
        cfg
    }

    #[test]
    fn profile_echoes_the_builder_config() {
        let b = PipelineBuilder::test_small(ModelVariant::AdvSgm)
            .epochs(3)
            .learning_rate(0.07);
        let p = release_profile(&b);
        assert_eq!(p.variant, "AdvSGM");
        assert_eq!(p.epochs, 3);
        assert_eq!(p.learning_rate, 0.07);
        assert_eq!(p.sigma, b.config().sigma);
    }

    #[test]
    fn failed_training_surfaces_as_attack_release_error() {
        let g = small_graph();
        // gen_iters(0) fails builder validation inside the release fn.
        let b = PipelineBuilder::test_small(ModelVariant::AdvSgm).gen_iters(0);
        let err = audit_membership(&g, &b, &tiny_cfg(1), false).unwrap_err();
        let msg = err.to_string();
        assert!(msg.starts_with("attack: release failed"), "{msg}");
        assert!(msg.contains("invalid configuration"), "{msg}");
    }

    #[test]
    fn ablation_swaps_in_the_no_dp_variant() {
        let g = small_graph();
        let b = PipelineBuilder::test_small(ModelVariant::AdvSgm);
        let report = audit_membership(&g, &b, &tiny_cfg(2), true).unwrap();
        // The headline section is stamped; the σ→0 section is not (the
        // non-private variant releases without an epsilon stamp).
        assert!(report.audit.stamped_epsilon.is_some());
        let ablation = report.ablation.expect("ablation requested");
        assert!(ablation.stamped_epsilon.is_none());
        // The profile echoes the *audited* (private) configuration.
        assert_eq!(report.train.variant, "AdvSGM");
    }
}
