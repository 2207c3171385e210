//! Shared experiment runners: synthesize → train → evaluate.

use std::error::Error;

use advsgm_baselines::{BaselineConfig, Dpar, DpgGan, DpgVae, Gap};
use advsgm_core::{AdvSgmConfig, ModelVariant, Trainer};
use advsgm_datasets::{synthesize, DatasetSpec};
use advsgm_eval::clustering::affinity::{AffinityPropagation, ApParams};
use advsgm_eval::clustering::metrics::mutual_information;
use advsgm_eval::linkpred::evaluate_split;
use advsgm_graph::partition::link_prediction_split;
use advsgm_graph::Graph;
use advsgm_linalg::rng::{derive_seed, seeded};
use advsgm_linalg::DenseMatrix;

/// A method evaluated in Figs. 3–4: either one of our skip-gram variants
/// or one of the external baselines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// A skip-gram variant from `advsgm-core`.
    Variant(ModelVariant),
    /// DPGGAN (Yang et al. 2021).
    DpgGan,
    /// DPGVAE (Yang et al. 2021).
    DpgVae,
    /// GAP (Sajadmanesh et al. 2023).
    Gap,
    /// DPAR (Zhang et al. 2024).
    Dpar,
}

impl Method {
    /// Display name matching the paper's legends.
    pub fn name(&self) -> String {
        match self {
            Method::Variant(v) => v.paper_name().to_string(),
            Method::DpgGan => "DPGGAN".into(),
            Method::DpgVae => "DPGVAE".into(),
            Method::Gap => "GAP".into(),
            Method::Dpar => "DPAR".into(),
        }
    }

    /// The five private methods of Figs. 3–4, in legend order.
    pub fn figure_methods() -> [Method; 5] {
        [
            Method::DpgGan,
            Method::DpgVae,
            Method::Gap,
            Method::Dpar,
            Method::Variant(ModelVariant::AdvSgm),
        ]
    }
}

/// The scale-adjusted default batch size: `B = 128 * scale`, floored at 16.
///
/// Scaling `B` with the dataset keeps the paper's privacy-amplification
/// geometry — both Theorem-7 rates `B/|E|` and `Bk/|V|` match the
/// full-size experiment, so per-budget iteration counts are comparable.
pub fn scaled_batch(scale: f64) -> usize {
    ((128.0 * scale) as usize).max(16)
}

/// Trains a skip-gram variant on a 90/10 split of the synthesized dataset
/// and returns the link-prediction AUC. `tweak` mutates the paper-default
/// configuration (learning rate, batch, epsilon, ... — the sweep knob).
///
/// # Errors
/// Propagates synthesis/training/evaluation failures.
pub fn variant_auc(
    spec: &DatasetSpec,
    variant: ModelVariant,
    run_seed: u64,
    tweak: &dyn Fn(&mut AdvSgmConfig),
) -> Result<f64, Box<dyn Error>> {
    let graph = synthesize(spec, run_seed);
    let mut rng = seeded(derive_seed(run_seed, 0x5711));
    let split = link_prediction_split(&graph, 0.10, &mut rng)?;
    let mut cfg = AdvSgmConfig::for_variant(variant);
    cfg.seed = derive_seed(run_seed, 0x7124);
    tweak(&mut cfg);
    let out = Trainer::fit(&split.train, cfg.with_threads(1))?;
    Ok(evaluate_split(&out.node_vectors, &split)?)
}

/// Trains a variant on the full labeled graph, clusters the embeddings
/// with Affinity Propagation, and returns the MI against the class labels.
///
/// # Errors
/// Fails if the dataset has no labels, or on training/clustering errors.
pub fn variant_mi(
    spec: &DatasetSpec,
    variant: ModelVariant,
    run_seed: u64,
    tweak: &dyn Fn(&mut AdvSgmConfig),
) -> Result<f64, Box<dyn Error>> {
    let graph = synthesize(spec, run_seed);
    let mut cfg = AdvSgmConfig::for_variant(variant);
    cfg.seed = derive_seed(run_seed, 0x7125);
    tweak(&mut cfg);
    let out = Trainer::fit(&graph, cfg.with_threads(1))?;
    clustering_mi(&graph, &out.node_vectors, run_seed)
}

/// Runs a baseline method for link prediction.
///
/// # Errors
/// Propagates synthesis/training/evaluation failures.
pub fn baseline_auc(
    spec: &DatasetSpec,
    method: Method,
    epsilon: f64,
    epochs: Option<usize>,
    batch: Option<usize>,
    run_seed: u64,
) -> Result<f64, Box<dyn Error>> {
    if let Method::Variant(v) = method {
        return variant_auc(spec, v, run_seed, &|cfg| {
            cfg.epsilon = epsilon;
            if let Some(e) = epochs {
                cfg.epochs = e;
            }
            if let Some(b) = batch {
                cfg.batch_size = b;
            }
        });
    }
    let graph = synthesize(spec, run_seed);
    let mut rng = seeded(derive_seed(run_seed, 0x5712));
    let split = link_prediction_split(&graph, 0.10, &mut rng)?;
    let emb = train_baseline(&split.train, method, epsilon, epochs, batch, run_seed)?;
    Ok(evaluate_split(&emb, &split)?)
}

/// Runs a baseline method for node clustering (MI).
///
/// # Errors
/// Propagates synthesis/training/clustering failures.
pub fn baseline_mi(
    spec: &DatasetSpec,
    method: Method,
    epsilon: f64,
    epochs: Option<usize>,
    batch: Option<usize>,
    run_seed: u64,
) -> Result<f64, Box<dyn Error>> {
    if let Method::Variant(v) = method {
        return variant_mi(spec, v, run_seed, &|cfg| {
            cfg.epsilon = epsilon;
            if let Some(e) = epochs {
                cfg.epochs = e;
            }
            if let Some(b) = batch {
                cfg.batch_size = b;
            }
        });
    }
    let graph = synthesize(spec, run_seed);
    let emb = train_baseline(&graph, method, epsilon, epochs, batch, run_seed)?;
    clustering_mi(&graph, &emb, run_seed)
}

fn train_baseline(
    graph: &Graph,
    method: Method,
    epsilon: f64,
    epochs: Option<usize>,
    batch: Option<usize>,
    run_seed: u64,
) -> Result<DenseMatrix, Box<dyn Error>> {
    let mut cfg = BaselineConfig {
        epsilon,
        seed: derive_seed(run_seed, 0xBA5E),
        ..BaselineConfig::default()
    };
    if let Some(e) = epochs {
        cfg.epochs = e;
    }
    if let Some(b) = batch {
        cfg.batch_size = b;
    }
    let emb = match method {
        Method::DpgGan => DpgGan::train(graph, &cfg)?,
        Method::DpgVae => DpgVae::train(graph, &cfg)?,
        Method::Gap => Gap::default().train(graph, &cfg)?,
        Method::Dpar => Dpar::default().train(graph, &cfg)?,
        Method::Variant(_) => unreachable!("variant handled by caller"),
    };
    Ok(emb)
}

/// Clusters embeddings with Affinity Propagation (the paper's clusterer)
/// and scores MI against the graph labels, restricted to the clustered
/// subsample when AP capped the problem size.
///
/// # Errors
/// Fails on unlabeled graphs or clustering errors.
pub fn clustering_mi(
    graph: &Graph,
    embeddings: &DenseMatrix,
    run_seed: u64,
) -> Result<f64, Box<dyn Error>> {
    let labels = graph.labels().ok_or("clustering needs a labeled dataset")?;
    let views: Vec<&[f64]> = (0..embeddings.rows()).map(|i| embeddings.row(i)).collect();
    let params = ApParams {
        max_points: 1200,
        max_iter: 200,
        ..ApParams::default()
    };
    let mut rng = seeded(derive_seed(run_seed, 0xC1D5));
    let ap = AffinityPropagation::fit(&views, &params, &mut rng)?;
    let truth: Vec<usize> = ap
        .point_indices
        .iter()
        .map(|&i| labels[i] as usize)
        .collect();
    Ok(mutual_information(&truth, &ap.assignments)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use advsgm_datasets::Dataset;

    fn tiny(spec: &DatasetSpec) -> DatasetSpec {
        spec.scaled(0.05)
    }

    fn fast(cfg: &mut AdvSgmConfig) {
        cfg.dim = 16;
        cfg.epochs = 2;
        cfg.disc_iters = 3;
        cfg.gen_iters = 1;
        cfg.batch_size = 32;
    }

    #[test]
    fn variant_auc_in_range() {
        let spec = tiny(&Dataset::Ppi.spec());
        let auc = variant_auc(&spec, ModelVariant::AdvSgm, 1, &fast).unwrap();
        assert!((0.0..=1.0).contains(&auc), "auc={auc}");
    }

    #[test]
    fn variant_mi_nonnegative() {
        let spec = tiny(&Dataset::Ppi.spec());
        let mi = variant_mi(&spec, ModelVariant::Sgm, 1, &fast).unwrap();
        assert!(mi >= 0.0);
    }

    #[test]
    fn baseline_auc_runs_for_all_methods() {
        let spec = tiny(&Dataset::Facebook.spec());
        for m in Method::figure_methods() {
            let auc = baseline_auc(&spec, m, 6.0, Some(2), Some(16), 1).unwrap();
            assert!((0.0..=1.0).contains(&auc), "{}: auc={auc}", m.name());
        }
    }

    #[test]
    fn mi_requires_labels() {
        let spec = tiny(&Dataset::Facebook.spec()); // unlabeled
        assert!(baseline_mi(&spec, Method::Gap, 6.0, Some(2), Some(16), 1).is_err());
    }

    #[test]
    fn method_names() {
        assert_eq!(Method::DpgGan.name(), "DPGGAN");
        assert_eq!(Method::Variant(ModelVariant::AdvSgm).name(), "AdvSGM");
        assert_eq!(Method::figure_methods().len(), 5);
    }
}
