//! Training → store wiring: `export()` on the one training type.
//!
//! The release boundary (Theorem 5) sits exactly here: a trainer runs
//! Algorithm 3, the accountant's spend is snapshot into the outcome, and
//! the node vectors leave the training process as an [`EmbeddingStore`]
//! stamped with that accounting metadata. Everything downstream of an
//! exported store — saving, loading, serving any number of queries — is
//! post-processing and spends no additional budget.

use advsgm_core::Trainer;
use advsgm_graph::Graph;

use crate::error::StoreError;
use crate::store::EmbeddingStore;

/// Runs a training engine to completion and packages the released vectors
/// as an [`EmbeddingStore`] with privacy metadata attached.
///
/// Implemented for [`Trainer`] on any engine; it consumes the trainer the
/// way [`Trainer::train`] does.
pub trait ExportEmbeddings {
    /// Trains on `graph` and returns the released store.
    ///
    /// # Errors
    /// [`StoreError::Train`] wrapping any training failure; budget
    /// exhaustion is *not* an error (the store simply carries the spend at
    /// the stopping point).
    fn export(self, graph: &Graph) -> Result<EmbeddingStore, StoreError>;
}

impl ExportEmbeddings for Trainer {
    fn export(self, graph: &Graph) -> Result<EmbeddingStore, StoreError> {
        let cfg = self.config().clone();
        let outcome = self.train(graph)?;
        EmbeddingStore::from_outcome(&outcome, &cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use advsgm_core::{AdvSgmConfig, ModelVariant, PartitionedTrainer};
    use advsgm_graph::generators::classic::karate_club;

    #[test]
    fn private_export_stamps_spend() {
        let g = karate_club();
        let cfg = AdvSgmConfig::test_small(ModelVariant::AdvSgm);
        let (delta, sigma) = (cfg.delta, cfg.sigma);
        let store = Trainer::new(&g, cfg).unwrap().export(&g).unwrap();
        assert_eq!(store.len(), g.num_nodes());
        assert_eq!(store.dim(), 16);
        let meta = store.meta();
        assert!(meta.is_private());
        assert!(meta.epsilon.unwrap() > 0.0);
        assert_eq!(meta.delta, Some(delta));
        assert_eq!(meta.sigma, Some(sigma));
        assert_eq!(meta.variant, ModelVariant::AdvSgm);
    }

    #[test]
    fn non_private_export_carries_no_guarantee() {
        let g = karate_club();
        let cfg = AdvSgmConfig::test_small(ModelVariant::Sgm);
        let store = Trainer::new(&g, cfg.with_threads(4))
            .unwrap()
            .export(&g)
            .unwrap();
        assert!(!store.meta().is_private());
        assert_eq!(store.meta().variant, ModelVariant::Sgm);
    }

    #[test]
    fn partitioned_export_matches_sequential_bitwise() {
        // Out of core the replay engine follows the in-RAM trajectory, so
        // the exported stores must be bitwise-identical at any P.
        let g = karate_club();
        let cfg = AdvSgmConfig::test_small(ModelVariant::AdvSgm).with_threads(1);
        let a = Trainer::new(&g, cfg.clone()).unwrap().export(&g).unwrap();
        let b = PartitionedTrainer::new(&g, cfg, 3)
            .unwrap()
            .export(&g)
            .unwrap();
        assert_eq!(a.to_bytes(), b.to_bytes());
    }

    #[test]
    fn export_on_empty_graph_is_a_train_error() {
        let g = Graph::from_parts(5, vec![], None);
        let cfg = AdvSgmConfig::test_small(ModelVariant::Sgm);
        match Trainer::new(&g, cfg) {
            Err(e) => {
                // Construction already rejects the empty graph; the export
                // path simply never begins.
                assert!(e.to_string().contains("no edges"));
            }
            Ok(_) => panic!("empty graph must be rejected"),
        }
    }
}
