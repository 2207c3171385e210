//! The sharded engine's determinism contract (DESIGN.md §7), end-to-end:
//!
//! * `threads = N` is run-to-run deterministic under a fixed seed;
//! * shard-reduction structure (threads, shard size) never changes what
//!   the privacy accountant records.
//!
//! At `threads = 1` `Trainer` runs the sequential engine itself; the
//! golden `.aemb` files in `tests/signed_variants.rs` pin those bytes.

use advsgm::core::{AdvSgmConfig, ModelVariant, Trainer};
use advsgm::graph::generators::classic::karate_club;
use proptest::prelude::*;

fn bits_of(m: &advsgm::linalg::matrix::DenseMatrix) -> Vec<u64> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

#[test]
fn sharded_is_run_to_run_deterministic() {
    let g = karate_club();
    for variant in ModelVariant::all() {
        // threads = 4: a different (parallel) trajectory, but run-to-run
        // deterministic under the same seed.
        let mut cfg = AdvSgmConfig::test_small(variant).with_threads(4);
        cfg.seed = 42;
        let a = Trainer::fit(&g, cfg.clone()).unwrap();
        let b = Trainer::fit(&g, cfg).unwrap();
        assert_eq!(
            bits_of(&a.node_vectors),
            bits_of(&b.node_vectors),
            "{variant}: threads=4 not run-to-run deterministic"
        );
        assert_eq!(a.disc_updates, b.disc_updates);
        assert_eq!(a.epoch_losses, b.epoch_losses);
    }
}

proptest! {
    /// Shard-reduction order is a pure execution detail: however the batch
    /// is cut (threads) and re-associated (shard_size), the accountant
    /// must record exactly the sequential engine's update count and spend.
    #[test]
    fn shard_reduction_never_changes_accounting(
        threads in 1usize..=4,
        shard_size in 0usize..=48,
        batch_size in 4usize..=32,
        seed in 0u64..1000,
    ) {
        let g = karate_club();
        let mut cfg = AdvSgmConfig::test_small(ModelVariant::AdvSgm);
        cfg.batch_size = batch_size;
        cfg.seed = seed;
        let reference = Trainer::fit(&g, cfg.clone().with_threads(1)).unwrap();
        let sharded = Trainer::fit(
            &g,
            cfg.with_threads(threads).with_shard_size(shard_size),
        )
        .unwrap();
        prop_assert_eq!(reference.disc_updates, sharded.disc_updates);
        prop_assert_eq!(reference.epochs_run, sharded.epochs_run);
        prop_assert_eq!(reference.stopped_by_budget, sharded.stopped_by_budget);
        // Identical (sigma, gamma) schedule => bitwise-equal spend.
        prop_assert_eq!(reference.epsilon_spent, sharded.epsilon_spent);
        prop_assert_eq!(reference.delta_spent, sharded.delta_spent);
    }
}
