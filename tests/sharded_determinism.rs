//! The training contract across widths (DESIGN.md §7), end to end: every
//! thread count follows the one-stream trajectory, so the released bits,
//! the epoch losses, the update count and the spend are a function of the
//! seed and the configuration alone, however an update's work is sharded
//! over threads.
//!
//! `Trainer` runs the replay engine in RAM at every width; the golden
//! `.aemb` files in `tests/signed_variants.rs` pin the bytes every width
//! releases.

use advsgm::core::{AdvSgmConfig, ModelVariant, TrainOutcome, Trainer};
use advsgm::graph::generators::classic::karate_club;
use proptest::prelude::*;

fn bits(m: &advsgm::linalg::DenseMatrix) -> Vec<u64> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

fn loss_bits(o: &TrainOutcome) -> Vec<u64> {
    o.epoch_losses.iter().map(|l| l.to_bits()).collect()
}

#[test]
fn sharded_is_run_to_run_deterministic() {
    let g = karate_club();
    for variant in ModelVariant::all() {
        let mut cfg = AdvSgmConfig::test_small(variant);
        cfg.seed = 42;
        let reference = Trainer::fit(&g, cfg.clone()).unwrap();
        let a = Trainer::fit(&g, cfg.clone().with_threads(4)).unwrap();
        let b = Trainer::fit(&g, cfg.with_threads(4)).unwrap();
        for wide in [&a, &b] {
            assert_eq!(
                bits(&reference.node_vectors),
                bits(&wide.node_vectors),
                "{variant}: threads=4 left the 1-thread trajectory"
            );
            assert_eq!(
                bits(&reference.context_vectors),
                bits(&wide.context_vectors),
                "{variant}: threads=4 context vectors left the 1-thread trajectory"
            );
            assert_eq!(loss_bits(&reference), loss_bits(wide), "{variant}");
            assert_eq!(reference.disc_updates, wide.disc_updates, "{variant}");
        }
    }
}

proptest! {
    /// However many threads share the work, the run is the 1-thread run,
    /// bit for bit: the accounting, and everything it released.
    #[test]
    fn shard_reduction_never_changes_accounting(
        threads in 1usize..=4,
        batch_size in 4usize..=32,
        seed in 0u64..1000,
    ) {
        let g = karate_club();
        let mut cfg = AdvSgmConfig::test_small(ModelVariant::AdvSgm);
        cfg.batch_size = batch_size;
        cfg.seed = seed;
        let reference = Trainer::fit(&g, cfg.clone().with_threads(1)).unwrap();
        let wide = Trainer::fit(&g, cfg.with_threads(threads)).unwrap();
        prop_assert_eq!(bits(&reference.node_vectors), bits(&wide.node_vectors));
        prop_assert_eq!(bits(&reference.context_vectors), bits(&wide.context_vectors));
        prop_assert_eq!(loss_bits(&reference), loss_bits(&wide));
        prop_assert_eq!(reference.disc_updates, wide.disc_updates);
        prop_assert_eq!(reference.epochs_run, wide.epochs_run);
        prop_assert_eq!(reference.stopped_by_budget, wide.stopped_by_budget);
        prop_assert_eq!(
            reference.epsilon_spent.map(f64::to_bits),
            wide.epsilon_spent.map(f64::to_bits)
        );
        prop_assert_eq!(
            reference.delta_spent.map(f64::to_bits),
            wide.delta_spent.map(f64::to_bits)
        );
    }
}
