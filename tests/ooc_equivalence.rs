//! ISSUE 8 headline contract (DESIGN.md §14): **out-of-core partitioned
//! training is bitwise-identical to in-RAM sequential training** — the
//! released `.aemb` bytes, the epoch losses, and the accountant's spend
//! — for `P ∈ {1, 2, 4}` node buckets at 1, 3 and 4 worker threads, while
//! resident embedding memory stays bounded by two bucket partitions
//! (slot-pool high-water mark ≤ 2). Checkpoints taken by the partitioned
//! engine resume bitwise-exactly through the `.actk` wire format, under
//! a *different* partition count than they were captured with.

use advsgm::api::{ModelVariant as ApiVariant, PipelineBuilder};
use advsgm::core::session::{CheckpointState, EpochEvent, SessionControl, TrainHooks};
use advsgm::core::{AdvSgmConfig, ModelVariant, PartitionedTrainer, Trainer};
use advsgm::graph::generators::classic::karate_club;
use advsgm::store::{decode_checkpoint, encode_checkpoint};

fn bits(m: &advsgm::linalg::DenseMatrix) -> Vec<u64> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

fn fbits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn test_cfg(threads: usize) -> AdvSgmConfig {
    let mut cfg = AdvSgmConfig::test_small(ModelVariant::AdvSgm).with_threads(threads);
    cfg.epochs = 5;
    cfg.seed = 11;
    cfg
}

/// The full matrix of the headline contract: every outcome field that
/// crosses the release boundary is bitwise-identical to the sequential
/// engine, and the slot pool never held more than two partitions.
#[test]
fn partitioned_matches_sequential_bitwise_for_every_p_and_thread_count() {
    let g = karate_club();
    let full = Trainer::fit(&g, test_cfg(1)).unwrap();
    assert_eq!(full.epochs_run, 5, "fixture must run every epoch");

    for threads in [1usize, 3, 4] {
        for p in [1usize, 2, 4] {
            let trainer = PartitionedTrainer::new(&g, test_cfg(threads), p).unwrap();
            let stats = trainer.slot_stats();
            let out = trainer.train(&g).unwrap();

            let tag = format!("threads={threads} P={p}");
            assert_eq!(
                bits(&full.node_vectors),
                bits(&out.node_vectors),
                "{tag}: node vectors"
            );
            assert_eq!(
                bits(&full.context_vectors),
                bits(&out.context_vectors),
                "{tag}: context vectors"
            );
            assert_eq!(
                fbits(&full.epoch_losses),
                fbits(&out.epoch_losses),
                "{tag}: epoch losses"
            );
            assert_eq!(full.disc_updates, out.disc_updates, "{tag}");
            assert_eq!(full.stopped_by_budget, out.stopped_by_budget, "{tag}");
            assert_eq!(
                full.epsilon_spent.map(f64::to_bits),
                out.epsilon_spent.map(f64::to_bits),
                "{tag}: epsilon_spent"
            );
            assert_eq!(
                full.delta_spent.map(f64::to_bits),
                out.delta_spent.map(f64::to_bits),
                "{tag}: delta_spent"
            );
            // The residency bound: 2/P of the embeddings, by construction
            // of the two-role slot pool.
            assert!(
                stats.high_water() <= 2,
                "{tag}: {} partitions resident",
                stats.high_water()
            );
            if p >= 2 {
                assert!(stats.loads() > 0, "{tag}: pool never loaded a partition");
                assert!(stats.evictions() > 0, "{tag}: pool never evicted");
            }
        }
    }
}

/// The same contract one layer up, over the *released artifact*: the
/// `.aemb` bytes a partitioned pipeline releases are the bytes the
/// in-RAM pipeline releases — the Theorem-5 adversary cannot tell how
/// the run was executed.
#[test]
fn released_aemb_bytes_are_identical_through_the_api() {
    let g = karate_club();
    let baseline = PipelineBuilder::test_small(ApiVariant::AdvSgm)
        .threads(1)
        .seed(11)
        .build(&g)
        .unwrap()
        .train()
        .unwrap();

    for threads in [1usize, 3, 4] {
        for p in [1usize, 2, 4] {
            let trained = PipelineBuilder::test_small(ApiVariant::AdvSgm)
                .threads(threads)
                .seed(11)
                .partitions(p)
                .build(&g)
                .unwrap()
                .train()
                .unwrap();
            let tag = format!("threads={threads} P={p}");
            assert_eq!(
                baseline.release_bytes(),
                trained.release_bytes(),
                "{tag}: released bytes"
            );
            let (a, b) = (baseline.spend().unwrap(), trained.spend().unwrap());
            assert_eq!(
                a.epsilon_spent.to_bits(),
                b.epsilon_spent.to_bits(),
                "{tag}: spend"
            );
            assert_eq!(
                a.delta_spent.to_bits(),
                b.delta_spent.to_bits(),
                "{tag}: spend delta"
            );
        }
    }
}

/// Simulates a crash: captures a checkpoint after `at` completed epochs
/// and stops the session right there.
struct InterruptAt {
    at: usize,
    taken: Option<CheckpointState>,
}

impl TrainHooks for InterruptAt {
    fn on_epoch(&mut self, event: &EpochEvent) -> SessionControl {
        if event.epoch + 1 >= self.at {
            SessionControl::Stop
        } else {
            SessionControl::Continue
        }
    }

    fn wants_checkpoint(&mut self, epochs_done: usize) -> bool {
        epochs_done == self.at
    }

    fn on_checkpoint(&mut self, state: &CheckpointState) -> SessionControl {
        self.taken = Some(state.clone());
        SessionControl::Continue
    }
}

/// Interrupt at the first, a middle, and the last epoch; push the
/// captured state through the `.actk` wire format; resume on the
/// partitioned engine under a *different* bucket count. The trajectory
/// is partition-invariant, so every resumed run must land exactly where
/// the uninterrupted sequential run does.
#[test]
fn partitioned_checkpoints_resume_bitwise_under_any_partition_count() {
    let g = karate_club();
    for threads in [1usize, 4] {
        let cfg = test_cfg(threads);
        let epochs = cfg.epochs;
        let full = Trainer::fit(&g, test_cfg(1)).unwrap();

        for k in [1usize, epochs / 2 + 1, epochs] {
            let mut hook = InterruptAt { at: k, taken: None };
            let mut partial = PartitionedTrainer::new(&g, cfg.clone(), 2).unwrap();
            partial.train_with_hooks(&g, &mut hook).unwrap();
            let partial = partial.into_outcome().unwrap();
            assert_eq!(partial.epochs_run, k, "threads={threads} k={k}: interrupt");
            let state = hook.taken.expect("checkpoint captured");
            assert_eq!(state.epochs_done, k as u64);

            // Through the persisted bytes, resumed with P=3 (captured
            // with P=2): the bucket count is a residency choice, not
            // part of the trajectory.
            let wire = encode_checkpoint(&state).unwrap();
            let restored = decode_checkpoint(&wire).unwrap();
            let resumed = Trainer::resume(&g, &restored, 3)
                .unwrap()
                .train(&g)
                .unwrap();

            let tag = format!("threads={threads} k={k}");
            assert_eq!(
                bits(&full.node_vectors),
                bits(&resumed.node_vectors),
                "{tag}: node vectors"
            );
            assert_eq!(
                bits(&full.context_vectors),
                bits(&resumed.context_vectors),
                "{tag}: context vectors"
            );
            assert_eq!(
                fbits(&full.epoch_losses),
                fbits(&resumed.epoch_losses),
                "{tag}: epoch losses"
            );
            assert_eq!(full.disc_updates, resumed.disc_updates, "{tag}");
            assert_eq!(
                full.epsilon_spent.map(f64::to_bits),
                resumed.epsilon_spent.map(f64::to_bits),
                "{tag}: epsilon_spent"
            );
            assert_eq!(
                full.delta_spent.map(f64::to_bits),
                resumed.delta_spent.map(f64::to_bits),
                "{tag}: delta_spent"
            );
        }
    }
}

/// The api-level resume dispatch: a partitioned `.actk` loaded through
/// [`advsgm::api::Checkpoint`] resumes on the partitioned engine (with
/// the caller's bucket-count hint) and completes the schedule exactly.
#[test]
fn api_resume_dispatches_partitioned_checkpoints() {
    use advsgm::api::{Checkpoint, Pipeline};

    let g = karate_club();
    let dir = std::env::temp_dir().join("advsgm_ooc_equivalence_api_resume");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("ooc.actk");

    let baseline = PipelineBuilder::test_small(ApiVariant::AdvSgm)
        .threads(1)
        .seed(11)
        .build(&g)
        .unwrap()
        .train()
        .unwrap();

    PipelineBuilder::test_small(ApiVariant::AdvSgm)
        .threads(1)
        .seed(11)
        .partitions(2)
        .build(&g)
        .unwrap()
        .keep_checkpoint()
        .train()
        .unwrap()
        .save_checkpoint(&path)
        .unwrap();

    let mut ckpt = Checkpoint::load(&path).unwrap();
    ckpt.set_partitions(4);
    let resumed = Pipeline::resume_from(&g, ckpt).unwrap().train().unwrap();
    // The schedule was already complete, so resuming replays nothing —
    // and must still release the identical bytes and spend.
    assert_eq!(baseline.release_bytes(), resumed.release_bytes());
    assert_eq!(
        baseline.spend().unwrap().epsilon_spent.to_bits(),
        resumed.spend().unwrap().epsilon_spent.to_bits()
    );
    let _ = std::fs::remove_dir_all(&dir);
}
