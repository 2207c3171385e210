//! The `advsgm::api` facade contract (ISSUE 5): a `Pipeline` run is
//! **bitwise-identical** to the equivalent hand-wired `Trainer` run at 1
//! and 4 threads, checkpoint/resume
//! through `Pipeline::resume` stays bitwise-exact, and the whole
//! train → save → load → top-k lifecycle is expressible against the api
//! alone — no `advsgm_core`/`advsgm_store` imports, one error type.

use advsgm::api::{
    Checkpoint, Delta, Dim, EmbeddingService, Epsilon, ModelVariant, NoiseSigma, Pipeline,
    PipelineBuilder, PipelineEvent,
};
use advsgm::graph::generators::classic::karate_club;

// The hand-wired internals surface, used only as the reference the
// facade must reproduce bit-for-bit.
use advsgm::core::{AdvSgmConfig, Trainer};

fn bits(m: &advsgm::linalg::DenseMatrix) -> Vec<u64> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

fn test_builder(threads: usize) -> PipelineBuilder {
    PipelineBuilder::test_small(ModelVariant::AdvSgm)
        .epochs(5)
        .seed(11)
        .threads(threads)
}

/// The facade must add nothing to the trajectory: same embeddings, same
/// losses, same accounting, same released bytes as the hand-wired
/// trainer, at one thread and at four.
#[test]
fn pipeline_is_bitwise_identical_to_hand_wired_engines() {
    let g = karate_club();
    for threads in [1usize, 4] {
        let builder = test_builder(threads);
        let cfg: AdvSgmConfig = builder.config().clone();
        let trained = builder.build(&g).unwrap().train().unwrap();

        // The reference: the Trainer itself (selects the engine exactly
        // like the pipeline must).
        let hand = Trainer::fit(&g, cfg.clone()).unwrap();
        assert_eq!(
            bits(trained.embeddings()),
            bits(&hand.node_vectors),
            "threads={threads}: pipeline must match the hand-wired engine bit-for-bit"
        );
        assert_eq!(trained.outcome().epoch_losses, hand.epoch_losses);
        assert_eq!(trained.outcome().disc_updates, hand.disc_updates);
        assert_eq!(trained.outcome().epsilon_spent, hand.epsilon_spent);
        assert_eq!(trained.outcome().delta_spent, hand.delta_spent);

        // The released artifact (embeddings + privacy stamp) must also be
        // byte-identical to one exported by hand.
        let by_hand =
            advsgm::store::EmbeddingStore::from_outcome(&hand, test_builder(threads).config())
                .unwrap();
        assert_eq!(trained.store().to_bytes(), by_hand.to_bytes());
    }
}

/// The observer is purely observational: installing one changes nothing.
#[test]
fn observer_does_not_perturb_the_trajectory() {
    let g = karate_club();
    let silent = test_builder(1).build(&g).unwrap().train().unwrap();
    let mut events = 0usize;
    let observed = test_builder(1)
        .build(&g)
        .unwrap()
        .observe(|e| {
            if matches!(e, PipelineEvent::Epoch(_)) {
                events += 1;
            }
        })
        .train()
        .unwrap();
    assert_eq!(events, observed.outcome().epochs_run);
    assert_eq!(bits(silent.embeddings()), bits(observed.embeddings()));
}

/// `Trained::spend` must agree with the outcome's reported spend.
#[test]
fn spend_snapshot_matches_the_outcome() {
    let g = karate_club();
    let trained = test_builder(1).build(&g).unwrap().train().unwrap();
    let spend = trained.spend().expect("AdvSGM is private");
    assert_eq!(Some(spend.epsilon_spent), trained.outcome().epsilon_spent);
    assert_eq!(Some(spend.delta_spent), trained.outcome().delta_spent);
    assert!(spend.steps > 0);

    let non_private = PipelineBuilder::test_small(ModelVariant::Sgm)
        .build(&g)
        .unwrap()
        .train()
        .unwrap();
    assert!(non_private.spend().is_none());
}

/// Interrupt-shaped resume through the api: train a shortened schedule,
/// persist its final checkpoint, extend, resume — the tail must be
/// bitwise-identical to an uninterrupted full run, at 1 and 4 threads.
#[test]
fn resume_through_pipeline_is_bitwise_exact() {
    let g = karate_club();
    let dir = std::env::temp_dir().join("advsgm_api_facade_resume");
    std::fs::create_dir_all(&dir).unwrap();
    for threads in [1usize, 4] {
        let full = test_builder(threads).build(&g).unwrap().train().unwrap();
        assert_eq!(
            full.outcome().epochs_run,
            5,
            "fixture must run every epoch (no budget stop)"
        );

        for k in [1usize, 3, 5] {
            let path = dir.join(format!("t{threads}_k{k}.actk"));
            // A run whose schedule *ends* at epoch k, with the final
            // boundary captured for resumption.
            let partial = test_builder(threads)
                .epochs(k)
                .build(&g)
                .unwrap()
                .keep_checkpoint()
                .train()
                .unwrap();
            partial.save_checkpoint(&path).unwrap();

            // Extend the schedule back to 5 epochs and resume.
            let mut ckpt = Checkpoint::load(&path).unwrap();
            assert_eq!(ckpt.epochs_done(), k as u64);
            assert_eq!(ckpt.seed(), 11);
            ckpt.extend_epochs(5).unwrap();
            let resumed = Pipeline::resume_from(&g, ckpt).unwrap().train().unwrap();

            assert_eq!(
                bits(resumed.embeddings()),
                bits(full.embeddings()),
                "threads={threads} k={k}: resumed tail must be bitwise-exact"
            );
            assert_eq!(resumed.outcome().epoch_losses, full.outcome().epoch_losses);
            assert_eq!(
                resumed.outcome().epsilon_spent,
                full.outcome().epsilon_spent
            );
            assert_eq!(resumed.outcome().delta_spent, full.outcome().delta_spent);
            assert_eq!(resumed.store().to_bytes(), full.store().to_bytes());
            std::fs::remove_file(&path).unwrap();
        }
    }
}

/// Periodic checkpoints written by the pipeline's own policy resume
/// through `Pipeline::resume` (the path-based entry point).
#[test]
fn periodic_checkpoints_resume_from_disk() {
    let g = karate_club();
    let dir = std::env::temp_dir().join("advsgm_api_facade_periodic");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("periodic.actk");

    let full = test_builder(1).build(&g).unwrap().train().unwrap();

    let mut saved_epochs = Vec::new();
    let with_ckpts = test_builder(1)
        .build(&g)
        .unwrap()
        .checkpoint_every(std::num::NonZeroUsize::new(2).unwrap(), &path)
        .observe(|e| {
            if let PipelineEvent::CheckpointSaved { epochs_done, .. } = e {
                saved_epochs.push(epochs_done);
            }
        })
        .train()
        .unwrap();
    assert_eq!(with_ckpts.checkpoints_written(), 2);
    assert_eq!(saved_epochs, vec![2, 4]);
    // The policy must not perturb the trajectory either.
    assert_eq!(bits(with_ckpts.embeddings()), bits(full.embeddings()));

    // The file on disk holds the epoch-4 boundary; resuming it replays
    // the final epoch to the identical outcome.
    let resumed = Pipeline::resume(&g, &path).unwrap().train().unwrap();
    assert_eq!(bits(resumed.embeddings()), bits(full.embeddings()));
    assert_eq!(resumed.store().to_bytes(), full.store().to_bytes());
    std::fs::remove_file(&path).unwrap();
}

/// A private run resumed at an already-complete schedule replays zero
/// epochs — its spend must still come back, seeded from the
/// checkpointed accountant, and match the outcome exactly.
#[test]
fn resume_of_completed_schedule_still_reports_spend() {
    let g = karate_club();
    let dir = std::env::temp_dir().join("advsgm_api_facade_done");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("done.actk");

    let first = test_builder(1)
        .build(&g)
        .unwrap()
        .keep_checkpoint()
        .train()
        .unwrap();
    first.save_checkpoint(&path).unwrap();

    // No extend_epochs: all 5 epochs are already done.
    let replay = Pipeline::resume(&g, &path).unwrap().train().unwrap();
    assert_eq!(replay.outcome().epochs_run, 5);
    let spend = replay.spend().expect("private resume must report spend");
    assert_eq!(Some(spend.epsilon_spent), replay.outcome().epsilon_spent);
    assert_eq!(Some(spend.delta_spent), replay.outcome().delta_spent);
    assert_eq!(spend.epsilon_spent, first.spend().unwrap().epsilon_spent);
    assert_eq!(spend.steps, first.spend().unwrap().steps);
    assert_eq!(bits(replay.embeddings()), bits(first.embeddings()));
    std::fs::remove_file(&path).unwrap();
}

/// Without a checkpoint policy, `save_checkpoint` is a typed error, not
/// a silent no-op.
#[test]
fn save_checkpoint_requires_a_captured_state() {
    let g = karate_club();
    let trained = test_builder(1).build(&g).unwrap().train().unwrap();
    let err = trained
        .save_checkpoint("/tmp/never_written.actk")
        .unwrap_err();
    assert!(err.to_string().contains("no checkpoint captured"), "{err}");
}

/// The full acceptance flow: train → save → load → top-k in a handful of
/// lines against `advsgm::api` alone (no `advsgm_core`/`advsgm_store`
/// types), with the loaded service agreeing bitwise with the in-memory
/// one.
#[test]
fn whole_lifecycle_through_the_api_only() {
    let graph = karate_club();
    let path = std::env::temp_dir().join("advsgm_api_facade_lifecycle.aemb");
    let trained = PipelineBuilder::test_small(ModelVariant::AdvSgm)
        .dim(Dim::new(16).unwrap())
        .epsilon(Epsilon::new(6.0).unwrap())
        .delta(Delta::new(1e-5).unwrap())
        .sigma(NoiseSigma::new(5.0).unwrap())
        .seed(7)
        .build(&graph)
        .unwrap()
        .train()
        .unwrap();
    trained.save_embeddings(&path).unwrap();
    let service = EmbeddingService::open(&path).unwrap();
    let neighbors = service.top_k(0, 5).unwrap();
    // ---- end of the quickstart flow ----

    assert_eq!(neighbors.len(), 5);
    assert!(service.privacy().is_private());
    assert_eq!(service.len(), graph.num_nodes());
    assert_eq!(service.dim(), 16);

    // The loaded service is bitwise the released store.
    let in_memory = trained.serve();
    for k in [1usize, 5] {
        for u in [0usize, 7, 33] {
            let a = service.top_k(u, k).unwrap();
            let b = in_memory.top_k(u, k).unwrap();
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.node, y.node);
                assert_eq!(x.score.to_bits(), y.score.to_bits());
            }
        }
    }
    std::fs::remove_file(&path).unwrap();
}

/// Batched serving through the api is bitwise pool-width-invariant.
#[test]
fn service_batching_is_thread_invariant() {
    let graph = karate_club();
    let trained = PipelineBuilder::test_small(ModelVariant::Sgm)
        .build(&graph)
        .unwrap()
        .train()
        .unwrap();
    let queries: Vec<usize> = (0..graph.num_nodes()).step_by(3).collect();
    let one = advsgm::api::EmbeddingService::with_threads(trained.store().clone(), 1);
    let four = advsgm::api::EmbeddingService::with_threads(trained.store().clone(), 4);
    let a = one.batch_top_k(&queries, 4).unwrap();
    let b = four.batch_top_k(&queries, 4).unwrap();
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        for (m, n) in x.iter().zip(y) {
            assert_eq!(m.node, n.node);
            assert_eq!(m.score.to_bits(), n.score.to_bits());
        }
    }
}

/// Everything the builder can reject is rejected before an engine exists.
#[test]
fn invalid_configurations_cannot_pass_the_builder() {
    // Typed parameters: unrepresentable.
    assert!(Epsilon::new(0.0).is_err());
    assert!(Delta::new(1.0).is_err());
    assert!(NoiseSigma::new(f64::NAN).is_err());
    assert!(Dim::new(0).is_err());
    // Cross-field constraints: caught by the builder's single validate.
    let g = karate_club();
    assert!(PipelineBuilder::test_small(ModelVariant::AdvSgm)
        .gen_iters(0)
        .build(&g)
        .is_err());
    assert!(PipelineBuilder::test_small(ModelVariant::Sgm)
        .batch_size(0)
        .build(&g)
        .is_err());
}
