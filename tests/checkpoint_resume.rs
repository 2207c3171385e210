//! The session layer's headline contract (DESIGN.md §10, ISSUE 4):
//! **resume-after-interrupt is bitwise-identical to an uninterrupted
//! run, at 1 and N threads** — for interrupts at the first epoch, a
//! middle epoch, and the last epoch, through the full on-disk `.actk`
//! serialisation path, including the reported `epsilon`/`delta` spend.

use advsgm::core::session::{CheckpointState, EpochEvent, SessionControl, TrainHooks};
use advsgm::core::{
    AdvSgmConfig, CoreError, EngineKind, ModelVariant, PartitionedTrainer, TrainOutcome, Trainer,
};
use advsgm::graph::generators::classic::karate_club;
use advsgm::graph::Graph;
use advsgm::store::{decode_checkpoint, encode_checkpoint, StoreError};

/// Simulates a crash: captures a checkpoint after `at` completed epochs
/// and stops the session right there.
struct InterruptAt {
    at: usize,
    taken: Option<CheckpointState>,
}

impl InterruptAt {
    fn new(at: usize) -> Self {
        Self { at, taken: None }
    }
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

/// Trains `trainer` under `hook` and releases whatever it ran.
fn train_interrupted(mut trainer: Trainer, g: &Graph, hook: &mut InterruptAt) -> TrainOutcome {
    trainer.train_with_hooks(g, hook).unwrap();
    trainer.into_outcome().unwrap()
}

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

/// Trains uninterrupted; then, for each interrupt epoch, trains a run
/// that stops at that epoch, serialises the captured checkpoint through
/// the `.actk` wire format, resumes it, and demands a bitwise-identical
/// outcome.
fn assert_resume_is_bitwise_exact(threads: usize) {
    let g = karate_club();
    let cfg = test_cfg(threads);
    let epochs = cfg.epochs;
    let full = Trainer::fit(&g, cfg.clone()).unwrap();
    assert_eq!(full.epochs_run, epochs, "fixture must run every epoch");

    // k = 1 (first), mid, and the last epoch.
    for k in [1usize, epochs / 2 + 1, epochs] {
        let mut hook = InterruptAt::new(k);
        let partial = train_interrupted(Trainer::new(&g, cfg.clone()).unwrap(), &g, &mut hook);
        assert_eq!(partial.epochs_run, k, "threads={threads} k={k}: interrupt");
        let state = hook.taken.expect("checkpoint captured");
        assert_eq!(state.epochs_done, k as u64);

        // Through the on-disk format: the persisted bytes, not the live
        // struct, must carry the full contract.
        let wire = encode_checkpoint(&state).unwrap();
        let restored = decode_checkpoint(&wire).unwrap();
        let resumed = Trainer::resume(&g, &restored, 1)
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
        assert_eq!(full.epochs_run, resumed.epochs_run, "{tag}");
        assert_eq!(full.disc_updates, resumed.disc_updates, "{tag}");
        assert_eq!(full.stopped_by_budget, resumed.stopped_by_budget, "{tag}");
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

#[test]
fn resume_is_bitwise_exact_at_one_thread() {
    assert_resume_is_bitwise_exact(1);
}

#[test]
fn resume_is_bitwise_exact_at_four_threads() {
    assert_resume_is_bitwise_exact(4);
}

#[test]
fn resume_reproduces_a_budget_stop_exactly() {
    // A run that exhausts its budget mid-schedule: resuming from an
    // earlier checkpoint must stop at the same update with the same
    // spend, bit for bit.
    let g = karate_club();
    let mut cfg = AdvSgmConfig::test_small(ModelVariant::AdvSgm);
    cfg.epochs = 50;
    // Short epochs with the paper's sigma: epoch 1 completes (one
    // checkpointable boundary) and the budget trips mid-epoch 2.
    cfg.disc_iters = 2;
    cfg.sigma = 5.0;
    cfg.epsilon = 2.0;
    let full = Trainer::fit(&g, cfg.clone()).unwrap();
    assert!(full.stopped_by_budget, "fixture must exhaust its budget");
    assert!(
        full.epochs_run >= 1,
        "need at least one boundary to resume from"
    );

    let mut hook = InterruptAt::new(1);
    Trainer::new(&g, cfg)
        .unwrap()
        .train_with_hooks(&g, &mut hook)
        .unwrap();
    let state = hook.taken.expect("checkpoint captured");
    let resumed = Trainer::resume(&g, &state, 1).unwrap().train(&g).unwrap();
    assert!(resumed.stopped_by_budget);
    assert_eq!(full.disc_updates, resumed.disc_updates);
    assert_eq!(full.epochs_run, resumed.epochs_run);
    assert_eq!(bits(&full.node_vectors), bits(&resumed.node_vectors));
    assert_eq!(
        full.delta_spent.map(f64::to_bits),
        resumed.delta_spent.map(f64::to_bits)
    );
}

#[test]
fn checkpoints_resume_bitwise_on_every_engine() {
    // Every engine follows the sequential trajectory and records the one
    // sequential stream. So a checkpoint captured in RAM at 1 or 4
    // threads, or out of core at P = 2, finishes bitwise-equal to the
    // uninterrupted run when resumed in RAM at width 1 or 4, or out of
    // core at P = 3 — through the `.actk` bytes.
    let g = karate_club();
    let full = Trainer::fit(&g, test_cfg(1)).unwrap();
    for (threads, partitions) in [(1usize, 0usize), (4, 0), (1, 2)] {
        let trainer = match partitions {
            0 => Trainer::new(&g, test_cfg(threads)),
            p => PartitionedTrainer::new(&g, test_cfg(threads), p),
        };
        let mut hook = InterruptAt::new(1);
        train_interrupted(trainer.unwrap(), &g, &mut hook);
        let wire = encode_checkpoint(&hook.taken.unwrap()).unwrap();
        let captured = decode_checkpoint(&wire).unwrap();
        let kind = match partitions {
            0 => EngineKind::Sequential,
            _ => EngineKind::Partitioned,
        };
        let from = format!("captured at {threads} thread(s), P = {partitions}");
        assert_eq!(captured.engine, kind, "{from}: engine code");
        assert_eq!(captured.config.num_threads, threads, "{from}: width pinned");

        for (width, engine) in [
            (1, EngineKind::Sequential),
            (4, EngineKind::Sequential),
            (1, EngineKind::Partitioned),
        ] {
            let mut state = captured.clone();
            state.config.num_threads = width;
            state.engine = engine;
            let resumed = Trainer::resume(&g, &state, 3).unwrap();
            let tag = format!("{from}, resumed {engine:?} at {width} thread(s)");
            assert_eq!(resumed.threads(), width, "{tag}: width");
            let resumed = resumed.train(&g).unwrap();
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
        }
    }
}

#[test]
fn resume_rejects_the_wrong_graph() {
    let g = karate_club();
    let mut hook = InterruptAt::new(1);
    Trainer::new(&g, test_cfg(1))
        .unwrap()
        .train_with_hooks(&g, &mut hook)
        .unwrap();
    let state = hook.taken.unwrap();

    // Different size: rejected on the counts.
    let smaller = Graph::from_parts(g.num_nodes(), g.edges()[..g.num_edges() - 1].to_vec(), None);
    let err = Trainer::resume(&smaller, &state, 1)
        .err()
        .expect("must fail");
    assert!(matches!(err, CoreError::Checkpoint { .. }), "{err}");

    // Same size, different edges: rejected on the fingerprint.
    let mut edges = g.edges().to_vec();
    edges.swap(0, 1);
    let reordered = Graph::from_parts(g.num_nodes(), edges, None);
    let err = Trainer::resume(&reordered, &state, 1)
        .err()
        .expect("must fail");
    assert!(
        err.to_string().contains("fingerprint"),
        "expected fingerprint rejection, got: {err}"
    );
}

#[test]
fn wire_corruption_is_typed_never_a_panic() {
    let g = karate_club();
    let mut hook = InterruptAt::new(2);
    Trainer::new(&g, test_cfg(2))
        .unwrap()
        .train_with_hooks(&g, &mut hook)
        .unwrap();
    let bytes = encode_checkpoint(&hook.taken.unwrap()).unwrap();

    // Every single-byte truncation decodes to a typed error.
    for cut in (0..bytes.len()).step_by(997).chain([bytes.len() - 1]) {
        let err = decode_checkpoint(&bytes[..cut]).unwrap_err();
        assert!(
            matches!(
                err,
                StoreError::Truncated { .. }
                    | StoreError::BadMagic { .. }
                    | StoreError::ChecksumMismatch { .. }
            ),
            "cut={cut}: {err}"
        );
    }
    // A flipped payload bit is caught by the checksum.
    let mut flipped = bytes.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x01;
    assert!(matches!(
        decode_checkpoint(&flipped).unwrap_err(),
        StoreError::ChecksumMismatch { .. }
    ));
}

#[test]
fn extending_epochs_on_resume_matches_a_longer_run() {
    // The CLI's `--resume --epochs N` path: a 2-epoch run extended to 5
    // must land exactly where an uninterrupted 5-epoch run does (batch
    // draws never depend on the configured total).
    let g = karate_club();
    for threads in [1usize, 4] {
        let mut short_cfg = test_cfg(threads);
        short_cfg.epochs = 2;
        let mut long_cfg = test_cfg(threads);
        long_cfg.epochs = 5;

        let mut hook = InterruptAt::new(2);
        Trainer::new(&g, short_cfg)
            .unwrap()
            .train_with_hooks(&g, &mut hook)
            .unwrap();
        let mut state = hook.taken.unwrap();
        state.config.epochs = 5;

        let extended = Trainer::resume(&g, &state, 1).unwrap().train(&g).unwrap();
        let full = Trainer::fit(&g, long_cfg).unwrap();
        assert_eq!(
            bits(&full.node_vectors),
            bits(&extended.node_vectors),
            "threads={threads}"
        );
        assert_eq!(
            full.epsilon_spent.map(f64::to_bits),
            extended.epsilon_spent.map(f64::to_bits)
        );
    }
}
