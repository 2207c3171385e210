//! Acceptance tests for the workload variants behind the variants seam
//! (DESIGN.md §16): signed-graph training (`Signed-AdvSGM`) and
//! structure-preference weighting (`SP-AdvSGM`).
//!
//! Four contracts:
//!
//! 1. **Golden regression** — the five pre-seam variants release bytes
//!    bitwise-identical to the committed `tests/golden/*_t1.aemb` files at
//!    1 and 4 threads (the seam's uniform path changed *nothing*, and no
//!    thread count moves a bit);
//! 2. **Engine invariance** — both new variants obey the same contract as
//!    the paper variants: in RAM at 4 threads and partitioned ==
//!    sequential bitwise, with the same privacy spend on every engine;
//! 3. **Checkpoint/resume** — interrupt + `.actk` roundtrip + resume is
//!    bitwise-identical to an uninterrupted run for both new variants;
//! 4. **Workload signal** — on a planted-polarity graph, `Signed-AdvSGM`
//!    separates friend from foe edges (sign AUC) while the sign-blind
//!    `AdvSGM` cannot, and the released `.aemb` carries the new wire codes.

use advsgm::api::PipelineBuilder;
use advsgm::core::session::{CheckpointState, EpochEvent, SessionControl, TrainHooks};
use advsgm::core::{AdvSgmConfig, ModelVariant, PartitionedTrainer, Trainer};
use advsgm::eval::evaluate_sign_split;
use advsgm::graph::generators::classic::karate_club;
use advsgm::graph::generators::sbm::SbmConfig;
use advsgm::graph::generators::signed::{signed_sbm, SignedSbmConfig};
use advsgm::graph::partition::sign_prediction_split;
use advsgm::graph::Graph;
use advsgm::store::{decode_checkpoint, encode_checkpoint, EmbeddingStore};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn bits(m: &advsgm::linalg::DenseMatrix) -> Vec<u64> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

/// A signed planted-polarity graph: two blocks, intra-block friends,
/// inter-block foes, no flip noise.
fn planted_polarity() -> Graph {
    signed_sbm(
        &SignedSbmConfig {
            base: SbmConfig {
                num_nodes: 120,
                num_edges: 600,
                num_blocks: 2,
                mixing: 0.4,
                degree_exponent: 2.5,
            },
            flip_probability: 0.0,
        },
        &mut SmallRng::seed_from_u64(3),
    )
}

// ---------------------------------------------------------------------------
// 1. Golden regression: the pre-seam variants are bitwise-unchanged.
// ---------------------------------------------------------------------------

/// The five pre-seam variants must produce release bytes identical to the
/// `.aemb` files committed before the variants seam landed — at one thread
/// (sequential engine) and at four (the replay engine in RAM), which must
/// release the one-thread bytes. Uniform weighting and the empty sign
/// channel are contractually invisible.
#[test]
fn pre_seam_variants_match_golden_releases() {
    let graph = karate_club();
    for v in [
        ModelVariant::Sgm,
        ModelVariant::DpSgm,
        ModelVariant::DpAsgm,
        ModelVariant::AdvSgm,
        ModelVariant::AdvSgmNoDp,
    ] {
        for threads in [1usize, 4] {
            let stem = v
                .to_string()
                .to_ascii_lowercase()
                .replace([' ', '(', ')', '-'], "");
            let path = format!("tests/golden/{stem}_t1.aemb");
            let golden = std::fs::read(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
            let trained = PipelineBuilder::test_small(v)
                .threads(threads)
                .build(&graph)
                .unwrap()
                .train()
                .unwrap();
            assert_eq!(
                trained.release_bytes(),
                golden,
                "{v} at {threads} threads drifted from {path}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// 2. Engine invariance for the new variants.
// ---------------------------------------------------------------------------

fn workload_cfg(v: ModelVariant, threads: usize) -> AdvSgmConfig {
    let mut cfg = AdvSgmConfig::test_small(v).with_threads(threads);
    cfg.epochs = 3;
    cfg.seed = 17;
    cfg
}

/// Sequential == in-RAM@4 == partitioned, bitwise, for both workload
/// variants on a signed graph, partitioned at 1 and 4 threads (above one
/// thread the replay engine samples a batch one update early, so its sign
/// and weight channels travel through the lookahead); every engine
/// reports the same spend.
#[test]
fn workload_variants_hold_the_engine_invariance_trinity() {
    let g = planted_polarity();
    for v in [ModelVariant::SignedAdvSgm, ModelVariant::SpAdvSgm] {
        let seq = Trainer::fit(&g, workload_cfg(v, 1)).unwrap();

        let partitioned = |threads| {
            PartitionedTrainer::new(&g, workload_cfg(v, threads), 3)
                .unwrap()
                .train(&g)
                .unwrap()
        };
        for (engine, out) in [
            ("in-RAM@4", &Trainer::fit(&g, workload_cfg(v, 4)).unwrap()),
            ("partitioned@1", &partitioned(1)),
            ("partitioned@4", &partitioned(4)),
        ] {
            assert_eq!(
                bits(&seq.node_vectors),
                bits(&out.node_vectors),
                "{v}: sequential vs {engine}"
            );
            assert_eq!(
                seq.epsilon_spent.map(f64::to_bits),
                out.epsilon_spent.map(f64::to_bits),
                "{v}: {engine} spend"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// 3. Checkpoint/resume byte-identity for the new variants.
// ---------------------------------------------------------------------------

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

/// Interrupt mid-run, roundtrip the checkpoint through the `.actk` wire
/// format, resume: bitwise-identical outcome for both workload variants,
/// at one and four threads.
#[test]
fn workload_variant_resume_is_bitwise_exact() {
    let g = planted_polarity();
    for v in [ModelVariant::SignedAdvSgm, ModelVariant::SpAdvSgm] {
        for threads in [1usize, 4] {
            let cfg = workload_cfg(v, threads);
            let full = Trainer::fit(&g, cfg.clone()).unwrap();

            let mut hook = InterruptAt { at: 2, taken: None };
            Trainer::new(&g, cfg)
                .unwrap()
                .train_with_hooks(&g, &mut hook)
                .unwrap();
            let state = hook.taken.expect("checkpoint captured");
            let wire = encode_checkpoint(&state).unwrap();
            let restored = decode_checkpoint(&wire).unwrap();
            assert_eq!(restored.config.variant, v, "variant survives the wire");
            let resumed = Trainer::resume(&g, &restored, 1)
                .unwrap()
                .train(&g)
                .unwrap();

            let tag = format!("{v} threads={threads}");
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
                full.epsilon_spent.map(f64::to_bits),
                resumed.epsilon_spent.map(f64::to_bits),
                "{tag}: epsilon_spent"
            );
        }
    }
}

/// A sign-aware checkpoint is pinned to the *signed* graph: resuming
/// against the same topology with the polarity stripped must be rejected
/// (the fingerprint folds the sign channel).
#[test]
fn signed_checkpoint_rejects_the_unsigned_twin() {
    let g = planted_polarity();
    let mut hook = InterruptAt { at: 1, taken: None };
    Trainer::new(&g, workload_cfg(ModelVariant::SignedAdvSgm, 1))
        .unwrap()
        .train_with_hooks(&g, &mut hook)
        .unwrap();
    let state = hook.taken.unwrap();

    let unsigned = Graph::from_parts(g.num_nodes(), g.edges().to_vec(), None);
    let err = Trainer::resume(&unsigned, &state, 1)
        .err()
        .expect("must reject the sign-stripped twin");
    assert!(
        err.to_string().contains("fingerprint"),
        "expected fingerprint rejection, got: {err}"
    );
}

// ---------------------------------------------------------------------------
// 4. Workload signal + release metadata.
// ---------------------------------------------------------------------------

/// Training config for the separation fixture: enough epochs to learn the
/// polarity structure, mild noise so the DP machinery runs without
/// drowning the signal, and a budget that never trips early.
fn separation_cfg(v: ModelVariant) -> AdvSgmConfig {
    let mut cfg = AdvSgmConfig::test_small(v);
    cfg.epochs = 12;
    cfg.disc_iters = 8;
    cfg.batch_size = 64;
    cfg.sigma = if v.is_private() { 1.0 } else { cfg.sigma };
    cfg.epsilon = 1e9;
    cfg.seed = 29;
    cfg
}

/// The headline workload claim (arXiv 2512.00307 §IV): on a graph with
/// planted polarity, the sign-aware variant ranks held-out friend edges
/// above foe edges (AUC well over 0.5), while the sign-blind `AdvSGM` —
/// which attracts along *every* edge — cannot separate them. Both are
/// trained on the identical train split at the identical seed.
#[test]
fn signed_advsgm_separates_polarity_where_sign_blind_advsgm_cannot() {
    let g = planted_polarity();
    let split = sign_prediction_split(&g, 0.2, &mut SmallRng::seed_from_u64(41)).unwrap();

    let aware = Trainer::fit(&split.train, separation_cfg(ModelVariant::SignedAdvSgm)).unwrap();
    let blind = Trainer::fit(&split.train, separation_cfg(ModelVariant::AdvSgm)).unwrap();

    let auc_aware = evaluate_sign_split(&aware.node_vectors, &split).unwrap();
    let auc_blind = evaluate_sign_split(&blind.node_vectors, &split).unwrap();

    assert!(
        auc_aware > 0.6,
        "sign-aware AUC {auc_aware} should clear chance decisively"
    );
    assert!(
        auc_aware > auc_blind + 0.1,
        "sign-aware ({auc_aware}) must beat sign-blind ({auc_blind})"
    );
}

/// The released `.aemb` bytes of the new variants decode to stores whose
/// provenance names the right variant — i.e. the new wire codes (5, 6)
/// roundtrip through the release boundary.
#[test]
fn workload_releases_carry_their_wire_codes() {
    let g = planted_polarity();
    for (v, code) in [
        (ModelVariant::SignedAdvSgm, 5u8),
        (ModelVariant::SpAdvSgm, 6u8),
    ] {
        assert_eq!(v.wire_code(), code);
        let trained = PipelineBuilder::test_small(v)
            .epochs(1)
            .build(&g)
            .unwrap()
            .train()
            .unwrap();
        let bytes = trained.release_bytes();
        let store = EmbeddingStore::from_bytes(&bytes).unwrap();
        assert_eq!(store.meta().variant, v, "decoded provenance");
        assert!(store.meta().is_private(), "{v} is a private variant");
        assert_eq!(bytes[20], code, "wire code stamped at header byte 20");
    }
}

/// The sign-aware provider is `Send + Sync` (the `Trainer` that owns it
/// can move across threads) and draws identically from every thread at
/// the same seed — concurrency cannot perturb the sign channel.
#[test]
fn signed_sampler_draws_identically_across_threads() {
    use advsgm::core::sampler::BatchProvider;
    use advsgm::graph::sampling::negative::NegativeDistribution;

    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<BatchProvider>();

    let g = planted_polarity();
    let provider = BatchProvider::new_for_variant(
        &g,
        16,
        3,
        NegativeDistribution::Uniform,
        ModelVariant::SignedAdvSgm,
    )
    .unwrap();

    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let mut p = provider.clone();
                let g = &g;
                scope.spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(99);
                    let (pos, neg) = p.sample_disc_iteration(g, &mut rng).unwrap();
                    (pos.pairs, pos.signs, neg.pairs)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for r in &results[1..] {
        assert_eq!(r, &results[0], "concurrent draws diverged");
    }
    assert!(results[0].1.iter().any(|&s| s), "foe flags present");
}

/// `SP-AdvSGM` differs from `AdvSGM` only through the pair-weighting seam
/// — same batches, same noise draws — so its trajectory must *diverge*
/// (the weights actually bite) while staying deterministic.
#[test]
fn structure_preference_weights_change_the_trajectory() {
    let g = planted_polarity();
    let mut sp_cfg = workload_cfg(ModelVariant::SpAdvSgm, 1);
    let mut uni_cfg = workload_cfg(ModelVariant::AdvSgm, 1);
    // Identical hyperparameters; only the variant (and thus weighting)
    // differs.
    sp_cfg.seed = 7;
    uni_cfg.seed = 7;
    let sp = Trainer::fit(&g, sp_cfg).unwrap();
    let uni = Trainer::fit(&g, uni_cfg).unwrap();
    assert_ne!(
        bits(&sp.node_vectors),
        bits(&uni.node_vectors),
        "structure-preference weighting must actually scale gradients"
    );
}
