//! Integration tests for the embedding persistence + serving subsystem:
//! exact `.aemb` roundtrips, typed rejection of corrupted files, the
//! thread-count invariance of batched serving (DESIGN.md §9), and saves
//! that replace their file whole in all four formats.

use std::path::Path;

use advsgm::core::session::{CheckpointState, EpochEvent, SessionControl, TrainHooks};
use advsgm::core::{AdvSgmConfig, ModelVariant, Trainer};
use advsgm::graph::generators::classic::karate_club;
use advsgm::graph::generators::sbm::{degree_corrected_sbm, SbmConfig};
use advsgm::graph::Graph;
use advsgm::linalg::rng::seeded;
use advsgm::linalg::DenseMatrix;
use advsgm::store::{
    encode_agph, encode_checkpoint, load_agph, load_checkpoint, save_agph, save_checkpoint,
    EmbeddingStore, IndexParams, IvfIndex, PrivacyMeta, StoreError,
};
use proptest::prelude::*;

fn small_graph() -> advsgm::graph::Graph {
    let mut rng = seeded(7);
    degree_corrected_sbm(
        &SbmConfig {
            num_nodes: 150,
            num_edges: 800,
            num_blocks: 5,
            mixing: 0.1,
            degree_exponent: 2.5,
        },
        &mut rng,
    )
}

/// Every node's row, in node order, as raw bits.
fn bits(store: &EmbeddingStore) -> Vec<u64> {
    (0..store.len())
        .flat_map(|u| store.vector(u).unwrap())
        .map(|x| x.to_bits())
        .collect()
}

/// Trains on `g` and releases the outcome as a store.
fn release(g: &Graph, cfg: AdvSgmConfig) -> EmbeddingStore {
    let outcome = Trainer::new(g, cfg.clone()).unwrap().train(g).unwrap();
    EmbeddingStore::from_outcome(&outcome, &cfg).unwrap()
}

#[test]
fn trained_store_roundtrips_bitwise_through_disk() {
    let g = small_graph();
    let cfg = AdvSgmConfig::test_small(ModelVariant::AdvSgm);
    let store = release(&g, cfg);
    let path = std::env::temp_dir().join("advsgm_it_roundtrip.aemb");
    store.save(&path).unwrap();
    let back = EmbeddingStore::load(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    assert_eq!(bits(&back), bits(&store));
    assert_eq!(back.meta(), store.meta());
    assert_eq!(back.node_ids(), store.node_ids());
    // The privacy stamp survived: spent epsilon, target delta, sigma.
    assert!(back.meta().epsilon.unwrap() > 0.0);
    assert_eq!(back.meta().delta, Some(1e-5));
    assert_eq!(back.meta().sigma, Some(5.0));
}

#[test]
fn exported_store_serves_the_training_graph() {
    // Non-private skip-gram: real edges must outscore random pairs on
    // average when served from a loaded store — the end-to-end check that
    // persistence does not degrade what training learned.
    let g = small_graph();
    let mut cfg = AdvSgmConfig::test_small(ModelVariant::Sgm);
    cfg.epochs = 10;
    cfg.disc_iters = 20;
    cfg.batch_size = 64;
    let store = release(&g, cfg);
    let served = EmbeddingStore::from_bytes(&store.to_bytes()).unwrap();
    let mut pos = 0.0;
    for e in g.edges() {
        pos += served.score(e.u().index(), e.v().index()).unwrap();
    }
    pos /= g.num_edges() as f64;
    let mut rng = seeded(3);
    let mut neg = 0.0;
    let trials = 2000;
    for _ in 0..trials {
        use rand::Rng;
        let a = rng.gen_range(0..g.num_nodes());
        let b = rng.gen_range(0..g.num_nodes());
        neg += served.score(a, b).unwrap();
    }
    neg /= trials as f64;
    assert!(
        pos > neg,
        "edges ({pos}) must outscore random pairs ({neg})"
    );
}

#[test]
fn batch_top_k_is_thread_count_invariant() {
    let g = small_graph();
    let cfg = AdvSgmConfig::test_small(ModelVariant::AdvSgm);
    let store = release(&g, cfg);
    let queries: Vec<usize> = (0..store.len()).collect();
    let base = store.batch_top_k(&queries, 7, 1).unwrap();
    for threads in [2usize, 4, 8] {
        let got = store.batch_top_k(&queries, 7, threads).unwrap();
        assert_eq!(got.len(), base.len());
        for (q, (a, b)) in base.iter().zip(&got).enumerate() {
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.node, y.node, "threads={threads} query={q}");
                assert_eq!(
                    x.score.to_bits(),
                    y.score.to_bits(),
                    "threads={threads} query={q}"
                );
            }
        }
    }
}

#[test]
fn corrupted_and_truncated_files_fail_with_typed_errors() {
    let g = small_graph();
    let cfg = AdvSgmConfig::test_small(ModelVariant::Sgm);
    let store = release(&g, cfg);
    let bytes = store.to_bytes();

    // Header corruption: flipped byte inside the fixed header.
    let mut hdr = bytes.clone();
    hdr[9] ^= 0xFF;
    assert!(
        matches!(
            EmbeddingStore::from_bytes(&hdr),
            Err(StoreError::Truncated { .. } | StoreError::ChecksumMismatch { .. })
        ),
        "header corruption must be typed"
    );

    // Payload corruption: checksum catches a single flipped bit.
    let mut payload = bytes.clone();
    let mid = bytes.len() / 2;
    payload[mid] ^= 0x01;
    assert!(matches!(
        EmbeddingStore::from_bytes(&payload),
        Err(StoreError::ChecksumMismatch { .. })
    ));

    // Truncation at several cut points.
    for frac in [1usize, 4, 2] {
        let cut = bytes.len() * (frac.min(3)) / 4;
        let err = EmbeddingStore::from_bytes(&bytes[..cut]).unwrap_err();
        assert!(
            matches!(err, StoreError::Truncated { .. }),
            "cut={cut}: {err}"
        );
    }

    // Wrong magic / future version.
    let mut magic = bytes.clone();
    magic[0..4].copy_from_slice(b"NOPE");
    assert!(matches!(
        EmbeddingStore::from_bytes(&magic),
        Err(StoreError::BadMagic { .. })
    ));
    let mut ver = bytes;
    ver[4..6].copy_from_slice(&7u16.to_le_bytes());
    assert!(matches!(
        EmbeddingStore::from_bytes(&ver),
        Err(StoreError::UnsupportedVersion { found: 7, .. })
    ));
}

/// Keeps the checkpoint a session offers after its first epoch.
struct FirstCheckpoint(Option<CheckpointState>);

impl TrainHooks for FirstCheckpoint {
    fn on_epoch(&mut self, _event: &EpochEvent) -> SessionControl {
        SessionControl::Continue
    }

    fn wants_checkpoint(&mut self, epochs_done: usize) -> bool {
        epochs_done == 1
    }

    fn on_checkpoint(&mut self, state: &CheckpointState) -> SessionControl {
        self.0 = Some(state.clone());
        SessionControl::Continue
    }
}

/// Saves with `save` over an old file at `path` whose temp sibling
/// cannot be created, then with the sibling free: the first save must be
/// an `Io` error that leaves the old bytes, the second must leave no
/// temp sibling and `reload` to `encoded`.
fn assert_save_replaces_the_file_whole(
    path: &Path,
    encoded: &[u8],
    save: impl Fn(&Path) -> Result<(), StoreError>,
    reload: impl Fn(&Path) -> Vec<u8>,
) {
    let mut name = path.file_name().unwrap().to_os_string();
    name.push(".tmp");
    let tmp = path.with_file_name(name);
    let old = b"the previous file";
    std::fs::write(path, old).unwrap();
    std::fs::create_dir(&tmp).unwrap();
    let err = save(path).unwrap_err();
    assert!(
        matches!(err, StoreError::Io(_)),
        "{}: {err}",
        path.display()
    );
    assert_eq!(std::fs::read(path).unwrap(), old, "{}", path.display());
    std::fs::remove_dir(&tmp).unwrap();

    save(path).unwrap();
    assert!(!tmp.exists(), "{} left its temp sibling", path.display());
    assert!(
        reload(path) == encoded,
        "{} reloads other bytes",
        path.display()
    );
}

#[test]
fn every_format_saves_by_replacing_the_whole_file() {
    let g = karate_club();
    let cfg = AdvSgmConfig::test_small(ModelVariant::AdvSgm);
    let mut first = FirstCheckpoint(None);
    let mut trainer = Trainer::new(&g, cfg.clone()).unwrap();
    trainer.train_with_hooks(&g, &mut first).unwrap();
    let state = first.0.expect("a checkpoint after the first epoch");
    let store = EmbeddingStore::from_outcome(&trainer.into_outcome().unwrap(), &cfg).unwrap();
    let index = IvfIndex::build(&store, IndexParams::default()).unwrap();

    let dir = std::env::temp_dir().join(format!("advsgm_whole_saves_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    assert_save_replaces_the_file_whole(
        &dir.join("release.aemb"),
        &store.to_bytes(),
        |p| store.save(p),
        |p| EmbeddingStore::load(p).unwrap().to_bytes(),
    );
    assert_save_replaces_the_file_whole(
        &dir.join("release.aidx"),
        &index.to_bytes(),
        |p| index.save(p),
        |p| IvfIndex::load(p).unwrap().to_bytes(),
    );
    assert_save_replaces_the_file_whole(
        &dir.join("session.actk"),
        &encode_checkpoint(&state).unwrap(),
        |p| save_checkpoint(p, &state),
        |p| encode_checkpoint(&load_checkpoint(p).unwrap()).unwrap(),
    );
    assert_save_replaces_the_file_whole(
        &dir.join("graph.agph"),
        &encode_agph(&g, 3).unwrap(),
        |p| save_agph(p, &g, 3),
        |p| encode_agph(&load_agph(p).unwrap(), 3).unwrap(),
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn empty_graph_cannot_export_and_empty_store_roundtrips() {
    // Training rejects an edgeless graph before export begins...
    let g = advsgm::graph::Graph::from_parts(4, vec![], None);
    assert!(Trainer::new(&g, AdvSgmConfig::test_small(ModelVariant::Sgm)).is_err());
    // ...but an empty *store* is a well-defined artifact that roundtrips.
    let empty = EmbeddingStore::new(
        DenseMatrix::zeros(0, 8),
        PrivacyMeta::non_private(ModelVariant::Sgm),
    )
    .unwrap();
    let back = EmbeddingStore::from_bytes(&empty.to_bytes()).unwrap();
    assert!(back.is_empty());
    assert_eq!(back.dim(), 8);
    assert!(back.batch_top_k(&[], 3, 4).unwrap().is_empty());
}

proptest! {
    #[test]
    fn arbitrary_matrices_roundtrip_bitwise(
        rows in 0usize..12,
        cols in 1usize..9,
        seed in 0u64..1000,
        eps in 0.0f64..100.0,
    ) {
        // Fill with awkward magnitudes spanning many exponents.
        let mut rng = seeded(seed);
        let m = DenseMatrix::from_fn(rows, cols, |_, _| {
            use rand::Rng;
            let mag: f64 = rng.gen_range(-300.0..300.0);
            let sign = if rng.gen::<bool>() { 1.0 } else { -1.0 };
            sign * mag.exp2()
        });
        // eps < 1 doubles as the "non-private release" case so the flag
        // bits of both metadata layouts get exercised.
        let meta = if eps >= 1.0 {
            PrivacyMeta::private(ModelVariant::AdvSgm, eps, 1e-5, 5.0)
        } else {
            PrivacyMeta::non_private(ModelVariant::DpAsgm)
        };
        let store = EmbeddingStore::new(m, meta).unwrap();
        let back = EmbeddingStore::from_bytes(&store.to_bytes()).unwrap();
        prop_assert_eq!(bits(&back), bits(&store));
        prop_assert_eq!(back.meta(), store.meta());
        prop_assert_eq!(back.node_ids(), store.node_ids());
    }

    #[test]
    fn every_single_byte_flip_is_detected(pos_frac in 0.0f64..1.0, bit in 0u8..8) {
        // One store, one flipped bit anywhere in the file: the reader must
        // reject it with a typed error (structure check or checksum),
        // never accept silently altered bytes... except flips that cancel
        // in fields the format re-validates (none exist: every byte is
        // covered by the CRC).
        let m = DenseMatrix::from_fn(6, 4, |i, j| (i * 4 + j) as f64 * 0.5 - 3.0);
        let store = EmbeddingStore::new(
            m, PrivacyMeta::private(ModelVariant::AdvSgm, 2.0, 1e-5, 5.0),
        ).unwrap();
        let mut bytes = store.to_bytes();
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= 1 << bit;
        prop_assert!(
            EmbeddingStore::from_bytes(&bytes).is_err(),
            "flip at byte {} bit {} was accepted", pos, bit
        );
    }
}
