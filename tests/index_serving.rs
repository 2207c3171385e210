//! Integration + property tests for the IVF approximate-nearest-neighbor
//! index (`.aidx`, DESIGN.md §12): calibrated recall on clustered stores,
//! bitwise-exact full-coverage mode (including non-finite rows and
//! tie-breaks) both where its bound prunes and where it falls back to
//! the full scan, typed rejection of corrupted index files, and the
//! index↔store fingerprint binding.

use advsgm::core::ModelVariant;
use advsgm::linalg::rng::seeded;
use advsgm::linalg::DenseMatrix;
use advsgm::store::{EmbeddingStore, IndexParams, IvfIndex, PrivacyMeta, StoreError};
use proptest::prelude::*;
use rand::Rng;

/// A store with `groups` well-separated direction clusters — the regime
/// trained community embeddings live in and where pruning must both hit
/// its recall calibration and actually skip most rows.
fn clustered_store(n: usize, dim: usize, groups: usize, seed: u64) -> EmbeddingStore {
    let mut rng = seeded(seed);
    let m = DenseMatrix::from_fn(n, dim, |i, j| {
        let g = i % groups;
        let center = 3.0 * ((g * dim + j) as f64 * 0.7129).sin();
        center + rng.gen_range(-0.3..0.3)
    });
    EmbeddingStore::new(m, PrivacyMeta::non_private(ModelVariant::Sgm)).unwrap()
}

fn assert_bitwise_eq(a: &[advsgm::store::Neighbor], b: &[advsgm::store::Neighbor], context: &str) {
    assert_eq!(a.len(), b.len(), "{context}: lengths differ");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.node, y.node, "{context}");
        assert_eq!(x.score.to_bits(), y.score.to_bits(), "{context}");
    }
}

#[test]
fn calibrated_recall_holds_on_a_clustered_store() {
    let store = clustered_store(4000, 16, 32, 11);
    let index = IvfIndex::build(&store, IndexParams::default()).unwrap();
    let k = 10;
    for target in [0.8, 0.9, 0.95] {
        let nprobe = index.nprobe_for(target);
        let mut hits = 0usize;
        let mut total = 0usize;
        let mut scanned = 0usize;
        // Out-of-calibration-sample queries: every 7th row.
        for u in (0..store.len()).step_by(7) {
            let exact: std::collections::HashSet<usize> =
                store.top_k(u, k).unwrap().iter().map(|n| n.node).collect();
            let got = index.search(&store, u, k, nprobe).unwrap();
            hits += got
                .neighbors
                .iter()
                .filter(|n| exact.contains(&n.node))
                .count();
            total += exact.len();
            scanned += got.rows_scanned;
        }
        let recall = hits as f64 / total as f64;
        assert!(
            recall >= target - 0.03,
            "target {target}: measured recall@{k} {recall:.4} (nprobe={nprobe})"
        );
        // Pruning is real, not vacuous: well under the full scan.
        let queries = (0..store.len()).step_by(7).count();
        let fraction = scanned as f64 / (queries * (store.len() - 1)) as f64;
        assert!(
            fraction < 0.6,
            "target {target}: scanned {:.1}% of rows",
            100.0 * fraction
        );
        if target == 0.95 {
            // At the 0.95 point the index meets its target outright
            // while scanning under a fifth of the rows.
            assert!(
                recall >= target && fraction < 0.2,
                "target {target}: recall@{k} {recall:.4} at {:.1}% of rows scanned \
                 (nprobe={nprobe}); the contract is recall >= {target} under 20%",
                100.0 * fraction
            );
        }
    }
}

#[test]
fn full_coverage_search_is_bitwise_identical_to_top_k() {
    // Rows include NaN, +inf, -inf, and exact duplicates (tie-break by
    // lower index) — the cases where "approximately equal" answers would
    // hide real ordering bugs.
    let mut m = DenseMatrix::from_fn(300, 6, |i, j| ((i * 13 + j * 5) as f64 * 0.37).sin());
    for j in 0..6 {
        m.set(17, j, f64::NAN);
        m.set(54, j, f64::INFINITY);
        m.set(55, j, f64::NEG_INFINITY);
        // Duplicate rows: 90 and 91 tie bitwise on every score.
        let v = m.get(90, j);
        m.set(91, j, v);
    }
    let store = EmbeddingStore::new(m, PrivacyMeta::non_private(ModelVariant::Sgm)).unwrap();
    let index = IvfIndex::build(&store, IndexParams::default()).unwrap();
    let nlist = index.nlist();
    for u in [0usize, 17, 54, 55, 90, 91, 299] {
        for k in [1usize, 5, 13] {
            let exact = store.top_k(u, k).unwrap();
            let got = index.search(&store, u, k, nlist).unwrap();
            assert_bitwise_eq(&got.neighbors, &exact, &format!("u={u} k={k}"));
            // nprobe above nlist is clamped, still exact.
            let over = index.search(&store, u, k, nlist + 100).unwrap();
            assert_bitwise_eq(&over.neighbors, &exact, &format!("u={u} k={k} over"));
        }
    }
}

/// Exact mode's answer for every listed `(u, k)`, checked bit for bit
/// against the full scan; returns the rows each search scored.
fn exact_matches_top_k(
    store: &EmbeddingStore,
    index: &IvfIndex,
    queries: &[(usize, usize)],
) -> Vec<usize> {
    queries
        .iter()
        .map(|&(u, k)| {
            let got = index.search(store, u, k, index.nlist()).unwrap();
            let want = store.top_k(u, k).unwrap();
            assert_bitwise_eq(&got.neighbors, &want, &format!("u={u} k={k}"));
            got.rows_scanned
        })
        .collect()
}

#[test]
fn exact_mode_prunes_only_after_the_geometry_is_derived() {
    let store = clustered_store(3000, 16, 24, 5);
    let index = IvfIndex::build(&store, IndexParams::default()).unwrap();
    let queries: Vec<(usize, usize)> = (0..3000).step_by(101).map(|u| (u, 10)).collect();
    let full = store.len() - 1;
    let built = exact_matches_top_k(&store, &index, &queries);
    assert!(built.iter().all(|&s| 4 * s < store.len()), "{built:?}");

    // A loaded index knows no radii: exact mode is the full scan...
    let loaded = IvfIndex::from_bytes(&index.to_bytes()).unwrap();
    let unbound = exact_matches_top_k(&store, &loaded, &queries);
    assert!(unbound.iter().all(|&s| s == full), "{unbound:?}");
    // ...until a store is accepted, and then it prunes like the build.
    loaded.validate_for(&store).unwrap();
    assert_eq!(exact_matches_top_k(&store, &loaded, &queries), built);
}

#[test]
fn exact_mode_edge_cases_match_the_full_scan() {
    let params = |nlist| IndexParams {
        nlist,
        ..IndexParams::default()
    };
    let store_of = |m| EmbeddingStore::new(m, PrivacyMeta::non_private(ModelVariant::Sgm)).unwrap();

    // Small-integer coordinates: scores are exact integers, so rows in
    // different clusters tie bit for bit and only the index breaks them.
    let mut rng = seeded(17);
    let ints = store_of(DenseMatrix::from_fn(600, 4, |i, _| {
        (i % 3) as f64 * 4.0 + f64::from(rng.gen_range(-1i32..=1))
    }));
    let index = IvfIndex::build(&ints, params(24)).unwrap();
    let queries: Vec<(usize, usize)> = (0..600)
        .step_by(37)
        .flat_map(|u| [1, 5, 10, 64].map(|k| (u, k)))
        .collect();
    let scored = exact_matches_top_k(&ints, &index, &queries);
    assert!(
        scored.iter().any(|&s| 2 * s < ints.len()),
        "ties never pruned"
    );

    // Finite rows near 1e154: their dots with each other overflow.
    let mut m = DenseMatrix::from_fn(400, 6, |i, j| ((i % 5) * 6 + j) as f64 * 0.37);
    for i in (0..400).step_by(9) {
        for j in 0..6 {
            m.set(i, j, m.get(i, j).mul_add(1e154, 1e154));
        }
    }
    let huge = store_of(m);
    let index = IvfIndex::build(&huge, params(12)).unwrap();
    exact_matches_top_k(
        &huge,
        &index,
        &[(0, 10), (9, 10), (1, 10), (2, 399), (18, 1)],
    );

    // Non-finite query rows, k = 0 and a single list.
    let mut m = DenseMatrix::from_fn(300, 5, |i, j| ((i % 7) * 5 + j) as f64 * 0.61);
    m.set(4, 2, f64::NAN);
    m.set(8, 0, f64::INFINITY);
    let hostile = store_of(m);
    for nlist in [1, 16] {
        let index = IvfIndex::build(&hostile, params(nlist)).unwrap();
        let queries = [
            (4, 10),
            (8, 10),
            (0, 0),
            (4, 0),
            (3, 10),
            (3, 302),
            (299, 1),
        ];
        let scored = exact_matches_top_k(&hostile, &index, &queries);
        assert_eq!(scored[2], 0, "k = 0 scores nothing");
    }

    // Coordinates so small that their squares underflow, so a computed
    // norm falls short of the true one by far more than any relative
    // margin. First a query row scaled by 1e-163 in a clustered store.
    let clustered = clustered_store(800, 8, 16, 29);
    let mut m = DenseMatrix::from_fn(800, 8, |i, j| clustered.vector(i).unwrap()[j]);
    for j in 0..8 {
        m.set(0, j, m.get(0, j) * 1e-163);
    }
    let tiny_query = store_of(m);
    let index = IvfIndex::build(&tiny_query, IndexParams::default()).unwrap();
    exact_matches_top_k(&tiny_query, &index, &[(0, 1), (0, 10), (0, 64)]);
    // Then a unit query over clusters 1e-150 apart whose members stray
    // from their centres by 1e-162, so every radius underflows. The query
    // sees only the shared first coordinate: every centroid scores about
    // the same, and the answer hangs on the strays.
    let mut rng = seeded(31);
    let strays = store_of(DenseMatrix::from_fn(801, 8, |i, j| match (i, j) {
        (0, 0) => 1.0,
        (0, _) => 0.0,
        (_, 0) => 1e-150 + 1e-162 * rng.gen_range(-1.0..1.0),
        _ => {
            let centre = 3e-150 * ((i % 16 * 8 + j) as f64 * 0.7129).sin();
            centre + 1e-162 * rng.gen_range(-1.0..1.0)
        }
    }));
    let index = IvfIndex::build(&strays, IndexParams::default()).unwrap();
    exact_matches_top_k(&strays, &index, &[(0, 1), (0, 10), (0, 64)]);

    // No finite rows at all: every row is on the always-scanned list.
    let nan = store_of(DenseMatrix::from_fn(40, 3, |i, j| {
        if (i + j) % 2 == 0 {
            f64::NAN
        } else {
            f64::NEG_INFINITY
        }
    }));
    let index = IvfIndex::build(&nan, IndexParams::default()).unwrap();
    assert_eq!(index.nlist(), 0);
    exact_matches_top_k(&nan, &index, &[(0, 5), (1, 39), (7, 0)]);
}

#[test]
fn exact_mode_takes_the_full_scan_on_an_unclustered_store() {
    let mut rng = seeded(23);
    let m = DenseMatrix::from_fn(2000, 32, |_, _| rng.gen_range(-1.0..1.0));
    let store = EmbeddingStore::new(m, PrivacyMeta::non_private(ModelVariant::Sgm)).unwrap();
    let index = IvfIndex::build(&store, IndexParams::default()).unwrap();
    let queries: Vec<(usize, usize)> = (0..2000).step_by(53).map(|u| (u, 10)).collect();
    let full = store.len() - 1;
    for scored in exact_matches_top_k(&store, &index, &queries) {
        // The pruned visit scored at least the k = 10 rows that filled
        // the heap, far from a quarter of the store, then the full scan
        // ran. (Visiting every list instead would score exactly `n`.)
        let before = scored.checked_sub(full).expect("took the full scan");
        assert!(before >= 10 && 4 * before < store.len(), "scored {scored}");
    }
}

#[test]
fn index_roundtrips_bitwise_through_disk() {
    let store = clustered_store(500, 8, 10, 3);
    let index = IvfIndex::build(&store, IndexParams::default()).unwrap();
    let path = std::env::temp_dir().join("advsgm_it_index.aidx");
    index.save(&path).unwrap();
    let back = IvfIndex::load(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    assert_eq!(back, index);
    // Same answers after the roundtrip, bit for bit.
    let nprobe = index.nprobe_for(0.9);
    for u in [0usize, 123, 499] {
        let a = index.search(&store, u, 7, nprobe).unwrap();
        let b = back.search(&store, u, 7, nprobe).unwrap();
        assert_eq!(a, b, "u={u}");
    }
}

#[test]
fn index_rejects_a_different_store() {
    let store = clustered_store(400, 8, 10, 3);
    let index = IvfIndex::build(&store, IndexParams::default()).unwrap();

    // Same shape, different contents: fingerprint mismatch.
    let other = clustered_store(400, 8, 10, 4);
    assert!(matches!(
        index.validate_for(&other),
        Err(StoreError::IndexStoreMismatch { .. })
    ));
    // Different shape: caught before fingerprinting.
    let smaller = clustered_store(200, 8, 10, 3);
    assert!(matches!(
        index.validate_for(&smaller),
        Err(StoreError::IndexStoreMismatch { .. })
    ));
    // Search against the wrong store fails at the shape gate too.
    assert!(index.search(&smaller, 0, 5, 1).is_err());
    // The original store validates clean.
    index.validate_for(&store).unwrap();
}

#[test]
fn corrupted_index_files_fail_with_typed_errors() {
    let store = clustered_store(300, 8, 10, 3);
    let index = IvfIndex::build(&store, IndexParams::default()).unwrap();
    let bytes = index.to_bytes();

    let mut magic = bytes.clone();
    magic[0..4].copy_from_slice(b"NOPE");
    assert!(matches!(
        IvfIndex::from_bytes(&magic),
        Err(StoreError::BadMagic { .. })
    ));

    let mut ver = bytes.clone();
    ver[4..6].copy_from_slice(&9u16.to_le_bytes());
    assert!(matches!(
        IvfIndex::from_bytes(&ver),
        Err(StoreError::UnsupportedVersion { found: 9, .. })
    ));

    // Cuts shorter than the magic can't even identify the format...
    assert!(matches!(
        IvfIndex::from_bytes(&bytes[..2]),
        Err(StoreError::BadMagic { .. })
    ));
    // ...everything past it reports truncation.
    for cut in [10usize, bytes.len() / 2, bytes.len() - 1] {
        assert!(
            matches!(
                IvfIndex::from_bytes(&bytes[..cut]),
                Err(StoreError::Truncated { .. })
            ),
            "cut={cut}"
        );
    }

    let mut payload = bytes.clone();
    let mid = bytes.len() / 2;
    payload[mid] ^= 0x01;
    assert!(IvfIndex::from_bytes(&payload).is_err(), "mid-file bit flip");

    IvfIndex::from_bytes(&bytes).unwrap();
}

proptest! {
    #[test]
    fn full_coverage_equals_exact_on_arbitrary_stores(
        n in 2usize..120,
        dim in 1usize..6,
        seed in 0u64..500,
        k in 1usize..15,
    ) {
        let mut rng = seeded(seed);
        let m = DenseMatrix::from_fn(n, dim, |_, _| {
            // Occasional non-finite rows keep the always-scan path hot.
            match rng.gen_range(0..20) {
                0 => f64::NAN,
                1 => f64::INFINITY,
                _ => rng.gen_range(-4.0..4.0),
            }
        });
        let store = EmbeddingStore::new(
            m, PrivacyMeta::non_private(ModelVariant::Sgm),
        ).unwrap();
        let index = IvfIndex::build(&store, IndexParams::default()).unwrap();
        let u = seed as usize % n;
        let exact = store.top_k(u, k).unwrap();
        let got = index.search(&store, u, k, index.nlist()).unwrap();
        prop_assert_eq!(got.neighbors.len(), exact.len());
        for (x, y) in got.neighbors.iter().zip(&exact) {
            prop_assert_eq!(x.node, y.node);
            prop_assert_eq!(x.score.to_bits(), y.score.to_bits());
        }
    }

    #[test]
    fn pruned_exact_mode_equals_top_k_on_clustered_stores(
        n in 500usize..1000,
        dim in 8usize..24,
        groups in 6usize..20,
        seed in 0u64..1000,
    ) {
        // Seeded random group centres and memberships: unlike
        // `clustered_store`'s sinusoid and `i % groups`, they cannot fall
        // on top of each other at some `dim`, or line up with the
        // build's evenly spaced seed rows.
        let mut rng = seeded(seed);
        let centres: Vec<f64> = (0..groups * dim).map(|_| rng.gen_range(-3.0..3.0)).collect();
        let group: Vec<usize> = (0..n).map(|_| rng.gen_range(0..groups)).collect();
        let m = DenseMatrix::from_fn(n, dim, |i, j| {
            centres[group[i] * dim + j] + rng.gen_range(-0.3..0.3)
        });
        let store = EmbeddingStore::new(m, PrivacyMeta::non_private(ModelVariant::Sgm)).unwrap();
        // Exact mode never reads the recall calibration: keep it cheap.
        let params = IndexParams { sample_queries: 4, ..IndexParams::default() };
        let index = IvfIndex::build(&store, params).unwrap();
        let (mut pruned, mut asked) = (0usize, 0usize);
        for q in 0..6 {
            let u = (seed as usize + q * n / 6) % n;
            for k in [1usize, 10, 64, n + 3] {
                let got = index.search(&store, u, k, index.nlist()).unwrap();
                let want = store.top_k(u, k).unwrap();
                prop_assert_eq!(got.neighbors.len(), want.len());
                for (x, y) in got.neighbors.iter().zip(&want) {
                    prop_assert_eq!(x.node, y.node, "u={} k={}", u, k);
                    prop_assert_eq!(x.score.to_bits(), y.score.to_bits(), "u={} k={}", u, k);
                }
                if k <= 10 {
                    asked += 1;
                    pruned += usize::from(2 * got.rows_scanned < n);
                }
            }
        }
        // At small k the bound really prunes: exact mode cannot pass by
        // always falling back to the full scan.
        prop_assert!(2 * pruned > asked, "{} of {} queries pruned", pruned, asked);
    }

    #[test]
    fn every_index_byte_flip_is_detected(pos_frac in 0.0f64..1.0, bit in 0u8..8) {
        let store = clustered_store(60, 4, 6, 9);
        let index = IvfIndex::build(&store, IndexParams {
            nlist: 4, kmeans_iters: 2, sample_queries: 8, calibration_k: 3,
        }).unwrap();
        let mut bytes = index.to_bytes();
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= 1 << bit;
        prop_assert!(
            IvfIndex::from_bytes(&bytes).is_err(),
            "flip at byte {} bit {} was accepted", pos, bit
        );
    }
}
