//! A store arranged in its index's list order (DESIGN.md §9, §12) serves
//! exactly what the unarranged store serves: every answer in node order
//! and bit for bit the same, the same fingerprint, bytes and equality,
//! through every path that arranges (`build_index`, `attach_index`, a
//! second build, a clone re-attached to a cloned index).

use advsgm::api::EmbeddingService;
use advsgm::core::ModelVariant;
use advsgm::linalg::rng::seeded;
use advsgm::linalg::DenseMatrix;
use advsgm::store::{EmbeddingStore, IndexParams, IvfIndex, Neighbor, PrivacyMeta};
use proptest::prelude::*;
use rand::Rng;

/// `n` rows around four centres on a coarse grid, so scores tie, with
/// about a quarter of the rows repeated (bitwise-tied scores) and three
/// rows holding NaN, +inf and -inf, or, with `all_nonfinite`, every row
/// holding one of them (so nothing can be clustered and `nlist` is 0).
fn hostile_store(seed: u64, n: usize, dim: usize, all_nonfinite: bool) -> EmbeddingStore {
    let mut rng = seeded(seed);
    let centres: Vec<Vec<f64>> = (0..4)
        .map(|_| {
            (0..dim)
                .map(|_| f64::from(rng.gen_range(-4i32..=4)))
                .collect()
        })
        .collect();
    let mut m = DenseMatrix::zeros(n, dim);
    for i in 0..n {
        let centre = &centres[rng.gen_range(0..centres.len())];
        for (j, &c) in centre.iter().enumerate() {
            m.set(i, j, c + f64::from(rng.gen_range(-2i32..=2)) * 0.25 + 0.125);
        }
    }
    if n > 0 {
        for _ in 0..n / 4 + 1 {
            let (from, to) = (rng.gen_range(0..n), rng.gen_range(0..n));
            for j in 0..dim {
                m.set(to, j, m.get(from, j));
            }
        }
        let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        let rows = if all_nonfinite { n } else { 3.min(n) };
        for i in 0..rows {
            let row = if all_nonfinite {
                i
            } else {
                rng.gen_range(0..n)
            };
            m.set(row, rng.gen_range(0..dim), specials[i % 3]);
        }
    }
    EmbeddingStore::new(m, PrivacyMeta::non_private(ModelVariant::Sgm)).unwrap()
}

/// Nodes, ids and score bits.
fn bits(neighbors: &[Neighbor]) -> Vec<(usize, u64, u64)> {
    neighbors
        .iter()
        .map(|n| (n.node, n.id, n.score.to_bits()))
        .collect()
}

/// Every query `service` answers, checked bit for bit against `plain`, the
/// unarranged store, searched through `index` where the service uses its
/// own.
fn assert_serves_as(service: &EmbeddingService, plain: &EmbeddingStore, index: &IvfIndex) {
    let n = plain.len();
    let served = service.store();
    assert_eq!(served.fingerprint(), plain.fingerprint());
    assert_eq!(served.to_bytes(), plain.to_bytes());
    // Equality compares rows as floats, so a NaN row is unequal to itself;
    // the arrangement must not change that either way.
    let reflexive = plain == &plain.clone();
    assert_eq!(served == plain, reflexive);
    assert_eq!(plain == served, reflexive);
    let attached = service.index().expect("an index is attached");
    assert_eq!(attached.to_bytes(), index.to_bytes());
    let targets: Vec<f64> = index
        .calibration()
        .iter()
        .map(|&(t, _)| t)
        .chain([1.0])
        .collect();
    for u in 0..n {
        let want: Vec<u64> = plain
            .vector(u)
            .unwrap()
            .iter()
            .map(|x| x.to_bits())
            .collect();
        let got: Vec<u64> = served
            .vector(u)
            .unwrap()
            .iter()
            .map(|x| x.to_bits())
            .collect();
        assert_eq!(got, want, "vector({u})");
        for v in 0..n {
            let want = plain.score(u, v).unwrap().to_bits();
            assert_eq!(
                service.score(u, v).unwrap().to_bits(),
                want,
                "score({u}, {v})"
            );
        }
        for k in [0, 1, 3, n + 2] {
            let want = plain.top_k(u, k).unwrap();
            assert_eq!(
                bits(&service.top_k(u, k).unwrap()),
                bits(&want),
                "top_k({u}, {k})"
            );
            for &target in &targets {
                let want = index.search(plain, u, k, index.nprobe_for(target)).unwrap();
                let got = service.top_k_approx_with_stats(u, k, target).unwrap();
                assert_eq!(
                    bits(&got.neighbors),
                    bits(&want.neighbors),
                    "top_k_approx({u}, {k}, {target})"
                );
                assert_eq!(got.rows_scanned, want.rows_scanned);
            }
        }
    }
    // Repeated queries, so the batch dedupes too.
    let queries: Vec<usize> = (0..n).chain((0..n).rev()).collect();
    for k in [1, 4] {
        let want: Vec<_> = plain
            .batch_top_k(&queries, k, 1)
            .unwrap()
            .iter()
            .map(|r| bits(r))
            .collect();
        for threads in [1, 4] {
            let got: Vec<_> = served
                .batch_top_k(&queries, k, threads)
                .unwrap()
                .iter()
                .map(|r| bits(r))
                .collect();
            assert_eq!(got, want, "batch_top_k k={k} threads={threads}");
        }
        let got: Vec<_> = service
            .batch_top_k(&queries, k)
            .unwrap()
            .iter()
            .map(|r| bits(r))
            .collect();
        assert_eq!(got, want, "service batch_top_k k={k}");
    }
    assert!(service.top_k(n, 1).is_err());
    assert!(served.vector(n).is_err());
    assert!(service.score(0, n).is_err());
}

proptest! {
    #[test]
    fn an_arranged_store_serves_as_its_unarranged_clone(
        seed in 0u64..u64::MAX,
        n in 0usize..40,
        dim in 1usize..6,
        nlist in 1usize..9,
        shape in 0usize..4,
    ) {
        // Shape 0 gives n = 0, 1 and 2; shape 1 a store with no finite
        // row, so `nlist` is 0 and everything sits on the always-scanned
        // list.
        let n = if shape == 0 { n % 3 } else { n };
        let plain = hostile_store(seed, n, dim, shape == 1);
        let params = IndexParams {
            nlist,
            kmeans_iters: 3,
            sample_queries: 8,
            calibration_k: 3,
        };
        let index = IvfIndex::build(&plain, params).unwrap();
        if shape == 1 {
            prop_assert_eq!(index.nlist(), 0);
        }

        // Built through the service, on a pool of four.
        let mut built = EmbeddingService::with_threads(plain.clone(), 4);
        built.build_index(params).unwrap();
        assert_serves_as(&built, &plain, &index);
        // A build over the arranged store writes the same index bytes.
        let rebuilt = IvfIndex::build(built.store(), params).unwrap();
        prop_assert_eq!(rebuilt.to_bytes(), index.to_bytes());

        // Attached after a load from bytes.
        let mut attached = EmbeddingService::with_threads(plain.clone(), 1);
        attached
            .attach_index(IvfIndex::from_bytes(&index.to_bytes()).unwrap())
            .unwrap();
        assert_serves_as(&attached, &plain, &index);
    }
}

fn clustered(n: usize, seed: u64) -> EmbeddingStore {
    let mut rng = seeded(seed);
    let groups: Vec<usize> = (0..n).map(|_| rng.gen_range(0..12)).collect();
    let m = DenseMatrix::from_fn(n, 8, |i, j| {
        3.0 * ((groups[i] * 8 + j) as f64 * 0.7129).sin() + rng.gen_range(-0.3..0.3)
    });
    EmbeddingStore::new(m, PrivacyMeta::non_private(ModelVariant::Sgm)).unwrap()
}

#[test]
fn a_second_build_and_a_reattached_clone_serve_the_same_bits() {
    let plain = clustered(900, 5);
    let params = IndexParams::default();
    let index = IvfIndex::build(&plain, params).unwrap();

    // `build_index` twice: the second build reads the arranged store.
    let mut twice = EmbeddingService::with_threads(plain.clone(), 2);
    twice.build_index(params).unwrap();
    twice.build_index(params).unwrap();
    assert_serves_as(&twice, &plain, &index);

    // A clone of the arranged store re-attached to a clone of its index,
    // as a caller keeps a local copy of what it serves.
    let local_store = twice.store().clone();
    let local_index = twice.index().cloned().unwrap();
    let mut local = EmbeddingService::with_threads(local_store, 2);
    local.attach_index(local_index).unwrap();
    assert_serves_as(&local, &plain, &index);

    // A store arranged by one index re-arranged by another with other
    // lists.
    let coarse = IvfIndex::build(&plain, IndexParams { nlist: 5, ..params }).unwrap();
    let mut moved = EmbeddingService::with_threads(twice.store().clone(), 2);
    moved.attach_index(coarse.clone()).unwrap();
    assert_serves_as(&moved, &plain, &coarse);
}

#[test]
fn save_after_arranging_writes_the_loaded_bytes() {
    let dir = std::env::temp_dir().join(format!("advsgm_arranged_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (loaded, saved) = (dir.join("loaded.aemb"), dir.join("saved.aemb"));
    let plain = clustered(700, 8);
    plain.save(&loaded).unwrap();
    let want = std::fs::read(&loaded).unwrap();

    let mut built = EmbeddingService::open(&loaded).unwrap();
    built.build_index(IndexParams::default()).unwrap();
    built.save(&saved).unwrap();
    assert_eq!(std::fs::read(&saved).unwrap(), want, "after build_index");

    let index = IvfIndex::build(
        &plain,
        IndexParams {
            nlist: 9,
            ..IndexParams::default()
        },
    )
    .unwrap();
    let mut attached = EmbeddingService::open(&loaded).unwrap();
    attached.attach_index(index).unwrap();
    attached.save(&saved).unwrap();
    assert_eq!(std::fs::read(&saved).unwrap(), want, "after attach_index");
    std::fs::remove_dir_all(&dir).unwrap();
}
