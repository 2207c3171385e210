//! The kernel backend's bitwise contract (DESIGN.md §15).
//!
//! Every dispatched kernel (`dot2`, `dot16`, `axpy`, `scale`,
//! `fused_axpy_scale`, `dist_sq_2x16`) must be bit-for-bit equal to the
//! scalar reference in `linalg::vector` on every backend the host
//! supports — over hostile values (NaN payloads, ±inf, subnormals,
//! signed zeros, huge/tiny magnitudes) and every SIMD remainder length
//! 0..=17; every lane of `dot16` must be the single `dot` of its row, at
//! those lengths and at 32 and 128 too. (`backend::dot` is
//! `vector::dot` itself on every backend, so it needs no check.)
//! NaN *results* are compared as
//! "both NaN" rather than payload-exact: Rust's scalar semantics leave
//! the propagated payload unspecified (LLVM commutes `fmul`), so
//! payload-exactness is unimplementable even scalar-vs-scalar — see the
//! caveat in `linalg::backend`'s docs. On top of the per-kernel
//! property, full training must release bitwise-identical `.aemb`
//! bytes whichever backend is active, at 1 and 4 threads, the index
//! build identical `.aidx` bytes, and index search, approximate and
//! exact, identical answers.

use advsgm::core::{AdvSgmConfig, ModelVariant, Trainer};
use advsgm::graph::generators::classic::karate_club;
use std::sync::{Mutex, MutexGuard};

use advsgm::linalg::backend::{self, Backend, CentroidPanels};
use advsgm::linalg::{vector, DenseMatrix};
use advsgm::parallel::ThreadPool;
use advsgm::store::{EmbeddingStore, IndexParams, IvfIndex, PrivacyMeta};
use proptest::prelude::*;
use proptest::strategy::Strategy;
use proptest::TestRng;

/// Strategy over awkward `f64`s: quiet NaNs with distinct payloads,
/// ±inf, ±0, subnormals, boundary magnitudes, and ordinary mixed-sign
/// values. Heavily weighted toward the specials — the point is payload
/// and sign-of-zero propagation, not average-case arithmetic.
struct Awkward;

impl Strategy for Awkward {
    type Value = f64;
    fn sample_value(&self, rng: &mut TestRng) -> f64 {
        match rng.below(12) {
            0 => f64::from_bits(0x7ff8_0000_0000_0001), // quiet NaN, payload 1
            1 => f64::from_bits(0xfff8_dead_beef_cafe), // negative NaN, junk payload
            2 => f64::INFINITY,
            3 => f64::NEG_INFINITY,
            4 => 0.0,
            5 => -0.0,
            6 => f64::MIN_POSITIVE / 8.0, // subnormal
            7 => -f64::MIN_POSITIVE,
            8 => f64::MAX / 4.0,
            9 => -f64::MIN_POSITIVE * 3.0, // negative subnormal
            _ => rng.gen_range(-1e3f64..1e3),
        }
    }
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Bit-equality with the documented NaN caveat: non-NaN results must be
/// bit-exact; NaN results need only both be NaN (payload unspecified).
fn same_bits_mod_nan(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

fn all_same_bits_mod_nan(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(&x, &y)| same_bits_mod_nan(x, y))
}

fn supported_backends() -> Vec<Backend> {
    Backend::ALL
        .into_iter()
        .filter(|b| b.is_supported())
        .collect()
}

/// Held by every test that calls `backend::force`, so that a scalar leg
/// really runs on the scalar backend while tests run in parallel.
fn forcing_backends() -> MutexGuard<'static, ()> {
    static FORCE: Mutex<()> = Mutex::new(());
    FORCE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

proptest! {
    /// Per-kernel bitwise equality: scalar reference vs every supported
    /// backend, across all remainder lengths 0..=17 (prefixes of one
    /// 17-element draw) and awkward values.
    #[test]
    fn bitwise_tier_matches_scalar_on_awkward_values(
        x in proptest::collection::vec(Awkward, 17),
        a in proptest::collection::vec(Awkward, 17),
        b in proptest::collection::vec(Awkward, 17),
        c in proptest::collection::vec(Awkward, 17),
        alpha in Awkward,
        beta in Awkward,
    ) {
        for backend in supported_backends() {
            for n in 0..=17usize {
                let (x, a, b, c) = (&x[..n], &a[..n], &b[..n], &c[..n]);

                let (da, db) = backend::dot2_with(backend, x, a, b);
                let (ra, rb) = vector::dot2(x, a, b);
                prop_assert!(same_bits_mod_nan(da, ra), "dot2.0: backend {} n {}", backend, n);
                prop_assert!(same_bits_mod_nan(db, rb), "dot2.1: backend {} n {}", backend, n);

                // Every fused lane is the single `dot` of its operand,
                // the sign of a zero sum included.
                for (got, y) in [(da, a), (db, b)] {
                    prop_assert!(
                        same_bits_mod_nan(got, vector::dot(x, y)),
                        "dot2 vs dot: backend {} n {}", backend, n
                    );
                }

                let mut y_fast = a.to_vec();
                let mut y_ref = a.to_vec();
                backend::axpy_with(backend, alpha, x, &mut y_fast);
                vector::axpy(alpha, x, &mut y_ref);
                prop_assert!(
                    all_same_bits_mod_nan(&y_fast, &y_ref),
                    "axpy: backend {} n {}", backend, n
                );

                let mut s_fast = b.to_vec();
                let mut s_ref = b.to_vec();
                backend::scale_with(backend, &mut s_fast, alpha);
                vector::scale(&mut s_ref, alpha);
                prop_assert!(
                    all_same_bits_mod_nan(&s_fast, &s_ref),
                    "scale: backend {} n {}", backend, n
                );

                let mut f_fast = c.to_vec();
                let mut f_ref = c.to_vec();
                backend::fused_axpy_scale_with(backend, &mut f_fast, alpha, x, beta);
                vector::fused_axpy_scale(&mut f_ref, alpha, x, beta);
                prop_assert!(
                    all_same_bits_mod_nan(&f_fast, &f_ref),
                    "fused_axpy_scale: backend {} n {}", backend, n
                );
            }
        }
    }

    /// Every lane of `dot16` is the single `dot` of its row, the sign of
    /// a zero sum included: at every remainder length 0..=17 and at 32
    /// and 128 (the serving and smoke-release widths), on awkward values
    /// and, so that the wide sums stay finite, on ordinary ones.
    #[test]
    fn dot16_lanes_match_dot_on_awkward_values(
        awkward in proptest::collection::vec(Awkward, 17 * 128),
        ordinary in proptest::collection::vec(-1e3f64..1e3, 17 * 128),
    ) {
        for values in [&awkward, &ordinary] {
            let (x, rows) = values.split_at(128);
            for n in (0..=17usize).chain([32, 128]) {
                let lanes: [&[f64]; 16] = std::array::from_fn(|l| &rows[l * 128..][..n]);
                for backend in supported_backends() {
                    let got = backend::dot16_with(backend, &x[..n], &lanes);
                    for (l, row) in lanes.iter().enumerate() {
                        prop_assert!(
                            same_bits_mod_nan(got[l], vector::dot(&x[..n], row)),
                            "dot16 lane {}: backend {} n {}", l, backend, n
                        );
                    }
                }
            }
        }
    }

    /// `dist_sq_2x16` scores each packed centroid bitwise like
    /// `vector::dist_sq`, at every dimension 0..=17 and for 1–33
    /// centroids: up to two whole blocks, and a partial block left for
    /// the caller.
    #[test]
    fn dist_sq_2x16_matches_dist_sq_on_awkward_values(
        rows in proptest::collection::vec(Awkward, 2 * 17),
        cells in proptest::collection::vec(Awkward, 33 * 17),
    ) {
        for n in 0..=17usize {
            let (x0, x1) = (&rows[..n], &rows[17..17 + n]);
            for count in 1..=33usize {
                let centroids = DenseMatrix::from_fn(count, n, |c, k| cells[c * 17 + k]);
                let panels = CentroidPanels::pack(&centroids);
                prop_assert_eq!(panels.blocks(), count / 16);
                for backend in supported_backends() {
                    for block in 0..panels.blocks() {
                        let got = backend::dist_sq_2x16_with(backend, &panels, block, x0, x1);
                        for (x, lanes) in [x0, x1].into_iter().zip(&got) {
                            for (j, &d) in lanes.iter().enumerate() {
                                let c = 16 * block + j;
                                prop_assert!(
                                    same_bits_mod_nan(d, vector::dist_sq(x, centroids.row(c))),
                                    "dist_sq_2x16 centroid {}: backend {} n {} count {}",
                                    c, backend, n, count
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}

/// The acceptance gate: a full train→release is bitwise-identical under
/// the scalar backend and the host's strongest backend, at 1 and 4
/// threads, down to the released `.aemb` bytes. On a scalar-only host
/// the two backends coincide and the assertions are trivially true
/// (still exercised — `force` is always valid for supported backends).
#[test]
fn training_release_is_backend_invariant() {
    let _forcing = forcing_backends();
    let g = karate_club();
    let native = Backend::detect();

    for threads in [1usize, 4] {
        let mut cfg = AdvSgmConfig::test_small(ModelVariant::AdvSgm).with_threads(threads);
        cfg.seed = 42;

        backend::force(Backend::Scalar);
        let scalar_run = Trainer::fit(&g, cfg.clone()).unwrap();
        let scalar_bytes = advsgm::api::PipelineBuilder::from_config(cfg.clone())
            .build(&g)
            .unwrap()
            .train()
            .unwrap()
            .release_bytes();

        backend::force(native);
        let native_run = Trainer::fit(&g, cfg.clone()).unwrap();
        let native_bytes = advsgm::api::PipelineBuilder::from_config(cfg)
            .build(&g)
            .unwrap()
            .train()
            .unwrap()
            .release_bytes();

        assert_eq!(
            bits(native_run.node_vectors.as_slice()),
            bits(scalar_run.node_vectors.as_slice()),
            "embeddings differ between scalar and {native} at {threads} thread(s)"
        );
        assert_eq!(
            native_bytes, scalar_bytes,
            ".aemb release bytes differ between scalar and {native} at {threads} thread(s)"
        );
    }
}

/// Exact serving is backend-invariant too: the full top-k scan returns
/// bit-identical scores under scalar and the native backend (on a store
/// whose last 16-row group is padded).
#[test]
fn exact_topk_is_backend_invariant() {
    use advsgm::linalg::topk::top_k_rows;

    let n = 16 + 9; // one full group and a padded one
    let dim = 24;
    let m = DenseMatrix::from_fn(n, dim, |i, j| ((i * 37 + j * 11) as f64 * 0.173).sin());
    let q: Vec<f64> = (0..dim).map(|j| (j as f64 * 0.71).cos()).collect();

    let _forcing = forcing_backends();
    backend::force(Backend::Scalar);
    let scalar = top_k_rows(&m, &q, n, None);
    backend::force(Backend::detect());
    let native = top_k_rows(&m, &q, n, None);

    assert_eq!(scalar.len(), native.len());
    for (s, f) in scalar.iter().zip(&native) {
        assert_eq!(s.index, f.index);
        assert_eq!(s.score.to_bits(), f.score.to_bits());
    }
}

/// The index build is backend-invariant down to the `.aidx` bytes: its
/// assignment kernel, `dist_sq_2x16`, must score every centroid like
/// `vector::dist_sq`. Search is too, approximate as well as exact: with
/// each backend forced, a few rows' answers at every `nprobe` in
/// `1..=nlist` must agree in neighbors, score bits and rows scanned. Two
/// stores: a clustered one whose `nlist` of 37 leaves five centroids
/// after two whole blocks of 16, and a trained release at r = 128
/// indexed with `nlist` 17 (one block and one centroid, like the CI
/// smoke release).
#[test]
fn index_build_is_backend_invariant() {
    let clustered = EmbeddingStore::new(
        DenseMatrix::from_fn(1_500, 12, |i, j| {
            let center = 3.0 * (((i % 40) * 12 + j) as f64 * 0.7129).sin();
            center + ((i * 13 + j * 5) as f64 * 0.37).sin() * 0.3
        }),
        PrivacyMeta::non_private(ModelVariant::Sgm),
    )
    .unwrap();
    let mut cfg = AdvSgmConfig::test_small(ModelVariant::AdvSgm).with_threads(1);
    cfg.dim = 128;
    cfg.seed = 7;
    let trained = advsgm::api::PipelineBuilder::from_config(cfg)
        .build(&karate_club())
        .unwrap()
        .train()
        .unwrap()
        .store()
        .clone();
    assert_eq!(trained.dim(), 128);

    /// Every answer of `rows` at every `nprobe`, as comparable bits.
    fn answers(index: &IvfIndex, store: &EmbeddingStore, rows: &[usize]) -> Vec<Vec<u64>> {
        let mut out = Vec::new();
        for nprobe in 1..=index.nlist() {
            for &u in rows {
                let result = index.search(store, u, 10, nprobe).unwrap();
                let mut answer = vec![result.rows_scanned as u64];
                for n in &result.neighbors {
                    answer.extend([n.node as u64, n.score.to_bits()]);
                }
                out.push(answer);
            }
        }
        out
    }

    let native = Backend::detect();
    let _forcing = forcing_backends();
    for (name, store, nlist) in [("clustered", &clustered, 37), ("trained", &trained, 17)] {
        let params = IndexParams {
            nlist,
            ..IndexParams::default()
        };
        let rows = [0, 1, store.len() / 2, store.len() - 1];
        backend::force(Backend::Scalar);
        let scalar = IvfIndex::build(store, params).unwrap();
        let scalar_answers = answers(&scalar, store, &rows);
        backend::force(native);
        let native_index = IvfIndex::build_in(store, params, &mut ThreadPool::new(3)).unwrap();
        assert_eq!(scalar.nlist(), nlist, "{name}");
        assert_eq!(
            scalar.to_bytes(),
            native_index.to_bytes(),
            "{name}: .aidx bytes differ between scalar and {native}"
        );
        assert_eq!(
            scalar_answers,
            answers(&native_index, store, &rows),
            "{name}: search answers differ between scalar and {native}"
        );
    }
}
