//! Criterion micro-benchmarks for the workspace's hot paths:
//! sampling, gradients, activations, privacy accounting, and evaluation.

use advsgm_core::grad::{sgm_negative_grads, sgm_positive_grads};
use advsgm_core::SigmoidKind;
use advsgm_eval::auc::auc_from_scores;
use advsgm_eval::clustering::affinity::{AffinityPropagation, ApParams};
use advsgm_eval::clustering::metrics::mutual_information;
use advsgm_graph::generators::sbm::{degree_corrected_sbm, SbmConfig};
use advsgm_graph::sampling::alias::AliasTable;
use advsgm_graph::sampling::edge_sampler::EdgeBatchSampler;
use advsgm_graph::sampling::negative::{NegativeDistribution, NegativeSampler};
use advsgm_linalg::activations::{exp_clip_sharp, sigmoid, ConstrainedSigmoid};
use advsgm_linalg::rng::{gaussian_vec, seeded};
use advsgm_privacy::subsampled::subsampled_gaussian_epsilon;
use advsgm_privacy::RdpAccountant;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::Rng;

fn fixture_graph() -> advsgm_graph::Graph {
    let mut rng = seeded(42);
    degree_corrected_sbm(
        &SbmConfig {
            num_nodes: 2000,
            num_edges: 10_000,
            num_blocks: 10,
            mixing: 0.15,
            degree_exponent: 2.5,
        },
        &mut rng,
    )
}

fn bench_sampling(c: &mut Criterion) {
    let g = fixture_graph();
    let mut group = c.benchmark_group("sampling");
    group.bench_function("edge_batch_128", |b| {
        let mut s = EdgeBatchSampler::new(g.num_edges()).unwrap();
        let mut rng = seeded(1);
        b.iter(|| {
            let idx = s.sample_indices(128, &mut rng).unwrap();
            black_box(idx.len())
        })
    });
    group.bench_function("negatives_128x5", |b| {
        let s = NegativeSampler::new(&g, NegativeDistribution::Uniform).unwrap();
        let mut rng = seeded(2);
        let pos = &g.edges()[..128];
        b.iter(|| black_box(s.sample_for_batch(pos, 5, &mut rng).len()))
    });
    group.bench_function("alias_table_draws_1k", |b| {
        let mut rng = seeded(3);
        let weights: Vec<f64> = (0..2000).map(|i| 1.0 / (i as f64 + 10.0)).collect();
        let t = AliasTable::new(&weights).unwrap();
        b.iter(|| {
            let mut acc = 0usize;
            for _ in 0..1000 {
                acc += t.sample(&mut rng);
            }
            black_box(acc)
        })
    });
    group.finish();
}

fn bench_gradients(c: &mut Criterion) {
    let mut rng = seeded(4);
    let vi = gaussian_vec(&mut rng, 0.1, 128);
    let vj = gaussian_vec(&mut rng, 0.1, 128);
    let mut group = c.benchmark_group("gradients");
    for (name, kind) in [
        ("plain", SigmoidKind::Plain),
        ("constrained", SigmoidKind::paper_constrained()),
    ] {
        group.bench_function(format!("positive_pair_r128_{name}"), |b| {
            b.iter(|| black_box(sgm_positive_grads(kind, &vi, &vj)))
        });
        group.bench_function(format!("negative_pair_r128_{name}"), |b| {
            b.iter(|| black_box(sgm_negative_grads(kind, &vi, &vj)))
        });
    }
    group.finish();
}

fn bench_activations(c: &mut Criterion) {
    let mut group = c.benchmark_group("activations");
    group.bench_function("sigmoid_plain", |b| {
        b.iter(|| black_box(sigmoid(black_box(0.37))))
    });
    let s = ConstrainedSigmoid::PAPER_DEFAULT;
    group.bench_function("sigmoid_constrained", |b| {
        b.iter(|| black_box(s.eval(black_box(0.37))))
    });
    group.bench_function("exp_clip_sharp", |b| {
        b.iter(|| black_box(exp_clip_sharp(black_box(1.4), Some(1e-5), Some(120.0))))
    });
    group.finish();
}

fn bench_fused_kernels(c: &mut Criterion) {
    // The fused kernels feed the generator step and the training apply;
    // both must beat (or at worst match) their two-pass equivalents.
    use advsgm_linalg::vector;
    let mut rng = seeded(8);
    let x = gaussian_vec(&mut rng, 1.0, 128);
    let a = gaussian_vec(&mut rng, 1.0, 128);
    let noise = gaussian_vec(&mut rng, 1.0, 128);
    let mut group = c.benchmark_group("fused_kernels");
    group.bench_function("dot2_r128", |b| {
        b.iter(|| black_box(vector::dot2(&x, &a, &noise)))
    });
    group.bench_function("two_dots_r128", |b| {
        b.iter(|| black_box((vector::dot(&x, &a), vector::dot(&x, &noise))))
    });
    group.bench_function("fused_axpy_scale_r128", |b| {
        let mut y = x.clone();
        b.iter(|| {
            vector::fused_axpy_scale(&mut y, 3.0, &noise, 1.0 / 3.0);
            black_box(y[0])
        })
    });
    group.bench_function("axpy_then_scale_r128", |b| {
        let mut y = x.clone();
        b.iter(|| {
            vector::axpy(3.0, &noise, &mut y);
            vector::scale(&mut y, 1.0 / 3.0);
            black_box(y[0])
        })
    });
    group.finish();
}

fn bench_kernel_backends(c: &mut Criterion) {
    // The dispatched kernel surface, timed per backend (DESIGN.md §15):
    // scalar is the reference, the host's native backend the deployed
    // path. `*_with` bypasses the cached global selection so one process
    // can A/B without env games. The committed speedup numbers live in
    // `results/BENCH_kernels.json` (the `kernel_throughput` bench); this
    // group is for interactive criterion runs.
    use advsgm_linalg::backend::{self, Backend};
    let mut rng = seeded(21);
    let x = gaussian_vec(&mut rng, 1.0, 128);
    let a = gaussian_vec(&mut rng, 1.0, 128);
    let bb = gaussian_vec(&mut rng, 1.0, 128);
    let rows: Vec<Vec<f64>> = (0..16).map(|_| gaussian_vec(&mut rng, 1.0, 128)).collect();
    let lanes: [&[f64]; 16] = std::array::from_fn(|l| rows[l].as_slice());
    let mut group = c.benchmark_group("kernel_backends");
    for be in Backend::ALL.into_iter().filter(|b| b.is_supported()) {
        group.bench_function(format!("dot16_r128_{be}"), |bch| {
            bch.iter(|| black_box(backend::dot16_with(be, &x, &lanes)))
        });
        group.bench_function(format!("dot2_r128_{be}"), |bch| {
            bch.iter(|| black_box(backend::dot2_with(be, &x, &a, &bb)))
        });
        group.bench_function(format!("fused_axpy_scale_r128_{be}"), |bch| {
            let mut y = x.clone();
            bch.iter(|| {
                backend::fused_axpy_scale_with(be, &mut y, 3.0, &a, 1.0 / 3.0);
                black_box(y[0])
            })
        });
    }
    group.finish();
}

fn bench_pool_dispatch(c: &mut Criterion) {
    // Per-region overhead of the scoped pool: what one parallel region of
    // a training step pays on top of its work.
    use advsgm_parallel::ThreadPool;
    let data: Vec<f64> = (0..4096).map(|i| i as f64).collect();
    let mut group = c.benchmark_group("pool_dispatch");
    for threads in [1usize, 4] {
        let mut pool = ThreadPool::new(threads);
        group.bench_function(format!("map_chunks_4096_{threads}t"), |b| {
            b.iter(|| {
                let parts = pool.map_chunks(&data, 1024, |_, _, c| c.iter().sum::<f64>());
                black_box(parts.iter().sum::<f64>())
            })
        });
    }
    group.finish();
}

fn bench_privacy(c: &mut Criterion) {
    let mut group = c.benchmark_group("privacy");
    group.bench_function("subsampled_rdp_alpha32", |b| {
        b.iter(|| black_box(subsampled_gaussian_epsilon(5.0, 0.05, 32).unwrap()))
    });
    group.bench_function("accountant_record_cached", |b| {
        let mut acc = RdpAccountant::new();
        acc.record_subsampled_gaussian(5.0, 0.05, 1).unwrap(); // warm cache
        b.iter(|| acc.record_subsampled_gaussian(5.0, 0.05, 1).unwrap())
    });
    group.bench_function("epsilon_query", |b| {
        let mut acc = RdpAccountant::new();
        acc.record_subsampled_gaussian(5.0, 0.05, 500).unwrap();
        b.iter(|| black_box(acc.epsilon(1e-5).unwrap()))
    });
    group.finish();
}

fn bench_eval(c: &mut Criterion) {
    let mut rng = seeded(5);
    let mut group = c.benchmark_group("eval");
    let pos: Vec<f64> = (0..2000).map(|_| rng.gen::<f64>() + 0.2).collect();
    let neg: Vec<f64> = (0..2000).map(|_| rng.gen::<f64>()).collect();
    group.bench_function("auc_2k_vs_2k", |b| {
        b.iter(|| black_box(auc_from_scores(&pos, &neg).unwrap()))
    });
    // Affinity propagation on 150 clusterable points.
    let pts: Vec<Vec<f64>> = (0..150)
        .map(|i| {
            let c = (i % 3) as f64 * 8.0;
            vec![
                c + advsgm_linalg::rng::gaussian(&mut rng, 0.5),
                c + advsgm_linalg::rng::gaussian(&mut rng, 0.5),
            ]
        })
        .collect();
    let views: Vec<&[f64]> = pts.iter().map(|p| p.as_slice()).collect();
    group.bench_function("affinity_propagation_150pts", |b| {
        b.iter(|| {
            let mut r = seeded(6);
            black_box(
                AffinityPropagation::fit(&views, &ApParams::default(), &mut r)
                    .unwrap()
                    .num_clusters(),
            )
        })
    });
    let a: Vec<usize> = (0..5000).map(|i| i % 7).collect();
    let b_lab: Vec<usize> = (0..5000).map(|i| (i / 3) % 5).collect();
    group.bench_function("mutual_information_5k", |b| {
        b.iter(|| black_box(mutual_information(&a, &b_lab).unwrap()))
    });
    group.finish();
}

fn bench_graphgen(c: &mut Criterion) {
    let mut group = c.benchmark_group("graphgen");
    group.sample_size(10);
    group.bench_function("dcsbm_2k_nodes_10k_edges", |b| {
        b.iter(|| {
            let mut rng = seeded(7);
            black_box(fixture_graph_with(&mut rng).num_edges())
        })
    });
    group.finish();
}

fn fixture_graph_with(rng: &mut impl Rng) -> advsgm_graph::Graph {
    degree_corrected_sbm(
        &SbmConfig {
            num_nodes: 2000,
            num_edges: 10_000,
            num_blocks: 10,
            mixing: 0.15,
            degree_exponent: 2.5,
        },
        rng,
    )
}

criterion_group!(
    benches,
    bench_sampling,
    bench_gradients,
    bench_activations,
    bench_fused_kernels,
    bench_kernel_backends,
    bench_pool_dispatch,
    bench_privacy,
    bench_eval,
    bench_graphgen
);
criterion_main!(benches);
