//! Kernel-backend throughput: the committed perf trajectory for the
//! dispatched SIMD surface (DESIGN.md §15).
//!
//! Times the hot shapes per backend — the 16-row `dot16` score, the
//! index build's two-row, 16-centroid `dist_sq_2x16`, the generator's two
//! fake stages for one `r = 128` fake (`box_muller`: 64 uniform pairs to
//! 128 normals; `sigmoid_of_sum`: 128 values of `φ(θ + z)`), and the
//! `top_k_rows` row scan `dot16` powers (on a cache-resident store and,
//! in full mode, a DRAM-streaming one: the large scan is memory-bound, so
//! its ratio isolates what kernel speed buys once the matrix stops
//! fitting in cache) — and writes `results/BENCH_kernels.json`
//! (`docs/BENCHMARKS.md` schema) with each timing's median and quartiles
//! and each backend's speedup over scalar. Within every repetition each
//! kernel is timed on every backend back to back, the order reversed on
//! alternate repetitions, so drift on a shared host lands on both sides
//! of a ratio alike. Run with:
//!
//! ```text
//! cargo bench -p advsgm-bench --bench kernel_throughput          # full
//! cargo bench -p advsgm-bench --bench kernel_throughput -- quick
//! ```
//!
//! The full run refreshes the committed baseline; `quick` shrinks reps
//! for CI smoke and leaves the file untouched. The row scan is timed
//! under `backend::force` — sound because every kernel is bit-identical
//! across backends, so forcing is unobservable to the result (asserted
//! before timing). Container numbers carry the usual
//! caveat: 1-core hosts under-state cache effects a real serving box
//! would see, but single-thread kernel ratios remain representative.

use std::time::Instant;

use advsgm_linalg::backend::{self, Backend, CentroidPanels};
use advsgm_linalg::rng::{gaussian_vec, seeded};
use advsgm_linalg::topk::top_k_rows;
use advsgm_linalg::DenseMatrix;
use rand::Rng;

/// Embedding width for every timed shape — the repo's serving default.
const DIM: usize = 128;

fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Seconds one call of `f` takes.
fn time_once(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64()
}

/// The first quartile, the median and the third quartile of `samples`.
fn quartiles(mut samples: Vec<f64>) -> [f64; 3] {
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    [samples[n / 4], samples[n / 2], samples[3 * n / 4]]
}

#[derive(serde::Serialize)]
struct KernelBaseline {
    experiment: &'static str,
    mode: &'static str,
    /// Backend auto-detection would pick on this host.
    detected_backend: &'static str,
    /// CPU features from `backend::host_features`.
    host_features: Vec<FeatureFacts>,
    dim: usize,
    /// Rows in the cache-resident (`row_scan_hot`) and DRAM-streaming
    /// (`row_scan_stream`) scan stores.
    scan_rows_hot: usize,
    scan_rows_stream: usize,
    /// Iterations inside one timed sample (per kernel).
    inner_iters: usize,
    kernels: Vec<KernelFacts>,
}

#[derive(serde::Serialize)]
struct FeatureFacts {
    feature: String,
    detected: bool,
}

#[derive(serde::Serialize)]
struct KernelFacts {
    kernel: &'static str,
    backend: &'static str,
    /// Nanoseconds per kernel call (dot16, dist_sq_2x16, and
    /// box_muller and sigmoid_of_sum over one r = 128 fake) or per full
    /// scan (row_scan), median over the repetitions.
    ns_per_op: f64,
    /// First and third quartiles of the same repetitions.
    ns_per_op_q1: f64,
    ns_per_op_q3: f64,
    /// This backend's throughput relative to scalar for the same kernel,
    /// from the medians.
    speedup_vs_scalar: f64,
}

fn main() {
    let quick = std::env::args().any(|a| a.contains("quick"));
    let (reps, inner) = if quick { (5, 2_000) } else { (15, 20_000) };
    // 16k+1 rows both times: each scan ends on a padded group. Hot:
    // ~1 MiB, cache-resident — measures the kernel. Stream: ~10 MiB,
    // spills cache — measures what a large store actually sees.
    let scan_rows_hot = 16 * 64 + 1;
    let scan_rows_stream = 16 * 625 + 1;

    let mut rng = seeded(34);
    let x = gaussian_vec(&mut rng, 1.0, DIM);
    let x1 = gaussian_vec(&mut rng, 1.0, DIM);
    let lane_rows: Vec<Vec<f64>> = (0..16).map(|_| gaussian_vec(&mut rng, 1.0, DIM)).collect();
    let lanes: [&[f64]; 16] = std::array::from_fn(|l| lane_rows[l].as_slice());
    let panels = CentroidPanels::pack(&DenseMatrix::from_fn(16, DIM, |c, k| lane_rows[c][k]));
    let row_fill = |i: usize, j: usize| ((i * 31 + j * 17) as f64 * 0.113).sin();
    let matrix_hot = DenseMatrix::from_fn(scan_rows_hot, DIM, row_fill);
    let matrix_stream = (!quick).then(|| DenseMatrix::from_fn(scan_rows_stream, DIM, row_fill));
    // One r = DIM fake's inputs, as the generator draws them: uniform
    // pairs (1 − gen, gen), and θ near its initial bias of −2.
    let u1: Vec<f64> = (0..DIM / 2).map(|_| 1.0 - rng.gen::<f64>()).collect();
    let u2: Vec<f64> = (0..DIM / 2).map(|_| rng.gen::<f64>()).collect();
    let theta: Vec<f64> = gaussian_vec(&mut rng, 0.1, DIM)
        .into_iter()
        .map(|t| t - 2.0)
        .collect();
    let mut fake = vec![0.0; DIM];

    let mut backends: Vec<Backend> = Backend::ALL
        .into_iter()
        .filter(|bk| bk.is_supported())
        .collect();
    // Scalar first, the denominator of every speedup.
    backends.sort_by_key(|bk| *bk != Backend::Scalar);
    println!(
        "kernel_throughput: r={DIM} scan={scan_rows_hot} rows hot, backends: {} (detected: {})",
        backends
            .iter()
            .map(|bk| bk.name())
            .collect::<Vec<_>>()
            .join(", "),
        Backend::detect()
    );

    // Every backend's answers must be the scalar backend's, bit for bit.
    let scan_bits = |bk: Backend| -> Vec<(usize, u64)> {
        backend::force(bk);
        let scan = top_k_rows(&matrix_hot, &x, 10, None);
        scan.iter().map(|e| (e.index, e.score.to_bits())).collect()
    };
    let dist_bits = |bk: Backend| {
        backend::dist_sq_2x16_with(bk, &panels, 0, &x, &x1).map(|row| row.map(f64::to_bits))
    };
    let fake_bits = |bk: Backend| {
        let mut z = vec![0.0; DIM];
        backend::box_muller_with(bk, &u1, &u2, &mut z);
        let normals: Vec<u64> = z.iter().map(|v| v.to_bits()).collect();
        backend::sigmoid_of_sum_with(bk, &theta, &mut z);
        (normals, z.iter().map(|v| v.to_bits()).collect::<Vec<_>>())
    };
    for &bk in &backends {
        assert!(
            scan_bits(bk) == scan_bits(Backend::Scalar)
                && dist_bits(bk) == dist_bits(Backend::Scalar)
                && fake_bits(bk) == fake_bits(Backend::Scalar),
            "bitwise contract violated during bench: backend {bk}"
        );
    }

    // (kernel, calls per timed sample)
    let scan_iters = (inner / 100).max(1);
    let stream_iters = (scan_iters / 8).max(1);
    let mut shapes = vec![
        ("dot16", inner),
        ("dist_sq_2x16", inner),
        ("box_muller", inner),
        ("sigmoid_of_sum", inner),
        ("row_scan_hot", scan_iters),
    ];
    if matrix_stream.is_some() {
        shapes.push(("row_scan_stream", stream_iters));
    }
    // samples[shape][backend]: seconds per timed sample.
    let mut samples = vec![vec![Vec::with_capacity(reps); backends.len()]; shapes.len()];
    for rep in 0..reps {
        for (shape, &(kernel, iters)) in shapes.iter().enumerate() {
            let mut order: Vec<usize> = (0..backends.len()).collect();
            if rep % 2 == 1 {
                order.reverse();
            }
            for b in order {
                let bk = backends[b];
                // The row scans dispatch through the process-wide backend.
                backend::force(bk);
                let secs = time_once(|| match kernel {
                    "dot16" => {
                        for _ in 0..iters {
                            black_box(backend::dot16_with(bk, black_box(&x), &lanes));
                        }
                    }
                    "dist_sq_2x16" => {
                        for _ in 0..iters {
                            black_box(backend::dist_sq_2x16_with(
                                bk,
                                &panels,
                                0,
                                black_box(&x),
                                &x1,
                            ));
                        }
                    }
                    "box_muller" => {
                        for _ in 0..iters {
                            backend::box_muller_with(bk, black_box(&u1), &u2, &mut fake);
                            black_box(&fake);
                        }
                    }
                    "sigmoid_of_sum" => {
                        for _ in 0..iters {
                            backend::sigmoid_of_sum_with(bk, black_box(&theta), &mut fake);
                            black_box(&fake);
                        }
                    }
                    "row_scan_hot" => {
                        for _ in 0..iters {
                            black_box(top_k_rows(&matrix_hot, black_box(&x), 10, None));
                        }
                    }
                    _ => {
                        let m = matrix_stream.as_ref().expect("full mode");
                        for _ in 0..iters {
                            black_box(top_k_rows(m, black_box(&x), 10, None));
                        }
                    }
                });
                samples[shape][b].push(secs);
            }
        }
    }
    // Leave the process on the auto-detected backend.
    backend::force(Backend::detect());

    let mut kernels: Vec<KernelFacts> = Vec::new();
    println!(
        "{:>15} {:>8} {:>12} {:>25} {:>10}",
        "kernel", "backend", "ns/op", "q1 - q3", "vs scalar"
    );
    for (shape, &(kernel, iters)) in shapes.iter().enumerate() {
        let per_op: Vec<[f64; 3]> = samples[shape]
            .iter()
            .map(|s| quartiles(s.clone()).map(|secs| secs * 1e9 / iters as f64))
            .collect();
        let scalar_ns = backends
            .iter()
            .position(|&bk| bk == Backend::Scalar)
            .map_or(f64::NAN, |b| per_op[b][1]);
        for (b, &[q1, ns, q3]) in per_op.iter().enumerate() {
            let speedup = scalar_ns / ns;
            println!(
                "{kernel:>15} {:>8} {ns:>12.1} {:>25} {speedup:>9.2}x",
                backends[b].name(),
                format!("{q1:.1} - {q3:.1}")
            );
            kernels.push(KernelFacts {
                kernel,
                backend: backends[b].name(),
                ns_per_op: ns,
                ns_per_op_q1: q1,
                ns_per_op_q3: q3,
                speedup_vs_scalar: speedup,
            });
        }
    }

    if !quick {
        let baseline = KernelBaseline {
            experiment: "kernel_throughput",
            mode: "full",
            detected_backend: Backend::detect().name(),
            host_features: backend::host_features()
                .into_iter()
                .map(|(name, on)| FeatureFacts {
                    feature: name.to_string(),
                    detected: on,
                })
                .collect(),
            dim: DIM,
            scan_rows_hot,
            scan_rows_stream,
            inner_iters: inner,
            kernels,
        };
        let results_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join("results");
        let path = results_dir.join("BENCH_kernels.json");
        let body = serde_json::to_string(&baseline).expect("kernel baseline must serialise");
        std::fs::create_dir_all(&results_dir)
            .and_then(|()| std::fs::write(&path, body + "\n"))
            .expect("failed to write results/BENCH_kernels.json (the committed kernel baseline)");
        println!("wrote {}", path.display());
    }
}
