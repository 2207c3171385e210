//! Kernel-backend throughput: the committed perf trajectory for the
//! dispatched SIMD surface (DESIGN.md §15).
//!
//! Times the hot shapes per backend — the 16-row `dot16` score and the
//! `top_k_rows` row scan it powers (on a cache-resident store and, in
//! full mode, a DRAM-streaming one: the large scan is memory-bound, so
//! its ratio isolates what kernel speed buys once the matrix stops
//! fitting in cache) — and writes `results/BENCH_kernels.json`
//! (`docs/BENCHMARKS.md` schema) with each timing's median and quartiles
//! and each backend's speedup over scalar. Run with:
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
//! while timing). Container numbers carry the usual
//! caveat: 1-core hosts under-state cache effects a real serving box
//! would see, but single-thread kernel ratios remain representative.

use std::time::Instant;

use advsgm_linalg::backend::{self, Backend};
use advsgm_linalg::rng::{gaussian_vec, seeded};
use advsgm_linalg::topk::top_k_rows;
use advsgm_linalg::DenseMatrix;

/// Embedding width for every timed shape — the repo's serving default.
const DIM: usize = 128;

fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Seconds for one closure over `reps` repetitions: the first quartile,
/// the median and the third quartile.
fn time_secs(reps: usize, mut f: impl FnMut()) -> [f64; 3] {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
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
    /// Nanoseconds per kernel call (dot16) or per full scan (row_scan),
    /// median over the repetitions.
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
    let lane_rows: Vec<Vec<f64>> = (0..16).map(|_| gaussian_vec(&mut rng, 1.0, DIM)).collect();
    let lanes: [&[f64]; 16] = std::array::from_fn(|l| lane_rows[l].as_slice());
    let row_fill = |i: usize, j: usize| ((i * 31 + j * 17) as f64 * 0.113).sin();
    let matrix_hot = DenseMatrix::from_fn(scan_rows_hot, DIM, row_fill);
    let matrix_stream = (!quick).then(|| DenseMatrix::from_fn(scan_rows_stream, DIM, row_fill));

    let backends: Vec<Backend> = Backend::ALL
        .into_iter()
        .filter(|bk| bk.is_supported())
        .collect();
    println!(
        "kernel_throughput: r={DIM} scan={scan_rows_hot} rows hot, backends: {} (detected: {})",
        backends
            .iter()
            .map(|bk| bk.name())
            .collect::<Vec<_>>()
            .join(", "),
        Backend::detect()
    );

    // Reference result for the forced-backend scan assertion.
    backend::force(Backend::Scalar);
    let reference_scan = top_k_rows(&matrix_hot, &x, 10, None);

    let mut kernels: Vec<KernelFacts> = Vec::new();
    let mut scalar_ns: std::collections::HashMap<&'static str, f64> = Default::default();
    println!(
        "{:>15} {:>8} {:>12} {:>25} {:>10}",
        "kernel", "backend", "ns/op", "q1 - q3", "vs scalar"
    );
    // Scalar first so every speedup has its denominator.
    let mut ordered = backends.clone();
    ordered.sort_by_key(|bk| *bk != Backend::Scalar);
    for bk in ordered {
        // dot16: the 16-row score at the heart of the serving scan.
        let dot16_secs = time_secs(reps, || {
            for _ in 0..inner {
                black_box(backend::dot16_with(bk, black_box(&x), &lanes));
            }
        });
        // row_scan: the full fused top-k pass, forced onto `bk`.
        backend::force(bk);
        let scan = top_k_rows(&matrix_hot, &x, 10, None);
        assert_eq!(
            scan.iter()
                .map(|e| (e.index, e.score.to_bits()))
                .collect::<Vec<_>>(),
            reference_scan
                .iter()
                .map(|e| (e.index, e.score.to_bits()))
                .collect::<Vec<_>>(),
            "bitwise contract violated during bench: backend {bk}"
        );
        let scan_iters = (inner / 100).max(1);
        let scan_secs = time_secs(reps, || {
            for _ in 0..scan_iters {
                black_box(top_k_rows(&matrix_hot, black_box(&x), 10, None));
            }
        });
        let stream_iters = (scan_iters / 8).max(1);
        let stream_secs = matrix_stream.as_ref().map(|m| {
            time_secs(reps, || {
                for _ in 0..stream_iters {
                    black_box(top_k_rows(m, black_box(&x), 10, None));
                }
            })
        });

        let mut rows = vec![
            ("dot16", dot16_secs, inner),
            ("row_scan_hot", scan_secs, scan_iters),
        ];
        if let Some(secs) = stream_secs {
            rows.push(("row_scan_stream", secs, stream_iters));
        }
        for (kernel, secs, iters) in rows {
            let [q1, ns, q3] = secs.map(|s| s * 1e9 / iters as f64);
            if bk == Backend::Scalar {
                scalar_ns.insert(kernel, ns);
            }
            let speedup = scalar_ns.get(kernel).map_or(f64::NAN, |s| s / ns);
            println!(
                "{kernel:>15} {:>8} {ns:>12.1} {:>25} {speedup:>9.2}x",
                bk.name(),
                format!("{q1:.1} - {q3:.1}")
            );
            kernels.push(KernelFacts {
                kernel,
                backend: bk.name(),
                ns_per_op: ns,
                ns_per_op_q1: q1,
                ns_per_op_q3: q3,
                speedup_vs_scalar: speedup,
            });
        }
    }
    // Leave the process on the auto-detected backend.
    backend::force(Backend::detect());

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
