//! Query-serving throughput of the embedding store (DESIGN.md §9).
//!
//! Fills an [`EmbeddingStore`] with Xavier-initialised vectors (queries
//! only read the matrix, so trained weights would change nothing about the
//! cost profile) and measures **queries/sec** for `batch_top_k` at 1/2/4/8
//! worker threads, plus the speedup over the single-thread scan. Run with:
//!
//! ```text
//! cargo bench -p advsgm-bench --bench query_throughput          # full sweep
//! cargo bench -p advsgm-bench --bench query_throughput -- quick # 1 rep/width
//! ```
//!
//! Each query is one fused dot-product scan over all `|V|` rows plus a
//! bounded k-heap (`advsgm_linalg::topk`), so ideal scaling is linear in
//! threads; on a 1-core container every width collapses to ~1x (the table
//! prints the detected parallelism so logs stay interpretable). Results
//! are bitwise thread-count-invariant — the sweep asserts it while timing.
//!
//! Like the paper-artifact binaries, the sweep appends its measurements
//! to `results/query_throughput.jsonl` (`docs/BENCHMARKS.md` schema:
//! `parameter = "threads"`, `metric = "queries_per_sec"`, mean/std over
//! the repetitions), so serving numbers land in the same trajectory files
//! as everything else.
//!
//! A second phase measures **exhaustive vs IVF-indexed** serving on a
//! clustered store (100k x 32 in full mode): queries/sec, latency
//! percentiles, recall@10 against the exact scan, and the fraction of
//! rows touched. It asserts the repo's serving contract — recall ≥ 0.95
//! at the 0.95 calibration point while scanning < 20% of rows — and
//! writes the committed baseline `results/BENCH_query_serving.json`.

use std::time::Instant;

use advsgm_bench::{append_jsonl_at, Record};
use advsgm_core::ModelVariant;
use advsgm_linalg::rng::seeded;
use advsgm_linalg::stats::Summary;
use advsgm_linalg::DenseMatrix;
use advsgm_store::{EmbeddingStore, IndexParams, IvfIndex, Neighbor, PrivacyMeta};
use rand::Rng;

/// Store scale: 10k nodes, a mid-sized release.
const NODES: usize = 10_000;
const DIM: usize = 128;
const TOP_K: usize = 10;
/// Queries per timed batch.
const BATCH: usize = 256;

fn fixture() -> EmbeddingStore {
    let mut rng = seeded(17);
    // Xavier-style scale for a |V| x r matrix; exact distribution is
    // irrelevant to throughput, it only needs realistic magnitudes.
    let bound = (6.0 / (NODES + DIM) as f64).sqrt();
    let m = DenseMatrix::from_fn(NODES, DIM, |_, _| rng.gen_range(-bound..bound));
    EmbeddingStore::new(
        m,
        PrivacyMeta::private(ModelVariant::AdvSgm, 6.0, 1e-5, 5.0),
    )
    .unwrap()
}

fn checksum(results: &[Vec<Neighbor>]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for r in results {
        for n in r {
            h ^= n.node as u64 ^ n.score.to_bits();
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    h
}

/// Times `reps` batches, returning per-repetition queries/sec (so mean
/// *and* spread can be reported) plus the result checksum.
fn measure(
    store: &EmbeddingStore,
    queries: &[usize],
    threads: usize,
    reps: usize,
) -> (Vec<f64>, u64) {
    // One pool per width, built outside the clock — the serving-loop
    // pattern (`batch_top_k_in`), so the sweep times queries, not thread
    // spawns.
    let mut pool = advsgm_parallel::ThreadPool::new(threads);
    let warm = store.batch_top_k_in(queries, TOP_K, &mut pool).unwrap();
    let sum = checksum(&warm);
    let mut qps = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        let got = store.batch_top_k_in(queries, TOP_K, &mut pool).unwrap();
        let secs = start.elapsed().as_secs_f64();
        // Thread-count invariance, asserted on the hot path's real output.
        assert_eq!(checksum(&got), sum, "threads={threads}: results drifted");
        qps.push(queries.len() as f64 / secs);
    }
    (qps, sum)
}

fn main() {
    // Compile-out guard used by `cargo bench --no-run` in CI; any CLI arg
    // containing "quick" shrinks the workload for smoke runs.
    let quick = std::env::args().any(|a| a.contains("quick"));
    let reps = if quick { 1 } else { 4 };
    let store = fixture();
    let mut rng = seeded(91);
    let queries: Vec<usize> = (0..BATCH).map(|_| rng.gen_range(0..store.len())).collect();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "query_throughput: |V|={} r={DIM} k={TOP_K} batch={BATCH} (host parallelism: {cores})",
        store.len()
    );
    println!("{:>8} {:>14} {:>10}", "threads", "queries/sec", "speedup");
    let mut base = None;
    let mut reference = None;
    let mut records = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let (per_rep, sum) = measure(&store, &queries, threads, reps);
        // Same results at every width — the §9 serving contract.
        assert_eq!(*reference.get_or_insert(sum), sum, "threads={threads}");
        let s = Summary::of(&per_rep);
        let speedup = s.mean / *base.get_or_insert(s.mean);
        println!("{threads:>8} {:>14.0} {speedup:>9.2}x", s.mean);
        records.push(Record {
            experiment: "query_throughput".into(),
            dataset: format!("synthetic-{}x{DIM}", store.len()),
            method: "batch_top_k".into(),
            parameter: "threads".into(),
            value: threads as f64,
            metric: "queries_per_sec".into(),
            mean: s.mean,
            std: s.std,
            runs: reps as u64,
            scale: 1.0,
        });
    }
    // Criterion benches run with the package as working directory; anchor
    // the records to the workspace-root results/ like the paper binaries.
    let results_dir =
        std::path::PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../results"));
    append_jsonl_at(results_dir.clone(), "query_throughput", &records).expect(
        "failed to append results/query_throughput.jsonl (bench records must not vanish silently)",
    );
    println!(
        "note: each query scans all |V| rows (fused dot4 + bounded heap); \
         results are bitwise identical at every thread count (DESIGN.md §9); \
         appended {} records to results/query_throughput.jsonl",
        records.len()
    );

    indexed_vs_exhaustive(quick, &results_dir);
}

/// Recall target the serving contract is pinned to (README / DESIGN.md §12).
const RECALL_TARGET: f64 = 0.95;
/// Query nodes sampled for the indexed-vs-exhaustive comparison.
const ANN_QUERIES: usize = 200;

/// A clustered store: the workload where inverted-file pruning pays off
/// and the shape real embeddings take (communities map to direction
/// clusters under dot-product similarity).
fn clustered_fixture(nodes: usize, dim: usize, groups: usize) -> EmbeddingStore {
    let mut rng = seeded(23);
    let m = DenseMatrix::from_fn(nodes, dim, |i, j| {
        let g = i % groups;
        let center = 3.0 * ((g * dim + j) as f64 * 0.7129).sin();
        center + rng.gen_range(-0.3..0.3)
    });
    EmbeddingStore::new(
        m,
        PrivacyMeta::private(ModelVariant::AdvSgm, 6.0, 1e-5, 5.0),
    )
    .unwrap()
}

/// Latency percentile over a sorted-on-demand sample (nearest-rank).
fn percentile_us(latencies: &mut [f64], q: f64) -> f64 {
    latencies.sort_by(f64::total_cmp);
    let idx = ((latencies.len() - 1) as f64 * q).round() as usize;
    latencies[idx]
}

/// Phase 2: exhaustive scan vs IVF index on a clustered store. Prints a
/// comparison table, asserts the recall / scan-fraction contract, and
/// writes `results/BENCH_query_serving.json` (the committed baseline).
fn indexed_vs_exhaustive(quick: bool, results_dir: &std::path::Path) {
    let (nodes, dim, groups) = if quick {
        (20_000, 32, 64)
    } else {
        (100_000, 32, 64)
    };
    println!("\nindexed vs exhaustive: |V|={nodes} r={dim} k={TOP_K} queries={ANN_QUERIES}");
    let store = clustered_fixture(nodes, dim, groups);
    let build_start = Instant::now();
    let index = IvfIndex::build(&store, IndexParams::default()).unwrap();
    let build_secs = build_start.elapsed().as_secs_f64();
    let nprobe = index.nprobe_for(RECALL_TARGET);
    println!(
        "index: nlist={} nprobe@{RECALL_TARGET}={nprobe} built in {build_secs:.2}s",
        index.nlist()
    );

    let mut rng = seeded(47);
    let queries: Vec<usize> = (0..ANN_QUERIES).map(|_| rng.gen_range(0..nodes)).collect();

    // Exhaustive pass: exact answers double as the recall ground truth.
    let mut exact = Vec::with_capacity(queries.len());
    let mut exact_lat = Vec::with_capacity(queries.len());
    let exact_start = Instant::now();
    for &u in &queries {
        let t = Instant::now();
        exact.push(store.top_k(u, TOP_K).unwrap());
        exact_lat.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let exact_qps = queries.len() as f64 / exact_start.elapsed().as_secs_f64();

    // Indexed pass at the calibrated nprobe.
    let mut approx_lat = Vec::with_capacity(queries.len());
    let mut hits = 0usize;
    let mut rows_scanned = 0u64;
    let approx_start = Instant::now();
    for (qi, &u) in queries.iter().enumerate() {
        let t = Instant::now();
        let got = index.search(&store, u, TOP_K, nprobe).unwrap();
        approx_lat.push(t.elapsed().as_secs_f64() * 1e6);
        rows_scanned += got.rows_scanned as u64;
        let truth: std::collections::HashSet<usize> = exact[qi].iter().map(|n| n.node).collect();
        hits += got
            .neighbors
            .iter()
            .filter(|n| truth.contains(&n.node))
            .count();
    }
    let approx_qps = queries.len() as f64 / approx_start.elapsed().as_secs_f64();

    let recall = hits as f64 / (queries.len() * TOP_K) as f64;
    let scan_fraction = rows_scanned as f64 / (queries.len() as f64 * (nodes - 1) as f64);
    let speedup = approx_qps / exact_qps;
    println!(
        "{:>12} {:>14} {:>10} {:>10} {:>10} {:>10}",
        "mode", "queries/sec", "p50 us", "p99 us", "recall@10", "rows"
    );
    println!(
        "{:>12} {:>14.0} {:>10.0} {:>10.0} {:>10.4} {:>9.1}%",
        "exhaustive",
        exact_qps,
        percentile_us(&mut exact_lat, 0.50),
        percentile_us(&mut exact_lat, 0.99),
        1.0,
        100.0
    );
    println!(
        "{:>12} {:>14.0} {:>10.0} {:>10.0} {:>10.4} {:>9.1}%",
        "ivf-indexed",
        approx_qps,
        percentile_us(&mut approx_lat, 0.50),
        percentile_us(&mut approx_lat, 0.99),
        recall,
        100.0 * scan_fraction
    );
    println!("speedup: {speedup:.2}x at recall@10 = {recall:.4}");

    // The serving contract this bench exists to defend. A regression here
    // must fail the bench run, not just skew the baseline file.
    assert!(
        recall >= RECALL_TARGET,
        "recall@10 {recall:.4} fell below the {RECALL_TARGET} target"
    );
    assert!(
        scan_fraction < 0.20,
        "indexed search touched {:.1}% of rows (contract: < 20%)",
        100.0 * scan_fraction
    );

    let baseline = ServingBaseline {
        experiment: "query_serving",
        mode: if quick { "quick" } else { "full" },
        kernel_backend: advsgm_linalg::backend::active().name(),
        nodes,
        dim,
        k: TOP_K,
        queries: queries.len(),
        recall_target: RECALL_TARGET,
        index: IndexFacts {
            nlist: index.nlist(),
            nprobe,
            build_secs,
        },
        exhaustive: ModeFacts {
            queries_per_sec: exact_qps,
            latency_us_p50: percentile_us(&mut exact_lat, 0.50),
            latency_us_p90: percentile_us(&mut exact_lat, 0.90),
            latency_us_p99: percentile_us(&mut exact_lat, 0.99),
            recall_at_10: 1.0,
            scan_fraction: 1.0,
        },
        indexed: ModeFacts {
            queries_per_sec: approx_qps,
            latency_us_p50: percentile_us(&mut approx_lat, 0.50),
            latency_us_p90: percentile_us(&mut approx_lat, 0.90),
            latency_us_p99: percentile_us(&mut approx_lat, 0.99),
            recall_at_10: recall,
            scan_fraction,
        },
        speedup,
    };
    let path = results_dir.join("BENCH_query_serving.json");
    let body = serde_json::to_string(&baseline).expect("serving baseline must serialise");
    std::fs::create_dir_all(results_dir)
        .and_then(|()| std::fs::write(&path, body + "\n"))
        .expect(
            "failed to write results/BENCH_query_serving.json (the committed serving baseline)",
        );
    println!("wrote {}", path.display());
}

/// The committed serving baseline (`results/BENCH_query_serving.json`):
/// exhaustive-vs-indexed queries/sec plus the recall / scan-fraction
/// evidence behind the numbers, so re-anchors can read the perf
/// trajectory without re-running the bench.
#[derive(serde::Serialize)]
struct ServingBaseline {
    experiment: &'static str,
    mode: &'static str,
    /// The kernel backend the scans ran on (`linalg::backend::active`).
    kernel_backend: &'static str,
    nodes: usize,
    dim: usize,
    k: usize,
    queries: usize,
    recall_target: f64,
    index: IndexFacts,
    exhaustive: ModeFacts,
    indexed: ModeFacts,
    speedup: f64,
}

#[derive(serde::Serialize)]
struct IndexFacts {
    nlist: usize,
    nprobe: usize,
    build_secs: f64,
}

#[derive(serde::Serialize)]
struct ModeFacts {
    queries_per_sec: f64,
    latency_us_p50: f64,
    latency_us_p90: f64,
    latency_us_p99: f64,
    recall_at_10: f64,
    scan_fraction: f64,
}
