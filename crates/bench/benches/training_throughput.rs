//! Training throughput: in-RAM vs out-of-core partitioned (DESIGN.md
//! §7/§14).
//!
//! Trains AdvSGM on a synthetic graph and reports **pairs/sec**
//! (positive + negative pairs pushed through the discriminator per
//! wall-clock second) for the in-RAM engine and the partitioned
//! out-of-core engine at 1 and 4 worker threads — the price of the
//! two-slot residency bound, measured rather than guessed. While
//! timing, it asserts the engines' headline contract: the partitioned
//! run's node vectors are bitwise-identical to the sequential run's.
//! Run with:
//!
//! ```text
//! cargo bench -p advsgm-bench --bench training_throughput          # full
//! cargo bench -p advsgm-bench --bench training_throughput -- quick
//! ```
//!
//! The full run writes the committed baseline
//! `results/BENCH_training_throughput.json` (`docs/BENCHMARKS.md`
//! schema) so the out-of-core overhead lands in the repo's perf
//! trajectory; `quick` shrinks the workload for CI smoke and leaves the
//! committed file untouched.

use std::time::Instant;

use advsgm_core::{AdvSgmConfig, ModelVariant, PartitionedTrainer, Trainer};
use advsgm_graph::generators::sbm::{degree_corrected_sbm, SbmConfig};
use advsgm_linalg::rng::seeded;

/// Node buckets for the out-of-core engine: 4 keeps 2/4 of the
/// embeddings resident, the first ratio where eviction actually cycles.
const PARTITIONS: usize = 4;

fn fixture(quick: bool) -> advsgm_graph::Graph {
    let (nodes, edges) = if quick { (400, 2_000) } else { (2_000, 10_000) };
    let mut rng = seeded(13);
    degree_corrected_sbm(
        &SbmConfig {
            num_nodes: nodes,
            num_edges: edges,
            num_blocks: 10,
            mixing: 0.1,
            degree_exponent: 2.5,
        },
        &mut rng,
    )
}

/// One measured workload: a single epoch heavy enough to amortise slot
/// swaps, with an unreachable budget so every update runs.
fn workload(threads: usize, quick: bool) -> AdvSgmConfig {
    AdvSgmConfig {
        variant: ModelVariant::AdvSgm,
        dim: 64,
        batch_size: 256,
        negatives: 5,
        epochs: 1,
        disc_iters: if quick { 2 } else { 8 },
        gen_iters: 2,
        epsilon: 1e9,
        ..AdvSgmConfig::default()
    }
    .with_threads(threads)
}

/// Pairs one workload pushes through the discriminator:
/// `disc_iters * (B + B * k)` per epoch.
fn pairs_per_run(cfg: &AdvSgmConfig) -> u64 {
    (cfg.epochs * cfg.disc_iters * (cfg.batch_size + cfg.batch_size * cfg.negatives)) as u64
}

fn measure(
    graph: &advsgm_graph::Graph,
    engine: &str,
    threads: usize,
    reps: usize,
    quick: bool,
) -> (f64, u64) {
    let cfg = workload(threads, quick);
    let pairs = pairs_per_run(&cfg) * reps as u64;
    let run = |cfg: AdvSgmConfig| -> u64 {
        match engine {
            "in_ram" => Trainer::fit(graph, cfg).unwrap().disc_updates,
            "partitioned" => {
                PartitionedTrainer::new(graph, cfg, PARTITIONS)
                    .and_then(|t| t.train(graph))
                    .unwrap()
                    .disc_updates
            }
            other => unreachable!("engine {other}"),
        }
    };
    // Warm-up outside the clock (page-faults the matrices, creates the
    // spill directory).
    assert!(run(cfg.clone()) > 0);
    let start = Instant::now();
    let mut sink = 0u64;
    for _ in 0..reps {
        sink += run(cfg.clone());
    }
    let secs = start.elapsed().as_secs_f64();
    assert_eq!(sink, (cfg.disc_iters * 2 * reps) as u64);
    (pairs as f64 / secs, pairs)
}

#[derive(serde::Serialize)]
struct TrainingBaseline {
    experiment: &'static str,
    mode: &'static str,
    /// The kernel backend every run used (`linalg::backend::active`);
    /// pairs/sec trends are only comparable within one backend.
    kernel_backend: &'static str,
    nodes: usize,
    edges: usize,
    dim: usize,
    batch_size: usize,
    negatives: usize,
    partitions: usize,
    runs: Vec<RunFacts>,
    /// partitioned pairs/sec divided by in-RAM pairs/sec at the same
    /// width — the measured cost of the 2/P residency bound.
    ooc_relative_throughput_1_thread: f64,
    ooc_relative_throughput_4_threads: f64,
}

#[derive(serde::Serialize)]
struct RunFacts {
    engine: &'static str,
    threads: usize,
    pairs_per_sec: f64,
    pairs: u64,
}

fn main() {
    let quick = std::env::args().any(|a| a.contains("quick"));
    let reps = if quick { 1 } else { 3 };
    let graph = fixture(quick);
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "training_throughput: |V|={} |E|={} r=64 B=256 k=5 P={PARTITIONS} \
         (host parallelism: {cores}, kernel backend: {})",
        graph.num_nodes(),
        graph.num_edges(),
        advsgm_linalg::backend::active()
    );

    // The contract behind the numbers: same bits, different residency.
    let seq = Trainer::fit(&graph, workload(1, quick)).unwrap();
    let ooc = PartitionedTrainer::new(&graph, workload(1, quick), PARTITIONS)
        .and_then(|t| t.train(&graph))
        .unwrap();
    assert_eq!(
        seq.node_vectors
            .as_slice()
            .iter()
            .map(|x| x.to_bits())
            .collect::<Vec<_>>(),
        ooc.node_vectors
            .as_slice()
            .iter()
            .map(|x| x.to_bits())
            .collect::<Vec<_>>(),
        "partitioned engine must be bitwise-identical to sequential"
    );
    println!("bitwise identity: partitioned == sequential (checked)");

    println!(
        "{:>13} {:>8} {:>14} {:>12}",
        "engine", "threads", "pairs/sec", "pairs"
    );
    let mut runs = Vec::new();
    for engine in ["in_ram", "partitioned"] {
        for threads in [1usize, 4] {
            let (pps, pairs) = measure(&graph, engine, threads, reps, quick);
            println!("{engine:>13} {threads:>8} {pps:>14.0} {pairs:>12}");
            runs.push(RunFacts {
                engine,
                threads,
                pairs_per_sec: pps,
                pairs,
            });
        }
    }
    let rel = |threads: usize| -> f64 {
        let at = |engine: &str| {
            runs.iter()
                .find(|r| r.engine == engine && r.threads == threads)
                .map(|r| r.pairs_per_sec)
                .unwrap_or(f64::NAN)
        };
        at("partitioned") / at("in_ram")
    };
    println!(
        "out-of-core relative throughput: {:.2}x at 1 thread, {:.2}x at 4 threads",
        rel(1),
        rel(4)
    );

    if !quick {
        let baseline = TrainingBaseline {
            experiment: "training_throughput",
            mode: "full",
            kernel_backend: advsgm_linalg::backend::active().name(),
            nodes: graph.num_nodes(),
            edges: graph.num_edges(),
            dim: 64,
            batch_size: 256,
            negatives: 5,
            partitions: PARTITIONS,
            ooc_relative_throughput_1_thread: rel(1),
            ooc_relative_throughput_4_threads: rel(4),
            runs,
        };
        let results_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join("results");
        let path = results_dir.join("BENCH_training_throughput.json");
        let body = serde_json::to_string(&baseline).expect("training baseline must serialise");
        std::fs::create_dir_all(&results_dir)
            .and_then(|()| std::fs::write(&path, body + "\n"))
            .expect(
                "failed to write results/BENCH_training_throughput.json \
                 (the committed training baseline)",
            );
        println!("wrote {}", path.display());
    }
}
