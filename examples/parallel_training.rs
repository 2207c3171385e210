//! Parallel training through `advsgm::api`: the same Algorithm 3 at every
//! width, engine selection left entirely to the pipeline — plus a live
//! proof that every width releases the sequential run's bits and that the
//! facade is bitwise-faithful to the hand-wired engines it wraps.
//!
//! ```bash
//! cargo run --release --example parallel_training
//! ```
//!
//! The sweep below pins explicit widths (1/2/4) so the determinism checks
//! are self-contained; a final auto run leaves the width unset to show
//! how `ADVSGM_THREADS` resolves when it is not pinned in code.

use std::time::Instant;

use advsgm::api::{ModelVariant, PipelineBuilder};
use advsgm::core::Trainer;
use advsgm::graph::generators::sbm::{degree_corrected_sbm, SbmConfig};
use advsgm::linalg::rng::seeded;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A mid-sized synthetic graph: big enough that per-batch gradient work
    // dominates pool dispatch.
    let mut rng = seeded(21);
    let graph = degree_corrected_sbm(
        &SbmConfig {
            num_nodes: 2_000,
            num_edges: 10_000,
            num_blocks: 8,
            mixing: 0.12,
            degree_exponent: 2.5,
        },
        &mut rng,
    );
    println!(
        "graph: {} nodes, {} edges",
        graph.num_nodes(),
        graph.num_edges()
    );

    let base = PipelineBuilder::new(ModelVariant::AdvSgm)
        .dim(advsgm::api::Dim::new(64)?)
        .batch_size(256)
        .epochs(2)
        .disc_iters(8)
        .gen_iters(2)
        .epsilon(advsgm::api::Epsilon::new(1e9)?); // never stop early

    // Reference: the hand-wired sequential engine (internals surface).
    let t0 = Instant::now();
    let seq = Trainer::fit(&graph, base.config().clone().with_threads(1))?;
    let seq_time = t0.elapsed();
    println!(
        "hand-wired Trainer        {seq_time:>10.2?}  ({} updates)",
        seq.disc_updates
    );

    // The pipeline at increasing widths. Every width must reproduce the
    // sequential run bit-for-bit (the replay engine above one thread
    // follows the sequential trajectory) and match the hand-wired Trainer
    // exactly (the facade adds nothing).
    for threads in [1usize, 2, 4] {
        let b = base.clone().threads(threads);
        let t0 = Instant::now();
        let out = b.clone().build(&graph)?.train()?;
        let elapsed = t0.elapsed();
        let hand_wired = Trainer::fit(&graph, b.config().clone())?;
        let bitwise_engine = out
            .embeddings()
            .as_slice()
            .iter()
            .zip(hand_wired.node_vectors.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        let bitwise_seq = out
            .embeddings()
            .as_slice()
            .iter()
            .zip(seq.node_vectors.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        println!(
            "pipeline, {threads} thread(s)     {elapsed:>10.2?}  bitwise == hand-wired engine: \
             {bitwise_engine}, bitwise == sequential: {bitwise_seq}"
        );
        assert!(bitwise_engine, "facade must be bitwise-faithful");
        assert!(
            bitwise_seq,
            "threads={threads} must match the sequential trainer"
        );
        // The epoch losses and the accounting match too.
        let losses = |o: &[f64]| o.iter().map(|l| l.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            losses(&out.outcome().epoch_losses),
            losses(&seq.epoch_losses)
        );
        assert_eq!(out.outcome().disc_updates, seq.disc_updates);
        assert_eq!(out.outcome().epsilon_spent, seq.epsilon_spent);
    }

    // Auto resolution: an unpinned width defers to ADVSGM_THREADS (else 1).
    let auto = base.clone().threads(0).build(&graph)?;
    println!(
        "\nauto width: threads = 0 resolves to {} thread(s) \
         (ADVSGM_THREADS = {})",
        auto.threads(),
        std::env::var("ADVSGM_THREADS").unwrap_or_else(|_| "unset".into())
    );
    assert_eq!(auto.threads(), auto.config().effective_threads());

    println!(
        "\nprivacy spend (any engine): epsilon = {:.3} at delta = {:.0e}",
        seq.epsilon_spent.unwrap_or(f64::NAN),
        base.config().delta
    );
    println!("speedups require free cores; see e2ebench's train-inram workload");
    Ok(())
}
