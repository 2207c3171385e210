//! Parallel training through `advsgm::api`: the same Algorithm 3 at every
//! width, on the one replay engine the pipeline builds — plus a live
//! proof that every width releases the one-thread run's bits and that the
//! facade is bitwise-faithful to the hand-wired trainer it wraps.
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

    // Reference: the hand-wired trainer at one thread (internals surface).
    let t0 = Instant::now();
    let one = Trainer::fit(&graph, base.config().clone().with_threads(1))?;
    let seq_time = t0.elapsed();
    println!(
        "hand-wired Trainer        {seq_time:>10.2?}  ({} updates)",
        one.disc_updates
    );

    // The pipeline at increasing widths. Every width must reproduce the
    // one-thread run bit-for-bit (the replay engine follows one trajectory
    // at every width) and match the hand-wired Trainer exactly (the
    // facade adds nothing).
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
        let bitwise_one = out
            .embeddings()
            .as_slice()
            .iter()
            .zip(one.node_vectors.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        println!(
            "pipeline, {threads} thread(s)     {elapsed:>10.2?}  bitwise == hand-wired engine: \
             {bitwise_engine}, bitwise == one thread: {bitwise_one}"
        );
        assert!(bitwise_engine, "facade must be bitwise-faithful");
        assert!(
            bitwise_one,
            "threads={threads} must match the one-thread trainer"
        );
        // The epoch losses and the accounting match too.
        let losses = |o: &[f64]| o.iter().map(|l| l.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            losses(&out.outcome().epoch_losses),
            losses(&one.epoch_losses)
        );
        assert_eq!(out.outcome().disc_updates, one.disc_updates);
        assert_eq!(out.outcome().epsilon_spent, one.epsilon_spent);
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
        "\nprivacy spend (any width): epsilon = {:.3} at delta = {:.0e}",
        one.epsilon_spent.unwrap_or(f64::NAN),
        base.config().delta
    );
    println!("speedups require free cores; see e2ebench's train-inram workload");
    Ok(())
}
