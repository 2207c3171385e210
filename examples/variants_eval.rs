//! The workload-variants evaluation harness (DESIGN.md §16).
//!
//! Trains every registered [`ModelVariant`] — the paper's five plus the
//! signed-graph and structure-preference workloads — on the signed
//! `Polarity` dataset, scores each on link prediction *and* sign
//! prediction, and writes the committed baseline
//! `results/BENCH_variants_eval.json` (schema in `docs/BENCHMARKS.md`).
//! Deterministic at the fixed seed: re-running reproduces the file byte
//! for byte on any host (the kernel backends are bitwise-identical).
//!
//! ```bash
//! cargo run --release --example variants_eval
//! ```

use advsgm::core::{AdvSgmConfig, ModelVariant, Trainer};
use advsgm::datasets::{synthesize, Dataset};
use advsgm::eval::auc_from_scores;
use advsgm::eval::linkpred::score_pairs;
use advsgm::eval::sign_prediction_auc;
use advsgm::graph::partition::{sample_non_edges, sign_prediction_split};
use advsgm::linalg::rng::seeded;

const SCALE: f64 = 0.1;
const SEED: u64 = 29;

/// One variant's scores: link AUC always, sign AUC for every variant (the
/// interesting part is that only the sign-aware one separates polarity),
/// plus the stamped privacy spend.
struct Row {
    variant: ModelVariant,
    link_auc: f64,
    sign_auc: f64,
    epsilon_spent: Option<f64>,
}

fn json_f64(x: f64) -> String {
    // `Display` for finite f64 is shortest-roundtrip, valid JSON.
    format!("{x}")
}

fn json_opt(x: Option<f64>) -> String {
    x.map_or_else(|| "null".into(), json_f64)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = Dataset::Polarity.spec().scaled(SCALE);
    let graph = synthesize(&spec, 0);
    let foe_fraction = graph.num_foe_edges() as f64 / graph.num_edges() as f64;
    println!(
        "dataset: {} (scale {SCALE}) — {} nodes, {} edges, {:.1}% foe\n",
        spec.name,
        graph.num_nodes(),
        graph.num_edges(),
        100.0 * foe_fraction
    );

    // One stratified 80/20 polarity split shared by every variant: train
    // on the (still signed) 80%, score sign AUC on the held-out friend vs
    // foe edges and link AUC on all held-out edges vs sampled non-edges.
    let mut rng = seeded(SEED);
    let split = sign_prediction_split(&graph, 0.2, &mut rng)?;
    let held: Vec<_> = split
        .test_friend
        .iter()
        .chain(&split.test_foe)
        .copied()
        .collect();
    let non_edges = sample_non_edges(&graph, held.len(), &mut rng)?;

    // Mild noise and an untripped budget so the private variants' *utility*
    // is visible (the paper-faithful σ = 5 grid is table5_private_skipgram's
    // territory); this artifact tracks the workload seam, not Table V.
    let cfg_for = |v: ModelVariant| -> AdvSgmConfig {
        let mut cfg = AdvSgmConfig::test_small(v);
        cfg.epochs = 40;
        cfg.disc_iters = 8;
        cfg.batch_size = 128;
        cfg.sigma = 1.0;
        cfg.epsilon = 1e9;
        cfg.seed = SEED;
        cfg
    };

    let mut rows: Vec<Row> = Vec::new();
    for v in ModelVariant::all() {
        let outcome = Trainer::fit(&split.train, cfg_for(v).with_threads(1))?;
        let emb = &outcome.node_vectors;
        let pos = score_pairs(emb, &held);
        let neg = score_pairs(emb, &non_edges);
        rows.push(Row {
            variant: v,
            link_auc: auc_from_scores(&pos, &neg)?,
            sign_auc: sign_prediction_auc(emb, &split.test_friend, &split.test_foe)?,
            epsilon_spent: outcome.epsilon_spent,
        });
    }

    println!(
        "{:<16} {:>6} {:>10} {:>10} {:>12}",
        "variant", "code", "link AUC", "sign AUC", "eps spent"
    );
    for r in &rows {
        println!(
            "{:<16} {:>6} {:>10.4} {:>10.4} {:>12}",
            r.variant.to_string(),
            r.variant.wire_code(),
            r.link_auc,
            r.sign_auc,
            r.epsilon_spent
                .map_or_else(|| "-".into(), |e| format!("{e:.3}")),
        );
    }

    let aware = rows
        .iter()
        .find(|r| r.variant == ModelVariant::SignedAdvSgm)
        .expect("registered");
    let blind = rows
        .iter()
        .find(|r| r.variant == ModelVariant::AdvSgm)
        .expect("registered");
    println!(
        "\nsign separation: aware {:.4} vs blind {:.4} (gap {:+.4})",
        aware.sign_auc,
        blind.sign_auc,
        aware.sign_auc - blind.sign_auc
    );

    // The committed baseline document (docs/BENCHMARKS.md schema).
    let mut variants_json: Vec<String> = Vec::new();
    for r in &rows {
        variants_json.push(format!(
            "{{\"variant\":\"{}\",\"wire_code\":{},\"private\":{},\"sign_aware\":{},\
             \"link_auc\":{},\"sign_auc\":{},\"epsilon_spent\":{}}}",
            r.variant,
            r.variant.wire_code(),
            r.variant.is_private(),
            r.variant.is_sign_aware(),
            json_f64(r.link_auc),
            json_f64(r.sign_auc),
            json_opt(r.epsilon_spent),
        ));
    }
    let body = format!(
        "{{\"experiment\":\"variants_eval\",\"schema_version\":1,\
         \"dataset\":\"{}\",\"scale\":{},\"seed\":{},\
         \"graph\":{{\"nodes\":{},\"edges\":{},\"foe_fraction\":{}}},\
         \"train\":{{\"dim\":16,\"epochs\":40,\"disc_iters\":8,\"batch_size\":128,\
         \"negatives\":2,\"sigma\":1,\"epsilon_target\":1e9}},\
         \"variants\":[{}],\
         \"sign_separation\":{{\"aware\":{},\"blind\":{},\"gap\":{}}}}}",
        spec.name,
        json_f64(SCALE),
        SEED,
        graph.num_nodes(),
        graph.num_edges(),
        json_f64(foe_fraction),
        variants_json.join(","),
        json_f64(aware.sign_auc),
        json_f64(blind.sign_auc),
        json_f64(aware.sign_auc - blind.sign_auc),
    );
    let results_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let path = results_dir.join("BENCH_variants_eval.json");
    std::fs::create_dir_all(&results_dir)?;
    std::fs::write(&path, body + "\n")?;
    println!("wrote {}", path.display());
    Ok(())
}
