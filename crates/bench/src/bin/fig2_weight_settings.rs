//! Fig. 2 — effect of the module-weight settings.
//!
//! Reports the average `|L_Nov|` (Eq. 24) under `lambda = 0.5`,
//! `lambda = 1`, and the paper's adaptive `lambda = 1/S(.)` on PPI,
//! Facebook, Wiki and Blog, averaged over independent runs, evaluated on
//! the trained AdvSGM state with `a = 1e-5`, `b = 120`.

use advsgm_bench::{append_jsonl, print_table, BenchArgs, Record};
use advsgm_core::session::{EpochEvent, SessionControl, TrainHooks};
use advsgm_core::{AdvSgmConfig, ModelVariant, Trainer, WeightMode};
use advsgm_datasets::{synthesize, Dataset};
use advsgm_linalg::stats::Summary;

/// Session hook that traces the per-epoch `|L_Nov|` trajectory — the
/// harness trains through the session layer (`Trainer::train_with_hooks`)
/// and keeps the trainer alive to evaluate the Fig. 2 weight modes on the
/// trained state afterwards.
#[derive(Default)]
struct LossTrace {
    losses: Vec<f64>,
}

impl TrainHooks for LossTrace {
    fn on_epoch(&mut self, event: &EpochEvent) -> SessionControl {
        if let Some(loss) = event.loss {
            self.losses.push(loss);
        }
        SessionControl::Continue
    }
}

fn main() {
    let args = BenchArgs::from_env();
    let datasets = [
        Dataset::Ppi,
        Dataset::Facebook,
        Dataset::Wiki,
        Dataset::Blog,
    ];
    let modes = [
        WeightMode::Fixed(0.5),
        WeightMode::Fixed(1.0),
        WeightMode::InverseS,
    ];
    let mut rows = Vec::new();
    let mut records = Vec::new();
    for ds in datasets {
        if !args.wants_dataset(ds.name()) {
            continue;
        }
        let spec = ds.spec().scaled(args.scale);
        let mut cells = vec![ds.name().to_string()];
        for mode in modes {
            let mut vals = Vec::new();
            for run in 0..args.runs {
                let run_seed = args.seed.wrapping_add(run);
                let graph = synthesize(&spec, run_seed);
                let mut cfg = AdvSgmConfig::for_variant(ModelVariant::AdvSgm);
                cfg.seed = run_seed;
                cfg.batch_size = advsgm_bench::harness::scaled_batch(args.scale);
                if let Some(e) = args.epochs {
                    cfg.epochs = e;
                }
                let epochs = cfg.epochs;
                let mut trainer = Trainer::new(&graph, cfg).expect("trainer");
                let mut trace = LossTrace::default();
                trainer
                    .train_with_hooks(&graph, &mut trace)
                    .expect("training failed");
                assert!(
                    trace.losses.len() <= epochs,
                    "hook observed more epochs than scheduled"
                );
                let loss = trainer
                    .loss_under_weight_mode(&graph, mode, 5)
                    .expect("loss eval failed");
                vals.push(loss);
            }
            let s = Summary::of(&vals);
            cells.push(format!("{:.3}", s.mean));
            records.push(Record {
                experiment: "fig2".into(),
                dataset: ds.name().into(),
                method: mode.label(),
                parameter: "lambda_mode".into(),
                value: match mode {
                    WeightMode::Fixed(l) => l,
                    WeightMode::InverseS => -1.0,
                },
                metric: "abs_loss".into(),
                mean: s.mean,
                std: s.std,
                runs: args.runs,
                scale: args.scale,
            });
        }
        rows.push(cells);
    }
    print_table(
        "Fig. 2: average |L_Nov| by weight setting",
        &[
            "dataset".into(),
            "lambda=0.5".into(),
            "lambda=1".into(),
            "lambda=1/S(.)".into(),
        ],
        &rows,
    );
    append_jsonl("fig2", &records)
        .expect("failed to append results/fig2.jsonl (bench records must not vanish silently)");
    println!(
        "\npaper shape check: gap(1/S vs 1) < gap(1/S vs 0.5), both gaps small (paper: <2 and <6)"
    );
}
