//! # advsgm-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! AdvSGM paper's evaluation section (see DESIGN.md §3 for the index):
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `fig2_weight_settings` | Fig. 2 — effect of the module weight lambda |
//! | `table2_learning_rate` | Table II — AUC vs eta |
//! | `table3_batch_size` | Table III — AUC vs B |
//! | `table4_bound_b` | Table IV — AUC vs constrained-sigmoid bound b |
//! | `table5_private_skipgram` | Table V — private skip-gram comparison |
//! | `fig3_link_prediction` | Fig. 3 — AUC vs epsilon, five methods |
//! | `fig4_node_clustering` | Fig. 4 — MI vs epsilon, five methods |
//!
//! Every binary accepts `--scale`, `--runs`, `--seed` (and where relevant
//! `--epochs`); each prints a formatted table *and* appends JSON records to
//! `results/<name>.jsonl` for EXPERIMENTS.md.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod harness;
pub mod report;

pub use args::BenchArgs;
pub use harness::{baseline_auc, baseline_mi, variant_auc, variant_mi, Method};
pub use report::{append_jsonl, print_table, Record};
