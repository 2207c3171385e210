//! # advsgm
//!
//! A complete, from-scratch Rust reproduction of **AdvSGM: Differentially
//! Private Graph Learning via Adversarial Skip-gram Model** (Zhang, Ye, Hu,
//! Xu — ICDE 2025), including every substrate the paper depends on and
//! every baseline it compares against.
//!
//! # Quickstart
//!
//! The public surface is [`api`]: a typed pipeline covering the whole
//! train → persist → serve lifecycle behind one builder, one error type,
//! and no engine names.
//!
//! ```
//! use advsgm::api::{Dim, EmbeddingService, Epsilon, ModelVariant, PipelineBuilder};
//! use advsgm::graph::generators::classic::karate_club;
//!
//! let graph = karate_club();
//! let out = std::env::temp_dir().join("advsgm_lib_quickstart.aemb");
//!
//! let trained = PipelineBuilder::test_small(ModelVariant::AdvSgm)
//!     .dim(Dim::new(16)?)
//!     .epsilon(Epsilon::new(6.0)?)
//!     .build(&graph)?
//!     .train()?;
//! trained.save_embeddings(&out)?;
//!
//! let service = EmbeddingService::open(&out)?;
//! println!("released under: {}", service.privacy());
//! let neighbors = service.top_k(0, 5)?;
//! assert_eq!(neighbors.len(), 5);
//! # std::fs::remove_file(&out)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! The `advsgm` CLI binary (`train` / `query` / `info`) fronts the same
//! pipeline from the shell.
//!
//! # Internals
//!
//! The workspace crates stay public for engine-level control (hand-wired
//! trainers, custom hooks, format introspection, baselines, paper
//! experiments) — the [`api`] pipeline is a facade over them, not a
//! replacement:
//!
//! * [`graph`] — graph storage, synthetic generators, Algorithm-2 sampling,
//!   link-prediction splits;
//! * [`linalg`] — dense matrices, stable sigmoids, the paper's Algorithm-1
//!   exponential clipping;
//! * [`privacy`] — Gaussian mechanism, subsampled-RDP accounting
//!   (Theorem 4), RDP↔(ε,δ) conversion (Theorem 3), budget stopping;
//! * [`core`] — the AdvSGM trainer (Algorithm 3) plus the SGM / DP-SGM /
//!   DP-ASGM / AdvSGM-NoDP ablations behind one training type,
//!   [`core::Trainer`], on a sequential, parallel in-RAM, or out-of-core
//!   engine, all releasing the same bits;
//! * [`parallel`] — the vendored scoped thread pool + chunked parallel-for
//!   backing the parallel engine;
//! * [`baselines`] — DPGGAN, DPGVAE, GAP, DPAR;
//! * [`eval`] — link-prediction AUC, Affinity-Propagation clustering, MI;
//! * [`datasets`] — synthetic stand-ins for the paper's six datasets;
//! * [`store`] — embedding persistence (the `.aemb` format, see
//!   `docs/FORMAT.md`) and the query-serving [`store::EmbeddingStore`];
//! * [`attack`] — the empirical privacy audit: membership-inference
//!   attacks on released bytes with certified empirical-ε reporting
//!   (front door: [`api::audit_membership`] and the `advsgm audit`
//!   subcommand).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod api;
pub mod serve;

pub use advsgm_attack as attack;
pub use advsgm_baselines as baselines;
pub use advsgm_core as core;
pub use advsgm_datasets as datasets;
pub use advsgm_eval as eval;
pub use advsgm_graph as graph;
pub use advsgm_linalg as linalg;
pub use advsgm_parallel as parallel;
pub use advsgm_privacy as privacy;
pub use advsgm_store as store;
