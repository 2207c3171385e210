//! The unified front door of the workspace: one typed pipeline from
//! graph to served queries.
//!
//! The paper's system is one conceptual flow — sample (Algorithm 2),
//! train adversarially under the Theorem-4 budget (Algorithm 3), release
//! the embeddings once (Theorem 5), serve Eq.-2 queries forever — and
//! this module is that flow as an API:
//!
//! ```text
//! PipelineBuilder ──build──▶ Pipeline ──train──▶ Trained ──serve──▶ EmbeddingService
//!       ▲                       ▲                   │                     ▲
//!   typed newtypes         Pipeline::resume    save_embeddings      EmbeddingService::open
//!   (Epsilon, Delta,       (.actk checkpoint)  save_checkpoint      (.aemb release file)
//!    NoiseSigma, Dim)                          spend
//! ```
//!
//! Design rules:
//!
//! * **Parse, don't validate.** Privacy and shape parameters are typed
//!   ([`Epsilon`], [`Delta`], [`NoiseSigma`], [`Dim`]) and rejected at
//!   construction; [`PipelineBuilder::build`] runs the one
//!   cross-field validation pass. An invalid configuration cannot exist
//!   past the builder.
//! * **Callers never name an engine.** [`Pipeline::train`] runs the one
//!   replay engine at the resolved thread count, in RAM or — when the
//!   builder asked for node buckets ([`PipelineBuilder::partitions`]) —
//!   out of core, and the run is bitwise-identical to the equivalent
//!   hand-wired [`Trainer`](crate::core::Trainer), at every width and
//!   partition count (`tests/api_facade.rs`, `tests/ooc_equivalence.rs`).
//! * **One error.** Every operation returns [`Result`]; the single
//!   [`enum@Error`] wraps each crate's error with the source chain
//!   preserved and the originating layer named.
//! * **The release boundary is a type.** [`Trained`] sits exactly on
//!   Theorem 5: everything reachable from it is post-processing of the
//!   released matrix, so serving any query volume adds no privacy cost.
//!
//! # The whole lifecycle
//!
//! ```
//! use advsgm::api::{Dim, EmbeddingService, Epsilon, ModelVariant, PipelineBuilder};
//! use advsgm::graph::generators::classic::karate_club;
//!
//! let graph = karate_club();
//! let dir = std::env::temp_dir().join("advsgm_api_mod_doc");
//! std::fs::create_dir_all(&dir)?;
//! let path = dir.join("karate.aemb");
//!
//! // Train under a (6, 1e-5) node-level DP budget and release once.
//! let trained = PipelineBuilder::test_small(ModelVariant::AdvSgm)
//!     .dim(Dim::new(16)?)
//!     .epsilon(Epsilon::new(6.0)?)
//!     .build(&graph)?
//!     .train()?;
//! trained.save_embeddings(&path)?;
//!
//! // Serve from the file: post-processing, no further budget.
//! let service = EmbeddingService::open(&path)?;
//! assert!(service.privacy().is_private());
//! let neighbors = service.top_k(0, 5)?;
//! assert_eq!(neighbors.len(), 5);
//! # std::fs::remove_file(&path)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! The crate-level types the pipeline wraps (`advsgm::core::Trainer`, the
//! one training type on every engine, `advsgm::store::EmbeddingStore`,
//! ...) remain public as internals for callers that need engine-level
//! control; see the crate root docs.

mod audit;
mod builder;
mod error;
mod pipeline;
mod service;
mod types;

pub use audit::{audit_membership, audit_outcome};
pub use builder::{load_graph, PipelineBuilder};
pub use error::{Error, Result};
pub use pipeline::{Checkpoint, Pipeline, PipelineEvent, Trained};
pub use service::EmbeddingService;
pub use types::{Delta, Dim, Epsilon, NoiseSigma};

// The vocabulary the pipeline surface speaks, re-exported so the whole
// train -> persist -> serve flow needs no direct advsgm_core /
// advsgm_store imports.
pub use advsgm_attack::{AuditConfig, AuditReport};
pub use advsgm_core::{EpochEvent, ModelVariant, SpendSnapshot, StopReason, TrainOutcome};
pub use advsgm_store::{Neighbor, PrivacyMeta};
