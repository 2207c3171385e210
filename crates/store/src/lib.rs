//! # advsgm-store
//!
//! Embedding persistence and query serving for the AdvSGM workspace — the
//! inference side of the reproduction. Training (the `advsgm-core`
//! engines) produces a node-vector matrix; this crate makes that matrix a
//! durable, queryable artifact:
//!
//! * [`EmbeddingStore`] — the released matrix plus a row → node-id table
//!   and [`PrivacyMeta`] provenance, with the serving API:
//!   [`EmbeddingStore::score`] (Eq. 2 inner-product link score),
//!   [`EmbeddingStore::top_k`] (bounded-heap neighbor retrieval over the
//!   fused kernels in [`advsgm_linalg::topk`]), and
//!   [`EmbeddingStore::batch_top_k`] (parallel over the `advsgm-parallel`
//!   pool, bitwise thread-count-invariant);
//! * [`format`](mod@format) — the versioned, CRC-checksummed `.aemb` on-disk format,
//!   byte-level spec in `docs/FORMAT.md` (DESIGN.md §9); save → load is
//!   bitwise-exact and every corruption mode is a typed [`StoreError`];
//! * [`ExportEmbeddings`] — `export()` on [`advsgm_core::Trainer`] (any
//!   engine), stamping accounting metadata from the RDP accountant's
//!   spend snapshot into the released store;
//! * [`checkpoint`] — the versioned, CRC-checksummed `.actk` codec for
//!   [`advsgm_core::CheckpointState`]: crash-safe persistence of a
//!   training session's mid-schedule state, enabling bitwise-exact
//!   interrupt/resume (`advsgm train --checkpoint-every N --resume PATH`).
//!   Checkpoints are *curator-side* state, not release artifacts.
//! * [`agph`] — the versioned, per-section CRC-checksummed `.agph`
//!   disk-resident graph format behind out-of-core partitioned training
//!   (DESIGN.md §14): edges are filed into node-bucket sections so
//!   [`AgphReader`] can map one bucket's edges at a time.
//!
//! Why serving is free: the paper's Theorem 5 (post-processing) puts the
//! privacy boundary at the embedding matrix itself. Once the matrix is
//! released with `(epsilon, delta)` spent, any query load — link scores,
//! neighbor lists, clustering — consumes no further budget, which is what
//! makes a high-traffic serving layer compatible with a fixed DP
//! guarantee.
//!
//! # Example
//!
//! ```
//! use advsgm_core::{AdvSgmConfig, ModelVariant, Trainer};
//! use advsgm_graph::generators::classic::karate_club;
//! use advsgm_store::ExportEmbeddings;
//!
//! let graph = karate_club();
//! let cfg = AdvSgmConfig::test_small(ModelVariant::AdvSgm);
//! let store = Trainer::new(&graph, cfg).unwrap().export(&graph).unwrap();
//! assert!(store.meta().is_private());
//!
//! // Serving: pairwise link score + nearest neighbors (post-processing).
//! let s = store.score(0, 33).unwrap();
//! assert!(s.is_finite());
//! let top = store.top_k(0, 5).unwrap();
//! assert_eq!(top.len(), 5);
//!
//! // Persistence: bitwise-exact roundtrip through the .aemb format.
//! let bytes = store.to_bytes();
//! let back = advsgm_store::EmbeddingStore::from_bytes(&bytes).unwrap();
//! assert_eq!(back, store);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod agph;
pub mod checkpoint;
pub mod error;
pub mod export;
pub mod format;
pub mod index;
pub mod meta;
pub mod store;

pub use agph::{decode_agph, encode_agph, load_agph, save_agph, AgphReader};
pub use checkpoint::{decode_checkpoint, encode_checkpoint, load_checkpoint, save_checkpoint};
pub use error::StoreError;
pub use export::ExportEmbeddings;
pub use index::{IndexParams, IvfIndex, SearchResult};
pub use meta::PrivacyMeta;
pub use store::{EmbeddingStore, Neighbor};
