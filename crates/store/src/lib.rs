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
//!   pool, bitwise thread-count-invariant).
//!   [`EmbeddingStore::from_outcome`] builds the store from a finished
//!   training run, stamping the accountant's spend;
//! * [`format`](mod@format) — the versioned, CRC-checksummed `.aemb` on-disk format,
//!   byte-level spec in `docs/FORMAT.md` (DESIGN.md §9); save → load is
//!   bitwise-exact and every corruption mode is a typed [`StoreError`];
//! * [`index`] — the [`IvfIndex`] ANN index over a released store and its
//!   `.aidx` format (DESIGN.md §12);
//! * [`checkpoint`] — the versioned, CRC-checksummed `.actk` codec for
//!   [`advsgm_core::CheckpointState`]: crash-safe persistence of a
//!   training session's mid-schedule state, enabling bitwise-exact
//!   interrupt/resume (`advsgm train --checkpoint-every N --resume PATH`).
//!   Checkpoints are *curator-side* state, not release artifacts.
//! * [`agph`] — the versioned, per-section CRC-checksummed `.agph`
//!   graph format behind out-of-core partitioned training (DESIGN.md
//!   §14): edges are filed into node-bucket sections.
//!
//! The four codecs share one private core: the magic-then-version
//! prologue, a bounds-checked little-endian reader, the CRC-32 seal, and
//! one crash-safe write. Every save writes a temporary sibling, fsyncs
//! it and renames it over the path, so a crash or a failed save leaves
//! the previous file whole.
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
//! use advsgm_store::EmbeddingStore;
//!
//! let graph = karate_club();
//! let cfg = AdvSgmConfig::test_small(ModelVariant::AdvSgm);
//! let outcome = Trainer::new(&graph, cfg.clone()).unwrap().train(&graph).unwrap();
//! let store = EmbeddingStore::from_outcome(&outcome, &cfg).unwrap();
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
mod codec;
pub mod error;
pub mod format;
pub mod index;
pub mod meta;
pub mod store;

pub use agph::{decode_agph, encode_agph, load_agph, save_agph};
pub use checkpoint::{decode_checkpoint, encode_checkpoint, load_checkpoint, save_checkpoint};
pub use error::StoreError;
pub use index::{IndexParams, IvfIndex, SearchResult};
pub use meta::PrivacyMeta;
pub use store::{EmbeddingStore, Neighbor};
