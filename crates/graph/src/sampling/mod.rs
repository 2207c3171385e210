//! Sampling primitives for skip-gram training.
//!
//! * [`alias`] — Vose alias tables for O(1) categorical sampling;
//! * [`edge_sampler`] — uniform edge batches without replacement
//!   (Algorithm 2, line 1 — the event whose probability `B/|E|` drives
//!   privacy amplification in Theorem 7);
//! * [`negative`] — negative sampling (Algorithm 2, lines 2–8; probability
//!   `Bk/|V|` in Theorem 7), with both the paper's uniform distribution and
//!   the standard unigram^0.75 used by LINE/word2vec.

pub mod alias;
pub mod edge_sampler;
pub mod negative;

pub use alias::AliasTable;
pub use edge_sampler::EdgeBatchSampler;
pub use negative::{NegativeDistribution, NegativeSampler};
