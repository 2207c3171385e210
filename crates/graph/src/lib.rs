//! # advsgm-graph
//!
//! Graph substrate for the AdvSGM workspace: storage, synthetic generators,
//! and the sampling primitives the paper's training loop consumes.
//!
//! * [`graph::Graph`] — an undirected simple graph (self-loops removed, as in
//!   the paper's pre-processing) with CSR adjacency and optional node labels;
//! * [`builder::GraphBuilder`] — ingestion with dedup/self-loop removal;
//! * [`generators`] — Erdős–Rényi, Barabási–Albert, Watts–Strogatz, planted
//!   partition / degree-corrected SBM (the synthetic stand-ins for the six
//!   evaluation datasets), plus small deterministic graphs for tests;
//! * [`sampling`] — alias tables, uniform edge batches, and the paper's
//!   Algorithm 2 negative sampling;
//! * [`partition`] — the 90/10 link-prediction edge split of Section VI-A;
//! * [`buckets`] — the contiguous node buckets behind out-of-core
//!   partitioned training;
//! * [`io`] — the plain-text edge-list reader.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod buckets;
pub mod builder;
pub mod csr;
pub mod edge;
pub mod error;
pub mod generators;
pub mod graph;
pub mod io;
pub mod node;
pub mod partition;
pub mod sampling;

pub use buckets::NodeBuckets;
pub use builder::GraphBuilder;
pub use edge::Edge;
pub use error::GraphError;
pub use graph::Graph;
pub use node::NodeId;
