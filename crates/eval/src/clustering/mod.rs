//! Node clustering evaluation.
//!
//! The paper feeds embeddings to **Affinity Propagation** (Frey & Dueck,
//! Science 2007) and reports **mutual information** between the discovered
//! clusters and the class labels. [`affinity`] implements AP from scratch;
//! [`metrics`] has MI, NMI and ARI.

pub mod affinity;
pub mod metrics;

pub use affinity::{AffinityPropagation, ApParams};
pub use metrics::{adjusted_rand_index, mutual_information, normalized_mutual_information};
