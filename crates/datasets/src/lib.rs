//! # advsgm-datasets
//!
//! The six evaluation datasets of the AdvSGM paper, as deterministic
//! synthetic stand-ins.
//!
//! The paper evaluates on PPI, Facebook, Wiki, Blog, Epinions and DBLP,
//! none of which can be redistributed here. Each [`spec::DatasetSpec`]
//! records the published `|V|`, `|E|` and class count, and
//! [`synth::synthesize`] realises it as a degree-corrected planted-partition
//! graph with the same scale, heavy-tailed degrees, and (where the paper has
//! labels) community structure. DESIGN.md §1 argues why this preserves the
//! shape of every experiment. If you have the real files as edge lists,
//! `advsgm train --edges FILE` (through `advsgm::api::load_graph`) loads
//! them into the identical [`advsgm_graph::Graph`] type.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod registry;
pub mod spec;
pub mod synth;

pub use registry::{all_datasets, dataset_by_name, Dataset};
pub use spec::DatasetSpec;
pub use synth::synthesize;
