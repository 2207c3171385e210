//! Synthetic graph generators.
//!
//! Two roles:
//!
//! 1. **Test fixtures** — deterministic small graphs ([`classic`]) and the
//!    Erdős–Rényi random models ([`erdos_renyi`]) for unit/property tests;
//! 2. **Dataset stand-ins** — the degree-corrected planted-partition model
//!    ([`sbm`]) used by `advsgm-datasets` to synthesise graphs with the same
//!    scale, heavy-tailed degrees, and community structure as the paper's
//!    six real datasets (see DESIGN.md §1 for the substitution argument),
//!    and its signed planted-polarity extension ([`signed`]) for the
//!    signed-graph workload (DESIGN.md §16).

pub mod classic;
pub mod erdos_renyi;
pub mod sbm;
pub mod signed;

pub use classic::{complete_graph, cycle_graph, karate_club, path_graph, star_graph};
pub use erdos_renyi::{gnm_random_graph, gnp_random_graph};
pub use sbm::{degree_corrected_sbm, SbmConfig};
pub use signed::{signed_sbm, SignedSbmConfig};
