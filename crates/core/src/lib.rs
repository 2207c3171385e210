//! # advsgm-core
//!
//! AdvSGM — *Differentially Private Graph Learning via Adversarial Skip-gram
//! Model* (ICDE 2025) — implemented from scratch, together with every
//! skip-gram variant the paper evaluates against:
//!
//! | Variant | Paper section | DP | Adversarial |
//! |---|---|---|---|
//! | `Sgm` (LINE)        | Eq. (2), "SGM (No DP)"   | –   | –   |
//! | `DpSgm`             | "DP-SGM" (DPSGD)         | yes | –   |
//! | `DpAsgm`            | Section III-B first cut  | yes | yes |
//! | `AdvSgm`            | Section IV (contribution)| yes | yes |
//! | `AdvSgmNoDp`        | "AdvSGM (No DP)"         | –   | yes |
//!
//! The heart of the crate is the [`session`] layer, a literal
//! implementation of Algorithm 3: alternating discriminator/generator
//! optimisation, the optimizable noise terms of Eq. (13), the Theorem-6
//! gradient identity `grad = clip(dL_sgm/dv + v') + N(C^2 sigma^2 I)`,
//! per-batch privacy accounting through `advsgm-privacy`, and the
//! stopping rule of lines 9–11. The schedule exists exactly once
//! (`session::run_schedule`) and executes through one engine behind the
//! one training type [`trainer::Trainer`]: the replay engine, which
//! replays the draws and accumulation order of Algorithm 3 run literally
//! on one stream (the sequential engine, kept as the unit tests' oracle)
//! while a thread pool, above one thread, computes the per-item work — in
//! RAM through [`trainer::Trainer::new`] (DESIGN.md §7/§10), and, through
//! [`trainer::PartitionedTrainer::new`], out of core (embedding
//! partitions swapped through a two-slot pool with a disk spill store;
//! DESIGN.md §14). Every release, epoch loss and spend is a function of
//! the seed and the configuration, bitwise-identical at every thread and
//! partition count. The session layer also provides
//! [`session::TrainHooks`] (epoch-boundary observability) and
//! [`session::CheckpointState`] (bitwise-exact checkpoint/resume on
//! either store through [`trainer::Trainer::resume`]).
//!
//! Gradients are analytic (the model is two embedding matrices plus two
//! one-layer generators), so there is no autograd dependency; see [`grad`]
//! for the derivations cross-checked against finite differences in tests.
//!
//! Paper coverage: Section III (skip-gram + first-cut DP-ASGM), Section IV
//! (AdvSGM: Eqs. 13–24, Theorem 6), Algorithm 2 (sampling glue in
//! [`sampler`]), Algorithm 3 ([`session`], [`trainer`]), and the Fig. 2
//! weight-setting machinery ([`weighting`], [`loss`]).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod config;
pub mod error;
pub mod grad;
pub mod loss;
pub mod model;
pub mod sampler;
pub mod session;
pub mod sigmoid;
pub mod trainer;
pub mod variants;
pub mod weighting;

pub use config::AdvSgmConfig;
pub use error::CoreError;
pub use session::{
    CheckpointState, EngineKind, EpochEvent, NoHooks, SessionControl, SpendSnapshot, StopReason,
    TrainHooks,
};
pub use sigmoid::SigmoidKind;
pub use trainer::{PartitionedTrainer, SlotPoolStats, TrainOutcome, Trainer};
pub use variants::ModelVariant;
pub use weighting::{structure_preference_weight, PairWeighting, WeightMode};
