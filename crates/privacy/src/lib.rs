//! # advsgm-privacy
//!
//! Differential-privacy accounting for AdvSGM: Rényi differential privacy
//! (RDP) curves of the Gaussian mechanism, subsampling amplification, and
//! the conversions between RDP and `(epsilon, delta)`-DP. The mechanism
//! itself — the per-pair clip (`advsgm_linalg::vector::clip_l2`) and the
//! noise draw — runs inside the trainer (`advsgm-core`'s session layer).
//!
//! The paper's privacy argument (Theorems 6 and 7) decomposes as:
//!
//! 1. each discriminator update adds `N(0, (B C sigma)^2 I)` noise to a
//!    batch-gradient sum of sensitivity `B C` — i.e. a Gaussian mechanism
//!    with *noise multiplier* `sigma`, whose RDP curve is
//!    `eps(alpha) = alpha / (2 sigma^2)` ([`rdp`]);
//! 2. the batch is subsampled without replacement at rate `gamma = B/|E|`
//!    (positives) or `gamma = Bk/|V|` (negatives), amplifying the per-step
//!    curve via Theorem 4 of the paper (Wang et al., 2019) ([`subsampled`]);
//! 3. steps compose additively in RDP and convert to `(epsilon, delta)`-DP
//!    via Mironov's Proposition 3 ([`conversion`]);
//! 4. the [`accountant::RdpAccountant`] tracks the composition online and
//!    implements Algorithm 3's stopping rule (lines 9–11).
//!
//! All accounting runs in log-space so large orders `alpha` and tiny
//! sampling rates never overflow.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod accountant;
pub mod conversion;
pub mod error;
pub mod rdp;
pub mod subsampled;

pub use accountant::{AccountantState, RdpAccountant, SpendSnapshot};
pub use error::PrivacyError;
pub use rdp::GaussianRdp;
