//! # advsgm-linalg
//!
//! Dense linear-algebra substrate for the AdvSGM workspace.
//!
//! The AdvSGM model (ICDE 2025) is shallow — two embedding matrices plus two
//! single-layer generators — so every gradient in the paper has a closed form.
//! This crate provides exactly the numeric toolkit those closed forms need:
//!
//! * [`vector`] — slice-level BLAS-1 style kernels, including the DPSGD
//!   [`vector::clip_l2`] operation from Eq. (5) of the paper;
//! * [`matrix`] — a row-major [`matrix::DenseMatrix`] with cheap row views,
//!   used for the embedding matrices `W_in` / `W_out` and generator weights;
//! * [`activations`] — numerically stable sigmoids plus the paper's
//!   Algorithm 1 *exponential clipping* and the constrained sigmoid `S(x)`;
//! * [`init`] — Xavier/uniform initialisation and the row normalisation the
//!   paper uses to pin the clipping constant at `C = 1`;
//! * [`rng`] — seeded RNG construction and Gaussian draws;
//! * [`stats`] — summary statistics used by the experiment tables;
//! * [`topk`] — bounded-heap top-k selection over fused row-score scans,
//!   the serving-side kernel behind `advsgm-store` neighbor queries;
//! * [`backend`] — runtime CPU-feature dispatch over the hot kernel
//!   surface: explicit AVX2/NEON paths with the scalar loops as the
//!   always-available reference, bitwise-identical on every backend —
//!   including the generator's two fake kernels, whose `ln`, `sin`/`cos`
//!   and `exp` are the crate's own (module `math`), not host libm.
//!
//! Everything is `f64` and allocation-conscious. `unsafe` is denied
//! crate-wide and allowed only inside [`backend`]'s per-architecture
//! intrinsics modules, each function carrying an explicit `# Safety`
//! contract under `deny(unsafe_op_in_unsafe_fn)`.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod activations;
pub mod backend;
pub mod error;
pub mod init;
mod math;
pub mod matrix;
pub mod rng;
pub mod stats;
pub mod topk;
pub mod vector;

pub use error::LinalgError;
pub use matrix::DenseMatrix;
