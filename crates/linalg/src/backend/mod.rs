//! Runtime-dispatched kernel backends (DESIGN.md §15).
//!
//! Every hot inner loop of AdvSGM — the Eq.-2 inner products behind
//! `score`/`top_k`, the Theorem-6 per-pair gradients, the noisy batch
//! apply — bottoms out in the scalar kernels of [`crate::vector`]. This
//! module puts that surface behind one runtime CPU-feature dispatch so
//! the hot loops run on explicit SIMD paths where the host has them,
//! without trusting autovectorization and **without bending the
//! repo's determinism contract**.
//!
//! # The bitwise contract
//!
//! Every kernel — [`dot`], [`dot2`], [`dot16`], [`axpy`], [`scale`],
//! [`fused_axpy_scale`], [`dist_sq_2x16`] — executes on every backend
//! the *same floating-point operation sequence* as the scalar reference
//! in [`crate::vector`], so results are bitwise-identical across
//! backends:
//!
//! * Element-wise kernels (`axpy`, `scale`, `fused_axpy_scale`)
//!   vectorize trivially: SIMD lanes are independent elements and each
//!   lane performs exactly the scalar op chain (separate multiply and
//!   add — never FMA, whose single rounding differs from mul-then-add).
//! * `dot2`/`dot16` already use independent scalar accumulators — one
//!   per output — so the SIMD form packs those accumulators into lanes
//!   and feeds each lane its operands in the scalar order. No sum is
//!   reassociated. `dot16` keeps four such 4-lane accumulators in
//!   flight: one add chain per call is bound by the add's latency, and
//!   independent chains overlap without changing a bit.
//! * `dist_sq_2x16` scores two rows against a block of 16 centroids that
//!   [`CentroidPanels`] packed lane-interleaved, four centroids per
//!   panel. Each of its 32 accumulators is one [`vector::dist_sq`]: it
//!   starts at `+0.0` and adds `(x_k − c_k)·(x_k − c_k)` in ascending
//!   `k`, so the SIMD form needs no transposes and reassociates nothing.
//! * `dot` reduces into a **single** sequential accumulator; that
//!   association is the contract, so it stays on the scalar loop under
//!   every backend. (The serving scan gets its SIMD win from `dot16`,
//!   which is why `top_k_rows` scores 16 rows a call.)
//!
//! Training and every serving scan, exact and approximate, use only
//! these kernels; the exhaustive cross-backend equality proof lives in
//! `tests/kernel_equivalence.rs`.
//!
//! One honest caveat: when an *input* is NaN, the guarantee weakens to
//! "the same elements are NaN". Which NaN *payload* propagates through
//! `a * b` is unspecified by Rust's own scalar semantics (LLVM commutes
//! `fmul`/`fadd` freely, so even scalar-vs-scalar payloads vary with
//! optimization level); no kernel layer can promise more than the
//! language does. Every non-NaN result — including ±inf, signed zeros,
//! and subnormals — is bit-exact. Training inputs are finite, so the
//! training-side contract (`.aemb` bytes) is unaffected.
//!
//! # Selection
//!
//! The backend is resolved once, on first use, and cached:
//!
//! 1. `ADVSGM_KERNELS=scalar|avx2|neon` (case-insensitive) wins when it
//!    names a backend the host supports;
//! 2. a value naming an *unsupported or unknown* backend degrades to
//!    auto-detection (like an absurd `ADVSGM_THREADS` degrades to a
//!    slow run, never a crash);
//! 3. auto-detection picks the best supported backend: AVX2 on x86-64
//!    hosts with AVX2, NEON on aarch64, scalar everywhere else.
//!
//! Because every kernel is bitwise-equal across backends, the override
//! is an A/B and CI tool, not a correctness knob: no command's output —
//! `.aemb`/`.aidx` bytes, exact or approximate answers — depends on it.

use std::sync::atomic::{AtomicU8, Ordering};

use crate::{vector, DenseMatrix};

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx2;
#[cfg(target_arch = "aarch64")]
#[allow(unsafe_code)]
mod neon;

/// One kernel implementation the dispatcher can select.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The portable reference loops of [`crate::vector`] — always
    /// available, and the definition of the bitwise contract.
    Scalar,
    /// 256-bit AVX2 paths (x86-64 with AVX2; no kernel fuses a
    /// multiply-add, so FMA is not required).
    Avx2,
    /// 128-bit NEON paths (aarch64, where NEON is architectural).
    Neon,
}

impl Backend {
    /// Every backend the dispatcher knows, strongest-first per arch.
    pub const ALL: [Backend; 3] = [Backend::Avx2, Backend::Neon, Backend::Scalar];

    /// The backend's `ADVSGM_KERNELS` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
            Backend::Neon => "neon",
        }
    }

    /// Parses an `ADVSGM_KERNELS` value (trimmed, case-insensitive).
    pub fn parse(s: &str) -> Option<Backend> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(Backend::Scalar),
            "avx2" => Some(Backend::Avx2),
            "neon" => Some(Backend::Neon),
            _ => None,
        }
    }

    /// Whether this host can execute the backend.
    pub fn is_supported(self) -> bool {
        match self {
            Backend::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            Backend::Avx2 => false,
            // NEON is a mandatory part of AArch64: if the binary runs,
            // the feature is there.
            Backend::Neon => cfg!(target_arch = "aarch64"),
        }
    }

    /// The best backend this host supports (auto-detection).
    pub fn detect() -> Backend {
        Backend::ALL
            .into_iter()
            .find(|b| b.is_supported())
            .unwrap_or(Backend::Scalar)
    }

    fn code(self) -> u8 {
        match self {
            Backend::Scalar => 1,
            Backend::Avx2 => 2,
            Backend::Neon => 3,
        }
    }

    fn from_code(code: u8) -> Option<Backend> {
        match code {
            1 => Some(Backend::Scalar),
            2 => Some(Backend::Avx2),
            3 => Some(Backend::Neon),
            _ => None,
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How [`resolve_backend`] arrived at its answer — surfaced by
/// `advsgm info --host` and the `serve` startup log so an ignored
/// override is visible, not silent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendResolution {
    /// `ADVSGM_KERNELS` named a supported backend and was honored.
    EnvSelected,
    /// `ADVSGM_KERNELS` named a known backend this host cannot run;
    /// auto-detection was used instead.
    EnvUnsupported,
    /// `ADVSGM_KERNELS` was set but not a recognized backend name;
    /// auto-detection was used instead.
    EnvInvalid,
    /// `ADVSGM_KERNELS` was unset (or blank); auto-detection was used.
    Detected,
}

impl BackendResolution {
    /// A short human-readable source label for logs.
    pub fn describe(self) -> &'static str {
        match self {
            BackendResolution::EnvSelected => "ADVSGM_KERNELS",
            BackendResolution::EnvUnsupported => {
                "auto (ADVSGM_KERNELS named an unsupported backend)"
            }
            BackendResolution::EnvInvalid => "auto (ADVSGM_KERNELS was not a backend name)",
            BackendResolution::Detected => "auto-detected",
        }
    }
}

/// Resolves an `ADVSGM_KERNELS`-style value to a backend.
///
/// Precedence (mirrors `--threads`/`ADVSGM_THREADS`): a set, valid,
/// host-supported value wins; anything else — unset, blank, unknown
/// name, or a backend the host lacks — degrades to [`Backend::detect`].
/// The second element reports which branch was taken.
///
/// Pure in its argument so the precedence table is unit-testable
/// without touching the process environment.
pub fn resolve_backend(env: Option<&str>) -> (Backend, BackendResolution) {
    match env.map(str::trim) {
        None | Some("") => (Backend::detect(), BackendResolution::Detected),
        Some(value) => match Backend::parse(value) {
            Some(b) if b.is_supported() => (b, BackendResolution::EnvSelected),
            Some(_) => (Backend::detect(), BackendResolution::EnvUnsupported),
            None => (Backend::detect(), BackendResolution::EnvInvalid),
        },
    }
}

/// The resolution [`active`] would cache, recomputed from the current
/// environment (for `info --host` / `serve` startup reporting).
pub fn resolution() -> (Backend, BackendResolution) {
    resolve_backend(std::env::var("ADVSGM_KERNELS").ok().as_deref())
}

/// The cached backend selection: 0 = not yet resolved.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

/// The backend every dispatched kernel in this process uses.
///
/// Resolved once from `ADVSGM_KERNELS` / auto-detection on first call,
/// then cached (one relaxed atomic load per dispatch).
pub fn active() -> Backend {
    match Backend::from_code(ACTIVE.load(Ordering::Relaxed)) {
        Some(b) => b,
        None => {
            let (resolved, _) = resolution();
            // A concurrent first call resolves to the same value (the
            // environment does not change under us), so a race is benign.
            ACTIVE.store(resolved.code(), Ordering::Relaxed);
            resolved
        }
    }
}

/// Forces the active backend, overriding `ADVSGM_KERNELS`.
///
/// Intended for the equivalence tests and the kernel benches, which A/B
/// backends inside one process. Forcing is always sound: every kernel
/// is bitwise-equal across backends, so no computation observes the
/// switch.
///
/// # Panics
/// Panics if the host cannot execute `backend`.
pub fn force(backend: Backend) {
    assert!(
        backend.is_supported(),
        "backend {backend} is not supported on this host"
    );
    ACTIVE.store(backend.code(), Ordering::Relaxed);
}

/// `(feature name, detected)` pairs for this host — the `info --host`
/// report. Scalar-relevant baseline features are included so the
/// output is meaningful on every arch.
pub fn host_features() -> Vec<(&'static str, bool)> {
    #[cfg(target_arch = "x86_64")]
    {
        vec![
            ("sse2", true), // x86-64 baseline
            ("avx", std::arch::is_x86_feature_detected!("avx")),
            ("avx2", std::arch::is_x86_feature_detected!("avx2")),
            ("fma", std::arch::is_x86_feature_detected!("fma")),
            ("avx512f", std::arch::is_x86_feature_detected!("avx512f")),
        ]
    }
    #[cfg(target_arch = "aarch64")]
    {
        vec![("neon", true)] // architectural on aarch64
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        Vec::new()
    }
}

// ---------------------------------------------------------------------
// Dispatched kernel surface.
//
// Each `foo` but `dot` dispatches on `active()`; each `foo_with` takes
// the backend explicitly (the equivalence tests and benches A/B through
// these). `foo_with` falls back to the scalar reference when handed a
// backend the host cannot run — never UB, and bitwise-identical anyway.
// ---------------------------------------------------------------------

/// [`vector::dot`] on every backend: the single sequential accumulator
/// *is* the pinned FP association, so there is no bitwise-preserving
/// SIMD form (see module docs).
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    vector::dot(x, y)
}

/// Dispatched [`vector::dot2`]: `(x . a, x . b)`, bitwise-identical to
/// two scalar [`vector::dot`]s on every backend.
#[inline]
pub fn dot2(x: &[f64], a: &[f64], b: &[f64]) -> (f64, f64) {
    dot2_with(active(), x, a, b)
}

/// [`dot2`] on an explicit backend.
#[inline]
pub fn dot2_with(backend: Backend, x: &[f64], a: &[f64], b: &[f64]) -> (f64, f64) {
    assert_eq!(x.len(), a.len(), "dot2: length mismatch (a)");
    assert_eq!(x.len(), b.len(), "dot2: length mismatch (b)");
    match backend {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 if Backend::Avx2.is_supported() => avx2::dot2_checked(x, a, b),
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => neon::dot2_checked(x, a, b),
        _ => vector::dot2(x, a, b),
    }
}

/// Dispatched [`vector::dot16`]: `x`'s dot products with 16 rows,
/// lane `l` bitwise-identical to `vector::dot(x, rows[l])` on every
/// backend — the serving scan's kernel.
///
/// # Panics
/// Panics if a row's length differs from `x`'s.
#[inline]
pub fn dot16(x: &[f64], rows: &[&[f64]; 16]) -> [f64; 16] {
    dot16_with(active(), x, rows)
}

/// [`dot16`] on an explicit backend.
#[inline]
pub fn dot16_with(backend: Backend, x: &[f64], rows: &[&[f64]; 16]) -> [f64; 16] {
    for row in rows {
        assert_eq!(row.len(), x.len(), "dot16: length mismatch");
    }
    match backend {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 if Backend::Avx2.is_supported() => avx2::dot16_checked(x, rows),
        _ => vector::dot16(x, rows),
    }
}

/// Dispatched [`vector::axpy`]: `y += alpha * x`, element-wise
/// bitwise-identical on every backend.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    axpy_with(active(), alpha, x, y);
}

/// [`axpy`] on an explicit backend.
#[inline]
pub fn axpy_with(backend: Backend, alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    match backend {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 if Backend::Avx2.is_supported() => avx2::axpy_checked(alpha, x, y),
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => neon::axpy_checked(alpha, x, y),
        _ => vector::axpy(alpha, x, y),
    }
}

/// Dispatched [`vector::scale`]: `x *= alpha`, element-wise
/// bitwise-identical on every backend.
#[inline]
pub fn scale(x: &mut [f64], alpha: f64) {
    scale_with(active(), x, alpha);
}

/// [`scale`] on an explicit backend.
#[inline]
pub fn scale_with(backend: Backend, x: &mut [f64], alpha: f64) {
    match backend {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 if Backend::Avx2.is_supported() => avx2::scale_checked(x, alpha),
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => neon::scale_checked(x, alpha),
        _ => vector::scale(x, alpha),
    }
}

/// Dispatched [`vector::fused_axpy_scale`]:
/// `y = (y + alpha * x) * beta`, element-wise bitwise-identical on
/// every backend — the trainer's noisy-apply kernel.
#[inline]
pub fn fused_axpy_scale(y: &mut [f64], alpha: f64, x: &[f64], beta: f64) {
    fused_axpy_scale_with(active(), y, alpha, x, beta);
}

/// [`fused_axpy_scale`] on an explicit backend.
#[inline]
pub fn fused_axpy_scale_with(backend: Backend, y: &mut [f64], alpha: f64, x: &[f64], beta: f64) {
    assert_eq!(x.len(), y.len(), "fused_axpy_scale: length mismatch");
    match backend {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 if Backend::Avx2.is_supported() => {
            avx2::fused_axpy_scale_checked(y, alpha, x, beta)
        }
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => neon::fused_axpy_scale_checked(y, alpha, x, beta),
        _ => vector::fused_axpy_scale(y, alpha, x, beta),
    }
}

/// Centroids packed for [`dist_sq_2x16`]: lane-interleaved panels of
/// four, so that one 256-bit load gives coordinate `k` of four centroids.
///
/// Panel `p` holds centroids `4p..4p + 4`, and
/// `data[(p·r + k)·4 + l]` is coordinate `k` of centroid `4p + l`
/// (`r` is the dimension). Only whole blocks of [`CentroidPanels::BLOCK`]
/// centroids are packed, the first `16·⌊rows/16⌋`; the caller scores the
/// rest with [`vector::dist_sq`]. Block `b` is panels `4b..4b + 4`, one
/// contiguous run of `16·r` values.
#[derive(Debug, Clone)]
pub struct CentroidPanels {
    dim: usize,
    blocks: usize,
    data: Vec<f64>,
}

impl CentroidPanels {
    /// Centroids per block, the unit [`dist_sq_2x16`] scores.
    pub const BLOCK: usize = 16;

    /// Packs the whole blocks of `centroids`' rows.
    pub fn pack(centroids: &DenseMatrix) -> Self {
        let (rows, dim) = centroids.shape();
        let blocks = rows / Self::BLOCK;
        let mut data = vec![0.0; blocks * Self::BLOCK * dim];
        for c in 0..blocks * Self::BLOCK {
            let (panel, lane) = (c / 4, c % 4);
            for (k, &v) in centroids.row(c).iter().enumerate() {
                data[(panel * dim + k) * 4 + lane] = v;
            }
        }
        Self { dim, blocks, data }
    }

    /// Number of packed blocks: centroid `c` is packed exactly when
    /// `c < 16·blocks()`.
    pub fn blocks(&self) -> usize {
        self.blocks
    }

    /// Block `b`'s four panels.
    fn block(&self, b: usize) -> &[f64] {
        assert!(
            b < self.blocks,
            "dist_sq_2x16: block {b} of {}",
            self.blocks
        );
        let len = Self::BLOCK * self.dim;
        &self.data[b * len..(b + 1) * len]
    }
}

/// Dispatched squared distances from two rows to one block of 16 packed
/// centroids: `out[i][j]` is `‖x_i − c‖²` for centroid
/// `16·block + j`, bitwise-identical to [`vector::dist_sq`] on every
/// backend — the index build's assignment kernel.
///
/// # Panics
/// Panics if `block >= panels.blocks()` or a row's length is not the
/// centroids' dimension.
#[inline]
pub fn dist_sq_2x16(
    panels: &CentroidPanels,
    block: usize,
    x0: &[f64],
    x1: &[f64],
) -> [[f64; 16]; 2] {
    dist_sq_2x16_with(active(), panels, block, x0, x1)
}

/// [`dist_sq_2x16`] on an explicit backend.
#[inline]
pub fn dist_sq_2x16_with(
    backend: Backend,
    panels: &CentroidPanels,
    block: usize,
    x0: &[f64],
    x1: &[f64],
) -> [[f64; 16]; 2] {
    assert_eq!(x0.len(), panels.dim, "dist_sq_2x16: length mismatch (x0)");
    assert_eq!(x1.len(), panels.dim, "dist_sq_2x16: length mismatch (x1)");
    let block = panels.block(block);
    match backend {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 if Backend::Avx2.is_supported() => avx2::dist_sq_2x16_checked(block, x0, x1),
        _ => dist_sq_2x16_scalar(block, x0, x1),
    }
}

/// The scalar form of [`dist_sq_2x16`], for every backend without its
/// own: coordinate by coordinate, each of the 32 accumulators takes
/// `vector::dist_sq`'s next term. `block` is one block of
/// [`CentroidPanels`]; both rows have its dimension.
fn dist_sq_2x16_scalar(block: &[f64], x0: &[f64], x1: &[f64]) -> [[f64; 16]; 2] {
    let dim = x0.len();
    let mut out = [[0.0; 16]; 2];
    for (k, (&a, &b)) in x0.iter().zip(x1).enumerate() {
        for panel in 0..4 {
            let c = &block[(panel * dim + k) * 4..][..4];
            for (lane, &c) in c.iter().enumerate() {
                let (da, db) = (a - c, b - c);
                out[0][4 * panel + lane] += da * da;
                out[1][4 * panel + lane] += db * db;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_known_names_case_insensitively() {
        assert_eq!(Backend::parse("scalar"), Some(Backend::Scalar));
        assert_eq!(Backend::parse(" AVX2 "), Some(Backend::Avx2));
        assert_eq!(Backend::parse("Neon"), Some(Backend::Neon));
        assert_eq!(Backend::parse("sse9"), None);
        assert_eq!(Backend::parse(""), None);
    }

    #[test]
    fn resolution_precedence_mirrors_threads() {
        // Unset / blank -> auto-detection.
        assert_eq!(
            resolve_backend(None),
            (Backend::detect(), BackendResolution::Detected)
        );
        assert_eq!(
            resolve_backend(Some("  ")),
            (Backend::detect(), BackendResolution::Detected)
        );
        // A valid, supported name wins verbatim.
        assert_eq!(
            resolve_backend(Some("scalar")),
            (Backend::Scalar, BackendResolution::EnvSelected)
        );
        // Garbage degrades to auto-detection, never a crash.
        assert_eq!(
            resolve_backend(Some("turbo")),
            (Backend::detect(), BackendResolution::EnvInvalid)
        );
        // A known-but-unsupported backend also degrades to detection.
        let foreign = if cfg!(target_arch = "x86_64") {
            "neon"
        } else {
            "avx2"
        };
        assert_eq!(
            resolve_backend(Some(foreign)),
            (Backend::detect(), BackendResolution::EnvUnsupported)
        );
    }

    #[test]
    fn detect_reports_a_supported_backend() {
        let b = Backend::detect();
        assert!(b.is_supported());
        // Scalar is supported everywhere, so detection never fails.
        assert!(Backend::Scalar.is_supported());
    }

    #[test]
    fn active_is_stable_and_forceable() {
        let first = active();
        assert_eq!(active(), first);
        force(Backend::Scalar);
        assert_eq!(active(), Backend::Scalar);
        // Restore detection's choice for other tests in this process.
        force(first);
        assert_eq!(active(), first);
    }

    #[test]
    fn bitwise_tier_smoke_on_every_supported_backend() {
        let x: Vec<f64> = (0..37).map(|i| (i as f64 * 0.71).sin() * 3.0).collect();
        let a: Vec<f64> = (0..37).map(|i| (i as f64 * 0.37).cos() / 7.0).collect();
        let b: Vec<f64> = (0..37).map(|i| 1.0 / (i as f64 + 0.5)).collect();
        let c: Vec<f64> = (0..37).map(|i| (i as f64).sqrt() - 2.0).collect();
        let d: Vec<f64> = (0..37).map(|i| (i as f64 * 1.3).tan()).collect();
        for backend in Backend::ALL.into_iter().filter(|b| b.is_supported()) {
            let (da, db) = dot2_with(backend, &x, &a, &b);
            let (ra, rb) = vector::dot2(&x, &a, &b);
            assert_eq!(da.to_bits(), ra.to_bits(), "{backend} dot2.a");
            assert_eq!(db.to_bits(), rb.to_bits(), "{backend} dot2.b");

            let rows = [&a, &b, &c, &d];
            let lanes: [&[f64]; 16] = std::array::from_fn(|l| rows[l % 4].as_slice());
            let got = dot16_with(backend, &x, &lanes);
            let want = vector::dot16(&x, &lanes);
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.to_bits(), w.to_bits(), "{backend} dot16");
            }

            let mut y1 = a.clone();
            let mut y2 = a.clone();
            axpy_with(backend, 1.7, &x, &mut y1);
            vector::axpy(1.7, &x, &mut y2);
            assert_eq!(bits(&y1), bits(&y2), "{backend} axpy");

            scale_with(backend, &mut y1, 0.3);
            vector::scale(&mut y2, 0.3);
            assert_eq!(bits(&y1), bits(&y2), "{backend} scale");

            fused_axpy_scale_with(backend, &mut y1, 5.0, &x, 0.2);
            vector::fused_axpy_scale(&mut y2, 5.0, &x, 0.2);
            assert_eq!(bits(&y1), bits(&y2), "{backend} fused_axpy_scale");
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn host_features_include_the_active_backend_requirements() {
        let features = host_features();
        if Backend::Avx2.is_supported() {
            assert!(features.iter().any(|&(name, on)| name == "avx2" && on));
        }
        if Backend::Neon.is_supported() {
            assert!(features.iter().any(|&(name, on)| name == "neon" && on));
        }
    }
}
