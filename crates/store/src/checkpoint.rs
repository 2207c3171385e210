//! The `.actk` training-checkpoint on-disk format (version 1).
//!
//! Serialises [`advsgm_core::CheckpointState`] — the session layer's
//! complete mid-schedule state (DESIGN.md §10) — so an interrupted
//! training run can resume **bitwise-identically** to an uninterrupted
//! one. Byte-level specification lives in `docs/FORMAT.md` (the
//! checkpoint section); this module is the reference implementation and
//! follows the same append-only compatibility policy as `.aemb`.
//!
//! Like the embedding store, every float travels as raw IEEE-754 bits
//! (persistence must not perturb state the resume contract depends on),
//! the whole file is covered by a CRC-32 trailer, and every corruption
//! mode is a typed [`StoreError`], never a panic.
//!
//! Unlike `.aemb`, a checkpoint is **not a release artifact**: it carries
//! curator-side training state (RNG stream positions, the edge sampler's
//! permutation) and must stay under the same trust boundary as the
//! training process itself (DESIGN.md §10 has the release-boundary
//! argument).

use std::path::Path;

use advsgm_core::session::CheckpointState;
use advsgm_core::{AdvSgmConfig, EngineKind};
use advsgm_graph::sampling::negative::NegativeDistribution;
use advsgm_linalg::DenseMatrix;
use advsgm_privacy::AccountantState;

use crate::error::StoreError;
use crate::format::crc32;
use crate::meta::{variant_code, variant_from_code};

/// The four magic bytes every `.actk` checkpoint starts with.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"ACKP";

/// The checkpoint format version this build writes and the highest it
/// reads.
pub const CHECKPOINT_VERSION: u16 = 1;

/// Fixed header length in bytes (everything before the variable-length
/// sections).
pub const CHECKPOINT_HEADER_LEN: usize = 192;

/// Flag bit: an accountant-state section is present (private variants).
const FLAG_ACCOUNTANT: u16 = 1 << 0;
/// Every flag bit version 1 defines; the rest must read as zero.
const KNOWN_FLAGS: u16 = FLAG_ACCOUNTANT;

/// Wire code for the engine kind (append-only, like variant codes).
fn engine_code(kind: EngineKind) -> u8 {
    match kind {
        EngineKind::Sequential => 0,
        EngineKind::Sharded => 1,
        EngineKind::Partitioned => 2,
    }
}

/// Inverse of [`engine_code`]; unknown codes are a corruption error.
fn engine_from_code(code: u8) -> Result<EngineKind, StoreError> {
    Ok(match code {
        0 => EngineKind::Sequential,
        1 => EngineKind::Sharded,
        2 => EngineKind::Partitioned,
        other => {
            return Err(StoreError::Corrupted {
                reason: format!("unknown engine code {other}"),
            })
        }
    })
}

/// Wire code for the negative-sampling distribution (append-only).
fn distribution_code(d: NegativeDistribution) -> u8 {
    match d {
        NegativeDistribution::Uniform => 0,
        NegativeDistribution::Unigram34 => 1,
    }
}

/// Inverse of [`distribution_code`].
fn distribution_from_code(code: u8) -> Result<NegativeDistribution, StoreError> {
    Ok(match code {
        0 => NegativeDistribution::Uniform,
        1 => NegativeDistribution::Unigram34,
        other => {
            return Err(StoreError::Corrupted {
                reason: format!("unknown negative-distribution code {other}"),
            })
        }
    })
}

/// Serialises a checkpoint to the version-1 wire format.
///
/// # Errors
/// [`StoreError::LimitExceeded`] if the embedding dimension overflows the
/// header's u32 field — writing would silently truncate and the file
/// would round-trip to a different state (`docs/FORMAT.md`, "Format
/// limits").
pub fn encode_checkpoint(state: &CheckpointState) -> Result<Vec<u8>, StoreError> {
    let cfg = &state.config;
    let n = state.graph_nodes as usize;
    let r = cfg.dim;
    if r as u64 > u32::MAX as u64 {
        return Err(StoreError::LimitExceeded {
            what: "embedding dimension",
            value: r as u64,
            max: u32::MAX as u64,
        });
    }
    let mut flags = 0u16;
    if state.accountant.is_some() {
        flags |= FLAG_ACCOUNTANT;
    }

    let mut out = Vec::with_capacity(
        CHECKPOINT_HEADER_LEN
            + 8 * state.epoch_losses.len()
            + 4 * 8 * n * r
            + 16 * 8
            + 32 * state.rng_streams.len()
            + 4 * state.edge_permutation.len()
            + 64,
    );
    out.extend_from_slice(&CHECKPOINT_MAGIC);
    out.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
    out.extend_from_slice(&flags.to_le_bytes());
    out.push(engine_code(state.engine));
    out.push(variant_code(cfg.variant));
    out.push(distribution_code(cfg.negative_distribution));
    out.push(u8::from(cfg.project_rows) | (u8::from(cfg.faithful_noise) << 1));
    out.extend_from_slice(&(r as u32).to_le_bytes());
    for v in [
        cfg.negatives as u64,
        cfg.batch_size as u64,
        cfg.epochs as u64,
        cfg.disc_iters as u64,
        cfg.gen_iters as u64,
        cfg.num_threads as u64,
        cfg.shard_size as u64,
        cfg.seed,
    ] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    for v in [
        cfg.eta_d,
        cfg.eta_g,
        cfg.clip,
        cfg.sigma,
        cfg.epsilon,
        cfg.delta,
        cfg.sigmoid_a,
        cfg.sigmoid_b,
    ] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    for v in [
        state.graph_nodes,
        state.graph_edges,
        state.graph_fingerprint,
        state.epochs_done,
        state.disc_updates,
        state.gen_updates,
    ] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    debug_assert_eq!(out.len(), CHECKPOINT_HEADER_LEN);

    out.extend_from_slice(&(state.epoch_losses.len() as u64).to_le_bytes());
    for &l in &state.epoch_losses {
        out.extend_from_slice(&l.to_le_bytes());
    }
    for m in [
        &state.w_in,
        &state.w_out,
        &state.gen_for_i,
        &state.gen_for_j,
    ] {
        for &v in m.as_slice() {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    if let Some(acc) = &state.accountant {
        out.extend_from_slice(&acc.steps.to_le_bytes());
        out.extend_from_slice(&(acc.alphas.len() as u64).to_le_bytes());
        for &a in &acc.alphas {
            out.extend_from_slice(&(a as u64).to_le_bytes());
        }
        for &t in &acc.totals {
            out.extend_from_slice(&t.to_le_bytes());
        }
    }
    out.extend_from_slice(&(state.rng_streams.len() as u64).to_le_bytes());
    for s in &state.rng_streams {
        for &w in s {
            out.extend_from_slice(&w.to_le_bytes());
        }
    }
    out.extend_from_slice(&(state.edge_permutation.len() as u64).to_le_bytes());
    for &p in &state.edge_permutation {
        out.extend_from_slice(&p.to_le_bytes());
    }

    let checksum = crc32(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    Ok(out)
}

/// A bounds-checked little-endian reader over the checkpoint body.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// End of the body (exclusive) — the CRC trailer starts here.
    end: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, len: usize) -> Result<&'a [u8], StoreError> {
        if self.pos + len > self.end {
            return Err(StoreError::Truncated {
                expected: (self.pos + len + 4) as u64,
                found: self.bytes.len() as u64,
            });
        }
        let s = &self.bytes[self.pos..self.pos + len];
        self.pos += len;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, StoreError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }

    fn u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn f64(&mut self) -> Result<f64, StoreError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Reads a declared element count and sanity-bounds it against the
    /// bytes actually remaining, so a hostile length cannot trigger a
    /// huge allocation before the bounds check.
    fn count(&mut self, elem_size: usize) -> Result<usize, StoreError> {
        let n = self.u64()?;
        let remaining = (self.end - self.pos) as u64;
        if n.saturating_mul(elem_size as u64) > remaining {
            return Err(StoreError::Truncated {
                expected: (self.pos as u64)
                    .saturating_add(n.saturating_mul(elem_size as u64))
                    .saturating_add(4),
                found: self.bytes.len() as u64,
            });
        }
        Ok(n as usize)
    }

    fn f64_vec(&mut self, n: usize) -> Result<Vec<f64>, StoreError> {
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(self.f64()?);
        }
        Ok(v)
    }

    fn matrix(&mut self, rows: usize, cols: usize) -> Result<DenseMatrix, StoreError> {
        let data = self.f64_vec(rows * cols)?;
        DenseMatrix::from_vec(rows, cols, data).map_err(|e| StoreError::Corrupted {
            reason: format!("matrix shape: {e}"),
        })
    }
}

/// Parses the version-1 wire format back into a [`CheckpointState`],
/// verifying magic, version, structural lengths, and the CRC-32 trailer.
/// Semantic validation against a graph/configuration happens at resume
/// time in `advsgm-core`.
pub fn decode_checkpoint(bytes: &[u8]) -> Result<CheckpointState, StoreError> {
    if bytes.len() < 4 || bytes[0..4] != CHECKPOINT_MAGIC {
        let mut found = [0u8; 4];
        let take = bytes.len().min(4);
        found[..take].copy_from_slice(&bytes[..take]);
        return Err(StoreError::BadMagic { found });
    }
    if bytes.len() < 8 {
        return Err(StoreError::Truncated {
            expected: (CHECKPOINT_HEADER_LEN + 12) as u64,
            found: bytes.len() as u64,
        });
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version == 0 || version > CHECKPOINT_VERSION {
        return Err(StoreError::UnsupportedVersion {
            found: version,
            supported: CHECKPOINT_VERSION,
        });
    }
    if bytes.len() < CHECKPOINT_HEADER_LEN + 12 {
        return Err(StoreError::Truncated {
            expected: (CHECKPOINT_HEADER_LEN + 12) as u64,
            found: bytes.len() as u64,
        });
    }

    // Integrity first: the header is fixed-length, but the sections are
    // self-describing, so verify every byte before trusting any length.
    let body = &bytes[..bytes.len() - 4];
    let stored = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().expect("4 bytes"));
    let computed = crc32(body);
    if stored != computed {
        return Err(StoreError::ChecksumMismatch { stored, computed });
    }

    let mut c = Cursor {
        bytes,
        pos: 6,
        end: bytes.len() - 4,
    };
    let flags = c.u16()?;
    if flags & !KNOWN_FLAGS != 0 {
        return Err(StoreError::Corrupted {
            reason: format!("unknown flag bits {:#06x}", flags & !KNOWN_FLAGS),
        });
    }
    let engine = engine_from_code(c.u8()?)?;
    let variant = variant_from_code(c.u8()?)?;
    let negative_distribution = distribution_from_code(c.u8()?)?;
    let bools = c.u8()?;
    if bools & !0b11 != 0 {
        return Err(StoreError::Corrupted {
            reason: format!("unknown bool bits {:#04x}", bools & !0b11),
        });
    }
    let dim = c.u32()? as usize;
    if dim == 0 {
        return Err(StoreError::Corrupted {
            reason: "embedding dimension is zero".into(),
        });
    }
    let negatives = c.u64()? as usize;
    let batch_size = c.u64()? as usize;
    let epochs = c.u64()? as usize;
    let disc_iters = c.u64()? as usize;
    let gen_iters = c.u64()? as usize;
    let num_threads = c.u64()? as usize;
    let shard_size = c.u64()? as usize;
    let seed = c.u64()?;
    let eta_d = c.f64()?;
    let eta_g = c.f64()?;
    let clip = c.f64()?;
    let sigma = c.f64()?;
    let epsilon = c.f64()?;
    let delta = c.f64()?;
    let sigmoid_a = c.f64()?;
    let sigmoid_b = c.f64()?;
    let graph_nodes = c.u64()?;
    let graph_edges = c.u64()?;
    let graph_fingerprint = c.u64()?;
    let epochs_done = c.u64()?;
    let disc_updates = c.u64()?;
    let gen_updates = c.u64()?;
    debug_assert_eq!(c.pos, CHECKPOINT_HEADER_LEN);

    let n_losses = c.count(8)?;
    let epoch_losses = c.f64_vec(n_losses)?;

    let n = graph_nodes as usize;
    // Guard the four-matrix payload size before allocating.
    let payload = (n as u128) * (dim as u128) * 8 * 4;
    if (c.pos as u128) + payload > c.end as u128 {
        return Err(StoreError::Truncated {
            expected: (c.pos as u128 + payload + 4).min(u64::MAX as u128) as u64,
            found: bytes.len() as u64,
        });
    }
    let w_in = c.matrix(n, dim)?;
    let w_out = c.matrix(n, dim)?;
    let gen_for_i = c.matrix(n, dim)?;
    let gen_for_j = c.matrix(n, dim)?;

    let accountant = if flags & FLAG_ACCOUNTANT != 0 {
        let steps = c.u64()?;
        let grid = c.count(16)?; // each order costs 8 (alpha) + 8 (total)
        let mut alphas = Vec::with_capacity(grid);
        for _ in 0..grid {
            alphas.push(c.u64()? as usize);
        }
        let totals = c.f64_vec(grid)?;
        Some(AccountantState {
            steps,
            alphas,
            totals,
        })
    } else {
        None
    };

    let n_streams = c.count(32)?;
    let mut rng_streams = Vec::with_capacity(n_streams);
    for _ in 0..n_streams {
        let mut s = [0u64; 4];
        for w in &mut s {
            *w = c.u64()?;
        }
        rng_streams.push(s);
    }

    let n_perm = c.count(4)?;
    let mut edge_permutation = Vec::with_capacity(n_perm);
    for _ in 0..n_perm {
        edge_permutation.push(c.u32()?);
    }

    if c.pos != c.end {
        return Err(StoreError::Corrupted {
            reason: format!("{} trailing bytes after the checkpoint body", c.end - c.pos),
        });
    }

    Ok(CheckpointState {
        config: AdvSgmConfig {
            variant,
            dim,
            negatives,
            batch_size,
            epochs,
            disc_iters,
            gen_iters,
            eta_d,
            eta_g,
            clip,
            sigma,
            epsilon,
            delta,
            sigmoid_a,
            sigmoid_b,
            negative_distribution,
            project_rows: bools & 0b01 != 0,
            faithful_noise: bools & 0b10 != 0,
            num_threads,
            shard_size,
            seed,
        },
        graph_nodes,
        graph_edges,
        graph_fingerprint,
        epochs_done,
        disc_updates,
        gen_updates,
        epoch_losses,
        w_in,
        w_out,
        gen_for_i,
        gen_for_j,
        accountant,
        engine,
        rng_streams,
        edge_permutation,
    })
}

/// Writes a checkpoint to `path` crash-safely: the bytes land in a
/// sibling temporary file, are **fsynced to stable storage**, and only
/// then renamed into place (with the containing directory synced after
/// the rename where the platform allows), so an interrupt or power loss
/// mid-write can never destroy the previous good checkpoint.
///
/// # Errors
/// I/O failures as [`StoreError::Io`]; [`StoreError::LimitExceeded`] from
/// [`encode_checkpoint`] before anything is written.
pub fn save_checkpoint(path: impl AsRef<Path>, state: &CheckpointState) -> Result<(), StoreError> {
    use std::io::Write;

    let path = path.as_ref();
    let bytes = encode_checkpoint(state)?;
    let tmp = path.with_extension("actk.tmp");
    let mut file = std::fs::File::create(&tmp)?;
    file.write_all(&bytes)?;
    // Without this, journaling filesystems may commit the rename before
    // the data pages, leaving a zero-length file where the previous good
    // checkpoint used to be.
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, path)?;
    // Persist the rename itself. Directories cannot be fsynced on every
    // platform (e.g. Windows); failing to sync the directory weakens the
    // guarantee only to "ordinary rename atomicity", so it is not fatal.
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Reads and fully validates a checkpoint file written by
/// [`save_checkpoint`].
///
/// # Errors
/// I/O failures plus every decode error of [`decode_checkpoint`].
pub fn load_checkpoint(path: impl AsRef<Path>) -> Result<CheckpointState, StoreError> {
    let bytes = std::fs::read(path.as_ref())?;
    decode_checkpoint(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use advsgm_core::session::{CheckpointState as State, EpochEvent, SessionControl, TrainHooks};
    use advsgm_core::{ModelVariant, Trainer};
    use advsgm_graph::generators::classic::karate_club;

    /// Captures a real mid-training checkpoint through the hook seam.
    struct Capture(Option<State>);

    impl TrainHooks for Capture {
        fn on_epoch(&mut self, _e: &EpochEvent) -> SessionControl {
            SessionControl::Continue
        }
        fn wants_checkpoint(&mut self, done: usize) -> bool {
            done == 1
        }
        fn on_checkpoint(&mut self, s: &State) -> SessionControl {
            self.0 = Some(s.clone());
            SessionControl::Continue
        }
    }

    fn sample_state() -> State {
        let g = karate_club();
        let cfg = AdvSgmConfig::test_small(ModelVariant::AdvSgm);
        let mut cap = Capture(None);
        Trainer::new(&g, cfg)
            .unwrap()
            .train_with_hooks(&g, &mut cap)
            .unwrap();
        cap.0.expect("checkpoint captured")
    }

    fn assert_states_bitwise_equal(a: &State, b: &State) {
        assert_eq!(a.config, b.config);
        assert_eq!(a.graph_fingerprint, b.graph_fingerprint);
        assert_eq!(a.epochs_done, b.epochs_done);
        assert_eq!(a.disc_updates, b.disc_updates);
        assert_eq!(a.gen_updates, b.gen_updates);
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.epoch_losses), bits(&b.epoch_losses));
        assert_eq!(bits(a.w_in.as_slice()), bits(b.w_in.as_slice()));
        assert_eq!(bits(a.w_out.as_slice()), bits(b.w_out.as_slice()));
        assert_eq!(bits(a.gen_for_i.as_slice()), bits(b.gen_for_i.as_slice()));
        assert_eq!(bits(a.gen_for_j.as_slice()), bits(b.gen_for_j.as_slice()));
        let (aa, ba) = (
            a.accountant.as_ref().unwrap(),
            b.accountant.as_ref().unwrap(),
        );
        assert_eq!(aa.steps, ba.steps);
        assert_eq!(aa.alphas, ba.alphas);
        assert_eq!(bits(&aa.totals), bits(&ba.totals));
        assert_eq!(a.engine, b.engine);
        assert_eq!(a.rng_streams, b.rng_streams);
        assert_eq!(a.edge_permutation, b.edge_permutation);
    }

    #[test]
    fn roundtrip_is_bitwise_exact() {
        let state = sample_state();
        let back = decode_checkpoint(&encode_checkpoint(&state).unwrap()).unwrap();
        assert_states_bitwise_equal(&state, &back);
    }

    #[test]
    fn file_roundtrip_via_save_load() {
        let state = sample_state();
        let dir = std::env::temp_dir().join("advsgm_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("unit.actk");
        save_checkpoint(&path, &state).unwrap();
        let back = load_checkpoint(&path).unwrap();
        assert_states_bitwise_equal(&state, &back);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bad_magic_is_typed() {
        let err = decode_checkpoint(b"AEMBnotacheckpoint").unwrap_err();
        assert!(matches!(err, StoreError::BadMagic { .. }), "{err}");
    }

    #[test]
    fn future_version_is_rejected() {
        let mut bytes = encode_checkpoint(&sample_state()).unwrap();
        bytes[4..6].copy_from_slice(&9u16.to_le_bytes());
        let err = decode_checkpoint(&bytes).unwrap_err();
        assert!(
            matches!(err, StoreError::UnsupportedVersion { found: 9, .. }),
            "{err}"
        );
    }

    #[test]
    fn truncation_is_typed_at_every_cut() {
        let bytes = encode_checkpoint(&sample_state()).unwrap();
        for cut in [3usize, 7, 100, CHECKPOINT_HEADER_LEN + 5, bytes.len() - 1] {
            let err = decode_checkpoint(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    StoreError::Truncated { .. }
                        | StoreError::BadMagic { .. }
                        | StoreError::ChecksumMismatch { .. }
                ),
                "cut={cut}: {err}"
            );
        }
    }

    #[test]
    fn flipped_byte_fails_checksum() {
        let mut bytes = encode_checkpoint(&sample_state()).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        let err = decode_checkpoint(&bytes).unwrap_err();
        assert!(matches!(err, StoreError::ChecksumMismatch { .. }), "{err}");
    }

    #[test]
    fn trailing_bytes_are_corruption() {
        let mut bytes = encode_checkpoint(&sample_state()).unwrap();
        // Valid CRC over an extended body: recompute after appending.
        bytes.truncate(bytes.len() - 4);
        bytes.extend_from_slice(&[0u8; 8]);
        let sum = crc32(&bytes);
        bytes.extend_from_slice(&sum.to_le_bytes());
        let err = decode_checkpoint(&bytes).unwrap_err();
        assert!(matches!(err, StoreError::Corrupted { .. }), "{err}");
    }

    #[test]
    fn unknown_codes_are_corruption() {
        let state = sample_state();
        for (offset, label) in [(8usize, "engine"), (10, "distribution")] {
            let mut bytes = encode_checkpoint(&state).unwrap();
            bytes[offset] = 200;
            let sum = crc32(&bytes[..bytes.len() - 4]);
            let end = bytes.len();
            bytes[end - 4..].copy_from_slice(&sum.to_le_bytes());
            let err = decode_checkpoint(&bytes).unwrap_err();
            assert!(
                matches!(err, StoreError::Corrupted { .. }),
                "{label}: {err}"
            );
        }
        // The variant byte (offset 9) has its own typed error carrying the
        // unrecognised code, so a reader older than the writer can say so.
        let mut bytes = encode_checkpoint(&state).unwrap();
        bytes[9] = 200;
        let sum = crc32(&bytes[..bytes.len() - 4]);
        let end = bytes.len();
        bytes[end - 4..].copy_from_slice(&sum.to_le_bytes());
        let err = decode_checkpoint(&bytes).unwrap_err();
        assert!(
            matches!(err, StoreError::UnknownVariantCode { code: 200 }),
            "variant: {err}"
        );
    }

    #[test]
    fn hostile_length_cannot_balloon_allocation() {
        // Declare u64::MAX epoch losses; the reader must reject before
        // allocating anything of that order.
        let mut bytes = encode_checkpoint(&sample_state()).unwrap();
        bytes[CHECKPOINT_HEADER_LEN..CHECKPOINT_HEADER_LEN + 8]
            .copy_from_slice(&u64::MAX.to_le_bytes());
        let sum = crc32(&bytes[..bytes.len() - 4]);
        let end = bytes.len();
        bytes[end - 4..].copy_from_slice(&sum.to_le_bytes());
        let err = decode_checkpoint(&bytes).unwrap_err();
        assert!(matches!(err, StoreError::Truncated { .. }), "{err}");
    }

    #[test]
    fn engine_codes_roundtrip() {
        for k in [
            EngineKind::Sequential,
            EngineKind::Sharded,
            EngineKind::Partitioned,
        ] {
            assert_eq!(engine_from_code(engine_code(k)).unwrap(), k);
        }
        assert!(engine_from_code(7).is_err());
    }
}
