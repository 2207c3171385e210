//! The `.aemb` binary on-disk format (version 1).
//!
//! Byte-level specification lives in `docs/FORMAT.md`; this module is the
//! reference implementation. Summary (all integers and floats
//! little-endian):
//!
//! ```text
//! offset  size      field
//! 0       4         magic  b"AEMB"
//! 4       2         format version u16 (currently 1)
//! 6       2         flags u16: bit0 epsilon, bit1 delta, bit2 sigma
//!                   present; all other bits must be zero
//! 8       4         embedding dimension r (u32, > 0)
//! 12      8         node count n (u64)
//! 20      1         model-variant code (crate::meta::variant_code)
//! 21      3         reserved, must be zero
//! 24      8         epsilon (f64 bits; zero when flag clear)
//! 32      8         delta   (f64 bits; zero when flag clear)
//! 40      8         sigma   (f64 bits; zero when flag clear)
//! 48      8*n       node-id table: row -> external node id (u64 each)
//! 48+8n   8*n*r     embedding payload, row-major f64 bits
//! end-4   4         CRC-32 (IEEE 802.3) of every preceding byte
//! ```
//!
//! Floats are serialised as raw IEEE-754 bit patterns
//! (`f64::to_le_bytes`), so save → load is **bitwise-exact** for every
//! representable value — the released matrix *is* the privatized artifact
//! and must not be perturbed by persistence.

use crate::codec::{check_len, check_prologue, check_seal, seal, Reader};
use crate::error::StoreError;
use crate::meta::{variant_code, variant_from_code, PrivacyMeta};
use crate::store::EmbeddingStore;

/// CRC-32 (IEEE 802.3), the checksum all four formats store; see
/// `docs/FORMAT.md`, "Checksum trailer".
pub use crate::codec::crc32;

/// The four magic bytes every `.aemb` file starts with.
pub const MAGIC: [u8; 4] = *b"AEMB";

/// The format version this build writes and the highest it reads.
pub const FORMAT_VERSION: u16 = 1;

/// Fixed header length in bytes (everything before the node-id table).
pub const HEADER_LEN: usize = 48;

/// Flag bit: the epsilon field carries a value.
const FLAG_EPSILON: u16 = 1 << 0;
/// Flag bit: the delta field carries a value.
const FLAG_DELTA: u16 = 1 << 1;
/// Flag bit: the sigma field carries a value.
const FLAG_SIGMA: u16 = 1 << 2;
/// Every flag bit version 1 defines; the rest must read as zero.
const KNOWN_FLAGS: u16 = FLAG_EPSILON | FLAG_DELTA | FLAG_SIGMA;

/// Serialises a store to the version-1 wire format.
pub(crate) fn encode(store: &EmbeddingStore) -> Vec<u8> {
    let n = store.len();
    let dim = store.dim();
    let meta = store.meta();
    let mut flags = 0u16;
    if meta.epsilon.is_some() {
        flags |= FLAG_EPSILON;
    }
    if meta.delta.is_some() {
        flags |= FLAG_DELTA;
    }
    if meta.sigma.is_some() {
        flags |= FLAG_SIGMA;
    }

    let total = HEADER_LEN + 8 * n + 8 * n * dim + 4;
    let mut out = Vec::with_capacity(total);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&flags.to_le_bytes());
    out.extend_from_slice(&(dim as u32).to_le_bytes());
    out.extend_from_slice(&(n as u64).to_le_bytes());
    out.push(variant_code(meta.variant));
    out.extend_from_slice(&[0u8; 3]);
    out.extend_from_slice(&meta.epsilon.unwrap_or(0.0).to_le_bytes());
    out.extend_from_slice(&meta.delta.unwrap_or(0.0).to_le_bytes());
    out.extend_from_slice(&meta.sigma.unwrap_or(0.0).to_le_bytes());
    debug_assert_eq!(out.len(), HEADER_LEN);
    for &id in store.node_ids() {
        out.extend_from_slice(&id.to_le_bytes());
    }
    // Node order, whatever order the store holds its rows in.
    for u in 0..n {
        for &v in store.row(u) {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    seal(&mut out);
    out
}

/// Parses the version-1 wire format back into a store, verifying magic,
/// version, structural lengths, and the CRC-32 trailer.
pub(crate) fn decode(bytes: &[u8]) -> Result<EmbeddingStore, StoreError> {
    check_prologue(bytes, MAGIC, FORMAT_VERSION, HEADER_LEN + 4, HEADER_LEN + 4)?;

    // Structural length checks next, then field validation, then the CRC
    // — the exact order FORMAT.md's "reader obligations" specifies, so an
    // independent reader built from that page produces the same typed
    // error as this one for any given file.
    let mut r = Reader::new(bytes, 6, HEADER_LEN);
    let flags = r.u16()?;
    let dim = r.u32()? as usize;
    let n = r.u64()?;
    let code = r.u8()?;
    let reserved = r.take(3)?;
    let [epsilon, delta, sigma] = [r.f64()?, r.f64()?, r.f64()?];

    let expected = HEADER_LEN as u128 + 8 * n as u128 + 8 * n as u128 * dim as u128 + 4;
    check_len(bytes.len(), expected, "the checksum")?;
    let n = n as usize;

    if flags & !KNOWN_FLAGS != 0 {
        return Err(StoreError::Corrupted {
            reason: format!("unknown flag bits {:#06x}", flags & !KNOWN_FLAGS),
        });
    }
    // Privacy fields travel as a unit: a release either carries the full
    // (epsilon, delta, sigma) stamp or none of it (FORMAT.md, flags).
    let privacy_bits = flags & KNOWN_FLAGS;
    if privacy_bits != 0 && privacy_bits != KNOWN_FLAGS {
        return Err(StoreError::Corrupted {
            reason: format!(
                "partial privacy metadata (flags {privacy_bits:#05b}): \
                 epsilon/delta/sigma must be all present or all absent"
            ),
        });
    }
    if dim == 0 {
        return Err(StoreError::Corrupted {
            reason: "embedding dimension is zero".into(),
        });
    }
    if reserved != [0; 3] {
        return Err(StoreError::Corrupted {
            reason: "reserved header bytes are non-zero".into(),
        });
    }
    let variant = variant_from_code(code)?;

    // Structure checks out; now verify integrity of every byte.
    check_seal(bytes)?;

    let meta = PrivacyMeta {
        variant,
        epsilon: (flags & FLAG_EPSILON != 0).then_some(epsilon),
        delta: (flags & FLAG_DELTA != 0).then_some(delta),
        sigma: (flags & FLAG_SIGMA != 0).then_some(sigma),
    };
    let mut r = Reader::new(bytes, HEADER_LEN, bytes.len() - 4);
    let node_ids = r.u64s(n)?;
    let vectors = r.matrix(n, dim)?;
    EmbeddingStore::with_node_ids(vectors, node_ids, meta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use advsgm_core::ModelVariant;
    use advsgm_linalg::DenseMatrix;

    /// Reads a little-endian `u64` at `offset`.
    fn read_u64(bytes: &[u8], offset: usize) -> u64 {
        u64::from_le_bytes(bytes[offset..offset + 8].try_into().expect("8 bytes"))
    }

    fn sample_store() -> EmbeddingStore {
        let m = DenseMatrix::from_fn(5, 3, |i, j| (i as f64 + 1.0) * 0.5 - j as f64 * 0.25);
        EmbeddingStore::new(
            m,
            PrivacyMeta::private(ModelVariant::AdvSgm, 5.5, 1e-5, 5.0),
        )
        .unwrap()
    }

    #[test]
    fn encode_layout_is_stable() {
        let bytes = encode(&sample_store());
        assert_eq!(&bytes[0..4], b"AEMB");
        assert_eq!(u16::from_le_bytes([bytes[4], bytes[5]]), FORMAT_VERSION);
        // All three privacy fields present.
        assert_eq!(u16::from_le_bytes([bytes[6], bytes[7]]), 0b111);
        assert_eq!(u32::from_le_bytes(bytes[8..12].try_into().unwrap()), 3);
        assert_eq!(read_u64(&bytes, 12), 5);
        assert_eq!(bytes[20], 3); // AdvSgm
        assert_eq!(bytes.len(), HEADER_LEN + 8 * 5 + 8 * 5 * 3 + 4);
    }

    #[test]
    fn roundtrip_is_bitwise_exact() {
        let store = sample_store();
        let back = decode(&encode(&store)).unwrap();
        assert_eq!(back.meta(), store.meta());
        assert_eq!(back.node_ids(), store.node_ids());
        let a: Vec<u64> = store
            .storage()
            .as_slice()
            .iter()
            .map(|x| x.to_bits())
            .collect();
        let b: Vec<u64> = back
            .storage()
            .as_slice()
            .iter()
            .map(|x| x.to_bits())
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn roundtrip_preserves_nonfinite_bit_patterns() {
        // The format stores raw bits: NaN payloads and infinities survive.
        let mut m = DenseMatrix::zeros(2, 2);
        m.set(0, 0, f64::NAN);
        m.set(0, 1, f64::INFINITY);
        m.set(1, 0, f64::NEG_INFINITY);
        m.set(1, 1, -0.0);
        let store = EmbeddingStore::new(m, PrivacyMeta::non_private(ModelVariant::Sgm)).unwrap();
        let back = decode(&encode(&store)).unwrap();
        for (a, b) in store
            .storage()
            .as_slice()
            .iter()
            .zip(back.storage().as_slice())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn empty_store_roundtrips() {
        let store = EmbeddingStore::new(
            DenseMatrix::zeros(0, 4),
            PrivacyMeta::non_private(ModelVariant::Sgm),
        )
        .unwrap();
        let back = decode(&encode(&store)).unwrap();
        assert_eq!(back.len(), 0);
        assert_eq!(back.dim(), 4);
    }

    #[test]
    fn bad_magic_is_typed() {
        let err = decode(b"PK\x03\x04junkjunkjunk").unwrap_err();
        assert!(matches!(err, StoreError::BadMagic { .. }), "{err}");
        let err = decode(b"AE").unwrap_err();
        assert!(matches!(err, StoreError::BadMagic { .. }), "{err}");
    }

    #[test]
    fn future_version_is_rejected() {
        let mut bytes = encode(&sample_store());
        bytes[4..6].copy_from_slice(&99u16.to_le_bytes());
        let err = decode(&bytes).unwrap_err();
        assert!(
            matches!(err, StoreError::UnsupportedVersion { found: 99, .. }),
            "{err}"
        );
    }

    #[test]
    fn truncation_is_typed_at_every_length() {
        let bytes = encode(&sample_store());
        // Cut at representative points: inside the header, the id table,
        // the payload, and the checksum.
        for cut in [
            5usize,
            30,
            HEADER_LEN + 3,
            bytes.len() - 10,
            bytes.len() - 1,
        ] {
            let err = decode(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    StoreError::Truncated { .. } | StoreError::BadMagic { .. }
                ),
                "cut={cut}: {err}"
            );
        }
    }

    #[test]
    fn flipped_payload_byte_fails_checksum() {
        let mut bytes = encode(&sample_store());
        let i = HEADER_LEN + 8 * 5 + 11; // somewhere in the payload
        bytes[i] ^= 0x40;
        let err = decode(&bytes).unwrap_err();
        assert!(matches!(err, StoreError::ChecksumMismatch { .. }), "{err}");
    }

    #[test]
    fn trailing_garbage_is_corruption() {
        let mut bytes = encode(&sample_store());
        bytes.extend_from_slice(b"extra");
        let err = decode(&bytes).unwrap_err();
        assert!(matches!(err, StoreError::Corrupted { .. }), "{err}");
    }

    #[test]
    fn unknown_flags_and_variant_are_corruption() {
        let store = sample_store();
        let mut bytes = encode(&store);
        bytes[7] = 0x80; // undefined high flag bit
        let sum = crc32(&bytes[..bytes.len() - 4]);
        let end = bytes.len();
        bytes[end - 4..].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            decode(&bytes).unwrap_err(),
            StoreError::Corrupted { .. }
        ));

        let mut bytes = encode(&store);
        bytes[20] = 200; // unknown variant code -> typed error with the code
        let sum = crc32(&bytes[..bytes.len() - 4]);
        let end = bytes.len();
        bytes[end - 4..].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            decode(&bytes).unwrap_err(),
            StoreError::UnknownVariantCode { code: 200 }
        ));
    }

    #[test]
    fn partial_privacy_flags_are_corruption() {
        // epsilon present without delta/sigma: the stamp travels as a
        // unit, so a hand-made partial release must be rejected even with
        // a valid checksum.
        let mut bytes = encode(&sample_store());
        bytes[6] = 0b001;
        let sum = crc32(&bytes[..bytes.len() - 4]);
        let end = bytes.len();
        bytes[end - 4..].copy_from_slice(&sum.to_le_bytes());
        let err = decode(&bytes).unwrap_err();
        assert!(matches!(err, StoreError::Corrupted { .. }), "{err}");
        assert!(err.to_string().contains("partial privacy"), "{err}");
    }

    #[test]
    fn zero_dim_is_corruption() {
        let mut bytes = encode(&sample_store());
        bytes[8..12].copy_from_slice(&0u32.to_le_bytes());
        let sum = crc32(&bytes[..bytes.len() - 4]);
        let end = bytes.len();
        bytes[end - 4..].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            decode(&bytes).unwrap_err(),
            StoreError::Corrupted { .. }
        ));
    }

    #[test]
    fn absurd_node_count_reports_truncation_not_overflow() {
        let mut bytes = encode(&sample_store());
        bytes[12..20].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = decode(&bytes).unwrap_err();
        assert!(matches!(err, StoreError::Truncated { .. }), "{err}");
    }
}
