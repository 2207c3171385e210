//! Error type for embedding persistence and serving.
//!
//! Every failure mode of the four readers (`.aemb`, `.aidx`, `.actk`,
//! `.agph`) is a distinct variant — a corrupted or truncated file must
//! surface as a typed, matchable error, never a panic, because these
//! files cross process and machine boundaries and the readers cannot
//! trust them.

use std::fmt;

/// Errors produced while building, saving, loading, or querying an
/// embedding store.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying I/O failure (file system, permissions, ...).
    Io(std::io::Error),
    /// The file does not start with the magic of the format being read
    /// (`AEMB` for embedding stores, `AIDX` for ANN indexes, `ACKP` for
    /// training checkpoints, `AGPH` for partitioned graphs) — not a file
    /// of that format at all.
    BadMagic {
        /// The four bytes actually found.
        found: [u8; 4],
        /// The magic of the format the reader expected.
        expected: [u8; 4],
    },
    /// The file's format version is newer than this reader understands
    /// (all four formats are strictly versioned; see `docs/FORMAT.md`).
    UnsupportedVersion {
        /// Version stamped in the file.
        found: u16,
        /// Highest version this reader supports.
        supported: u16,
    },
    /// The file ends before the length implied by its own header.
    Truncated {
        /// Bytes the header says the file must contain.
        expected: u64,
        /// Bytes actually present.
        found: u64,
    },
    /// The stored CRC-32 does not match the recomputed one: the bytes
    /// were altered after writing.
    ChecksumMismatch {
        /// Checksum stored in the file's trailer.
        stored: u32,
        /// Checksum recomputed over the file's contents.
        computed: u32,
    },
    /// A structural inconsistency other than truncation or a checksum
    /// failure (unknown flags, trailing bytes, ...).
    Corrupted {
        /// What was wrong.
        reason: String,
    },
    /// The file stamps a model-variant wire code this reader's registry
    /// ([`advsgm_core::ModelVariant::from_wire_code`]) does not know —
    /// either corruption or a file written by a newer release (codes are
    /// append-only, so the raw code is preserved for diagnostics).
    UnknownVariantCode {
        /// The unrecognised code byte.
        code: u8,
    },
    /// A query referenced a node row the store does not hold.
    NodeOutOfRange {
        /// The offending row index.
        node: usize,
        /// Number of rows in the store.
        num_nodes: usize,
    },
    /// A count exceeds what the on-disk format can represent; writing
    /// would silently truncate it (`docs/FORMAT.md`, "Format limits").
    LimitExceeded {
        /// The field that overflowed (e.g. `"embedding dimension"`).
        what: &'static str,
        /// The value that was asked for.
        value: u64,
        /// The largest value the format can carry.
        max: u64,
    },
    /// An ANN index was presented together with a store it was not built
    /// from ([`crate::IvfIndex`] binds to one released matrix).
    IndexStoreMismatch {
        /// What failed to line up (fingerprint, row count, dimension).
        reason: String,
    },
    /// The store could not be constructed from the given parts.
    Invalid {
        /// What was wrong.
        reason: String,
    },
}

/// The file kind a format magic names, for [`StoreError::BadMagic`].
fn format_name(magic: &[u8; 4]) -> &'static str {
    match magic {
        b"AEMB" => "an .aemb embedding store",
        b"AIDX" => "an .aidx ANN index",
        b"ACKP" => "an .actk training checkpoint",
        b"AGPH" => "an .agph partitioned graph",
        _ => "a file of this crate",
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "i/o error: {e}"),
            StoreError::BadMagic { found, expected } => write!(
                f,
                "unrecognised file magic {found:?} (expected b\"{}\" for {})",
                expected.escape_ascii(),
                format_name(expected)
            ),
            StoreError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported format version {found} (this reader supports <= {supported})"
            ),
            StoreError::Truncated { expected, found } => write!(
                f,
                "truncated store file: header implies {expected} bytes, found {found}"
            ),
            StoreError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            StoreError::Corrupted { reason } => write!(f, "corrupted store file: {reason}"),
            StoreError::UnknownVariantCode { code } => write!(
                f,
                "unknown model-variant code {code} (corrupt file, or written \
                 by a newer release of this format)"
            ),
            StoreError::NodeOutOfRange { node, num_nodes } => {
                write!(
                    f,
                    "node {node} out of range (store holds {num_nodes} nodes)"
                )
            }
            StoreError::LimitExceeded { what, value, max } => write!(
                f,
                "{what} {value} exceeds the format limit of {max} (refusing to \
                 truncate on write)"
            ),
            StoreError::IndexStoreMismatch { reason } => {
                write!(f, "index does not match the store: {reason}")
            }
            StoreError::Invalid { reason } => write!(f, "invalid store: {reason}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let cases: Vec<(StoreError, &str)> = vec![
            (
                StoreError::BadMagic {
                    found: *b"PNG\0",
                    expected: *b"AIDX",
                },
                "expected b\"AIDX\" for an .aidx ANN index",
            ),
            (
                StoreError::UnsupportedVersion {
                    found: 9,
                    supported: 1,
                },
                "version 9",
            ),
            (
                StoreError::Truncated {
                    expected: 100,
                    found: 60,
                },
                "100 bytes, found 60",
            ),
            (
                StoreError::ChecksumMismatch {
                    stored: 1,
                    computed: 2,
                },
                "checksum mismatch",
            ),
            (
                StoreError::NodeOutOfRange {
                    node: 9,
                    num_nodes: 5,
                },
                "node 9 out of range",
            ),
            (
                StoreError::LimitExceeded {
                    what: "embedding dimension",
                    value: 1 << 33,
                    max: u32::MAX as u64,
                },
                "exceeds the format limit",
            ),
            (
                StoreError::IndexStoreMismatch {
                    reason: "fingerprint".into(),
                },
                "index does not match the store",
            ),
            (
                StoreError::UnknownVariantCode { code: 200 },
                "unknown model-variant code 200",
            ),
        ];
        for (e, needle) in cases {
            assert!(e.to_string().contains(needle), "{e}");
        }
    }

    #[test]
    fn io_chains_its_source() {
        use std::error::Error;
        let io = StoreError::from(std::io::Error::new(std::io::ErrorKind::NotFound, "gone"));
        assert!(io.source().is_some());
        let bad = StoreError::Corrupted { reason: "x".into() };
        assert!(bad.source().is_none());
    }
}
