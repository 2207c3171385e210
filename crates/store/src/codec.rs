//! The codec core the four file formats share.
//!
//! `.aemb`, `.aidx`, `.actk` and `.agph` each keep their own layout and
//! their own reader-obligation order (`docs/FORMAT.md`), but they open,
//! seal and reach the disk the same way. This module holds that common
//! part once:
//!
//! * [`crc32`], the checksum every format seals with;
//! * [`check_prologue`], the magic-then-version opening every reader
//!   checks first, and [`check_len`], the header-implied length check;
//! * [`seal`] and [`check_seal`], the CRC-32 trailer of `.aemb`, `.aidx`
//!   and `.actk` (`.agph` checks its header and section CRCs with
//!   [`check_crc`]);
//! * [`Reader`], a bounds-checked little-endian cursor with bulk reads
//!   for payloads;
//! * [`write_sealed`], the one crash-safe write every artifact goes
//!   through.

use std::fs::File;
use std::io::{self, Write};
use std::path::Path;

use advsgm_linalg::DenseMatrix;

use crate::error::StoreError;

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) lookup tables
/// for slicing-by-8: `CRC32_TABLES[0]` is the bytewise table, and
/// `CRC32_TABLES[k][i]` is the register after byte `i` followed by `k`
/// zero bytes, so one step folds eight input bytes through eight lookups.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3) of `data` — the checksum every format stores.
/// Eight bytes per step (slicing-by-8), then the tail a byte at a time;
/// the value is the bytewise algorithm's.
///
/// # Examples
/// ```
/// // The standard check value for this CRC parameterisation.
/// assert_eq!(advsgm_store::format::crc32(b"123456789"), 0xCBF4_3926);
/// ```
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for word in &mut words {
        let lo = c ^ u32::from_le_bytes(word[..4].try_into().expect("4 bytes"));
        let hi = u32::from_le_bytes(word[4..].try_into().expect("4 bytes"));
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// A `Truncated` error: the file needs `expected` bytes (clamped to
/// `u64`) and holds `found`.
pub(crate) fn truncated(expected: u128, found: usize) -> StoreError {
    StoreError::Truncated {
        expected: expected.min(u64::MAX as u128) as u64,
        found: found as u64,
    }
}

/// Checks the opening every format shares: the four `magic` bytes, then
/// a u16 version in `1..=supported`, then at least `header_len` bytes in
/// all.
///
/// Magic and version come first, so "wrong file" and "newer writer" get
/// their own errors even on short inputs. An input too short to hold the
/// version or the fixed header is `Truncated`, reporting `min_len`, the
/// smallest file the format allows.
pub(crate) fn check_prologue(
    bytes: &[u8],
    magic: [u8; 4],
    supported: u16,
    header_len: usize,
    min_len: usize,
) -> Result<(), StoreError> {
    if bytes.len() < 4 || bytes[0..4] != magic {
        let mut found = [0u8; 4];
        let take = bytes.len().min(4);
        found[..take].copy_from_slice(&bytes[..take]);
        return Err(StoreError::BadMagic {
            found,
            expected: magic,
        });
    }
    if bytes.len() < 6 {
        return Err(truncated(min_len as u128, bytes.len()));
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version == 0 || version > supported {
        return Err(StoreError::UnsupportedVersion {
            found: version,
            supported,
        });
    }
    if bytes.len() < header_len {
        return Err(truncated(min_len as u128, bytes.len()));
    }
    Ok(())
}

/// Checks a file's length against the `expected` total its header
/// implies, computed in 128-bit arithmetic so hostile counts cannot
/// overflow into a bogus "valid" length: shorter is `Truncated`, longer
/// is `Corrupted`, naming what the trailing bytes follow.
pub(crate) fn check_len(found: usize, expected: u128, after: &str) -> Result<(), StoreError> {
    if (found as u128) < expected {
        return Err(truncated(expected, found));
    }
    if found as u128 > expected {
        return Err(StoreError::Corrupted {
            reason: format!("{} trailing bytes after {after}", found as u128 - expected),
        });
    }
    Ok(())
}

/// Appends the CRC-32 trailer: the checksum of every byte before it.
pub(crate) fn seal(out: &mut Vec<u8>) {
    let checksum = crc32(out);
    out.extend_from_slice(&checksum.to_le_bytes());
}

/// `ChecksumMismatch` unless `data` checksums to `stored`.
pub(crate) fn check_crc(data: &[u8], stored: u32) -> Result<(), StoreError> {
    let computed = crc32(data);
    if stored != computed {
        return Err(StoreError::ChecksumMismatch { stored, computed });
    }
    Ok(())
}

/// Checks the CRC-32 trailer [`seal`] wrote: the last four bytes of
/// `bytes` (which must hold at least four) against everything before.
pub(crate) fn check_seal(bytes: &[u8]) -> Result<(), StoreError> {
    let (body, trailer) = bytes.split_at(bytes.len() - 4);
    check_crc(
        body,
        u32::from_le_bytes(trailer.try_into().expect("4 bytes")),
    )
}

/// A bounds-checked little-endian cursor over `bytes[pos..end]`.
///
/// Reading past `end` is `Truncated`, counting the bytes after `end`
/// (a CRC trailer, say) as part of the file the read implies. The bulk
/// reads check their whole length once, so a hostile count cannot
/// trigger a huge allocation, and then decode without a check per value.
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    end: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at `pos` that may read up to `end` (exclusive).
    pub(crate) fn new(bytes: &'a [u8], pos: usize, end: usize) -> Self {
        debug_assert!(pos <= end && end <= bytes.len());
        Self { bytes, pos, end }
    }

    /// The offset of the next byte to read.
    pub(crate) fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes left before `end`.
    pub(crate) fn remaining(&self) -> usize {
        self.end - self.pos
    }

    /// `Truncated` unless `len` more bytes remain.
    pub(crate) fn ensure(&self, len: u128) -> Result<(), StoreError> {
        if len > self.remaining() as u128 {
            let tail = (self.bytes.len() - self.end) as u128;
            return Err(truncated(self.pos as u128 + len + tail, self.bytes.len()));
        }
        Ok(())
    }

    /// The next `len` bytes.
    pub(crate) fn take(&mut self, len: usize) -> Result<&'a [u8], StoreError> {
        self.ensure(len as u128)?;
        let s = &self.bytes[self.pos..self.pos + len];
        self.pos += len;
        Ok(s)
    }

    /// The next `n` values of `size` bytes each, as one slice.
    fn take_n(&mut self, n: usize, size: usize) -> Result<&'a [u8], StoreError> {
        self.ensure(n as u128 * size as u128)?;
        self.take(n * size)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u16(&mut self) -> Result<u16, StoreError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    pub(crate) fn f64(&mut self) -> Result<f64, StoreError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Reads a declared u64 element count and bounds it against the bytes
    /// actually remaining at `elem_size` bytes per element.
    pub(crate) fn count(&mut self, elem_size: usize) -> Result<usize, StoreError> {
        let n = self.u64()?;
        self.ensure(n as u128 * elem_size as u128)?;
        Ok(n as usize)
    }

    /// The next `n` u32 values.
    pub(crate) fn u32s(&mut self, n: usize) -> Result<Vec<u32>, StoreError> {
        Ok(self
            .take_n(n, 4)?
            .chunks_exact(4)
            .map(|b| u32::from_le_bytes(b.try_into().expect("4")))
            .collect())
    }

    /// The next `n` u64 values.
    pub(crate) fn u64s(&mut self, n: usize) -> Result<Vec<u64>, StoreError> {
        Ok(self
            .take_n(n, 8)?
            .chunks_exact(8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("8")))
            .collect())
    }

    /// The next `n` f64 bit patterns.
    pub(crate) fn f64s(&mut self, n: usize) -> Result<Vec<f64>, StoreError> {
        Ok(self
            .take_n(n, 8)?
            .chunks_exact(8)
            .map(|b| f64::from_le_bytes(b.try_into().expect("8")))
            .collect())
    }

    /// The next `rows × cols` f64 values as a row-major matrix.
    pub(crate) fn matrix(&mut self, rows: usize, cols: usize) -> Result<DenseMatrix, StoreError> {
        let data = self.f64s(rows.saturating_mul(cols))?;
        DenseMatrix::from_vec(rows, cols, data).map_err(|e| StoreError::Corrupted {
            reason: format!("matrix shape: {e}"),
        })
    }
}

/// Writes `bytes` to `path` so that a crash at any point leaves either
/// the old file or the new one, whole: the bytes go to the sibling
/// `<file name>.tmp`, which is fsynced and then renamed over `path`, and
/// the directory is fsynced so the rename itself is durable. A symlink
/// at `path` is replaced, not followed. If a step after creating the
/// temp file fails, the temp file is removed.
///
/// # Errors
/// [`StoreError::Io`] from every step but the directory sync: a platform
/// that cannot sync a directory (Windows) still gets ordinary rename
/// atomicity.
pub(crate) fn write_sealed(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    let Some(name) = path.file_name() else {
        return Err(StoreError::Io(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("{} names no file", path.display()),
        )));
    };
    let mut tmp_name = name.to_os_string();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);

    let mut file = File::create(&tmp)?;
    // Without the fsync, a journaling file system may commit the rename
    // before the data, leaving an empty file where the old one was.
    let written = file.write_all(bytes).and_then(|()| file.sync_all());
    drop(file);
    if let Err(e) = written.and_then(|()| std::fs::rename(&tmp, path)) {
        let _ = std::fs::remove_file(&tmp);
        return Err(StoreError::Io(e));
    }
    let dir = path
        .parent()
        .filter(|d| !d.as_os_str().is_empty())
        .unwrap_or(Path::new("."));
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The bytewise CRC-32 that slicing-by-8 replaced, bit by bit from
    /// the polynomial, with no table.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_matches_the_bytewise_reference() {
        let bytes: Vec<u8> = (0..(1usize << 20) + 7)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        // Every length through several words and every alignment of the
        // 8-byte steps against the tail.
        for start in 0..8 {
            for len in 0..=64 {
                let data = &bytes[start..start + len];
                assert_eq!(crc32(data), crc32_bytewise(data), "start={start} len={len}");
            }
        }
        let big = &bytes[3..3 + (1 << 20)];
        assert_eq!(crc32(big), crc32_bytewise(big));
    }
}
