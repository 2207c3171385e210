//! The `.agph` bucket-partitioned on-disk graph format (version 1).
//!
//! Byte-level specification lives in `docs/FORMAT.md`; this module is the
//! reference implementation. `.agph` is the graph input of the
//! out-of-core training path (DESIGN.md §14): the edge set is stored in
//! `P` *sections*, one per node bucket of
//! [`advsgm_graph::buckets::NodeBuckets`], and [`load_agph`] verifies the
//! whole file into one [`Graph`]. Summary (all integers little-endian):
//!
//! ```text
//! offset      size   field
//! 0           4      magic  b"AGPH"
//! 4           2      format version u16 (currently 1)
//! 6           2      flags u16 (bit 0 = SIGNED; all other bits must be 0)
//! 8           8      node count n (u64, <= u32::MAX)
//! 16          8      edge count m (u64)
//! 24          4      bucket count P (u32, >= 1)
//! 28          4      reserved, must be zero
//! 32          8      graph fingerprint (FNV-1a-64, see below)
//! 40          12*P   section table: per bucket, edge count (u64) then
//!                    section CRC-32 (u32)
//! 40+12P      4      header CRC-32 over bytes [0, 40+12P)
//! 44+12P      8*m    sections in bucket order; one edge per 8 bytes:
//!                    u (u32), v (u32), canonical u < v
//! (SIGNED only) per bucket, in bucket order: a sign bitmap of
//!                    ceil(count_b / 8) bytes — bit i (LSB-first within
//!                    each byte) is 1 when edge i of section b carries foe
//!                    polarity; padding bits in the last byte must be 0 —
//!                    followed by that bitmap's own CRC-32 (u32)
//! ```
//!
//! Section `b` holds exactly the edges whose *lower* endpoint falls in
//! bucket `b` (`bucket_of(u) == b`), in the writer's stable order. The
//! canonical edge order of the file is the concatenation of its sections;
//! the fingerprint is FNV-1a-64 over `n` (8 LE bytes) followed by each
//! edge's `u` and `v` (4 LE bytes each) in that canonical order — and,
//! when the SIGNED flag is set, each section's sign-bitmap bytes folded
//! immediately after that section's edge bytes — so a reader can prove
//! both the edge set and the polarity assignment it reassembled are the
//! ones that were written. Files without the flag are byte-identical to
//! what pre-sign releases wrote.
//!
//! There is no whole-file trailer: the header CRC plus the per-section
//! CRCs already cover every byte. Like `.aemb` and `.actk`, the format is
//! strictly versioned and evolves append-only (the SIGNED flag occupies
//! the flags seam version 1 reserved for exactly this), and every
//! corruption mode is a typed [`StoreError`], never a panic.

use std::path::Path;

use advsgm_graph::buckets::NodeBuckets;
use advsgm_graph::{Edge, Graph};

use crate::codec::{check_crc, check_len, check_prologue, crc32, truncated, write_sealed, Reader};
use crate::error::StoreError;

/// The four magic bytes every `.agph` file starts with.
pub const AGPH_MAGIC: [u8; 4] = *b"AGPH";

/// The `.agph` format version this build writes and the highest it reads.
pub const AGPH_VERSION: u16 = 1;

/// Flags-field bit 0: the file carries a per-edge sign (polarity) channel
/// as per-bucket bitmaps after the edge sections.
pub const AGPH_FLAG_SIGNED: u16 = 0x0001;

/// Every flag bit this reader understands; any other set bit is corruption
/// (or a newer writer) and must be rejected, not ignored.
const AGPH_KNOWN_FLAGS: u16 = AGPH_FLAG_SIGNED;

/// Fixed header length in bytes (everything before the section table).
pub const AGPH_FIXED_HEADER_LEN: usize = 40;

/// Bytes per section-table entry (edge count u64 + section CRC-32).
const TABLE_ENTRY_LEN: usize = 12;

/// Bytes per on-disk edge record (two u32 endpoints).
const EDGE_LEN: usize = 8;

/// FNV-1a-64 offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a-64 prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into a running FNV-1a-64 hash.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Header length including the section table (but not its CRC).
fn table_end(buckets: usize) -> usize {
    AGPH_FIXED_HEADER_LEN + TABLE_ENTRY_LEN * buckets
}

/// Packs one section's foe flags into the on-disk bitmap (LSB-first).
fn pack_signs(signs: &[bool]) -> Vec<u8> {
    let mut out = vec![0u8; signs.len().div_ceil(8)];
    for (i, &foe) in signs.iter().enumerate() {
        if foe {
            out[i / 8] |= 1 << (i % 8);
        }
    }
    out
}

/// Unpacks a section's sign bitmap, rejecting non-zero padding bits (the
/// format is strict: every byte has exactly one valid encoding, so flips
/// in the padding cannot hide).
fn unpack_signs(bitmap: &[u8], count: usize, section: usize) -> Result<Vec<bool>, StoreError> {
    debug_assert_eq!(bitmap.len(), count.div_ceil(8));
    if !count.is_multiple_of(8) && bitmap.last().is_some_and(|&b| b >> (count % 8) != 0) {
        return Err(StoreError::Corrupted {
            reason: format!("non-zero padding bits in the sign bitmap of section {section}"),
        });
    }
    Ok((0..count)
        .map(|i| bitmap[i / 8] & (1 << (i % 8)) != 0)
        .collect())
}

/// Serialises `graph` into the version-1 `.agph` wire format with `buckets`
/// sections.
///
/// The writer partitions the edge list *stably* by the bucket of each
/// edge's lower endpoint, so the file's canonical order (section
/// concatenation) is a deterministic function of the graph's edge order
/// and `buckets`. The on-disk bucket count is independent of the runtime
/// partition count used for training.
///
/// # Errors
/// [`StoreError::Invalid`] when `buckets == 0`;
/// [`StoreError::LimitExceeded`] when the node count overflows the u32
/// edge endpoints.
pub fn encode_agph(graph: &Graph, buckets: usize) -> Result<Vec<u8>, StoreError> {
    if buckets == 0 {
        return Err(StoreError::Invalid {
            reason: "bucket count must be at least 1".into(),
        });
    }
    let n = graph.num_nodes();
    if n as u64 > u32::MAX as u64 {
        return Err(StoreError::LimitExceeded {
            what: "node count",
            value: n as u64,
            max: u32::MAX as u64,
        });
    }
    if buckets as u64 > u32::MAX as u64 {
        return Err(StoreError::LimitExceeded {
            what: "bucket count",
            value: buckets as u64,
            max: u32::MAX as u64,
        });
    }
    let nb = NodeBuckets::new(n, buckets).map_err(|e| StoreError::Invalid {
        reason: e.to_string(),
    })?;
    let m = graph.num_edges();
    let signs = graph.signs();

    // Stable partition of the edge list (and its sign channel, kept
    // aligned by construction) by lower-endpoint bucket.
    let mut sections: Vec<Vec<Edge>> = vec![Vec::new(); buckets];
    let mut section_signs: Vec<Vec<bool>> = vec![Vec::new(); buckets];
    for (idx, &e) in graph.edges().iter().enumerate() {
        let b = nb.bucket_of(e.u().index());
        sections[b].push(e);
        if let Some(s) = signs {
            section_signs[b].push(s[idx]);
        }
    }

    // Fingerprint over n then the canonical (section-concatenation)
    // order; for signed graphs each section's sign bitmap is folded
    // directly after its edge bytes, so the fingerprint also pins the
    // polarity assignment.
    let mut fp = fnv1a(FNV_OFFSET, &(n as u64).to_le_bytes());
    let mut encoded: Vec<Vec<u8>> = Vec::with_capacity(buckets);
    let mut bitmaps: Vec<Vec<u8>> = Vec::with_capacity(if signs.is_some() { buckets } else { 0 });
    for (b, sec) in sections.iter().enumerate() {
        let mut body = Vec::with_capacity(sec.len() * EDGE_LEN);
        for e in sec {
            let (u, v) = (e.u().index() as u32, e.v().index() as u32);
            body.extend_from_slice(&u.to_le_bytes());
            body.extend_from_slice(&v.to_le_bytes());
        }
        fp = fnv1a(fp, &body);
        encoded.push(body);
        if signs.is_some() {
            let bm = pack_signs(&section_signs[b]);
            fp = fnv1a(fp, &bm);
            bitmaps.push(bm);
        }
    }

    let sign_region: usize = bitmaps.iter().map(|bm| bm.len() + 4).sum();
    let flags = if signs.is_some() { AGPH_FLAG_SIGNED } else { 0 };
    let mut out = Vec::with_capacity(table_end(buckets) + 4 + m * EDGE_LEN + sign_region);
    out.extend_from_slice(&AGPH_MAGIC);
    out.extend_from_slice(&AGPH_VERSION.to_le_bytes());
    out.extend_from_slice(&flags.to_le_bytes());
    out.extend_from_slice(&(n as u64).to_le_bytes());
    out.extend_from_slice(&(m as u64).to_le_bytes());
    out.extend_from_slice(&(buckets as u32).to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes()); // reserved
    out.extend_from_slice(&fp.to_le_bytes());
    debug_assert_eq!(out.len(), AGPH_FIXED_HEADER_LEN);
    for (sec, body) in sections.iter().zip(&encoded) {
        out.extend_from_slice(&(sec.len() as u64).to_le_bytes());
        out.extend_from_slice(&crc32(body).to_le_bytes());
    }
    debug_assert_eq!(out.len(), table_end(buckets));
    let header_sum = crc32(&out);
    out.extend_from_slice(&header_sum.to_le_bytes());
    for body in &encoded {
        out.extend_from_slice(body);
    }
    // Sign region (SIGNED flag only): per-bucket bitmap + its own CRC, so
    // each bucket's polarity is checked on its own, like its edges.
    for bm in &bitmaps {
        out.extend_from_slice(bm);
        out.extend_from_slice(&crc32(bm).to_le_bytes());
    }
    Ok(out)
}

/// Writes `graph` to `path` as `.agph` crash-safely (temporary sibling,
/// fsync, rename, as every artifact is written).
///
/// # Errors
/// Everything [`encode_agph`] rejects, plus I/O failures as
/// [`StoreError::Io`].
pub fn save_agph(path: impl AsRef<Path>, graph: &Graph, buckets: usize) -> Result<(), StoreError> {
    write_sealed(path.as_ref(), &encode_agph(graph, buckets)?)
}

/// The fully validated header of an `.agph` file: counts, per-section
/// layout, and the stored fingerprint.
struct AgphHeader {
    num_nodes: usize,
    num_edges: usize,
    buckets: NodeBuckets,
    /// Per-section edge counts, in bucket order.
    section_counts: Vec<usize>,
    /// Per-section CRC-32 checksums, in bucket order.
    section_crcs: Vec<u32>,
    /// Stored FNV-1a-64 fingerprint over the canonical edge order.
    fingerprint: u64,
    /// Whether the SIGNED flag is set (a sign region follows the edges).
    signed: bool,
}

/// Validates everything up to and including the header CRC, and the
/// file's length against the one the header implies.
fn parse_header(bytes: &[u8]) -> Result<AgphHeader, StoreError> {
    check_prologue(
        bytes,
        AGPH_MAGIC,
        AGPH_VERSION,
        AGPH_FIXED_HEADER_LEN,
        table_end(1) + 4,
    )?;
    let mut r = Reader::new(bytes, 6, AGPH_FIXED_HEADER_LEN);
    let flags = r.u16()?;
    let n = r.u64()?;
    let m = r.u64()?;
    let p = r.u32()?;
    let reserved = r.u32()?;
    let fingerprint = r.u64()?;
    if flags & !AGPH_KNOWN_FLAGS != 0 {
        return Err(StoreError::Corrupted {
            reason: format!("unknown flag bits {:#06x}", flags & !AGPH_KNOWN_FLAGS),
        });
    }
    let signed = flags & AGPH_FLAG_SIGNED != 0;
    if p == 0 {
        return Err(StoreError::Corrupted {
            reason: "bucket count is zero".into(),
        });
    }
    if reserved != 0 {
        return Err(StoreError::Corrupted {
            reason: "reserved header bytes are non-zero".into(),
        });
    }

    // Size implied by the header, in u128 so hostile counts cannot
    // overflow into a bogus "valid" length. This also bounds the section
    // table and every allocation below by the real file size. A SIGNED
    // file's sign region needs the per-bucket counts for its exact size,
    // so here only a lower bound is enforced (sum of ceil(c_b/8) is at
    // least ceil(m/8), plus one CRC per bucket); the strict equality
    // check runs after the section table is parsed.
    let base = AGPH_FIXED_HEADER_LEN as u128
        + TABLE_ENTRY_LEN as u128 * p as u128
        + 4
        + EDGE_LEN as u128 * m as u128;
    if signed {
        let lower = base + m.div_ceil(8) as u128 + 4 * p as u128;
        if (bytes.len() as u128) < lower {
            return Err(truncated(lower, bytes.len()));
        }
    } else {
        check_len(bytes.len(), base, "the last section")?;
    }
    let p = p as usize;
    let tbl_end = table_end(p);

    // Integrity of every header byte before trusting n or the table.
    let stored = u32::from_le_bytes(bytes[tbl_end..tbl_end + 4].try_into().expect("4 bytes"));
    check_crc(&bytes[..tbl_end], stored)?;

    if n > u32::MAX as u64 {
        return Err(StoreError::LimitExceeded {
            what: "node count",
            value: n,
            max: u32::MAX as u64,
        });
    }
    let buckets = NodeBuckets::new(n as usize, p).map_err(|e| StoreError::Corrupted {
        reason: e.to_string(),
    })?;

    let mut table = Reader::new(bytes, AGPH_FIXED_HEADER_LEN, tbl_end);
    let mut section_counts = Vec::with_capacity(p);
    let mut section_crcs = Vec::with_capacity(p);
    let mut sum: u64 = 0;
    for _ in 0..p {
        let c = table.u64()?;
        sum = sum.saturating_add(c);
        section_counts.push(c as usize);
        section_crcs.push(table.u32()?);
    }
    if sum != m {
        return Err(StoreError::Corrupted {
            reason: format!("section edge counts sum to {sum}, header says {m}"),
        });
    }

    // With the real per-bucket counts in hand, the file length must now
    // match exactly (for unsigned files `base` was already exact above).
    if signed {
        let sign_region: u128 = section_counts
            .iter()
            .map(|&c| c.div_ceil(8) as u128 + 4)
            .sum();
        check_len(bytes.len(), base + sign_region, "the sign region")?;
    }

    Ok(AgphHeader {
        num_nodes: n as usize,
        num_edges: m as usize,
        buckets,
        section_counts,
        section_crcs,
        fingerprint,
        signed,
    })
}

/// Validates one section's raw bytes and parses its edges.
fn parse_section(header: &AgphHeader, b: usize, body: &[u8]) -> Result<Vec<Edge>, StoreError> {
    check_crc(body, header.section_crcs[b])?;
    let n = header.num_nodes as u32;
    let mut edges = Vec::with_capacity(body.len() / EDGE_LEN);
    for rec in body.chunks_exact(EDGE_LEN) {
        let u = u32::from_le_bytes(rec[0..4].try_into().expect("4 bytes"));
        let v = u32::from_le_bytes(rec[4..8].try_into().expect("4 bytes"));
        // Typed rejection before Edge construction: Edge::new asserts on
        // self-loops, and the reader must never panic on hostile input.
        if u >= v {
            return Err(StoreError::Corrupted {
                reason: format!("edge ({u}, {v}) in section {b} is not canonical (need u < v)"),
            });
        }
        if v >= n {
            return Err(StoreError::Corrupted {
                reason: format!("edge ({u}, {v}) references node >= node count {n}"),
            });
        }
        if header.buckets.bucket_of(u as usize) != b {
            return Err(StoreError::Corrupted {
                reason: format!(
                    "edge ({u}, {v}) filed under section {b} but its lower endpoint \
                     belongs to bucket {}",
                    header.buckets.bucket_of(u as usize)
                ),
            });
        }
        edges.push(Edge::from_raw(u, v));
    }
    Ok(edges)
}

/// Parses the version-1 `.agph` wire format back into a [`Graph`],
/// verifying magic, version, structural lengths, the header CRC, every
/// section CRC, per-edge invariants, and the fingerprint.
///
/// The reassembled graph's edge order is the file's canonical
/// (section-concatenation) order.
///
/// # Errors
/// A typed [`StoreError`] for every corruption mode; never panics.
pub fn decode_agph(bytes: &[u8]) -> Result<Graph, StoreError> {
    let header = parse_header(bytes)?;
    let edges_start = table_end(header.buckets.count()) + 4;
    let edges_end = edges_start + header.num_edges * EDGE_LEN;
    let mut sections = Reader::new(bytes, edges_start, edges_end);
    let mut bitmaps = Reader::new(bytes, edges_end, bytes.len());
    let mut edges = Vec::with_capacity(header.num_edges);
    let mut signs: Vec<bool> = Vec::with_capacity(if header.signed { header.num_edges } else { 0 });
    let mut fp = fnv1a(FNV_OFFSET, &(header.num_nodes as u64).to_le_bytes());
    let mut seen = std::collections::HashSet::with_capacity(header.num_edges);
    for (b, &count) in header.section_counts.iter().enumerate() {
        let body = sections.take(count * EDGE_LEN)?;
        fp = fnv1a(fp, body);
        for e in parse_section(&header, b, body)? {
            if !seen.insert(e) {
                return Err(StoreError::Corrupted {
                    reason: format!("duplicate edge {e} in section {b}"),
                });
            }
            edges.push(e);
        }
        if header.signed {
            let bitmap = bitmaps.take(count.div_ceil(8))?;
            check_crc(bitmap, bitmaps.u32()?)?;
            fp = fnv1a(fp, bitmap);
            signs.extend(unpack_signs(bitmap, count, b)?);
        }
    }
    if fp != header.fingerprint {
        return Err(StoreError::Corrupted {
            reason: format!(
                "graph fingerprint mismatch: stored {:#018x}, computed {fp:#018x}",
                header.fingerprint
            ),
        });
    }
    let signs = header.signed.then_some(signs);
    Ok(Graph::from_parts_signed(
        header.num_nodes,
        edges,
        signs,
        None,
    ))
}

/// Reads and fully validates an `.agph` file written by [`save_agph`],
/// materialising the whole graph.
///
/// # Errors
/// I/O failures plus every decode error of [`decode_agph`].
pub fn load_agph(path: impl AsRef<Path>) -> Result<Graph, StoreError> {
    let bytes = std::fs::read(path.as_ref())?;
    decode_agph(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use advsgm_graph::generators::classic::karate_club;

    fn bits_of(g: &Graph) -> (usize, Vec<(u32, u32)>) {
        (
            g.num_nodes(),
            g.edges()
                .iter()
                .map(|e| (e.u().index() as u32, e.v().index() as u32))
                .collect(),
        )
    }

    #[test]
    fn roundtrip_single_bucket_preserves_edge_order() {
        let g = karate_club();
        let bytes = encode_agph(&g, 1).unwrap();
        let back = decode_agph(&bytes).unwrap();
        assert_eq!(bits_of(&back), bits_of(&g));
    }

    #[test]
    fn roundtrip_many_buckets_preserves_edge_set() {
        let g = karate_club();
        for p in [2usize, 3, 4, 7, 64] {
            let bytes = encode_agph(&g, p).unwrap();
            let back = decode_agph(&bytes).unwrap();
            assert_eq!(back.num_nodes(), g.num_nodes());
            let mut a: Vec<_> = bits_of(&back).1;
            let mut b: Vec<_> = bits_of(&g).1;
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "p={p}");
        }
    }

    #[test]
    fn encode_is_deterministic() {
        let g = karate_club();
        assert_eq!(encode_agph(&g, 4).unwrap(), encode_agph(&g, 4).unwrap());
    }

    #[test]
    fn layout_is_stable() {
        let g = karate_club();
        let p = 4usize;
        let bytes = encode_agph(&g, p).unwrap();
        assert_eq!(&bytes[0..4], b"AGPH");
        assert_eq!(u16::from_le_bytes([bytes[4], bytes[5]]), AGPH_VERSION);
        assert_eq!(u16::from_le_bytes([bytes[6], bytes[7]]), 0);
        assert_eq!(
            u64::from_le_bytes(bytes[8..16].try_into().unwrap()),
            g.num_nodes() as u64
        );
        assert_eq!(
            u64::from_le_bytes(bytes[16..24].try_into().unwrap()),
            g.num_edges() as u64
        );
        assert_eq!(u32::from_le_bytes(bytes[24..28].try_into().unwrap()), 4);
        assert_eq!(bytes.len(), table_end(p) + 4 + g.num_edges() * EDGE_LEN);
    }

    /// Karate club with an arbitrary-but-fixed polarity pattern.
    fn signed_karate() -> Graph {
        let g = karate_club();
        let signs: Vec<bool> = (0..g.num_edges()).map(|i| i % 3 == 0).collect();
        let edges = g.edges().to_vec();
        let n = g.num_nodes();
        Graph::from_parts_signed(n, edges, Some(signs), None)
    }

    #[test]
    fn signed_roundtrip_preserves_polarity_at_every_bucket_count() {
        let g = signed_karate();
        for p in [1usize, 2, 3, 4, 7, 64] {
            let bytes = encode_agph(&g, p).unwrap();
            let back = decode_agph(&bytes).unwrap();
            assert!(back.is_signed(), "p={p}");
            assert_eq!(back.num_foe_edges(), g.num_foe_edges(), "p={p}");
            // Signs must follow their edges through the bucket partition.
            let orig: std::collections::BTreeMap<(u32, u32), bool> = g
                .edges()
                .iter()
                .enumerate()
                .map(|(i, e)| {
                    (
                        (e.u().index() as u32, e.v().index() as u32),
                        g.edge_is_foe(i),
                    )
                })
                .collect();
            for (i, e) in back.edges().iter().enumerate() {
                let key = (e.u().index() as u32, e.v().index() as u32);
                assert_eq!(back.edge_is_foe(i), orig[&key], "p={p} edge {key:?}");
            }
        }
    }

    #[test]
    fn signed_layout_sets_the_flag_and_extends_the_length() {
        let g = signed_karate();
        let p = 4usize;
        let bytes = encode_agph(&g, p).unwrap();
        assert_eq!(
            u16::from_le_bytes([bytes[6], bytes[7]]),
            AGPH_FLAG_SIGNED,
            "SIGNED flag bit"
        );
        // Recover per-bucket counts from the section table and check the
        // exact sign-region size formula from docs/FORMAT.md.
        let mut sign_region = 0usize;
        for b in 0..p {
            let at = AGPH_FIXED_HEADER_LEN + TABLE_ENTRY_LEN * b;
            let c = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
            sign_region += c.div_ceil(8) + 4;
        }
        assert_eq!(
            bytes.len(),
            table_end(p) + 4 + g.num_edges() * EDGE_LEN + sign_region
        );
        // Unsigned encoding of the same edge set is a strict prefix-layout
        // sibling: same length as before signs existed, flags zero.
        let unsigned = Graph::from_parts(g.num_nodes(), g.edges().to_vec(), None);
        let ub = encode_agph(&unsigned, p).unwrap();
        assert_eq!(u16::from_le_bytes([ub[6], ub[7]]), 0);
        assert_eq!(ub.len(), table_end(p) + 4 + g.num_edges() * EDGE_LEN);
    }

    #[test]
    fn sign_bitmap_corruption_is_typed() {
        let g = signed_karate();
        let p = 2usize;
        let good = encode_agph(&g, p).unwrap();
        let unsigned_len = table_end(p) + 4 + g.num_edges() * EDGE_LEN;

        // Flip a bitmap bit: the bitmap CRC catches it.
        let mut flipped = good.clone();
        flipped[unsigned_len] ^= 0x01;
        assert!(matches!(
            decode_agph(&flipped).unwrap_err(),
            StoreError::ChecksumMismatch { .. }
        ));

        // Forge a consistent bitmap + CRC: the header fingerprint is the
        // backstop that pins the polarity assignment itself.
        let mut forged = good.clone();
        forged[unsigned_len] ^= 0x01;
        let blen = {
            let at = AGPH_FIXED_HEADER_LEN;
            let c = u64::from_le_bytes(forged[at..at + 8].try_into().unwrap()) as usize;
            c.div_ceil(8)
        };
        let sum = crc32(&forged[unsigned_len..unsigned_len + blen]);
        forged[unsigned_len + blen..unsigned_len + blen + 4].copy_from_slice(&sum.to_le_bytes());
        let err = decode_agph(&forged).unwrap_err();
        assert!(
            matches!(err, StoreError::Corrupted { ref reason } if reason.contains("fingerprint")),
            "{err}"
        );

        // Truncating the sign region is typed truncation, not a panic.
        for cut in unsigned_len..good.len() {
            let err = decode_agph(&good[..cut]).unwrap_err();
            assert!(
                matches!(err, StoreError::Truncated { .. }),
                "cut={cut}: {err}"
            );
        }

        // Trailing bytes after the sign region are corruption.
        let mut trailing = good;
        trailing.push(0);
        assert!(matches!(
            decode_agph(&trailing).unwrap_err(),
            StoreError::Corrupted { .. }
        ));
    }

    #[test]
    fn zero_buckets_rejected_at_write() {
        let g = karate_club();
        assert!(matches!(
            encode_agph(&g, 0).unwrap_err(),
            StoreError::Invalid { .. }
        ));
    }

    #[test]
    fn empty_graph_roundtrips() {
        let g = Graph::from_parts(0, vec![], None);
        let back = decode_agph(&encode_agph(&g, 3).unwrap()).unwrap();
        assert_eq!(back.num_nodes(), 0);
        assert_eq!(back.num_edges(), 0);
    }

    #[test]
    fn bad_magic_is_typed() {
        assert!(matches!(
            decode_agph(b"AEMBnotagraph").unwrap_err(),
            StoreError::BadMagic { .. }
        ));
        assert!(matches!(
            decode_agph(b"AG").unwrap_err(),
            StoreError::BadMagic { .. }
        ));
    }

    #[test]
    fn future_version_is_rejected() {
        let mut bytes = encode_agph(&karate_club(), 2).unwrap();
        bytes[4..6].copy_from_slice(&9u16.to_le_bytes());
        assert!(matches!(
            decode_agph(&bytes).unwrap_err(),
            StoreError::UnsupportedVersion { found: 9, .. }
        ));
    }

    #[test]
    fn hostile_node_count_cannot_balloon_allocation() {
        // Inflate n to u64::MAX: the header CRC fails before anything of
        // that order is allocated.
        let mut bytes = encode_agph(&karate_club(), 2).unwrap();
        bytes[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = decode_agph(&bytes).unwrap_err();
        assert!(matches!(err, StoreError::ChecksumMismatch { .. }), "{err}");
    }

    #[test]
    fn crafted_oversize_node_count_hits_the_limit() {
        // Same, but with a recomputed header CRC: the u32 endpoint limit
        // is the typed backstop.
        let g = karate_club();
        let p = 2usize;
        let mut bytes = encode_agph(&g, p).unwrap();
        bytes[8..16].copy_from_slice(&(u32::MAX as u64 + 1).to_le_bytes());
        let sum = crc32(&bytes[..table_end(p)]);
        bytes[table_end(p)..table_end(p) + 4].copy_from_slice(&sum.to_le_bytes());
        let err = decode_agph(&bytes).unwrap_err();
        assert!(matches!(err, StoreError::LimitExceeded { .. }), "{err}");
    }
}
