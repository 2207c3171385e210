//! The `.agph` disk-resident graph format (docs/FORMAT.md, DESIGN.md
//! §14): exact roundtrips for awkward graphs (isolated nodes, maximum-
//! degree hubs, bucket counts past the node count), in memory and
//! through the disk, and the corruption taxonomy — every
//! single-byte flip detected, truncation at every section boundary (and
//! every byte) typed, unknown versions and flags rejected — never a
//! panic.

use std::collections::BTreeSet;

use advsgm::graph::{Edge, Graph};
use advsgm::linalg::rng::seeded;
use advsgm::store::{
    agph::AGPH_FIXED_HEADER_LEN, decode_agph, encode_agph, format::crc32, load_agph, save_agph,
    StoreError,
};
use proptest::prelude::*;
use rand::Rng;

fn edge_set(g: &Graph) -> BTreeSet<(u32, u32)> {
    g.edges()
        .iter()
        .map(|e| {
            let (u, v) = e.endpoints();
            (u.0, v.0)
        })
        .collect()
}

fn assert_roundtrip(g: &Graph, buckets: usize) {
    let bytes = encode_agph(g, buckets).unwrap();
    let back = decode_agph(&bytes).unwrap();
    assert_eq!(back.num_nodes(), g.num_nodes(), "buckets={buckets}");
    assert_eq!(back.num_edges(), g.num_edges(), "buckets={buckets}");
    assert_eq!(edge_set(&back), edge_set(g), "buckets={buckets}");
}

/// A hub graph: node 0 touches every other node (maximum degree), the
/// worst case for a single bucket section.
fn hub_graph(n: usize) -> Graph {
    let edges: Vec<Edge> = (1..n).map(|v| Edge::from_raw(0, v as u32)).collect();
    Graph::from_parts(n, edges, None)
}

/// Mostly-isolated nodes: 50 nodes, edges only among the first 5, so
/// most bucket sections are empty.
fn sparse_graph() -> Graph {
    let edges = vec![
        Edge::from_raw(0, 1),
        Edge::from_raw(0, 2),
        Edge::from_raw(1, 3),
        Edge::from_raw(2, 4),
    ];
    Graph::from_parts(50, edges, None)
}

#[test]
fn awkward_graphs_roundtrip_at_every_bucket_count() {
    for buckets in [1usize, 2, 3, 7, 64, 1000] {
        // More buckets than nodes, empty sections, hub sections: all legal.
        assert_roundtrip(&sparse_graph(), buckets);
        assert_roundtrip(&hub_graph(33), buckets);
        assert_roundtrip(
            &Graph::from_parts(2, vec![Edge::from_raw(0, 1)], None),
            buckets,
        );
    }
}

#[test]
fn a_hub_graph_roundtrips_through_disk() {
    let g = hub_graph(40);
    let dir = std::env::temp_dir().join("advsgm_agph_format_hub");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("hub.agph");
    save_agph(&path, &g, 5).unwrap();

    let whole = load_agph(&path).unwrap();
    assert_eq!(edge_set(&whole), edge_set(&g));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncation_at_every_byte_is_typed_never_a_panic() {
    // Small enough to cut at *every* length — which subsumes every
    // section boundary: the fixed header's field edges, the section
    // table, the header CRC, and each per-bucket edge section.
    let g = sparse_graph();
    let bytes = encode_agph(&g, 4).unwrap();
    assert!(bytes.len() > AGPH_FIXED_HEADER_LEN + 4 * 12 + 4);
    for cut in 0..bytes.len() {
        let err = decode_agph(&bytes[..cut]).unwrap_err();
        assert!(
            matches!(
                err,
                StoreError::Truncated { .. }
                    | StoreError::BadMagic { .. }
                    | StoreError::ChecksumMismatch { .. }
                    | StoreError::UnsupportedVersion { .. }
            ),
            "cut={cut}: {err}"
        );
    }
}

#[test]
fn unknown_version_and_flags_are_typed_rejections() {
    let g = sparse_graph();
    let good = encode_agph(&g, 2).unwrap();

    // A future version must be refused before anything else is trusted.
    let mut ver = good.clone();
    ver[4..6].copy_from_slice(&9u16.to_le_bytes());
    assert!(matches!(
        decode_agph(&ver),
        Err(StoreError::UnsupportedVersion { found: 9, .. })
    ));

    // Unknown flag bits: reserved for the append-only format family, so
    // a reader that does not understand them must reject, not ignore —
    // even when the header CRC is made to agree (a future writer, not
    // corruption). Bit 0 is the SIGNED flag now; bit 1 is still reserved.
    let mut flags = good.clone();
    flags[6] |= 0x02;
    let table = flags.len().min(AGPH_FIXED_HEADER_LEN + 2 * 12);
    let sum = crc32(&flags[..table]);
    flags[table..table + 4].copy_from_slice(&sum.to_le_bytes());
    let err = decode_agph(&flags).unwrap_err();
    assert!(
        err.to_string().contains("unknown flag"),
        "expected unknown-flag rejection, got: {err}"
    );
    // Without the CRC patch the checksum catches it first — still typed.
    let mut noisy = good.clone();
    noisy[6] |= 0x02;
    assert!(decode_agph(&noisy).is_err(), "unknown flags accepted");

    // A zero bucket count cannot describe any section table.
    let mut zero_p = good;
    zero_p[24..28].copy_from_slice(&0u32.to_le_bytes());
    assert!(decode_agph(&zero_p).is_err(), "P=0 accepted");
}

#[test]
fn empty_and_mismatched_inputs_are_errors() {
    assert!(decode_agph(&[]).is_err());
    assert!(decode_agph(b"AGPH").is_err());
    // An .aemb payload handed to the graph decoder: wrong magic, typed.
    assert!(matches!(
        decode_agph(b"AEMBxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"),
        Err(StoreError::BadMagic { .. })
    ));
    // encode rejects a zero bucket request up front.
    assert!(encode_agph(&sparse_graph(), 0).is_err());
}

/// A signed variant of the sparse fixture: alternating friend/foe edges.
fn signed_sparse_graph() -> Graph {
    let g = sparse_graph();
    let signs: Vec<bool> = (0..g.num_edges()).map(|i| i % 2 == 1).collect();
    Graph::from_parts_signed(g.num_nodes(), g.edges().to_vec(), Some(signs), None)
}

#[test]
fn signed_files_roundtrip_through_disk() {
    let g = signed_sparse_graph();
    let dir = std::env::temp_dir().join("advsgm_agph_format_signed");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("signed.agph");
    save_agph(&path, &g, 4).unwrap();

    // The polarity channel survives the disk.
    let back = load_agph(&path).unwrap();
    assert!(back.is_signed());
    assert_eq!(back.num_foe_edges(), g.num_foe_edges());
    assert_eq!(edge_set(&back), edge_set(&g));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn signed_truncation_at_every_byte_is_typed_never_a_panic() {
    // The sign region extends the file; every cut — including mid-bitmap
    // and mid-sign-CRC — must surface as a typed error.
    let bytes = encode_agph(&signed_sparse_graph(), 3).unwrap();
    for cut in 0..bytes.len() {
        let err = decode_agph(&bytes[..cut]).unwrap_err();
        assert!(
            matches!(
                err,
                StoreError::Truncated { .. }
                    | StoreError::BadMagic { .. }
                    | StoreError::ChecksumMismatch { .. }
                    | StoreError::UnsupportedVersion { .. }
            ),
            "cut={cut}: {err}"
        );
    }
    // Trailing garbage after the sign region is rejected too.
    let mut padded = bytes;
    padded.push(0);
    assert!(decode_agph(&padded).is_err(), "trailing byte accepted");
}

proptest! {
    #[test]
    fn every_single_byte_flip_in_a_signed_file_is_detected(
        pos_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        // The sign bitmaps and their CRCs are covered like everything
        // else: no byte of a signed file can flip silently.
        let mut bytes = encode_agph(&signed_sparse_graph(), 3).unwrap();
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= 1 << bit;
        prop_assert!(
            decode_agph(&bytes).is_err(),
            "flip at byte {} bit {} was accepted", pos, bit
        );
    }
}

proptest! {
    #[test]
    fn arbitrary_graphs_roundtrip_exactly(
        num_nodes in 2usize..120,
        target_edges in 1usize..200,
        buckets in 1usize..12,
        seed in 0u64..500,
    ) {
        let mut rng = seeded(seed);
        let mut set = BTreeSet::new();
        for _ in 0..target_edges {
            let a = rng.gen_range(0..num_nodes) as u32;
            let b = rng.gen_range(0..num_nodes) as u32;
            if a != b {
                set.insert((a.min(b), a.max(b)));
            }
        }
        // Guarantee at least one edge (num_nodes >= 2 makes (0,1) legal).
        set.insert((0, 1));
        let edges: Vec<Edge> = set.iter().map(|&(u, v)| Edge::from_raw(u, v)).collect();
        let g = Graph::from_parts(num_nodes, edges, None);
        let bytes = encode_agph(&g, buckets).unwrap();
        let back = decode_agph(&bytes).unwrap();
        prop_assert_eq!(back.num_nodes(), g.num_nodes());
        prop_assert_eq!(edge_set(&back), edge_set(&g));

        // The same topology with an arbitrary polarity stamp: the
        // (edge, sign) pairing survives bucketing exactly.
        let signs: Vec<bool> = (0..g.num_edges()).map(|i| seed.wrapping_shr(i as u32 % 64) & 1 == 1).collect();
        let sg = Graph::from_parts_signed(g.num_nodes(), g.edges().to_vec(), Some(signs.clone()), None);
        let sback = decode_agph(&encode_agph(&sg, buckets).unwrap()).unwrap();
        prop_assert!(sback.is_signed());
        prop_assert_eq!(sback.num_foe_edges(), sg.num_foe_edges());
        let mut want: Vec<((u32, u32), bool)> = sg.edges().iter().enumerate()
            .map(|(i, e)| { let (u, v) = e.endpoints(); ((u.0, v.0), signs[i]) }).collect();
        let mut got: Vec<((u32, u32), bool)> = sback.edges().iter().enumerate()
            .map(|(i, e)| { let (u, v) = e.endpoints(); ((u.0, v.0), sback.edge_is_foe(i)) }).collect();
        want.sort_unstable();
        got.sort_unstable();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn every_single_byte_flip_is_detected(pos_frac in 0.0f64..1.0, bit in 0u8..8) {
        // Every byte of the file is covered by the header CRC, a section
        // CRC, or a validated field — a flipped bit anywhere must surface
        // as a typed error, never silently altered edges.
        let bytes = encode_agph(&sparse_graph(), 3).unwrap();
        let mut bytes = bytes;
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= 1 << bit;
        prop_assert!(
            decode_agph(&bytes).is_err(),
            "flip at byte {} bit {} was accepted", pos, bit
        );
    }
}
