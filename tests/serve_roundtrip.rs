//! End-to-end test of the serving front-end (DESIGN.md §12): a real
//! `Server` on an ephemeral TCP port, queried over the wire with
//! `ServeClient`, answers bitwise-identically to a local exact scan —
//! and a malformed peer cannot take the server down.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use advsgm::api::EmbeddingService;
use advsgm::core::ModelVariant;
use advsgm::linalg::rng::seeded;
use advsgm::linalg::DenseMatrix;
use advsgm::serve::client::ServeClient;
use advsgm::serve::{ServeConfig, Server, WRITE_DEADLINE};
use advsgm::store::{EmbeddingStore, IndexParams, PrivacyMeta};
use rand::Rng;

fn fixture_store(n: usize, dim: usize) -> EmbeddingStore {
    let mut rng = seeded(29);
    let m = DenseMatrix::from_fn(n, dim, |i, j| {
        let g = i % 8;
        3.0 * ((g * dim + j) as f64 * 0.7129).sin() + rng.gen_range(-0.3..0.3)
    });
    EmbeddingStore::new(
        m,
        PrivacyMeta::private(ModelVariant::AdvSgm, 6.0, 1e-5, 5.0),
    )
    .unwrap()
}

#[test]
fn wire_answers_match_local_service_bitwise() {
    let store = fixture_store(600, 12);
    let local = EmbeddingService::from_store(store.clone());
    let mut service = EmbeddingService::from_store(store);
    service.build_index(IndexParams::default()).unwrap();
    // The exact answers below come mostly from the bound-pruned visit.
    let pruned = (0..600)
        .filter(|&u| {
            service
                .top_k_approx_with_stats(u, 9, 1.0)
                .unwrap()
                .rows_scanned
                < 599
        })
        .count();
    assert!(pruned > 300, "only {pruned} of 600 exact queries pruned");

    let server = Server::bind(service, "127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = server.local_addr();
    let mut client = ServeClient::connect(addr).unwrap();
    client.ping().unwrap();

    // Every node: the server answers exact requests through the index's
    // pruned exact mode, the local service with the full scan.
    for u in 0..600u64 {
        // Exact top-k over the wire vs the local scan.
        let wire = client.top_k(u, 9).unwrap();
        let here = local.top_k(u as usize, 9).unwrap();
        assert_eq!(wire.len(), here.len(), "u={u}");
        for (w, h) in wire.iter().zip(&here) {
            assert_eq!(w.node, h.node, "u={u}");
            assert_eq!(w.score.to_bits(), h.score.to_bits(), "u={u}");
        }
        // Scores too.
        let s = client.score(u, (u + 1) % 600).unwrap();
        let l = local.score(u as usize, (u as usize + 1) % 600).unwrap();
        assert_eq!(s.to_bits(), l.to_bits(), "u={u}");
    }

    // Approximate serving over the wire: right count, plausible answers
    // (recall vs exact asserted precisely in tests/index_serving.rs).
    let approx = client.top_k_approx(42, 10, 0.95).unwrap();
    assert_eq!(approx.len(), 10);
    let exact: std::collections::HashSet<u64> = local
        .top_k(42, 10)
        .unwrap()
        .iter()
        .map(|n| n.node as u64)
        .collect();
    let hits = approx
        .iter()
        .filter(|n| exact.contains(&(n.node as u64)))
        .count();
    assert!(hits >= 8, "recall over the wire collapsed: {hits}/10");

    // Server-side errors come back as typed error responses, not hangups.
    assert!(client.top_k(600, 5).is_err());
    client.ping().unwrap(); // connection still healthy

    client.shutdown().unwrap();
    let stats = server.wait();
    assert!(stats.requests >= 10, "stats: {stats:?}");
}

#[test]
fn garbage_frames_do_not_kill_the_server() {
    let service = EmbeddingService::from_store(fixture_store(100, 6));
    let server = Server::bind(service, "127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = server.local_addr();

    // A peer speaking gibberish: valid frame, bogus opcode.
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.write_all(&3u32.to_le_bytes()).unwrap();
    raw.write_all(&[0xEE, 0x01, 0x02]).unwrap();
    let mut len = [0u8; 4];
    raw.read_exact(&mut len).unwrap();
    let mut body = vec![0u8; u32::from_le_bytes(len) as usize];
    raw.read_exact(&mut body).unwrap();
    assert_eq!(body[0], 1, "garbage must get an ERR status, got {body:?}");

    // An unframeable peer (oversized length prefix) just gets dropped...
    let mut flood = TcpStream::connect(addr).unwrap();
    flood.write_all(&u32::MAX.to_le_bytes()).unwrap();
    drop(flood);

    // ...while real clients keep getting served.
    let mut client = ServeClient::connect(addr).unwrap();
    let got = client.top_k(3, 5).unwrap();
    assert_eq!(got.len(), 5);
    client.shutdown().unwrap();
    let stats = server.wait();
    assert!(stats.requests >= 1);
}

#[test]
fn a_frame_split_by_a_pause_is_still_answered() {
    let service = EmbeddingService::from_store(fixture_store(100, 6));
    let server = Server::bind(service, "127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = server.local_addr();

    // A 1-byte ping whose header and payload are split by a pause longer
    // than the server's idle poll: the bytes read before the pause must
    // not be lost, or the payload is taken for the next header.
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.set_nodelay(true).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(3))).unwrap();
    raw.write_all(&1u32.to_le_bytes()).unwrap();
    std::thread::sleep(Duration::from_millis(400));
    raw.write_all(&[OP_PING]).unwrap();
    let mut reply = [0u8; 5];
    raw.read_exact(&mut reply).unwrap();
    assert_eq!(reply, [1, 0, 0, 0, STATUS_OK]);

    ServeClient::connect(addr).unwrap().shutdown().unwrap();
    assert_eq!(server.wait().requests, 2);
}

#[test]
fn a_peer_that_never_reads_cannot_block_shutdown() {
    let service = EmbeddingService::from_store(fixture_store(3_000, 8));
    let server = Server::bind(service, "127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = server.local_addr();

    // About 200 exact top-2048 requests, ~48 KiB of answer each: far
    // more than the loopback buffers hold, and this peer never reads.
    let frame = |node: u64| {
        let req = Request::TopK {
            node,
            k: MAX_K as u32,
            approx: false,
            recall_target: 1.0,
        }
        .encode();
        let mut out = (req.len() as u32).to_le_bytes().to_vec();
        out.extend_from_slice(&req);
        out
    };
    let mut hog = TcpStream::connect(addr).unwrap();
    let burst: Vec<u8> = (0..200).flat_map(frame).collect();
    hog.write_all(&burst).unwrap();
    // Keep sending until our own writes stall: the server has stopped
    // reading, so its connection thread is blocked writing an answer.
    hog.set_write_timeout(Some(Duration::from_millis(500)))
        .unwrap();
    let more: Vec<u8> = (0..2_000).flat_map(|n| frame(n % 3_000)).collect();
    let stalled = (0..1_000).any(|_| hog.write_all(&more).is_err());
    assert!(stalled, "the server kept reading a peer that never reads");

    // Shutdown must not wait on that thread for longer than the write
    // deadline.
    let (tx, rx) = std::sync::mpsc::channel();
    let waiter = std::thread::spawn(move || tx.send(server.wait()).unwrap());
    ServeClient::connect(addr).unwrap().shutdown().unwrap();
    let stats = rx
        .recv_timeout(WRITE_DEADLINE + Duration::from_secs(3))
        .expect("a peer that never reads held shutdown past the write deadline");
    waiter.join().unwrap();
    assert_eq!(stats.errors, 0, "stats: {stats:?}");
    drop(hog);
}

// ---- protocol fuzz: arbitrary bytes must never panic the decoders ----

use advsgm::serve::protocol::{
    Request, Response, MAX_K, OP_PING, OP_SCORE, OP_SHUTDOWN, OP_TOP_K, STATUS_OK,
};
use proptest::prelude::*;

proptest! {
    #[test]
    fn request_decoder_never_panics_and_ok_is_canonical(
        payload in proptest::collection::vec(0u8..=255, 0..64))
    {
        // Decoding is total: any byte string yields Ok or a typed reason,
        // never a panic — and an accepted payload is exactly the encoding
        // of the request it parsed to (the wire format has no slack).
        match Request::decode(&payload) {
            Ok(req) => prop_assert_eq!(req.encode(), payload),
            Err(reason) => prop_assert!(!reason.is_empty()),
        }
    }

    #[test]
    fn malformed_but_framed_requests_get_typed_errors(
        which in 0usize..4,
        body in proptest::collection::vec(0u8..=255, 0..40))
    {
        // A known opcode with a wrong-sized body is the malformed-but-
        // framed case the server answers with Response::Error: it must be
        // an Err naming the problem, not a panic or a bogus Ok.
        let op = [OP_PING, OP_TOP_K, OP_SCORE, OP_SHUTDOWN][which];
        let wrong_size = match op {
            OP_TOP_K => body.len() != 21,
            OP_SCORE => body.len() != 16,
            _ => !body.is_empty(),
        };
        let mut payload = vec![op];
        payload.extend_from_slice(&body);
        let decoded = Request::decode(&payload);
        if wrong_size {
            let reason = decoded.unwrap_err();
            prop_assert!(!reason.is_empty());
        }
    }

    #[test]
    fn response_decoder_never_panics(
        op in 0u8..=255,
        payload in proptest::collection::vec(0u8..=255, 0..96))
    {
        match Response::decode(op, &payload) {
            Ok(_) => {}
            Err(reason) => prop_assert!(!reason.is_empty()),
        }
    }

    #[test]
    fn request_roundtrips_through_the_wire_format(
        node in 0u64..=u64::MAX,
        k in 0u32..=MAX_K as u32,
        approx_bit in 0u8..2,
        recall in 0.0f64..=1.0,
        u in 0u64..=u64::MAX,
        v in 0u64..=u64::MAX)
    {
        for req in [
            Request::Ping,
            Request::Shutdown,
            Request::TopK { node, k, approx: approx_bit == 1, recall_target: recall },
            Request::Score { u, v },
        ] {
            prop_assert_eq!(Request::decode(&req.encode()).unwrap(), req);
        }
    }
}
