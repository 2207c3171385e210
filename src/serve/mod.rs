//! The `advsgm serve` front-end: a long-lived TCP server over a released
//! embedding store.
//!
//! Everything served here is post-processing of a released `.aemb`
//! matrix (the paper's Theorem 5): no matter how many queries run or how
//! they interleave, the privacy stamp on the store is the complete cost.
//! Serving architecture, protocol layout, and the release-boundary
//! argument are documented in DESIGN.md §12; the byte-level frame format
//! lives in [`protocol`].
//!
//! ## Architecture
//!
//! * **The acceptor** blocks on `accept` and starts one thread per
//!   accepted client. At shutdown it joins every connection thread, so
//!   the counters [`Server::wait`] returns are final.
//! * **Connection threads** parse length-prefixed frames and answer each
//!   request themselves, through the same [`EmbeddingService`] calls an
//!   in-process caller makes, so wire answers are bitwise the local ones.
//!   Malformed payloads get error responses *without* dropping the
//!   connection. All connections share one service, one LRU cache of hot
//!   top-k results ([`cache`]) and the lifetime counters; the cache lock
//!   is held only to look up or insert, never across a scan.
//!
//! Shutdown is cooperative: the connection that reads a
//! [`protocol::Request::Shutdown`] frame (or answers the
//! `max_requests`-th request) writes its reply, raises an atomic flag,
//! and wakes the acceptor with a self-connect. Idle connections poll the
//! flag on a short read timeout, and a frame deadline and the
//! [`WRITE_DEADLINE`] bound how long a stalled peer can hold its thread,
//! so lingering clients cannot hold the process open.

pub mod cache;
pub mod client;
pub mod protocol;

use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use advsgm_store::Neighbor;

use crate::api::{EmbeddingService, Result};
use cache::LruCache;
use protocol::{read_frame, write_frame, Request, Response};

/// How often an idle connection re-checks the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(250);

/// How long a peer has to finish a frame once its first byte has
/// arrived. A pause inside a frame is waited out up to this deadline; a
/// peer that stalls past it is dropped.
const FRAME_DEADLINE: Duration = Duration::from_secs(2);

/// How long writing a reply may block on a peer that does not read
/// (the socket's write timeout). A peer that stalls past it is dropped.
pub const WRITE_DEADLINE: Duration = Duration::from_secs(2);

/// Tuning knobs for [`Server::bind`]. `Default` is sized for a small
/// serving box: a 1024-entry result cache and no request limit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// LRU capacity, in cached top-k results (`0` disables caching).
    pub cache_capacity: usize,
    /// Stop serving after this many requests (`None` = run until a
    /// shutdown frame). Useful for bounded smoke runs.
    pub max_requests: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            cache_capacity: 1024,
            max_requests: None,
        }
    }
}

/// Counters the server accumulates over its lifetime, returned by
/// [`Server::wait`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Well-formed requests answered, including error responses
    /// (malformed payloads are answered but not counted).
    pub requests: u64,
    /// Top-k requests answered from the LRU cache.
    pub cache_hits: u64,
    /// Always equal to `requests`: each request is answered on its own.
    /// Kept only because the end-to-end benchmark (`e2ebench/`) reads
    /// it; it goes at the next change to that benchmark.
    pub batches: u64,
    /// Requests answered with an error response.
    pub errors: u64,
}

/// A running server: the acceptor thread bound to a socket.
///
/// Dropping the handle does *not* stop the server; send a shutdown frame
/// (e.g. [`client::ServeClient::shutdown`]) and then [`Server::wait`].
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    acceptor: JoinHandle<ServerStats>,
}

impl Server {
    /// Binds `addr` (use port `0` for an ephemeral port) and starts
    /// serving `service` in background threads; returns immediately.
    ///
    /// # Errors
    /// Bind failures as [`Error::Io`](crate::api::Error::Io).
    pub fn bind(
        service: EmbeddingService,
        addr: impl ToSocketAddrs,
        config: ServeConfig,
    ) -> Result<Server> {
        let listener = TcpListener::bind(addr).map_err(crate::api::Error::Io)?;
        let local = listener.local_addr().map_err(crate::api::Error::Io)?;
        let shared = Arc::new(Shared {
            service,
            cache: Mutex::new(LruCache::new(config.cache_capacity)),
            max_requests: config.max_requests,
            addr: local,
            shutdown: AtomicBool::new(false),
            requests: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            errors: AtomicU64::new(0),
        });
        let acceptor = std::thread::spawn(move || acceptor(listener, shared));
        Ok(Server {
            addr: local,
            acceptor,
        })
    }

    /// The bound socket address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until the server shuts down (shutdown frame or
    /// `max_requests`) and every connection thread has exited, then
    /// returns the lifetime counters.
    pub fn wait(self) -> ServerStats {
        self.acceptor.join().unwrap_or_default()
    }
}

/// Key identifying one cacheable top-k answer: `(node, k, mode)`, where
/// mode is `u64::MAX` for exact scans and the recall target's bit
/// pattern for approximate ones (`f64::from_bits(u64::MAX)` is NaN,
/// which the protocol rejects, so the sentinel cannot collide).
type CacheKey = (u64, u32, u64);

const EXACT_MODE: u64 = u64::MAX;

/// What every connection thread shares: the service, the cache, the
/// counters and the shutdown flag.
struct Shared {
    service: EmbeddingService,
    cache: Mutex<LruCache<CacheKey, Vec<Neighbor>>>,
    max_requests: Option<u64>,
    /// The bound address, for the self-connect that wakes the acceptor.
    addr: SocketAddr,
    shutdown: AtomicBool,
    // Statistics only: they publish no other data, and `Server::wait`
    // reads them after joining every thread that writes them.
    requests: AtomicU64,
    cache_hits: AtomicU64,
    errors: AtomicU64,
}

impl Shared {
    /// Answers one decoded request and counts it. The flag is `true`
    /// when the server must stop once this reply is written.
    fn answer(&self, request: Request) -> (Response, bool) {
        let n = self.requests.fetch_add(1, Ordering::Relaxed) + 1;
        let stop = request == Request::Shutdown || self.max_requests == Some(n);
        let response = match request {
            Request::Ping | Request::Shutdown => Response::Ok,
            Request::Score { u, v } => match self.service.score(u as usize, v as usize) {
                Ok(s) => Response::Score(s),
                Err(e) => Response::Error(e.to_string()),
            },
            Request::TopK {
                node,
                k,
                approx,
                recall_target,
            } => self.top_k(node, k, approx, recall_target),
        };
        if matches!(response, Response::Error(_)) {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        (response, stop)
    }

    /// A top-k answer from the cache, or from an exact scan or an index
    /// search run on the calling thread.
    fn top_k(&self, node: u64, k: u32, approx: bool, recall_target: f64) -> Response {
        if node as usize >= self.service.len() {
            return Response::Error(format!(
                "node {node} out of range (store holds {} nodes)",
                self.service.len()
            ));
        }
        let mode = if approx {
            recall_target.to_bits()
        } else {
            EXACT_MODE
        };
        let key = (node, k, mode);
        let hit = self.cache().get(&key).cloned();
        if let Some(neighbors) = hit {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            return Response::Neighbors(neighbors);
        }
        let (u, k) = (node as usize, k as usize);
        let scanned = if approx {
            self.service.top_k_approx(u, k, recall_target)
        } else {
            self.service.top_k(u, k)
        };
        match scanned {
            Ok(neighbors) => {
                self.cache().insert(key, neighbors.clone());
                Response::Neighbors(neighbors)
            }
            Err(e) => Response::Error(e.to_string()),
        }
    }

    fn cache(&self) -> MutexGuard<'_, LruCache<CacheKey, Vec<Neighbor>>> {
        self.cache
            .lock()
            .expect("no thread panics while holding the cache lock")
    }

    /// Raises the shutdown flag and wakes the acceptor blocked in
    /// `accept` so it observes the flag.
    fn stop(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
    }

    fn stats(&self) -> ServerStats {
        let requests = self.requests.load(Ordering::Relaxed);
        ServerStats {
            requests,
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            batches: requests,
            errors: self.errors.load(Ordering::Relaxed),
        }
    }
}

/// Accept loop: hands each connection to its own thread until the
/// shutdown flag rises, then joins them all and returns the final
/// counters.
fn acceptor(listener: TcpListener, shared: Arc<Shared>) -> ServerStats {
    let mut connections: Vec<JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        // Reap finished connections, so a long-lived server holds one
        // handle per live peer rather than one per peer it ever served.
        // A panicked connection has already reported on stderr; the
        // others keep serving.
        for done in connections.extract_if(.., |h| h.is_finished()) {
            let _ = done.join();
        }
        // Transient accept errors (EMFILE, aborted handshake) must not
        // kill the serve loop.
        if let Ok(stream) = stream {
            let shared = Arc::clone(&shared);
            connections.push(std::thread::spawn(move || connection(stream, &shared)));
        }
    }
    for handle in connections {
        let _ = handle.join();
    }
    shared.stats()
}

/// Per-connection loop: frames in, frames out. Malformed payloads get an
/// error response on the open connection; EOF, an unframeable stream, a
/// stalled peer or shutdown ends it.
fn connection(stream: TcpStream, shared: &Shared) {
    // Idle reads time out so the thread notices shutdown; writes time
    // out so a peer that stops reading cannot hold the thread forever.
    let configured = stream
        .set_nodelay(true)
        .and_then(|()| stream.set_read_timeout(Some(POLL_INTERVAL)))
        .and_then(|()| stream.set_write_timeout(Some(WRITE_DEADLINE)));
    if configured.is_err() {
        return;
    }
    let mut incoming = Incoming {
        stream: &stream,
        shutdown: &shared.shutdown,
        started: None,
    };
    while !shared.shutdown.load(Ordering::SeqCst) {
        let Ok(payload) = incoming.next_frame() else {
            return;
        };
        let (response, stop) = match Request::decode(&payload) {
            Err(reason) => (
                Response::Error(format!("malformed request: {reason}")),
                false,
            ),
            Ok(request) => shared.answer(request),
        };
        let written = write_frame(&mut &stream, &response.encode());
        if stop {
            shared.stop();
        }
        if written.is_err() {
            return;
        }
    }
}

/// A connection's read side, for a socket whose reads time out every
/// `POLL_INTERVAL`. Between frames a timeout re-checks the shutdown flag
/// and ends the read once it is raised. Once a frame's first byte has
/// arrived, timeouts are waited out until [`FRAME_DEADLINE`], so a pause
/// inside a frame loses no bytes.
struct Incoming<'a, R> {
    stream: R,
    shutdown: &'a AtomicBool,
    /// When the current frame's first byte arrived.
    started: Option<Instant>,
}

impl<R: Read> Incoming<'_, R> {
    /// Reads the next request frame.
    ///
    /// # Errors
    /// EOF, shutdown raised between frames, an unframeable stream, or a
    /// frame left unfinished at the deadline.
    fn next_frame(&mut self) -> io::Result<Vec<u8>> {
        self.started = None;
        read_frame(self)
    }
}

impl<R: Read> Read for Incoming<'_, R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            match self.stream.read(buf) {
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    let give_up = match self.started {
                        None => self.shutdown.load(Ordering::SeqCst),
                        Some(t) => t.elapsed() >= FRAME_DEADLINE,
                    };
                    if give_up {
                        return Err(e);
                    }
                }
                read => {
                    if matches!(read, Ok(n) if n > 0) {
                        self.started.get_or_insert_with(Instant::now);
                    }
                    return read;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use advsgm_core::ModelVariant;
    use advsgm_linalg::DenseMatrix;
    use advsgm_store::{EmbeddingStore, IndexParams, PrivacyMeta};
    use client::ServeClient;

    fn test_service(indexed: bool) -> EmbeddingService {
        let m = DenseMatrix::from_fn(80, 6, |i, j| ((i * 7 + j * 3) as f64 * 0.13).sin());
        let store = EmbeddingStore::new(m, PrivacyMeta::non_private(ModelVariant::Sgm)).unwrap();
        let mut service = EmbeddingService::with_threads(store, 2);
        if indexed {
            service
                .build_index(IndexParams {
                    nlist: 8,
                    ..IndexParams::default()
                })
                .unwrap();
        }
        service
    }

    fn start(indexed: bool, config: ServeConfig) -> (Server, SocketAddr) {
        let server = Server::bind(test_service(indexed), "127.0.0.1:0", config).unwrap();
        let addr = server.local_addr();
        (server, addr)
    }

    #[test]
    fn round_trip_matches_local_exact_scan() {
        let (server, addr) = start(true, ServeConfig::default());
        let reference = test_service(false);
        let mut client = ServeClient::connect(addr).unwrap();
        client.ping().unwrap();
        for node in [0u64, 7, 79] {
            let wire = client.top_k(node, 10).unwrap();
            let local = reference.top_k(node as usize, 10).unwrap();
            assert_eq!(wire.len(), local.len());
            for (a, b) in wire.iter().zip(&local) {
                assert_eq!(a.node, b.node);
                assert_eq!(a.id, b.id);
                assert_eq!(a.score.to_bits(), b.score.to_bits(), "node={node}");
            }
        }
        let s = client.score(1, 2).unwrap();
        assert_eq!(
            s.to_bits(),
            reference.score(1, 2).unwrap().to_bits(),
            "score must be bitwise"
        );
        let approx = client.top_k_approx(3, 5, 0.9).unwrap();
        assert!(approx.len() <= 5);
        client.shutdown().unwrap();
        let stats = server.wait();
        assert!(stats.requests >= 6);
    }

    #[test]
    fn malformed_requests_degrade_gracefully() {
        let (server, addr) = start(false, ServeConfig::default());
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        // Unknown opcode: error response, connection stays usable.
        write_frame(&mut raw, &[0xEE, 1, 2, 3]).unwrap();
        let resp = read_frame(&mut raw).unwrap();
        assert_eq!(resp[0], protocol::STATUS_ERR);
        assert!(String::from_utf8_lossy(&resp[1..]).contains("opcode"));
        // Out-of-range node: error response, connection stays usable.
        write_frame(
            &mut raw,
            &Request::TopK {
                node: 9_999,
                k: 3,
                approx: false,
                recall_target: 1.0,
            }
            .encode(),
        )
        .unwrap();
        let resp = read_frame(&mut raw).unwrap();
        assert_eq!(resp[0], protocol::STATUS_ERR);
        assert!(String::from_utf8_lossy(&resp[1..]).contains("out of range"));
        // The same connection still answers valid requests afterwards.
        write_frame(&mut raw, &Request::Ping.encode()).unwrap();
        assert_eq!(read_frame(&mut raw).unwrap(), vec![protocol::STATUS_OK]);
        drop(raw);

        let mut client = ServeClient::connect(addr).unwrap();
        client.shutdown().unwrap();
        let stats = server.wait();
        // The unknown opcode is answered but not counted; only the
        // out-of-range node counts.
        assert!(stats.errors >= 1, "stats: {stats:?}");
    }

    #[test]
    fn concurrent_clients_share_the_cache() {
        let (server, addr) = start(false, ServeConfig::default());
        let reference = test_service(false);
        let expected = reference.top_k(5, 8).unwrap();
        let mut handles = Vec::new();
        for _ in 0..4 {
            handles.push(std::thread::spawn(move || {
                let mut client = ServeClient::connect(addr).unwrap();
                let mut answers = Vec::new();
                for _ in 0..6 {
                    answers.push(client.top_k(5, 8).unwrap());
                }
                answers
            }));
        }
        for handle in handles {
            for got in handle.join().unwrap() {
                assert_eq!(got.len(), expected.len());
                for (a, b) in got.iter().zip(&expected) {
                    assert_eq!(a.node, b.node);
                    assert_eq!(a.score.to_bits(), b.score.to_bits());
                }
            }
        }
        ServeClient::connect(addr).unwrap().shutdown().unwrap();
        let stats = server.wait();
        // 24 identical queries plus the shutdown, each answered on its
        // own. Connections that miss at the same instant both scan, but
        // every later repeat must come from the shared LRU.
        assert_eq!(stats.requests, 4 * 6 + 1, "stats: {stats:?}");
        assert_eq!(stats.batches, stats.requests);
        assert_eq!(stats.errors, 0);
        assert!(stats.cache_hits > 0, "stats: {stats:?}");
    }

    #[test]
    fn max_requests_bounds_the_run() {
        let config = ServeConfig {
            max_requests: Some(3),
            ..ServeConfig::default()
        };
        let (server, addr) = start(false, config);
        let mut client = ServeClient::connect(addr).unwrap();
        for _ in 0..3 {
            client.ping().unwrap();
        }
        let stats = server.wait();
        assert_eq!(stats.requests, 3);
    }

    /// A scripted peer: each step yields bytes or one read timeout.
    struct Scripted(Vec<Option<Vec<u8>>>);

    impl Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.0.is_empty() {
                return Ok(0);
            }
            match self.0.remove(0) {
                None => Err(io::ErrorKind::WouldBlock.into()),
                Some(mut bytes) => {
                    let n = bytes.len().min(buf.len());
                    buf[..n].copy_from_slice(&bytes[..n]);
                    if n < bytes.len() {
                        self.0.insert(0, Some(bytes.split_off(n)));
                    }
                    Ok(n)
                }
            }
        }
    }

    #[test]
    fn incoming_keeps_frame_bytes_across_timeouts() {
        let incoming = |script: Vec<Option<Vec<u8>>>, shutdown| Incoming {
            stream: Scripted(script),
            shutdown,
            started: None,
        };
        let (raised, idle) = (AtomicBool::new(true), AtomicBool::new(false));
        let ping = Request::Ping.encode();
        let mut peer = incoming(
            vec![
                None, // idle before the frame: polls the flag, keeps waiting
                Some(vec![1, 0]),
                None, // pauses inside the header and before the payload
                Some(vec![0, 0]),
                None,
                Some(ping.clone()),
            ],
            &idle,
        );
        assert_eq!(peer.next_frame().unwrap(), ping);
        // Mid-frame, a raised flag does not abandon the frame...
        let mut peer = incoming(vec![Some(vec![0, 0]), None, Some(vec![0, 0])], &raised);
        assert_eq!(peer.next_frame().unwrap(), Vec::<u8>::new());
        // ...but between frames it ends the read.
        let mut peer = incoming(vec![None, Some(vec![0, 0, 0, 0])], &raised);
        assert!(peer.next_frame().is_err());
        // Oversized lengths and EOF are errors.
        let oversized = Some(u32::MAX.to_le_bytes().to_vec());
        assert!(incoming(vec![oversized], &idle).next_frame().is_err());
        assert!(incoming(vec![], &idle).next_frame().is_err());
    }
}
