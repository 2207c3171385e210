//! The serving workload: `serve-mixed`.
//!
//! A seeded 100k × 32 clustered store, stamped as a private release, is
//! saved, reopened, IVF-indexed and served over TCP. Two client
//! connections then run a closed loop of 70 % approximate top-10 at
//! recall 0.95, 20 % exact top-10 and 10 % pair scores, with Zipf(1.0)
//! node popularity so the server's LRU cache both hits and misses.

use std::hint::black_box;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use advsgm::api::{EmbeddingService, ModelVariant};
use advsgm::linalg::DenseMatrix;
use advsgm::serve::client::ServeClient;
use advsgm::serve::{ServeConfig, Server, ServerStats};
use advsgm::store::{EmbeddingStore, IndexParams, Neighbor, PrivacyMeta};

use crate::gen::{Request, RequestStream, SplitMix64, Zipf, KIND_NAMES, RECALL_TARGET, TOP_K};
use crate::stats::{interval_tail, median};
use crate::trace::Tracer;
use crate::{sync_file, BoxError, Ctx, Outcome};

/// Store rows.
const NODES: usize = 100_000;
/// Store dimension.
const DIM: usize = 32;
/// Direction clusters in the store.
const GROUPS: usize = 64;
/// Zipf exponent of node popularity.
const ZIPF_S: f64 = 1.0;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Wire answers per client and request kind checked against the local
/// scan (the first ones each client receives, so the set is fixed by
/// the seed).
const CHECKED_PER_KIND: usize = 150;
/// Cap on the in-process replays of the cheap request kinds.
const REPLAY_CAP: usize = 4_000;
/// Cap on the in-process replays of exact scans (~2 ms each).
const REPLAY_CAP_EXACT: usize = 500;
/// Length of the intervals the latency tail is taken over: long enough
/// for each to hold the ~1,000 samples p99 needs.
const TAIL_INTERVAL_S: f64 = 2.0;
/// The privacy stamp of the synthetic release.
const STAMP: (f64, f64, f64) = (6.0, 1e-5, 5.0);

/// A clustered store: row `i` sits near the centre of a seeded group,
/// the shape real embeddings take and the one IVF pruning is built for.
fn clustered_store(seed: u64) -> Result<EmbeddingStore, BoxError> {
    let mut rng = SplitMix64::new(seed, 0x5707e);
    let phase = rng.next_f64() * std::f64::consts::TAU;
    let groups: Vec<usize> = (0..NODES).map(|_| rng.below(GROUPS)).collect();
    let m = DenseMatrix::from_fn(NODES, DIM, |i, j| {
        let center = 3.0 * ((groups[i] * DIM + j) as f64 * 0.7129 + phase).sin();
        center + (rng.next_f64() - 0.5) * 0.6
    });
    let (epsilon, delta, sigma) = STAMP;
    Ok(EmbeddingStore::new(
        m,
        PrivacyMeta::private(ModelVariant::AdvSgm, epsilon, delta, sigma),
    )?)
}

/// A wire answer.
#[derive(Debug, Clone, PartialEq)]
enum Answer {
    Neighbors(Vec<Neighbor>),
    Score(f64),
}

/// Whether two answers agree bit for bit.
fn same_bits(a: &Answer, b: &Answer) -> bool {
    match (a, b) {
        (Answer::Neighbors(x), Answer::Neighbors(y)) => {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|(p, q)| p.node == q.node && p.score.to_bits() == q.score.to_bits())
        }
        (Answer::Score(x), Answer::Score(y)) => x.to_bits() == y.to_bits(),
        _ => false,
    }
}

/// One completed request.
#[derive(Debug, Clone, Copy)]
struct Done {
    req: Request,
    /// Wire round trip, microseconds.
    us: f64,
    /// Whether a span was recorded around it.
    traced: bool,
    /// When it completed, seconds since the window opened.
    end_s: f64,
}

/// What one client saw.
struct ClientLog {
    /// Completed requests in order.
    done: Vec<Done>,
    /// The first [`CHECKED_PER_KIND`] answers of each kind.
    checked: Vec<(Request, Answer)>,
    errors: u64,
    first_error: Option<String>,
    tracer: Tracer,
}

/// One client's closed loop over the window `start..start + seconds`.
fn client_loop(
    addr: SocketAddr,
    zipf: &Zipf,
    seed: u64,
    client: u16,
    (start, seconds): (Instant, Duration),
    trace: bool,
    origin: Instant,
) -> ClientLog {
    let mut log = ClientLog {
        done: Vec::new(),
        checked: Vec::new(),
        errors: 0,
        first_error: None,
        tracer: Tracer::new(false, origin, client + 1),
    };
    let mut conn = match ServeClient::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            log.errors += 1;
            log.first_error = Some(format!("connect: {e}"));
            return log;
        }
    };
    let mut per_kind = [0usize; 3];
    for (n, req) in RequestStream::new(zipf, seed, u64::from(client)).enumerate() {
        if start.elapsed() >= seconds {
            break;
        }
        // Odd requests are traced in the traced run: the even ones give
        // the untraced latency the overhead is measured against.
        let traced = trace && n % 2 == 1;
        log.tracer.set_on(traced);
        let name = match req {
            Request::Approx(_) => "serve.request.approx",
            Request::Exact(_) => "serve.request.exact",
            Request::Score(..) => "serve.request.score",
        };
        let open = log.tracer.begin(name);
        let t = Instant::now();
        let answer = match req {
            Request::Approx(u) => conn
                .top_k_approx(u as u64, TOP_K, RECALL_TARGET)
                .map(Answer::Neighbors),
            Request::Exact(u) => conn.top_k(u as u64, TOP_K).map(Answer::Neighbors),
            Request::Score(u, v) => conn.score(u as u64, v as u64).map(Answer::Score),
        };
        let us = t.elapsed().as_secs_f64() * 1e6;
        let end_s = start.elapsed().as_secs_f64();
        log.tracer.end(open);
        match answer {
            Ok(a) => {
                log.done.push(Done {
                    req,
                    us,
                    traced,
                    end_s,
                });
                if per_kind[req.kind()] < CHECKED_PER_KIND {
                    per_kind[req.kind()] += 1;
                    log.checked.push((req, a));
                }
            }
            Err(e) => {
                // A failed round trip leaves the connection unusable.
                log.errors += 1;
                log.first_error = Some(format!("{name}: {e}"));
                break;
            }
        }
    }
    log
}

/// Runs `f` in a span named `name`, adding its wall time to `total`.
fn timed<T>(
    tr: &mut Tracer,
    total: &mut Duration,
    name: &'static str,
    f: impl FnOnce() -> Result<T, BoxError>,
) -> Result<T, BoxError> {
    let t = Instant::now();
    let out = tr.time(name, f);
    *total += t.elapsed();
    out
}

/// Asks the server at `addr` to stop and returns its counters.
fn stop(server: Server) -> Result<ServerStats, BoxError> {
    ServeClient::connect(server.local_addr())?.shutdown()?;
    Ok(server.wait())
}

pub fn run(ctx: &mut Ctx) -> Result<Outcome, BoxError> {
    let seed = ctx.args.seed;
    let threads = ctx.host.threads_used;
    let clients = ctx.host.threads_used as u16;
    let tr = &mut ctx.tracer;
    let mut out = Outcome::default();
    let path = ctx.out_dir.join("store.aemb");

    // Set-up: generate, release to disk, reopen, index, bind.
    let (mut setup_s, mut build_s) = (vec![], vec![]);
    let mut kept = None;
    for i in 0..SETUPS {
        let root = tr.begin("setup");
        let mut elapsed = Duration::ZERO;
        let store = timed(tr, &mut elapsed, "store.generate", || clustered_store(seed))?;
        timed(tr, &mut elapsed, "store.aemb.save", || {
            store.save(&path)?;
            Ok(sync_file(&path)?)
        })?;
        let mut service = timed(tr, &mut elapsed, "store.aemb.load", || {
            Ok(EmbeddingService::open_with_threads(&path, threads)?)
        })?;
        let before = elapsed;
        timed(tr, &mut elapsed, "store.index.build", || {
            service.build_index(IndexParams::default())?;
            Ok(())
        })?;
        build_s.push((elapsed - before).as_secs_f64());
        out.checks
            .check(service.store().fingerprint() == store.fingerprint(), || {
                format!("setup {i}: reopened store differs from the one saved")
            });
        out.checks.check(*service.privacy() == *store.meta(), || {
            format!("setup {i}: reopened stamp {} differs", service.privacy())
        });
        let local = (service.store().clone(), service.index().cloned());
        let server = timed(tr, &mut elapsed, "serve.bind", || {
            Ok(Server::bind(
                service,
                "127.0.0.1:0",
                ServeConfig::default(),
            )?)
        })?;
        tr.end(root);
        setup_s.push(elapsed.as_secs_f64());
        if i + 1 < SETUPS {
            stop(server)?;
        } else {
            kept = Some((server, local));
        }
    }
    let (server, (local_store, local_index)) = kept.expect("SETUPS > 0");
    let mut local = EmbeddingService::with_threads(local_store, threads);
    local.attach_index(local_index.ok_or("index was not built")?)?;
    let nprobe = local.index().map_or(0, |ix| ix.nprobe_for(RECALL_TARGET));

    // The measurement window: closed-loop clients over TCP.
    let zipf = Zipf::new(NODES, ZIPF_S, seed);
    let addr = server.local_addr();
    let (trace, origin) = (ctx.args.trace, ctx.origin);
    let window = (Instant::now(), ctx.args.seconds);
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let zipf = &zipf;
                s.spawn(move || client_loop(addr, zipf, seed, c, window, trace, origin))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let window_s = window.0.elapsed().as_secs_f64();
    let stats = stop(server)?;
    std::fs::remove_file(&path)?;

    // Output checks: every sampled wire answer equals the local answer
    // bit for bit; approximate answers also give the recall.
    let open = tr.begin("check");
    let completed: u64 = logs.iter().map(|l| l.done.len() as u64).sum();
    let errors: u64 = logs.iter().map(|l| l.errors).sum();
    out.checks.ops(completed + errors, errors);
    for l in &logs {
        if let Some(e) = &l.first_error {
            out.checks.failures.push(e.clone());
        }
    }
    out.checks.check(stats.errors == 0, || {
        format!("server answered {} errors", stats.errors)
    });
    out.checks.check(stats.requests == completed + 1, || {
        format!(
            "server counted {} requests, clients completed {completed} + shutdown",
            stats.requests
        )
    });
    let (mut hits, mut asked) = (0usize, 0usize);
    for (req, wire) in logs.iter().flat_map(|l| &l.checked) {
        let want = match *req {
            Request::Approx(u) => {
                let exact = local.top_k(u, TOP_K as usize)?;
                let approx = local.top_k_approx(u, TOP_K as usize, RECALL_TARGET)?;
                if let Answer::Neighbors(got) = wire {
                    asked += exact.len();
                    hits += got
                        .iter()
                        .filter(|g| exact.iter().any(|e| e.node == g.node))
                        .count();
                }
                Answer::Neighbors(approx)
            }
            Request::Exact(u) => Answer::Neighbors(local.top_k(u, TOP_K as usize)?),
            Request::Score(u, v) => Answer::Score(local.score(u, v)?),
        };
        out.checks.check(same_bits(wire, &want), || {
            format!("{req:?}: wire answer differs from the local scan")
        });
    }
    tr.end(open);
    let recall = hits as f64 / asked.max(1) as f64;

    // End-to-end figures; latencies from untraced requests only.
    let done = || logs.iter().flat_map(|l| &l.done);
    let lat = |kind: Option<usize>, traced: bool| -> Vec<f64> {
        done()
            .filter(|d| d.traced == traced && kind.is_none_or(|k| d.req.kind() == k))
            .map(|d| d.us)
            .collect()
    };
    let all = lat(None, false);
    if all.is_empty() {
        return Err("no request completed".into());
    }
    // The tail is taken per interval and the median of the intervals'
    // tails reported: a burst of host noise moves one interval, not the
    // run's figure.
    let timed_ends: Vec<(f64, f64)> = done()
        .filter(|d| !d.traced)
        .map(|d| (d.end_s, d.us))
        .collect();
    let t = interval_tail(&timed_ends, TAIL_INTERVAL_S, ctx.args.seconds.as_secs_f64())
        .ok_or("no complete tail interval")?;
    out.e2e.insert("setup_s", median(&setup_s));
    out.e2e.insert("throughput", completed as f64 / window_s);
    out.e2e.insert("latency_p50_ms", median(&all) / 1e3);
    out.e2e.insert("quality", recall);
    out.layers.insert("serve.tail_us", t.value);
    out.name("setup_s", median(&setup_s), "s");
    out.name("serve_qps", completed as f64 / window_s, "req/s");
    out.name("serve_p50_us", median(&all), "us");
    out.name(
        format!(
            "serve_p{}_us (median of {TAIL_INTERVAL_S} s intervals, n={}, {} beyond per interval)",
            t.percentile,
            all.len(),
            t.beyond
        ),
        t.value,
        "us",
    );
    for (k, kind) in KIND_NAMES.iter().enumerate() {
        let v = lat(Some(k), false);
        if !v.is_empty() {
            out.name(
                format!("serve_p50_us.{kind} (n={})", v.len()),
                median(&v),
                "us",
            );
        }
    }
    out.name("serve_recall_at_10", recall, "ratio");
    out.name("serve_connections", f64::from(clients), "count");

    // Per-layer figures.
    let requests = stats.requests.max(1) as f64;
    let topk_done = done()
        .filter(|d| !matches!(d.req, Request::Score(..)))
        .count();
    let l = &mut out.layers;
    l.insert("store.index.build_s", median(&build_s));
    l.insert("store.index.nprobe", nprobe as f64);
    l.insert("serve.batches", stats.batches as f64);
    l.insert(
        "serve.batch_size_mean",
        requests / stats.batches.max(1) as f64,
    );
    l.insert(
        "serve.cache_hit_rate",
        stats.cache_hits as f64 / topk_done.max(1) as f64,
    );
    l.insert("serve.errors", stats.errors as f64);
    if trace {
        let traced = lat(None, true);
        if !traced.is_empty() {
            let base = median(&all);
            l.insert(
                "trace.overhead_pct",
                (median(&traced) - base) / base * 100.0,
            );
        }
        replay_in_process(tr, &local, &logs, &mut out)?;
    }
    for log in logs {
        tr.absorb(log.tracer);
    }
    Ok(out)
}

/// Replays the run's own requests in process — no wire, no dispatcher —
/// to split wire latency into the layer's work and the serving overhead.
fn replay_in_process(
    tr: &mut Tracer,
    local: &EmbeddingService,
    logs: &[ClientLog],
    out: &mut Outcome,
) -> Result<(), BoxError> {
    let reqs = |kind: usize, cap: usize| -> Vec<Request> {
        logs.iter()
            .flat_map(|l| &l.done)
            .filter(|d| d.req.kind() == kind)
            .map(|d| d.req)
            .take(cap)
            .collect()
    };
    let k = TOP_K as usize;
    let (mut search_us, mut exact_us, mut score_us) = (vec![], vec![], vec![]);
    let (mut scanned, mut searches) = (0usize, 0usize);
    let n = local.len();
    for r in reqs(0, REPLAY_CAP) {
        if let Request::Approx(u) = r {
            let open = tr.begin("store.index.search");
            let t = Instant::now();
            let got = local.top_k_approx_with_stats(u, k, RECALL_TARGET)?;
            search_us.push(t.elapsed().as_secs_f64() * 1e6);
            tr.end(open);
            scanned += got.rows_scanned;
            searches += 1;
        }
    }
    for r in reqs(1, REPLAY_CAP_EXACT) {
        if let Request::Exact(u) = r {
            let open = tr.begin("store.topk.exact");
            let t = Instant::now();
            black_box(local.batch_top_k(&[u], k)?);
            exact_us.push(t.elapsed().as_secs_f64() * 1e6);
            tr.end(open);
        }
    }
    for r in reqs(2, REPLAY_CAP) {
        if let Request::Score(u, v) = r {
            let t = Instant::now();
            black_box(local.score(u, v)?);
            score_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    let wire_score: Vec<f64> = logs
        .iter()
        .flat_map(|l| &l.done)
        .filter(|d| d.req.kind() == 2 && !d.traced)
        .map(|d| d.us)
        .collect();
    let l = &mut out.layers;
    if !search_us.is_empty() {
        l.insert("store.index.search_us", median(&search_us));
        l.insert(
            "store.index.scan_fraction",
            scanned as f64 / (searches * (n - 1)) as f64,
        );
    }
    if !exact_us.is_empty() {
        l.insert("store.topk.exact_us", median(&exact_us));
    }
    if !score_us.is_empty() && !wire_score.is_empty() {
        l.insert(
            "serve.wire_overhead_us",
            median(&wire_score) - median(&score_us),
        );
    }
    Ok(())
}
