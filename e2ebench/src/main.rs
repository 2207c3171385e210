//! End-to-end benchmark of the AdvSGM system: private training to a
//! released `.aemb`, out-of-core training, and wire serving.
//!
//! ```text
//! cargo run --release --quiet --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload train-inram --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. `e2ebench/README.md` documents workloads, metrics and the
//! span file.

mod gen;
mod host;
mod serve;
mod stats;
mod trace;
mod train;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use host::Host;
use trace::Tracer;

/// The end-to-end metrics every workload reports, with their units.
/// Latency tails are printed by name but not bounded here: on a shared
/// 2-core host a slow patch of the host moved the serving p99 by a third.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput", "1/s"),
    ("latency_p50_ms", "ms"),
    ("quality", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics every traced run reports, with their units.
/// Layers a workload does not exercise report 0.
pub const PER_LAYER: [(&str, &str); 51] = [
    ("datasets.synth_s", "s"),
    ("graph.split_s", "s"),
    ("store.agph.save_s", "s"),
    ("store.agph.bytes", "bytes"),
    ("core.session.epoch_s_median", "s"),
    ("core.session.epoch_s_max", "s"),
    ("core.session.disc_updates", "count"),
    ("core.sampler.iteration_us", "us"),
    ("core.generator.fake_us", "us"),
    ("core.grad.pair_us", "us"),
    ("core.grad.clip_fraction", "ratio"),
    ("privacy.accountant.record_us", "us"),
    ("linalg.backend.dot_ns", "ns"),
    ("linalg.backend.fused_axpy_scale_ns", "ns"),
    ("core.partitioned.slot_loads", "count"),
    ("core.partitioned.slot_evictions", "count"),
    ("core.partitioned.slot_high_water", "count"),
    ("core.partitioned.spill_bytes", "bytes"),
    ("store.aemb.encode_s", "s"),
    ("store.aemb.save_s", "s"),
    ("store.aemb.bytes", "bytes"),
    ("store.index.build_s", "s"),
    ("store.index.nprobe", "count"),
    ("store.index.scan_fraction", "ratio"),
    ("store.index.search_us", "us"),
    ("store.topk.exact_us", "us"),
    ("serve.batches", "count"),
    ("serve.batch_size_mean", "count"),
    ("serve.cache_hit_rate", "ratio"),
    ("serve.errors", "count"),
    ("serve.wire_overhead_us", "us"),
    ("serve.tail_us", "us"),
    ("trace.overhead_pct", "%"),
    ("trace.bench.self_s", "s"),
    ("trace.bench.spans", "count"),
    ("trace.datasets.self_s", "s"),
    ("trace.datasets.spans", "count"),
    ("trace.graph.self_s", "s"),
    ("trace.graph.spans", "count"),
    ("trace.store.self_s", "s"),
    ("trace.store.spans", "count"),
    ("trace.core.self_s", "s"),
    ("trace.core.spans", "count"),
    ("trace.privacy.self_s", "s"),
    ("trace.privacy.spans", "count"),
    ("trace.linalg.self_s", "s"),
    ("trace.linalg.spans", "count"),
    ("trace.eval.self_s", "s"),
    ("trace.eval.spans", "count"),
    ("trace.serve.self_s", "s"),
    ("trace.serve.spans", "count"),
];

/// The workloads, by name.
const WORKLOADS: [&str; 3] = ["train-inram", "train-ooc", "serve-mixed"];

/// Where runs write their files, relative to the repository root.
const OUT_DIR: &str = ".bench_out";

type BoxError = Box<dyn std::error::Error>;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the measurement window.
    pub seconds: Duration,
    /// Whether this is the traced run.
    pub trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
                "--workload" => {
                    return Err(format!("unknown workload {value} (one of {WORKLOADS:?})"))
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
                "--seconds" => {
                    let s = value.parse::<u64>().map_err(|e| bad(&e))?;
                    if s == 0 {
                        return Err("--seconds must be at least 1".into());
                    }
                    seconds = Some(Duration::from_secs(s));
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        })
    }
}

/// What one workload hands back to the runner.
pub struct Ctx {
    /// The command line.
    pub args: Args,
    /// Host facts and the thread width to use.
    pub host: Host,
    /// Directory for the run's files.
    pub out_dir: PathBuf,
    /// Span recorder of the main thread.
    pub tracer: Tracer,
    /// Trace origin shared by every thread's recorder.
    pub origin: Instant,
}

/// Output checks and failed operations, counted into `failed`.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Operations and checks that failed.
    pub failed: u64,
    /// One line per failure (the first few are printed).
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts one check; records `what` when it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Counts `n` operations of which `failed` failed.
    pub fn ops(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }
}

/// A workload's results.
#[derive(Default)]
pub struct Outcome {
    /// Output checks.
    pub checks: Checks,
    /// End-to-end metric values by name ([`END_TO_END`]).
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metric values by name ([`PER_LAYER`]).
    pub layers: BTreeMap<&'static str, f64>,
    /// The workload's own named figures (`release_s`, `serve_p99_us`,
    /// ...), printed for people and kept in the result file.
    pub named: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    /// Records a named figure.
    pub fn name(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.named.push((name.into(), value, unit));
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: Args) -> Result<(), BoxError> {
    // Everything a run writes stays under the repository root, including
    // the partitioned engine's spill files, which go to the temp dir.
    let out_dir = std::env::current_dir()?.join(OUT_DIR);
    let tmp = out_dir.join("tmp");
    std::fs::create_dir_all(&tmp)?;
    // Single-threaded here: no other thread reads the environment yet.
    std::env::set_var("TMPDIR", &tmp);

    let host = Host::probe();
    let origin = Instant::now();
    let mut ctx = Ctx {
        tracer: Tracer::new(args.trace, origin, 0),
        args,
        host,
        out_dir,
        origin,
    };
    println!(
        "e2ebench workload={} seed={} seconds={} trace={}",
        ctx.args.workload,
        ctx.args.seed,
        ctx.args.seconds.as_secs(),
        u8::from(ctx.args.trace)
    );
    println!("host: {}", ctx.host);

    let mut outcome = match ctx.args.workload.as_str() {
        "train-inram" => train::run(&mut ctx, false)?,
        "train-ooc" => train::run(&mut ctx, true)?,
        "serve-mixed" => serve::run(&mut ctx)?,
        other => unreachable!("workload {other} was validated by the parser"),
    };
    let rss = host::peak_rss_mib()?;
    outcome.e2e.insert("peak_rss_mb", rss);
    if ctx.args.trace {
        let spans = ctx.tracer.spans();
        for (layer, t) in trace::layer_times(spans) {
            let (Some(self_key), Some(spans_key)) = (
                static_name(&format!("trace.{layer}.self_s")),
                static_name(&format!("trace.{layer}.spans")),
            ) else {
                return Err(format!("span layer {layer} has no per-layer metric").into());
            };
            outcome.layers.insert(self_key, t.self_s);
            outcome.layers.insert(spans_key, t.spans as f64);
        }
        let span_file = ctx.out_dir.join(format!(
            "spans-{}-seed{}.jsonl",
            ctx.args.workload, ctx.args.seed
        ));
        trace::write_jsonl(&span_file, spans)?;
        println!("self time by span (s, spans, ops):");
        for (name, t) in trace::self_times(spans) {
            println!(
                "  {name:<34} {:>10.6} {:>7} {:>9}",
                t.self_s, t.spans, t.ops
            );
        }
        println!("spans: {} written to {}", spans.len(), span_file.display());
    }

    let error_rate = outcome.checks.failed as f64 / outcome.checks.attempted.max(1) as f64;
    outcome.name("error_rate", error_rate, "ratio");
    outcome.name("peak_rss_mb", rss, "MiB");
    for (name, value, unit) in &outcome.named {
        println!("{name} = {value} {unit}");
    }
    for f in outcome.checks.failures.iter().take(10) {
        println!("check failed: {f}");
    }

    let (table, values): (&[(&str, &str)], &BTreeMap<&str, f64>) = if ctx.args.trace {
        (&PER_LAYER, &outcome.layers)
    } else {
        (&END_TO_END, &outcome.e2e)
    };
    let mut metrics = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        // Layers this workload does not exercise read 0; an end-to-end
        // metric must always be measured.
        let value = match values.get(name) {
            Some(&v) => v,
            None if ctx.args.trace => 0.0,
            None => return Err(format!("end-to-end metric {name} was not measured").into()),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}").into());
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    write_result_file(&ctx, &outcome)?;
    let checks = &outcome.checks;
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted.max(1),
        checks.failed,
        metrics.join(", ")
    );
    Ok(())
}

/// The `'static` per-layer metric name equal to `name`, if any.
fn static_name(name: &str) -> Option<&'static str> {
    PER_LAYER.iter().map(|&(n, _)| n).find(|&n| n == name)
}

/// Writes everything the run measured, with the host facts, to
/// `.bench_out/result-<workload>-seed<seed>-trace<t>.json`.
fn write_result_file(ctx: &Ctx, outcome: &Outcome) -> std::io::Result<()> {
    let h = &ctx.host;
    let mut body = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"host\": {{\"nproc\": {}, \"kernel_backend\": \"{}\", \"threads_requested\": {}, \
         \"threads_used\": {}, \"threads_clamped\": {}}}, \"attempted\": {}, \"failed\": {}",
        ctx.args.workload,
        ctx.args.seed,
        ctx.args.seconds.as_secs(),
        ctx.args.trace,
        h.nproc,
        h.kernel_backend,
        h.threads_requested,
        h.threads_used,
        h.clamped(),
        outcome.checks.attempted,
        outcome.checks.failed,
    );
    let group = |entries: Vec<String>| format!("{{{}}}", entries.join(", "));
    body += &format!(
        ", \"named\": {}",
        group(
            outcome
                .named
                .iter()
                .map(|(n, v, u)| format!(
                    "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                    json_num(*v)
                ))
                .collect()
        )
    );
    for (key, map) in [("end_to_end", &outcome.e2e), ("per_layer", &outcome.layers)] {
        body += &format!(
            ", \"{key}\": {}",
            group(
                map.iter()
                    .map(|(n, v)| format!("\"{n}\": {}", json_num(*v)))
                    .collect()
            )
        );
    }
    body += "}\n";
    let path = ctx.out_dir.join(format!(
        "result-{}-seed{}-trace{}.json",
        ctx.args.workload,
        ctx.args.seed,
        u8::from(ctx.args.trace)
    ));
    std::fs::write(path, body)
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// Writes `path` and forces it to disk, so "released" means durable.
///
/// # Errors
/// I/O failures.
pub fn sync_file(path: &Path) -> std::io::Result<()> {
    std::fs::File::open(path)?.sync_all()
}

/// FNV-1a over `bytes`: the fingerprint byte-identity checks compare.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse("--workload train-ooc --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(a.workload, "train-ooc");
        assert_eq!((a.seed, a.seconds.as_secs(), a.trace), (7, 12, true));
        assert!(parse("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(parse("--workload serve-mixed --seed 1 --seconds 0").is_err());
        assert!(parse("--workload serve-mixed --seconds 3").is_err());
        assert!(parse("--workload serve-mixed --seed 1 --seconds 3 --trace 2").is_err());
    }

    /// `(name, unit)` pairs of every metric `BENCHMARK.json` declares,
    /// and the workload names, in file order.
    fn declared() -> (Vec<(String, String)>, Vec<String>) {
        let text = include_str!("../../BENCHMARK.json");
        let quoted = |s: &str| -> String { s.split('"').nth(1).unwrap_or_default().to_string() };
        let (mut metrics, mut workloads) = (Vec::new(), Vec::new());
        for chunk in text.split("\"name\":").skip(1) {
            let name = quoted(chunk);
            match chunk.split_once("\"unit\":") {
                Some((before, after)) if !before.contains('}') => {
                    metrics.push((name, quoted(after)))
                }
                _ => workloads.push(name),
            }
        }
        (metrics, workloads)
    }

    #[test]
    fn benchmark_json_declares_exactly_the_reported_metrics() {
        let (metrics, workloads) = declared();
        let reported: Vec<(String, String)> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(metrics, reported);
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        for n in &names {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }
}
