//! The `advsgm` command-line interface: train embeddings (with live
//! progress and crash-safe checkpointing), persist them in the `.aemb`
//! format (`docs/FORMAT.md`), and serve queries from the file.
//!
//! ```text
//! advsgm train --out emb.aemb [--dataset ppi] [--scale 0.1]
//!              [--edges FILE|FILE.agph] [--partitions P]
//!              [--variant advsgm] [--epsilon 6] [--delta 1e-5] [--sigma 5]
//!              [--epochs N] [--dim 128] [--batch-size 128] [--lr 0.1]
//!              [--threads N] [--seed 0]
//!              [--checkpoint-every N] [--checkpoint PATH] [--resume PATH]
//! advsgm convert --out graph.agph [--dataset ppi] [--scale 0.1]
//!              [--edges FILE] [--seed 0] [--buckets P]
//! advsgm audit --out results/AUDIT_membership.json [--dataset ppi] [--scale 0.05]
//!              [--targets 3] [--runs 5] [--confidence 0.95] [--no-ablation]
//!              [model flags as for train]
//! advsgm query --store emb.aemb --node U [--top-k 10]
//!              [--index emb.aidx --approx 0.95]
//! advsgm query --remote HOST:PORT --node U [--top-k 10] [--approx 0.95]
//! advsgm query --store emb.aemb --pair U V
//! advsgm info  --store emb.aemb
//! advsgm index --store emb.aemb --out emb.aidx [--nlist N]
//! advsgm serve --store emb.aemb [--index emb.aidx | --build-index]
//!              [--addr 127.0.0.1:7878] [--cache 1024]
//! advsgm stop  --addr HOST:PORT
//! ```
//!
//! The CLI is a thin shell over `advsgm::api`: `parse_train` assembles a
//! [`PipelineBuilder`] (so configuration validation happens exactly once,
//! inside [`PipelineBuilder::build`]), `train` drives a [`Pipeline`] with
//! an observer for progress lines and the built-in checkpoint policy,
//! `query`/`info` serve from an [`EmbeddingService`], and
//! `index`/`serve`/`stop` front the sublinear serving stack
//! (`advsgm::serve`, DESIGN.md §12).
//!
//! `audit` runs the membership-inference harness
//! ([`advsgm::api::audit_membership`], DESIGN.md §13) against the same
//! pipeline and writes the `results/AUDIT_membership.json` artifact.
//!
//! `convert` writes a graph out as a partitioned `.agph` file
//! (`docs/FORMAT.md`), the disk-resident input of the out-of-core
//! training path: `train --edges g.agph --partitions P` trains out of
//! core, keeping at most two embedding partitions in memory while
//! producing bitwise-identical releases (DESIGN.md §14).
//!
//! Argument parsing is hand-rolled: a handful of subcommands and a score
//! of flags do not justify a CLI dependency outside the vendored crate
//! set. Each subcommand declares its flags once, as a table of names and
//! value counts built from shared groups (`GRAPH_FLAGS`, `MODEL_FLAGS`).
//! `parse_flags` splits the tokens by that table, and each `parse_*`
//! function converts the values into its argument struct. Parsing is
//! pure, so it is unit-tested without touching the filesystem.

use std::fmt::Display;
use std::io::Write;
use std::num::NonZeroUsize;
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::OnceLock;

use advsgm::api::{
    audit_membership, load_graph, AuditConfig, Checkpoint, Delta, Dim, EmbeddingService, Epsilon,
    ModelVariant, NoiseSigma, Pipeline, PipelineBuilder, PipelineEvent, StopReason,
};
use advsgm::datasets::{dataset_by_name, synthesize};
use advsgm::graph::Graph;
use advsgm::parallel::{resolve_threads, ThreadPool};
use advsgm::serve::{client::ServeClient, ServeConfig, Server};
use advsgm::store::{IndexParams, IvfIndex};

const USAGE: &str = "usage:
  advsgm train --out PATH [--dataset NAME] [--scale F] [--edges FILE]
               [--partitions P]
               [--variant sgm|dp-sgm|dp-asgm|advsgm|advsgm-nodp|
                          signed-advsgm|sp-advsgm]
               [--epsilon F] [--delta F] [--sigma F] [--epochs N]
               [--dim N] [--batch-size N] [--lr F] [--threads N] [--seed N]
               [--checkpoint-every N] [--checkpoint PATH] [--resume PATH]
  advsgm convert --out PATH [--dataset NAME] [--scale F] [--edges FILE]
               [--seed N] [--buckets P]
  advsgm audit [--out PATH] [--dataset NAME] [--scale F] [--edges FILE]
               [--variant ...] [--epsilon F] [--delta F] [--sigma F]
               [--epochs N] [--dim N] [--batch-size N] [--lr F]
               [--seed N] [--threads N] [--targets N] [--runs N]
               [--test-fraction F] [--confidence F] [--no-ablation]
  advsgm query --store PATH --node U [--top-k K]
               [--index PATH --approx RECALL]
  advsgm query --remote HOST:PORT --node U [--top-k K] [--approx RECALL]
  advsgm query --store PATH --pair U V
  advsgm info  [--store PATH] [--host]
  advsgm index --store PATH --out PATH [--nlist N] [--kmeans-iters N]
               [--sample-queries N]
  advsgm serve --store PATH [--index PATH | --build-index]
               [--addr HOST:PORT] [--cache N] [--max-requests N]
  advsgm stop  --addr HOST:PORT

train flags:
  --batch-size N        pairs per discriminator batch B (default 128)
  --lr F                learning rate for both eta_d and eta_g (default 0.1)
  --threads N           worker threads for the training engine (every count
                        releases the same bytes); precedence: an explicit
                        N > 0 here overrides the ADVSGM_THREADS environment
                        variable, 0 (the default) defers to ADVSGM_THREADS,
                        and with both unset training runs on 1 thread
  --edges FILE          load the graph from FILE instead of synthesizing
                        --dataset: .agph files go through the verified
                        partitioned codec, anything else is parsed as a
                        whitespace edge-list (as for convert and audit)
  --partitions P        train out of core with P node buckets: embeddings
                        live on disk and at most two bucket partitions are
                        resident at once, bitwise-identical to training
                        in RAM; 0 (the default) trains in RAM. With
                        --resume this is a residency hint only (any P
                        continues the checkpointed trajectory exactly)
  --checkpoint-every N  write a resumable .actk checkpoint every N epochs
  --checkpoint PATH     checkpoint file (default: <out>.actk)
  --resume PATH         resume a checkpointed run bitwise-exactly; only
                        --out/--dataset/--scale/--edges/--epochs and the
                        checkpoint flags may accompany it (the rest of the
                        configuration is pinned by the checkpoint)

audit flags (model flags as for train; --dim 32 / --epochs 5 defaults):
  --out PATH            report path (default results/AUDIT_membership.json)
  --targets N           target edges in the audit panel (default 3)
  --runs N              training runs per world per edge (default 5; the
                        audit trains 2 * targets * runs releases)
  --test-fraction F     held-out split fraction supplying the panel
                        (default 0.1)
  --confidence F        Clopper-Pearson confidence level (default 0.95)
  --threads N           fan-out width for paired training runs; 0 = auto
                        (ADVSGM_THREADS, else 1); each run trains on 1
                        thread regardless
  --no-ablation         skip the sigma->0 (no-DP) sensitivity check

convert flags:
  --out PATH            the .agph file to write (required)
  --buckets P           node buckets to partition the edge sections into
                        (default 1); training may use any partition count
                        regardless of how the file was bucketed

serving flags:
  --index PATH          load a prebuilt .aidx ANN index (query: enables
                        --approx; serve: serves approximate requests)
  --approx RECALL       answer top-k through the ANN index at a recall
                        target in [0,1] (1.0 = exact); requires --index
                        locally, always available against --remote
  --remote HOST:PORT    query a running `advsgm serve` over the wire
                        instead of opening a store file
  --build-index         serve: build the index in memory at startup
                        instead of loading an .aidx file. `index` and
                        --build-index build on ADVSGM_THREADS threads
                        (else 1); the index is the same at every width
  --cache N             serve: SIEVE cache capacity in top-k results
                        (default 1024; 0 disables)
  --max-requests N      serve: exit after answering N requests
  --host                info: report detected CPU features and the kernel
                        backend the process would select (no store needed)

kernel backend (ADVSGM_KERNELS):
  every hot kernel dispatches through a runtime-selected backend:
  scalar | avx2 | neon. Precedence mirrors ADVSGM_THREADS: a set, valid,
  host-supported ADVSGM_KERNELS value wins; an unsupported or unknown
  value degrades to auto-detection (reported by `info --host`); unset
  auto-detects the strongest supported backend. Training and serving,
  exact and approximate, are bitwise-identical across backends";

/// Set by the first failed write to stdout, after which output is
/// dropped: `None` when the reader went away (`BrokenPipe`), else the
/// error, which fails the command.
static STDOUT_FAILED: OnceLock<Option<String>> = OnceLock::new();

/// `println!` for the CLI's output: every line goes through [`emit`].
macro_rules! out {
    ($($arg:tt)*) => {
        emit(format_args!($($arg)*))
    };
}

/// Writes one line to stdout. When the reader has gone away
/// (`BrokenPipe`), the output has ended: this line and every later one
/// are dropped, and the command runs to completion with its own exit
/// status, so a `train` whose progress reader exited still writes its
/// `.aemb`. Any other write error also ends the output, and `main` then
/// reports it as the command's error.
fn emit(line: std::fmt::Arguments<'_>) {
    if STDOUT_FAILED.get().is_some() {
        return;
    }
    if let Err(e) = writeln!(std::io::stdout().lock(), "{line}") {
        let _ =
            STDOUT_FAILED.set((e.kind() != std::io::ErrorKind::BrokenPipe).then(|| e.to_string()));
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let cmd = match args.next() {
        Some(c) => c,
        None => {
            // A failed write to stderr has nowhere left to be reported,
            // so it is ignored rather than turned into a panic.
            let _ = writeln!(std::io::stderr(), "{USAGE}");
            return ExitCode::from(2);
        }
    };
    let rest: Vec<String> = args.collect();
    let result = match cmd.as_str() {
        "train" => parse_train(&rest).and_then(cmd_train),
        "convert" => parse_convert(&rest).and_then(cmd_convert),
        "audit" => parse_audit(&rest).and_then(cmd_audit),
        "query" => parse_query(&rest).and_then(cmd_query),
        "info" => parse_info(&rest).and_then(cmd_info),
        "index" => parse_index(&rest).and_then(cmd_index),
        "serve" => parse_serve(&rest).and_then(cmd_serve),
        "stop" => parse_stop(&rest).and_then(cmd_stop),
        "--help" | "-h" | "help" => {
            out!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown subcommand {other:?}\n{USAGE}")),
    };
    let result = result.and_then(|()| match STDOUT_FAILED.get() {
        Some(Some(e)) => Err(format!("writing output: {e}")),
        _ => Ok(()),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            let _ = writeln!(std::io::stderr(), "advsgm {cmd}: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// A flag a subcommand accepts, with the number of values that follow it.
type Flag = (&'static str, usize);

/// The graph source, shared by `train`, `convert` and `audit`.
const GRAPH_FLAGS: &[Flag] = &[("--dataset", 1), ("--scale", 1), ("--edges", 1)];

/// The model configuration, shared by `train` and `audit`.
const MODEL_FLAGS: &[Flag] = &[
    ("--variant", 1),
    ("--epsilon", 1),
    ("--delta", 1),
    ("--sigma", 1),
    ("--epochs", 1),
    ("--dim", 1),
    ("--batch-size", 1),
    ("--lr", 1),
    ("--seed", 1),
];

/// `train`'s engine flags. `--resume` pins them, and every model flag
/// but `--epochs`, to the checkpoint's values.
const ENGINE_FLAGS: &[Flag] = &[("--threads", 1)];

const TRAIN_FLAGS: &[&[Flag]] = &[
    GRAPH_FLAGS,
    MODEL_FLAGS,
    ENGINE_FLAGS,
    &[
        ("--out", 1),
        ("--partitions", 1),
        ("--checkpoint-every", 1),
        ("--checkpoint", 1),
        ("--resume", 1),
    ],
];
const CONVERT_FLAGS: &[&[Flag]] = &[
    GRAPH_FLAGS,
    &[("--out", 1), ("--seed", 1), ("--buckets", 1)],
];
const AUDIT_FLAGS: &[&[Flag]] = &[
    GRAPH_FLAGS,
    MODEL_FLAGS,
    &[
        ("--out", 1),
        ("--threads", 1),
        ("--targets", 1),
        ("--runs", 1),
        ("--test-fraction", 1),
        ("--confidence", 1),
        ("--no-ablation", 0),
    ],
];
const QUERY_FLAGS: &[&[Flag]] = &[&[
    ("--store", 1),
    ("--index", 1),
    ("--remote", 1),
    ("--node", 1),
    ("--pair", 2),
    ("--top-k", 1),
    ("--approx", 1),
]];
const INFO_FLAGS: &[&[Flag]] = &[&[("--store", 1), ("--host", 0)]];
const INDEX_FLAGS: &[&[Flag]] = &[&[
    ("--store", 1),
    ("--out", 1),
    ("--nlist", 1),
    ("--kmeans-iters", 1),
    ("--sample-queries", 1),
]];
const SERVE_FLAGS: &[&[Flag]] = &[&[
    ("--store", 1),
    ("--index", 1),
    ("--build-index", 0),
    ("--addr", 1),
    ("--cache", 1),
    ("--max-requests", 1),
]];
const STOP_FLAGS: &[&[Flag]] = &[&[("--addr", 1)]];

/// The entry for `name` in `table`.
fn lookup(table: &[&[Flag]], name: &str) -> Option<Flag> {
    table.concat().into_iter().find(|flag| flag.0 == name)
}

/// The flags one command line passed, in command-line order, each with
/// the values that followed it.
struct Flags(Vec<(&'static str, Vec<String>)>);

/// Splits `tokens` into the flags of `table` that were passed: the one
/// place that rejects an unknown flag or a missing value.
fn parse_flags(tokens: &[String], table: &[&[Flag]]) -> Result<Flags, String> {
    let mut flags = Vec::new();
    let mut rest = tokens;
    while let Some((token, tail)) = rest.split_first() {
        let (name, count) =
            lookup(table, token).ok_or_else(|| format!("unknown flag {token}\n{USAGE}"))?;
        if tail.len() < count {
            return Err(format!("{name} needs a value"));
        }
        let (values, next) = tail.split_at(count);
        flags.push((name, values.to_vec()));
        rest = next;
    }
    Ok(Flags(flags))
}

impl Flags {
    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|(n, _)| *n == name)
    }

    /// Every value passed for `name`, parsed as `T` and then passed
    /// through `check`. A bad value is an error even when a later
    /// occurrence of the flag replaces it.
    fn all<T: FromStr<Err: Display>, U>(
        &self,
        name: &str,
        check: impl Fn(T) -> Result<U, String>,
    ) -> Result<Vec<U>, String> {
        self.0
            .iter()
            .filter(|(n, _)| *n == name)
            .flat_map(|(_, values)| values)
            .map(|v| check(v.parse().map_err(|e| format!("{name}: {e}"))?))
            .collect()
    }

    /// The last value passed for `name`, checked as by [`Flags::all`].
    fn get<T: FromStr<Err: Display>, U>(
        &self,
        name: &str,
        check: impl Fn(T) -> Result<U, String>,
    ) -> Result<Option<U>, String> {
        Ok(self.all(name, check)?.pop())
    }

    fn value<T: FromStr<Err: Display>>(&self, name: &str) -> Result<Option<T>, String> {
        self.get(name, Ok)
    }

    fn required(&self, name: &str) -> Result<String, String> {
        self.value(name)?
            .ok_or_else(|| format!("{name} is required\n{USAGE}"))
    }

    /// The last value passed for `name`; a value `ok` rejects is an
    /// error saying that `name` must be `what`.
    fn checked<T: FromStr<Err: Display> + Display>(
        &self,
        name: &str,
        what: &str,
        ok: impl Fn(&T) -> bool,
    ) -> Result<Option<T>, String> {
        self.get(name, |v: T| {
            if ok(&v) {
                Ok(v)
            } else {
                Err(format!("{name} must be {what}, got {v}"))
            }
        })
    }

    /// The last value passed for a count that must not be 0.
    fn positive<T: FromStr<Err: Display> + Display + Default + PartialEq>(
        &self,
        name: &str,
    ) -> Result<Option<T>, String> {
        self.checked(name, "positive", |n| *n != T::default())
    }
}

/// Reads the graph flags: the dataset (default `ppi`), its scale, which
/// must lie in (0,1], and an optional graph file.
fn graph_flags(flags: &Flags, default_scale: f64) -> Result<(String, f64, Option<String>), String> {
    let scale = flags.checked("--scale", "in (0,1]", |s: &f64| *s > 0.0 && *s <= 1.0)?;
    Ok((
        flags.value("--dataset")?.unwrap_or_else(|| "ppi".into()),
        scale.unwrap_or(default_scale),
        flags.value("--edges")?,
    ))
}

/// Applies the model flags to `builder`.
fn apply_model_flags(
    flags: &Flags,
    mut builder: PipelineBuilder,
) -> Result<PipelineBuilder, String> {
    if let Some(v) = flags.get("--variant", |name: String| parse_variant(&name))? {
        builder = builder.variant(v);
    }
    if let Some(eps) = flags.get("--epsilon", |raw| {
        Epsilon::new(raw).map_err(|e| format!("--epsilon: {e}"))
    })? {
        builder = builder.epsilon(eps);
    }
    if let Some(delta) = flags.get("--delta", |raw| {
        Delta::new(raw).map_err(|e| format!("--delta: {e}"))
    })? {
        builder = builder.delta(delta);
    }
    if let Some(sigma) = flags.get("--sigma", |raw| {
        NoiseSigma::new(raw).map_err(|e| format!("--sigma: {e}"))
    })? {
        builder = builder.sigma(sigma);
    }
    if let Some(epochs) = flags.value("--epochs")? {
        builder = builder.epochs(epochs);
    }
    if let Some(dim) = flags.get("--dim", |raw| {
        Dim::new(raw).map_err(|e| format!("--dim: {e}"))
    })? {
        builder = builder.dim(dim);
    }
    if let Some(batch) = flags.positive("--batch-size")? {
        builder = builder.batch_size(batch);
    }
    // The paper sets eta_d = eta_g (Section VI-A); one flag drives both.
    let lr_ok = |lr: &f64| *lr > 0.0 && lr.is_finite();
    if let Some(lr) = flags.checked("--lr", "positive and finite", lr_ok)? {
        builder = builder.learning_rate(lr);
    }
    if let Some(seed) = flags.value("--seed")? {
        builder = builder.seed(seed);
    }
    Ok(builder)
}

fn parse_variant(name: &str) -> Result<ModelVariant, String> {
    Ok(match name.to_ascii_lowercase().as_str() {
        "sgm" => ModelVariant::Sgm,
        "dp-sgm" | "dpsgm" => ModelVariant::DpSgm,
        "dp-asgm" | "dpasgm" => ModelVariant::DpAsgm,
        "advsgm" => ModelVariant::AdvSgm,
        "advsgm-nodp" | "advsgmnodp" => ModelVariant::AdvSgmNoDp,
        "signed-advsgm" | "signedadvsgm" => ModelVariant::SignedAdvSgm,
        "sp-advsgm" | "spadvsgm" => ModelVariant::SpAdvSgm,
        other => {
            return Err(format!(
                "unknown variant {other:?} (sgm, dp-sgm, dp-asgm, advsgm, advsgm-nodp, \
                 signed-advsgm, sp-advsgm)"
            ))
        }
    })
}

/// Parsed `advsgm train` arguments. The model configuration lives in a
/// [`PipelineBuilder`] so no code path can hold an `AdvSgmConfig` that
/// skipped the builder's validation.
#[derive(Debug, Clone)]
struct TrainArgs {
    out: String,
    dataset: String,
    scale: f64,
    /// `--edges`: a graph file loaded by extension (`.agph` through the
    /// partitioned codec, anything else as an edge-list).
    edges: Option<String>,
    /// `--partitions`: node buckets for the out-of-core engine; `0`
    /// trains in RAM. Not a model flag — the trajectory is
    /// partition-invariant, so it is legal alongside `--resume`.
    partitions: usize,
    builder: PipelineBuilder,
    /// `--epochs`, remembered separately so `--resume` can extend a run.
    epochs_explicit: Option<usize>,
    checkpoint_every: Option<NonZeroUsize>,
    checkpoint_path: Option<String>,
    resume: Option<String>,
}

fn parse_train(tokens: &[String]) -> Result<TrainArgs, String> {
    let flags = parse_flags(tokens, TRAIN_FLAGS)?;
    let (dataset, scale, edges) = graph_flags(&flags, 0.1)?;
    // A CLI run should finish in seconds by default; paper-scale epochs
    // remain one `--epochs 50` away.
    let mut builder =
        apply_model_flags(&flags, PipelineBuilder::new(ModelVariant::AdvSgm).epochs(5))?;
    // Maps to `AdvSgmConfig::with_threads` via the builder. Precedence:
    // an explicit N > 0 overrides ADVSGM_THREADS; 0 (the default) defers
    // to the environment, else 1.
    if let Some(n) = flags.value("--threads")? {
        builder = builder.threads(n);
    }
    let partitions = flags.value("--partitions")?.unwrap_or(0);
    let epochs_explicit = flags.value("--epochs")?;
    let checkpoint_every = flags
        .positive("--checkpoint-every")?
        .and_then(NonZeroUsize::new);
    let out = flags.required("--out")?;
    let resume = flags.value("--resume")?;
    let pinned: Vec<&str> = flags
        .0
        .iter()
        .map(|flag| flag.0)
        .filter(|&name| name != "--epochs" && lookup(&[MODEL_FLAGS, ENGINE_FLAGS], name).is_some())
        .collect();
    if resume.is_some() && !pinned.is_empty() {
        return Err(format!(
            "--resume pins the model configuration from the checkpoint; \
             remove {} (only --out/--dataset/--scale/--edges/--epochs and \
             the checkpoint flags may accompany --resume)",
            pinned.join(", ")
        ));
    }
    Ok(TrainArgs {
        out,
        dataset,
        scale,
        edges,
        partitions,
        builder,
        epochs_explicit,
        checkpoint_every,
        checkpoint_path: flags.value("--checkpoint")?,
        resume,
    })
}

/// Parsed `advsgm convert` arguments: a graph source (as for `train`)
/// and the `.agph` file to write.
#[derive(Debug, Clone)]
struct ConvertArgs {
    out: String,
    dataset: String,
    scale: f64,
    edges: Option<String>,
    seed: u64,
    buckets: usize,
}

fn parse_convert(tokens: &[String]) -> Result<ConvertArgs, String> {
    let flags = parse_flags(tokens, CONVERT_FLAGS)?;
    let (dataset, scale, edges) = graph_flags(&flags, 0.1)?;
    Ok(ConvertArgs {
        seed: flags.value("--seed")?.unwrap_or(0),
        buckets: flags.positive("--buckets")?.unwrap_or(1),
        out: flags.required("--out")?,
        dataset,
        scale,
        edges,
    })
}

fn cmd_convert(args: ConvertArgs) -> Result<(), String> {
    let graph = build_graph(args.edges.as_deref(), &args.dataset, args.scale, args.seed)?;
    advsgm::store::save_agph(&args.out, &graph, args.buckets)
        .map_err(|e| format!("{}: {e}", args.out))?;
    out!(
        "wrote {}: {} nodes, {} edges in {} bucket section(s) ({})",
        args.out,
        graph.num_nodes(),
        graph.num_edges(),
        args.buckets,
        saved_size(&args.out)
    );
    Ok(())
}

/// Parsed `advsgm audit` arguments: the training configuration under
/// audit (a [`PipelineBuilder`], like `train`) plus the harness geometry
/// (an [`AuditConfig`]).
#[derive(Debug, Clone)]
struct AuditArgs {
    out: String,
    dataset: String,
    scale: f64,
    edges: Option<String>,
    builder: PipelineBuilder,
    cfg: AuditConfig,
    ablation: bool,
}

fn parse_audit(tokens: &[String]) -> Result<AuditArgs, String> {
    let flags = parse_flags(tokens, AUDIT_FLAGS)?;
    let (dataset, scale, edges) = graph_flags(&flags, 0.05)?;
    // The audit trains 2 * targets * runs releases, so the default
    // model is the quick CLI shape (small dim, few epochs); paper
    // scale stays one `--dim 128 --epochs 50` away.
    let quick = PipelineBuilder::new(ModelVariant::AdvSgm)
        .epochs(5)
        .dim(Dim::new(32).expect("32 is a valid dimension"));
    let builder = apply_model_flags(&flags, quick)?;
    // One seed drives both the graph synthesis/panel draw and (through
    // the harness's derivation chain) every run.
    let mut cfg = AuditConfig::new(flags.value("--seed")?.unwrap_or(0));
    if flags.has("--delta") {
        // The empirical bound is stated at the training delta.
        cfg.delta = builder.config().delta;
    }
    // Unlike train, this is the *fan-out* width over paired runs; each
    // individual run trains sequentially.
    cfg.threads = flags.value("--threads")?.unwrap_or(cfg.threads);
    cfg.targets = flags.value("--targets")?.unwrap_or(cfg.targets);
    cfg.runs_per_world = flags.value("--runs")?.unwrap_or(cfg.runs_per_world);
    cfg.test_fraction = flags.value("--test-fraction")?.unwrap_or(cfg.test_fraction);
    cfg.confidence = flags.value("--confidence")?.unwrap_or(cfg.confidence);
    // Geometry/statistics violations get the harness's typed messages at
    // parse time rather than after graph synthesis.
    cfg.validate().map_err(|e| e.to_string())?;
    Ok(AuditArgs {
        out: flags
            .value("--out")?
            .unwrap_or_else(|| "results/AUDIT_membership.json".to_string()),
        dataset,
        scale,
        edges,
        builder,
        cfg,
        ablation: !flags.has("--no-ablation"),
    })
}

fn cmd_audit(args: AuditArgs) -> Result<(), String> {
    let graph = build_graph(
        args.edges.as_deref(),
        &args.dataset,
        args.scale,
        args.cfg.seed,
    )?;
    let per_condition = 2 * args.cfg.targets * args.cfg.runs_per_world;
    let conditions = if args.ablation { 2 } else { 1 };
    out!(
        "auditing {} ({} target edge(s) x {} run(s)/world x 2 worlds = {} training runs{})...",
        args.builder.config().variant.paper_name(),
        args.cfg.targets,
        args.cfg.runs_per_world,
        per_condition * conditions,
        if args.ablation {
            " incl. sigma->0 ablation"
        } else {
            ""
        }
    );
    let start = std::time::Instant::now();
    let report = audit_membership(&graph, &args.builder, &args.cfg, args.ablation)
        .map_err(|e| e.to_string())?;
    report.write(&args.out).map_err(|e| e.to_string())?;

    out!("audited in {:.2?}:", start.elapsed());
    for a in &report.audit.attacks {
        out!(
            "  {:<18} tpr {:.3}  fpr {:.3}  certified eps >= {:.4}",
            a.name,
            a.tpr,
            a.fpr,
            a.empirical_epsilon
        );
    }
    match report.audit.stamped_epsilon {
        Some(stamp) => out!(
            "  empirical eps >= {:.4} vs stamped eps = {:.4} -> {}",
            report.audit.empirical_epsilon,
            stamp,
            report.verdict
        ),
        None => out!(
            "  empirical eps >= {:.4} (release is unstamped) -> {}",
            report.audit.empirical_epsilon,
            report.verdict
        ),
    }
    if let Some(ablation) = &report.ablation {
        out!(
            "  sigma->0 ablation: empirical eps >= {:.4} (attack power check)",
            ablation.empirical_epsilon
        );
    }
    out!("wrote {}", args.out);
    Ok(())
}

/// What an `advsgm query` invocation asks for.
#[derive(Debug, Clone, PartialEq, Eq)]
enum QueryTarget {
    /// Top-k neighbors of one node.
    Node { node: usize, top_k: usize },
    /// The Eq. 2 link score of one pair.
    Pair { u: usize, v: usize },
}

/// Where an `advsgm query` resolves: a local store file or a running
/// `advsgm serve` endpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
enum QuerySource {
    /// Open a local `.aemb` (optionally with an `.aidx` alongside).
    Local {
        store: String,
        index: Option<String>,
    },
    /// Talk to a serving endpoint over the wire protocol.
    Remote { addr: String },
}

/// Parsed `advsgm query` arguments.
#[derive(Debug, Clone)]
struct QueryArgs {
    source: QuerySource,
    target: QueryTarget,
    /// Recall target for approximate top-k; `None` = exact.
    approx: Option<f64>,
}

fn parse_query(tokens: &[String]) -> Result<QueryArgs, String> {
    let flags = parse_flags(tokens, QUERY_FLAGS)?;
    let node: Option<usize> = flags.value("--node")?;
    let pair = flags
        .all("--pair", Ok::<usize, String>)?
        .chunks_exact(2)
        .next_back()
        .map(|p| (p[0], p[1]));
    let top_k: usize = flags.value("--top-k")?.unwrap_or(10);
    let approx = flags.checked("--approx", "in [0,1]", |r: &f64| (0.0..=1.0).contains(r))?;
    let index = flags.value("--index")?;
    let source = match (flags.value("--remote")?, flags.value("--store")?) {
        (Some(_), Some(_)) => {
            return Err("pass either --store PATH or --remote HOST:PORT, not both".into())
        }
        (Some(addr), None) => {
            if index.is_some() {
                return Err("--index is a local-store flag; the server owns its index".into());
            }
            QuerySource::Remote { addr }
        }
        (None, Some(store)) => QuerySource::Local { store, index },
        (None, None) => {
            return Err(format!("--store or --remote is required\n{USAGE}"));
        }
    };
    if approx.is_some() && matches!(source, QuerySource::Local { index: None, .. }) {
        return Err("--approx needs an ANN index: pass --index PATH (or query --remote)".into());
    }
    let target = match (pair, node) {
        (Some(_), Some(_)) => {
            return Err("pass either --node U or --pair U V, not both".into());
        }
        (Some((u, v)), None) => QueryTarget::Pair { u, v },
        (None, Some(node)) => QueryTarget::Node { node, top_k },
        (None, None) => return Err(format!("need --node U or --pair U V\n{USAGE}")),
    };
    Ok(QueryArgs {
        source,
        target,
        approx,
    })
}

/// Parsed `advsgm info` arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
struct InfoArgs {
    store: Option<String>,
    host: bool,
}

fn parse_info(tokens: &[String]) -> Result<InfoArgs, String> {
    let flags = parse_flags(tokens, INFO_FLAGS)?;
    let args = InfoArgs {
        store: flags.value("--store")?,
        host: flags.has("--host"),
    };
    if args.store.is_none() && !args.host {
        return Err(format!("pass --store PATH and/or --host\n{USAGE}"));
    }
    Ok(args)
}

/// Parsed `advsgm index` arguments.
#[derive(Debug, Clone, PartialEq)]
struct IndexArgs {
    store: String,
    out: String,
    params: IndexParams,
}

fn parse_index(tokens: &[String]) -> Result<IndexArgs, String> {
    let flags = parse_flags(tokens, INDEX_FLAGS)?;
    let defaults = IndexParams::default();
    let params = IndexParams {
        nlist: flags.value("--nlist")?.unwrap_or(defaults.nlist),
        kmeans_iters: flags
            .positive("--kmeans-iters")?
            .unwrap_or(defaults.kmeans_iters),
        sample_queries: flags
            .positive("--sample-queries")?
            .unwrap_or(defaults.sample_queries),
        ..defaults
    };
    Ok(IndexArgs {
        store: flags.required("--store")?,
        out: flags.required("--out")?,
        params,
    })
}

/// Parsed `advsgm serve` arguments.
#[derive(Debug, Clone, PartialEq)]
struct ServeArgs {
    store: String,
    index: Option<String>,
    build_index: bool,
    addr: String,
    cache: usize,
    max_requests: Option<u64>,
}

fn parse_serve(tokens: &[String]) -> Result<ServeArgs, String> {
    let flags = parse_flags(tokens, SERVE_FLAGS)?;
    let cache = flags.value("--cache")?.unwrap_or(1024);
    let max_requests = flags.positive("--max-requests")?;
    let index = flags.value("--index")?;
    let build_index = flags.has("--build-index");
    if index.is_some() && build_index {
        return Err("pass either --index PATH or --build-index, not both".into());
    }
    Ok(ServeArgs {
        store: flags.required("--store")?,
        index,
        build_index,
        addr: flags
            .value("--addr")?
            .unwrap_or_else(|| "127.0.0.1:7878".to_string()),
        cache,
        max_requests,
    })
}

/// Parsed `advsgm stop` arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
struct StopArgs {
    addr: String,
}

fn parse_stop(tokens: &[String]) -> Result<StopArgs, String> {
    let flags = parse_flags(tokens, STOP_FLAGS)?;
    Ok(StopArgs {
        addr: flags.required("--addr")?,
    })
}

/// Builds a graph from a graph file ([`load_graph`]) or the named
/// synthetic dataset (scaled), announcing what was loaded. Shared by
/// `train`, `convert` and `audit`.
fn build_graph(edges: Option<&str>, dataset: &str, scale: f64, seed: u64) -> Result<Graph, String> {
    match edges {
        Some(path) => {
            let g = load_graph(path).map_err(|e| format!("{path}: {e}"))?;
            out!(
                "loaded {path}: {} nodes, {} edges",
                g.num_nodes(),
                g.num_edges()
            );
            Ok(g)
        }
        None => {
            let d = dataset_by_name(dataset).ok_or_else(|| {
                format!(
                    "unknown dataset {dataset:?} (PPI, Facebook, Wiki, Blog, Epinions, DBLP, \
                     Polarity)"
                )
            })?;
            let spec = d.spec().scaled(scale);
            let g = synthesize(&spec, seed);
            out!(
                "synthesized {} at scale {scale}: {} nodes, {} edges",
                d.name(),
                g.num_nodes(),
                g.num_edges()
            );
            Ok(g)
        }
    }
}

fn cmd_train(args: TrainArgs) -> Result<(), String> {
    match args.resume.clone() {
        None => {
            let graph = build_graph(
                args.edges.as_deref(),
                &args.dataset,
                args.scale,
                args.builder.config().seed,
            )?;
            let pipeline = args
                .builder
                .clone()
                .partitions(args.partitions)
                .build(&graph)
                .map_err(|e| e.to_string())?;
            run_training(&args, pipeline)
        }
        Some(resume_path) => {
            let mut ckpt = Checkpoint::load(&resume_path)
                .map_err(|e| format!("--resume {resume_path}: {e}"))?;
            if let Some(e) = args.epochs_explicit {
                // Extending (or shortening, down to the completed count)
                // the schedule is the one legal override: batch draws
                // never depend on the total epoch count.
                ckpt.extend_epochs(e).map_err(|e| e.to_string())?;
            }
            if args.partitions > 0 {
                // A residency hint only: out-of-core checkpoints resume
                // under any bucket count, bitwise-exactly.
                ckpt.set_partitions(args.partitions);
            }
            // The graph must be the checkpoint's graph; for synthetic
            // datasets that means the checkpoint's seed, and resume
            // re-verifies the stored fingerprint either way.
            let graph = build_graph(
                args.edges.as_deref(),
                &args.dataset,
                args.scale,
                ckpt.seed(),
            )?;
            out!(
                "resumed {resume_path}: {}/{} epochs done, {} discriminator updates",
                ckpt.epochs_done(),
                ckpt.config().epochs,
                ckpt.disc_updates()
            );
            let pipeline = Pipeline::resume_from(&graph, ckpt).map_err(|e| e.to_string())?;
            run_training(&args, pipeline)
        }
    }
}

/// Drives a (fresh or resumed) pipeline to completion with progress +
/// checkpoint reporting, then persists the released store.
fn run_training(args: &TrainArgs, pipeline: Pipeline<'_>) -> Result<(), String> {
    let cfg = pipeline.config().clone();
    out!(
        "training {} (dim {}, {} epochs, batch {}, lr {}, {} thread(s))...",
        cfg.variant.paper_name(),
        cfg.dim,
        cfg.epochs,
        cfg.batch_size,
        cfg.eta_d,
        pipeline.threads()
    );
    let mut pipeline = pipeline.observe(|event| match event {
        PipelineEvent::Epoch(e) => {
            let spend = match &e.spend {
                Some(s) => format!("  eps {:.4}  delta {:.2e}", s.epsilon_spent, s.delta_spent),
                None => String::new(),
            };
            match (e.stop, e.loss) {
                (Some(StopReason::BudgetExhausted), _) => {
                    out!(
                        "epoch {:>3}/{}: privacy budget exhausted after {} updates{spend}",
                        e.epoch + 1,
                        e.epochs_total,
                        e.disc_updates
                    );
                }
                (_, Some(loss)) => {
                    out!(
                        "epoch {:>3}/{}  |L_Nov| {loss:.4}{spend}",
                        e.epoch + 1,
                        e.epochs_total
                    );
                }
                (_, None) => {}
            }
        }
        PipelineEvent::CheckpointSaved { path, epochs_done } => {
            out!("checkpoint: wrote {} (epoch {epochs_done})", path.display());
        }
        _ => {}
    });
    if let Some(every) = args.checkpoint_every {
        let path = args
            .checkpoint_path
            .clone()
            .unwrap_or_else(|| format!("{}.actk", args.out));
        pipeline = pipeline.checkpoint_every(every, path);
    }

    let start = std::time::Instant::now();
    let trained = pipeline.train().map_err(|e| e.to_string())?;
    let outcome = trained.outcome();
    out!(
        "trained in {:.2?}: {} epochs, {} discriminator updates{}{}",
        start.elapsed(),
        outcome.epochs_run,
        outcome.disc_updates,
        if outcome.stopped_by_budget {
            " (stopped by privacy budget)"
        } else {
            ""
        },
        if trained.checkpoints_written() > 0 {
            format!(", {} checkpoint(s) written", trained.checkpoints_written())
        } else {
            String::new()
        }
    );

    let store = trained.store();
    store
        .save(&args.out)
        .map_err(|e| format!("{}: {e}", args.out))?;
    out!(
        "saved {} nodes x {} dims to {} ({}); privacy: {}",
        store.len(),
        store.dim(),
        args.out,
        saved_size(&args.out),
        store.meta()
    );
    Ok(())
}

fn print_neighbors(node: usize, top_k: usize, neighbors: &[advsgm::store::Neighbor]) {
    out!("top {top_k} neighbors of node {node}:");
    out!("{:>10}  {:>10}  {:>14}", "row", "id", "score");
    for n in neighbors {
        out!("{:>10}  {:>10}  {:>14.6}", n.node, n.id, n.score);
    }
}

fn cmd_query(args: QueryArgs) -> Result<(), String> {
    match &args.source {
        QuerySource::Remote { addr } => {
            let mut client =
                ServeClient::connect(addr.as_str()).map_err(|e| format!("{addr}: {e}"))?;
            match args.target {
                QueryTarget::Pair { u, v } => {
                    let s = client
                        .score(u as u64, v as u64)
                        .map_err(|e| e.to_string())?;
                    out!("score({u}, {v}) = {s}");
                }
                QueryTarget::Node { node, top_k } => {
                    let neighbors = match args.approx {
                        Some(recall) => client.top_k_approx(node as u64, top_k as u32, recall),
                        None => client.top_k(node as u64, top_k as u32),
                    }
                    .map_err(|e| e.to_string())?;
                    print_neighbors(node, top_k, &neighbors);
                }
            }
        }
        QuerySource::Local { store, index } => {
            let mut service = EmbeddingService::open(store).map_err(|e| e.to_string())?;
            if let Some(index_path) = index {
                let idx = IvfIndex::load(index_path).map_err(|e| format!("{index_path}: {e}"))?;
                service.attach_index(idx).map_err(|e| e.to_string())?;
            }
            match args.target {
                QueryTarget::Pair { u, v } => {
                    let s = service.score(u, v).map_err(|e| e.to_string())?;
                    out!("score({u}, {v}) = {s}");
                }
                QueryTarget::Node { node, top_k } => {
                    let neighbors = match args.approx {
                        Some(recall) => {
                            let got = service
                                .top_k_approx_with_stats(node, top_k, recall)
                                .map_err(|e| e.to_string())?;
                            out!(
                                "approx (recall target {recall}): scanned {} of {} rows",
                                got.rows_scanned,
                                service.len().saturating_sub(1)
                            );
                            got.neighbors
                        }
                        None => service.top_k(node, top_k).map_err(|e| e.to_string())?,
                    };
                    print_neighbors(node, top_k, &neighbors);
                }
            }
        }
    }
    Ok(())
}

fn cmd_index(args: IndexArgs) -> Result<(), String> {
    let store = advsgm::store::EmbeddingStore::load(&args.store)
        .map_err(|e| format!("{}: {e}", args.store))?;
    out!(
        "building IVF index over {} nodes x {} dims...",
        store.len(),
        store.dim()
    );
    let start = std::time::Instant::now();
    // The auto width (ADVSGM_THREADS, else 1), as `serve --build-index`
    // builds on; the bytes do not depend on it. Nothing queries the
    // store, so it is not arranged.
    let mut pool = ThreadPool::new(resolve_threads(0));
    let index = IvfIndex::build_in(&store, args.params, &mut pool).map_err(|e| e.to_string())?;
    index
        .save(&args.out)
        .map_err(|e| format!("{}: {e}", args.out))?;
    out!(
        "built in {:.2?}: {} clusters, {} always-scanned row(s); wrote {} ({})",
        start.elapsed(),
        index.nlist(),
        index.always_scanned(),
        args.out,
        saved_size(&args.out)
    );
    for &(target, nprobe) in index.calibration() {
        out!(
            "  recall >= {target:.2}: probe {nprobe}/{} clusters",
            index.nlist()
        );
    }
    Ok(())
}

fn cmd_serve(args: ServeArgs) -> Result<(), String> {
    let mut service =
        EmbeddingService::open(&args.store).map_err(|e| format!("{}: {e}", args.store))?;
    if let Some(index_path) = &args.index {
        let idx = IvfIndex::load(index_path).map_err(|e| format!("{index_path}: {e}"))?;
        service.attach_index(idx).map_err(|e| e.to_string())?;
        out!("loaded index {index_path}");
    } else if args.build_index {
        let start = std::time::Instant::now();
        let idx = service
            .build_index(IndexParams::default())
            .map_err(|e| e.to_string())?;
        out!(
            "built in-memory index in {:.2?} ({} clusters)",
            start.elapsed(),
            idx.nlist()
        );
    }
    let nodes = service.len();
    let indexed = service.index().is_some();
    let (kernel_backend, kernel_source) = advsgm::linalg::backend::resolution();
    out!(
        "kernel backend {kernel_backend} ({})",
        kernel_source.describe()
    );
    let config = ServeConfig {
        cache_capacity: args.cache,
        max_requests: args.max_requests,
    };
    let server = Server::bind(service, args.addr.as_str(), config)
        .map_err(|e| format!("{}: {e}", args.addr))?;
    out!(
        "serving {} nodes on {} ({}; stop with `advsgm stop --addr {}`)",
        nodes,
        server.local_addr(),
        if indexed {
            "exact + approximate"
        } else {
            "exact only"
        },
        server.local_addr()
    );
    let stats = server.wait();
    out!(
        "served {} request(s): {} cache hit(s), {} error(s)",
        stats.requests,
        stats.cache_hits,
        stats.errors
    );
    Ok(())
}

fn cmd_stop(args: StopArgs) -> Result<(), String> {
    let mut client =
        ServeClient::connect(args.addr.as_str()).map_err(|e| format!("{}: {e}", args.addr))?;
    client.shutdown().map_err(|e| e.to_string())?;
    out!("server at {} acknowledged shutdown", args.addr);
    Ok(())
}

fn cmd_info(args: InfoArgs) -> Result<(), String> {
    if args.host {
        let (backend, source) = advsgm::linalg::backend::resolution();
        out!("host:");
        out!("  arch        {}", std::env::consts::ARCH);
        let features: Vec<String> = advsgm::linalg::backend::host_features()
            .into_iter()
            .map(|(name, detected)| {
                if detected {
                    name.to_string()
                } else {
                    format!("!{name}")
                }
            })
            .collect();
        out!("  features    {}", features.join(" "));
        out!("  kernels     {backend} ({})", source.describe());
    }
    let Some(path) = &args.store else {
        return Ok(());
    };
    // `info` is deliberately format-level introspection, so it reads the
    // raw bytes and the internals `format` module alongside the service.
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    let size = bytes.len();
    let service = EmbeddingService::from_store(
        advsgm::store::EmbeddingStore::from_bytes(&bytes).map_err(|e| e.to_string())?,
    );
    out!("{path}:");
    out!(
        "  format      .aemb v{}",
        advsgm::store::format::FORMAT_VERSION
    );
    out!("  size        {}", human_bytes(size));
    out!("  checksum    ok (crc32)");
    out!("  nodes       {}", service.len());
    out!("  dim         {}", service.dim());
    out!("  privacy     {}", service.privacy());
    Ok(())
}

/// The size of the file a command just saved, for its report line.
fn saved_size(path: &str) -> String {
    human_bytes(std::fs::metadata(path).map_or(0, |m| m.len() as usize))
}

fn human_bytes(n: usize) -> String {
    if n >= 1 << 20 {
        format!("{:.1} MiB", n as f64 / (1 << 20) as f64)
    } else if n >= 1 << 10 {
        format!("{:.1} KiB", n as f64 / (1 << 10) as f64)
    } else {
        format!("{n} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    // ---- train ----

    #[test]
    fn train_happy_path_sets_every_flag() {
        let a = parse_train(&toks(
            "--out e.aemb --dataset wiki --scale 0.5 --variant dp-sgm --epsilon 2 \
             --delta 1e-6 --sigma 3 --epochs 7 --dim 32 --batch-size 64 --lr 0.05 \
             --threads 4 --seed 9 --checkpoint-every 2 --checkpoint c.actk",
        ))
        .unwrap();
        assert_eq!(a.out, "e.aemb");
        assert_eq!(a.dataset, "wiki");
        assert_eq!(a.scale, 0.5);
        let cfg = a.builder.config();
        assert_eq!(cfg.variant, ModelVariant::DpSgm);
        assert_eq!(cfg.epsilon, 2.0);
        assert_eq!(cfg.delta, 1e-6);
        assert_eq!(cfg.sigma, 3.0);
        assert_eq!(cfg.epochs, 7);
        assert_eq!(a.epochs_explicit, Some(7));
        assert_eq!(cfg.dim, 32);
        assert_eq!(cfg.batch_size, 64);
        assert_eq!(cfg.eta_d, 0.05);
        assert_eq!(cfg.eta_g, 0.05, "--lr drives both learning rates");
        assert_eq!(cfg.num_threads, 4);
        assert_eq!(cfg.seed, 9);
        assert_eq!(a.checkpoint_every.map(NonZeroUsize::get), Some(2));
        assert_eq!(a.checkpoint_path.as_deref(), Some("c.actk"));
        cfg.validate().unwrap();
    }

    #[test]
    fn train_defaults_are_quick() {
        let a = parse_train(&toks("--out e.aemb")).unwrap();
        assert_eq!(a.builder.config().epochs, 5);
        assert_eq!(a.epochs_explicit, None);
        assert_eq!(a.builder.config().batch_size, 128);
        assert_eq!(a.checkpoint_every, None);
        assert!(a.resume.is_none());
    }

    #[test]
    fn train_requires_out() {
        let err = parse_train(&toks("--dataset ppi")).unwrap_err();
        assert!(err.contains("--out is required"), "{err}");
    }

    #[test]
    fn train_rejects_unknown_flag() {
        for flag in ["--bogus", "--shard-size", "--graph"] {
            let err = parse_train(&toks(&format!("--out e.aemb {flag} 3"))).unwrap_err();
            assert!(err.contains(&format!("unknown flag {flag}")), "{err}");
        }
    }

    #[test]
    fn train_rejects_missing_value() {
        for flag in ["--out", "--epochs", "--batch-size", "--lr", "--resume"] {
            let err = parse_train(&toks(flag)).unwrap_err();
            assert!(err.contains("needs a value"), "{flag}: {err}");
        }
    }

    #[test]
    fn train_rejects_out_of_range_numerics() {
        for (cmd, needle) in [
            ("--out e --scale 0", "--scale must be in (0,1]"),
            ("--out e --scale 1.5", "--scale must be in (0,1]"),
            ("--out e --batch-size 0", "--batch-size must be positive"),
            ("--out e --lr 0", "--lr must be positive"),
            ("--out e --lr -0.5", "--lr must be positive"),
            ("--out e --lr inf", "--lr must be positive and finite"),
            (
                "--out e --checkpoint-every 0",
                "--checkpoint-every must be positive",
            ),
        ] {
            let err = parse_train(&toks(cmd)).unwrap_err();
            assert!(err.contains(needle), "{cmd}: {err}");
        }
    }

    #[test]
    fn train_rejects_typed_parameter_violations() {
        // The api newtypes reject these at parse time — the flag name and
        // the api's own constraint both appear in the message.
        for (cmd, needle) in [
            ("--out e --epsilon 0", "invalid parameter epsilon"),
            ("--out e --epsilon -2", "invalid parameter epsilon"),
            ("--out e --epsilon inf", "invalid parameter epsilon"),
            ("--out e --delta 0", "invalid parameter delta"),
            ("--out e --delta 1", "invalid parameter delta"),
            ("--out e --sigma 0", "invalid parameter sigma"),
            ("--out e --dim 0", "invalid parameter dim"),
        ] {
            let err = parse_train(&toks(cmd)).unwrap_err();
            assert!(err.contains(needle), "{cmd}: {err}");
            let flag = cmd.split_whitespace().nth(2).unwrap();
            assert!(err.contains(flag), "{cmd}: {err}");
        }
    }

    #[test]
    fn train_parses_graph_and_partitions() {
        let a = parse_train(&toks("--out e.aemb --edges g.agph --partitions 4")).unwrap();
        assert_eq!(a.edges.as_deref(), Some("g.agph"));
        assert_eq!(a.partitions, 4);
        // Not model flags: the trajectory is partition-invariant, so both
        // stay legal alongside --resume.
        let a = parse_train(&toks(
            "--out e.aemb --resume c.actk --edges g.agph --partitions 2",
        ))
        .unwrap();
        assert_eq!(a.partitions, 2);
        assert!(a.resume.is_some());
    }

    // ---- convert ----

    #[test]
    fn convert_happy_path_sets_every_flag() {
        let a = parse_convert(&toks(
            "--out g.agph --dataset wiki --scale 0.5 --seed 9 --buckets 8",
        ))
        .unwrap();
        assert_eq!(a.out, "g.agph");
        assert_eq!(a.dataset, "wiki");
        assert_eq!(a.scale, 0.5);
        assert_eq!(a.seed, 9);
        assert_eq!(a.buckets, 8);
        assert!(a.edges.is_none());
    }

    #[test]
    fn convert_defaults_and_rejections() {
        let a = parse_convert(&toks("--out g.agph")).unwrap();
        assert_eq!((a.buckets, a.seed, a.scale), (1, 0, 0.1));
        let err = parse_convert(&toks("--dataset ppi")).unwrap_err();
        assert!(err.contains("--out is required"), "{err}");
        let err = parse_convert(&toks("--out g.agph --buckets 0")).unwrap_err();
        assert!(err.contains("--buckets must be positive"), "{err}");
        let err = parse_convert(&toks("--out g.agph --bogus 1")).unwrap_err();
        assert!(err.contains("unknown flag --bogus"), "{err}");
    }

    #[test]
    fn train_rejects_unparseable_numerics() {
        for cmd in [
            "--out e --epochs many",
            "--out e --dim 3.5",
            "--out e --batch-size -2",
            "--out e --epsilon six",
            "--out e --seed 0x12",
        ] {
            assert!(parse_train(&toks(cmd)).is_err(), "{cmd} should fail");
        }
    }

    #[test]
    fn train_rejects_unknown_variant() {
        let err = parse_train(&toks("--out e --variant gpt")).unwrap_err();
        assert!(err.contains("unknown variant"), "{err}");
    }

    #[test]
    fn threads_flag_maps_to_with_threads_and_overrides_env() {
        // --threads N lands in AdvSgmConfig::num_threads via the builder's
        // with_threads mapping...
        let pinned = parse_train(&toks("--out e --threads 3")).unwrap();
        assert_eq!(pinned.builder.config().num_threads, 3);
        let auto = parse_train(&toks("--out e")).unwrap();
        assert_eq!(auto.builder.config().num_threads, 0, "default is auto");

        // ...and the precedence is: explicit flag > ADVSGM_THREADS > 1.
        // (This is the only test in this binary touching the variable.)
        std::env::set_var("ADVSGM_THREADS", "7");
        let explicit = pinned.builder.config().effective_threads();
        let deferred = auto.builder.config().effective_threads();
        std::env::remove_var("ADVSGM_THREADS");
        assert_eq!(explicit, 3, "--threads N overrides ADVSGM_THREADS");
        assert_eq!(deferred, 7, "--threads unset defers to ADVSGM_THREADS");
        assert_eq!(
            auto.builder.config().effective_threads(),
            1,
            "both unset falls back to 1 thread"
        );
    }

    #[test]
    fn kernels_env_resolution_precedence() {
        use advsgm::linalg::backend::{resolve_backend, Backend, BackendResolution};
        // Mirror of the --threads precedence table, for ADVSGM_KERNELS
        // (resolve_backend is pure in its argument, so no env mutation).
        // Unset or blank: auto-detect.
        assert_eq!(
            resolve_backend(None),
            (Backend::detect(), BackendResolution::Detected)
        );
        assert_eq!(
            resolve_backend(Some("  ")),
            (Backend::detect(), BackendResolution::Detected)
        );
        // A valid, supported name wins (scalar is supported everywhere;
        // names are case-insensitive and trimmed).
        assert_eq!(
            resolve_backend(Some(" Scalar ")),
            (Backend::Scalar, BackendResolution::EnvSelected)
        );
        // A known backend the host lacks degrades to detection.
        let missing = if cfg!(target_arch = "aarch64") {
            "avx2"
        } else {
            "neon"
        };
        assert_eq!(
            resolve_backend(Some(missing)),
            (Backend::detect(), BackendResolution::EnvUnsupported)
        );
        // Gibberish degrades to detection too, flagged as invalid.
        assert_eq!(
            resolve_backend(Some("sse9")),
            (Backend::detect(), BackendResolution::EnvInvalid)
        );
    }

    #[test]
    fn resume_pins_the_model_configuration() {
        // Dataset/epochs/checkpoint flags may accompany --resume...
        let a = parse_train(&toks(
            "--out e.aemb --resume c.actk --dataset wiki --scale 0.2 --epochs 9 \
             --checkpoint-every 1",
        ))
        .unwrap();
        assert_eq!(a.resume.as_deref(), Some("c.actk"));
        assert_eq!(a.epochs_explicit, Some(9));
        // ...but model flags are rejected, naming the offenders.
        for flag in [
            "--variant advsgm",
            "--epsilon 3",
            "--sigma 2",
            "--dim 64",
            "--batch-size 32",
            "--lr 0.2",
            "--threads 2",
            "--seed 4",
        ] {
            let cmd = format!("--out e.aemb --resume c.actk {flag}");
            let err = parse_train(&toks(&cmd)).unwrap_err();
            assert!(
                err.contains("--resume pins the model configuration"),
                "{flag}: {err}"
            );
            assert!(
                err.contains(flag.split_whitespace().next().unwrap()),
                "{flag}: {err}"
            );
        }
    }

    // ---- audit ----

    #[test]
    fn audit_defaults_are_quick_and_writable() {
        let a = parse_audit(&toks("")).unwrap();
        assert_eq!(a.out, "results/AUDIT_membership.json");
        assert_eq!((a.dataset.as_str(), a.scale), ("ppi", 0.05));
        assert_eq!(a.builder.config().variant, ModelVariant::AdvSgm);
        assert_eq!(a.builder.config().dim, 32);
        assert_eq!(a.builder.config().epochs, 5);
        assert_eq!((a.cfg.targets, a.cfg.runs_per_world), (3, 5));
        assert_eq!((a.cfg.confidence, a.cfg.test_fraction), (0.95, 0.1));
        assert!(a.ablation, "the sigma->0 check is on by default");
    }

    #[test]
    fn audit_happy_path_sets_every_flag() {
        let a = parse_audit(&toks(
            "--out r.json --dataset wiki --scale 0.2 --variant advsgm --epsilon 2 \
             --delta 1e-6 --sigma 3 --epochs 7 --dim 16 --batch-size 64 --lr 0.05 \
             --seed 9 --threads 4 --targets 2 --runs 6 --test-fraction 0.2 \
             --confidence 0.9 --no-ablation",
        ))
        .unwrap();
        assert_eq!(a.out, "r.json");
        assert_eq!((a.dataset.as_str(), a.scale), ("wiki", 0.2));
        let cfg = a.builder.config();
        assert_eq!((cfg.epsilon, cfg.delta, cfg.sigma), (2.0, 1e-6, 3.0));
        assert_eq!((cfg.epochs, cfg.dim, cfg.batch_size), (7, 16, 64));
        assert_eq!(cfg.eta_d, 0.05);
        assert_eq!(cfg.seed, 9, "--seed drives the builder...");
        assert_eq!(a.cfg.seed, 9, "...and the harness derivation chain");
        assert_eq!(a.cfg.delta, 1e-6, "--delta states the bound's delta too");
        assert_eq!(a.cfg.threads, 4);
        assert_eq!((a.cfg.targets, a.cfg.runs_per_world), (2, 6));
        assert_eq!((a.cfg.test_fraction, a.cfg.confidence), (0.2, 0.9));
        assert!(!a.ablation);
    }

    #[test]
    fn audit_rejects_bad_geometry_at_parse_time() {
        for (cmd, needle) in [
            ("--targets 0", "targets"),
            ("--runs 1", "runs_per_world"),
            ("--confidence 1.0", "confidence"),
            ("--test-fraction 0", "test_fraction"),
        ] {
            let err = parse_audit(&toks(cmd)).unwrap_err();
            assert!(err.contains(needle), "{cmd}: {err}");
            assert!(err.contains("invalid audit parameter"), "{cmd}: {err}");
        }
    }

    #[test]
    fn audit_rejects_bad_model_flags_and_unknowns() {
        assert!(parse_audit(&toks("--epsilon 0"))
            .unwrap_err()
            .contains("invalid parameter epsilon"));
        assert!(parse_audit(&toks("--scale 2"))
            .unwrap_err()
            .contains("--scale must be in (0,1]"));
        assert!(parse_audit(&toks("--resume c.actk"))
            .unwrap_err()
            .contains("unknown flag"));
        assert!(parse_audit(&toks("--runs"))
            .unwrap_err()
            .contains("needs a value"));
    }

    // ---- query ----

    #[test]
    fn query_node_happy_path() {
        let a = parse_query(&toks("--store e.aemb --node 3 --top-k 7")).unwrap();
        assert_eq!(
            a.source,
            QuerySource::Local {
                store: "e.aemb".into(),
                index: None
            }
        );
        assert_eq!(a.target, QueryTarget::Node { node: 3, top_k: 7 });
        assert_eq!(a.approx, None);
    }

    #[test]
    fn query_has_no_threads_flag() {
        // One query is one scan on the calling thread; there is no pool.
        let err = parse_query(&toks("--store e.aemb --node 3 --threads 2")).unwrap_err();
        assert!(err.contains("unknown flag --threads"), "{err}");
    }

    #[test]
    fn query_local_approx_needs_an_index() {
        let err = parse_query(&toks("--store e.aemb --node 3 --approx 0.9")).unwrap_err();
        assert!(err.contains("--approx needs an ANN index"), "{err}");
        let a = parse_query(&toks("--store e.aemb --index e.aidx --node 3 --approx 0.9")).unwrap();
        assert_eq!(a.approx, Some(0.9));
        assert_eq!(
            a.source,
            QuerySource::Local {
                store: "e.aemb".into(),
                index: Some("e.aidx".into())
            }
        );
        for bad in ["--approx 1.5", "--approx -0.1", "--approx nan"] {
            let cmd = format!("--store e.aemb --index e.aidx --node 3 {bad}");
            assert!(parse_query(&toks(&cmd)).is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn query_remote_excludes_local_flags() {
        let a = parse_query(&toks("--remote 127.0.0.1:7878 --node 3 --approx 0.95")).unwrap();
        assert_eq!(
            a.source,
            QuerySource::Remote {
                addr: "127.0.0.1:7878".into()
            }
        );
        assert_eq!(a.approx, Some(0.95));
        for (cmd, needle) in [
            ("--remote h:1 --store e.aemb --node 1", "not both"),
            ("--remote h:1 --index e.aidx --node 1", "local-store flag"),
        ] {
            let err = parse_query(&toks(cmd)).unwrap_err();
            assert!(err.contains(needle), "{cmd}: {err}");
        }
    }

    #[test]
    fn query_pair_happy_path() {
        let a = parse_query(&toks("--store e.aemb --pair 3 8")).unwrap();
        assert_eq!(a.target, QueryTarget::Pair { u: 3, v: 8 });
    }

    #[test]
    fn query_rejects_node_and_pair_together() {
        let err = parse_query(&toks("--store e.aemb --node 1 --pair 2 3")).unwrap_err();
        assert!(err.contains("not both"), "{err}");
        // Order must not matter.
        let err = parse_query(&toks("--store e.aemb --pair 2 3 --node 1")).unwrap_err();
        assert!(err.contains("not both"), "{err}");
    }

    #[test]
    fn query_requires_a_target_and_store() {
        let err = parse_query(&toks("--store e.aemb")).unwrap_err();
        assert!(err.contains("need --node U or --pair U V"), "{err}");
        let err = parse_query(&toks("--node 1")).unwrap_err();
        assert!(err.contains("--store or --remote is required"), "{err}");
    }

    #[test]
    fn query_rejects_unknown_flags_and_bad_numbers() {
        assert!(parse_query(&toks("--store e --node 1 --frobnicate"))
            .unwrap_err()
            .contains("unknown flag"));
        assert!(parse_query(&toks("--store e --node minus-one")).is_err());
        assert!(
            parse_query(&toks("--store e --pair 1")).is_err(),
            "pair needs two values"
        );
        assert!(parse_query(&toks("--store e --node 1 --top-k -4")).is_err());
    }

    // ---- info ----

    #[test]
    fn info_happy_and_sad_paths() {
        let a = parse_info(&toks("--store e.aemb")).unwrap();
        assert_eq!(a.store.as_deref(), Some("e.aemb"));
        assert!(!a.host);
        assert!(parse_info(&toks(""))
            .unwrap_err()
            .contains("pass --store PATH and/or --host"));
        assert!(parse_info(&toks("--wat"))
            .unwrap_err()
            .contains("unknown flag"));
        assert!(parse_info(&toks("--store"))
            .unwrap_err()
            .contains("needs a value"));
    }

    // ---- index ----

    #[test]
    fn index_happy_path_and_defaults() {
        let a = parse_index(&toks(
            "--store e.aemb --out e.aidx --nlist 64 --kmeans-iters 3 --sample-queries 16",
        ))
        .unwrap();
        assert_eq!(a.store, "e.aemb");
        assert_eq!(a.out, "e.aidx");
        assert_eq!(a.params.nlist, 64);
        assert_eq!(a.params.kmeans_iters, 3);
        assert_eq!(a.params.sample_queries, 16);

        let d = parse_index(&toks("--store e.aemb --out e.aidx")).unwrap();
        assert_eq!(d.params, IndexParams::default());
    }

    #[test]
    fn index_rejects_bad_arguments() {
        assert!(parse_index(&toks("--out e.aidx"))
            .unwrap_err()
            .contains("--store is required"));
        assert!(parse_index(&toks("--store e.aemb"))
            .unwrap_err()
            .contains("--out is required"));
        assert!(parse_index(&toks("--store e --out o --kmeans-iters 0"))
            .unwrap_err()
            .contains("must be positive"));
        assert!(parse_index(&toks("--store e --out o --sample-queries 0"))
            .unwrap_err()
            .contains("must be positive"));
        assert!(parse_index(&toks("--store e --out o --wat"))
            .unwrap_err()
            .contains("unknown flag"));
    }

    // ---- serve / stop ----

    #[test]
    fn serve_happy_path_and_defaults() {
        let a = parse_serve(&toks(
            "--store e.aemb --index e.aidx --addr 0.0.0.0:9000 --cache 99 \
             --max-requests 1000",
        ))
        .unwrap();
        assert_eq!(a.store, "e.aemb");
        assert_eq!(a.index.as_deref(), Some("e.aidx"));
        assert_eq!(a.addr, "0.0.0.0:9000");
        assert_eq!(a.cache, 99);
        assert_eq!(a.max_requests, Some(1000));

        let d = parse_serve(&toks("--store e.aemb")).unwrap();
        assert_eq!(d.addr, "127.0.0.1:7878");
        assert_eq!(d.cache, 1024);
        assert_eq!(d.max_requests, None);
        assert!(!d.build_index);

        // Approximate scans run on the same bitwise kernels as every other
        // scan, so there is no arithmetic tier to select.
        let err = parse_serve(&toks("--store e.aemb --relaxed")).unwrap_err();
        assert!(err.contains("unknown flag --relaxed"), "{err}");
    }

    #[test]
    fn info_host_flag_with_and_without_store() {
        let h = parse_info(&toks("--host")).unwrap();
        assert_eq!(
            h,
            InfoArgs {
                store: None,
                host: true
            }
        );
        let both = parse_info(&toks("--store e.aemb --host")).unwrap();
        assert_eq!(
            both,
            InfoArgs {
                store: Some("e.aemb".into()),
                host: true
            }
        );
    }

    #[test]
    fn serve_rejects_conflicting_index_flags() {
        let err = parse_serve(&toks("--store e.aemb --index e.aidx --build-index")).unwrap_err();
        assert!(err.contains("not both"), "{err}");
        assert!(parse_serve(&toks("--index e.aidx"))
            .unwrap_err()
            .contains("--store is required"));
        assert!(parse_serve(&toks("--store e --max-requests 0"))
            .unwrap_err()
            .contains("must be positive"));
    }

    #[test]
    fn serve_has_no_threads_flag() {
        // Each connection answers on its own thread; there is no pool to size.
        let err = parse_serve(&toks("--store e.aemb --threads 4")).unwrap_err();
        assert!(err.contains("unknown flag --threads"), "{err}");
    }

    #[test]
    fn stop_requires_addr() {
        assert_eq!(
            parse_stop(&toks("--addr 127.0.0.1:7878")).unwrap().addr,
            "127.0.0.1:7878"
        );
        assert!(parse_stop(&toks(""))
            .unwrap_err()
            .contains("--addr is required"));
        assert!(parse_stop(&toks("--wat"))
            .unwrap_err()
            .contains("unknown flag"));
    }

    // ---- flag tables ----

    #[test]
    fn usage_lists_exactly_the_flags_each_command_accepts() {
        use std::collections::BTreeSet;
        let synopsis = USAGE.split("\n\n").next().unwrap();
        for (cmd, table) in [
            ("train", TRAIN_FLAGS),
            ("convert", CONVERT_FLAGS),
            ("audit", AUDIT_FLAGS),
            ("query", QUERY_FLAGS),
            ("info", INFO_FLAGS),
            ("index", INDEX_FLAGS),
            ("serve", SERVE_FLAGS),
            ("stop", STOP_FLAGS),
        ] {
            // A synopsis runs from its `advsgm <cmd>` line up to the next
            // command's line; `query` has three.
            let mut listed = BTreeSet::new();
            let mut in_cmd = false;
            for line in synopsis.lines() {
                if let Some(rest) = line.trim_start().strip_prefix("advsgm ") {
                    in_cmd = rest.split_whitespace().next() == Some(cmd);
                }
                if in_cmd {
                    listed.extend(
                        line.split_whitespace()
                            .map(|word| word.trim_matches(|c| c == '[' || c == ']'))
                            .filter(|word| word.starts_with("--")),
                    );
                }
            }
            let accepted: BTreeSet<&str> = table.concat().iter().map(|flag| flag.0).collect();
            assert_eq!(listed, accepted, "advsgm {cmd}");
        }
    }

    // ---- graph files ----

    #[test]
    fn graph_file_errors_name_the_path_not_a_flag() {
        let dir = std::env::temp_dir().join("advsgm_cli_no_such_dir");
        let _ = std::fs::remove_dir_all(&dir);
        for name in ["g.agph", "g.txt"] {
            let path = dir.join(name);
            let path = path.to_str().unwrap();
            let err = build_graph(Some(path), "ppi", 0.1, 0).unwrap_err();
            assert!(err.starts_with(path), "{err}");
            assert!(
                !err.contains("--graph") && !err.contains("--edges"),
                "{err}"
            );
        }
    }
}
