//! The training workloads: `train-inram` and `train-ooc`.
//!
//! Both train AdvSGM at the paper's defaults on the train side of a
//! link-prediction split of the synthetic `ppi` graph and release the
//! embeddings to a durable `.aemb`. `train-ooc` first writes the graph to
//! a 4-bucket `.agph`, reads it back, and trains with the partitioned
//! engine at P = 4. One job — `Pipeline::build` to the `.aemb` on disk —
//! repeats until the measurement window closes; every job does identical
//! work and must release identical bytes.

use std::collections::HashSet;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use advsgm::api::{Epsilon, ModelVariant, PipelineBuilder, PipelineEvent, Trained};
use advsgm::core::sampler::{BatchProvider, DiscBatch};
use advsgm::core::sigmoid::SigmoidKind;
use advsgm::core::{grad, model::Generator, AdvSgmConfig, PartitionedTrainer};
use advsgm::datasets::{synthesize, Dataset};
use advsgm::eval::linkpred::evaluate_split;
use advsgm::graph::partition::{link_prediction_split, LinkPredictionSplit};
use advsgm::graph::Graph;
use advsgm::linalg::rng::seeded;
use advsgm::linalg::{backend, vector};
use advsgm::privacy::RdpAccountant;
use advsgm::store::{load_agph, save_agph, EmbeddingStore};

use crate::stats::{median, relative_spread, tail};
use crate::trace::Tracer;
use crate::{fnv1a, sync_file, BoxError, Ctx, Outcome};

/// Epochs per job: few enough for several jobs per window, enough that
/// per-job fixed costs stay small.
pub const EPOCHS: usize = 4;
/// A budget the fixed schedule cannot exhaust, so every job runs every
/// update.
const EPSILON: f64 = 1_000.0;
/// Share of edges held out for the link-prediction AUC.
const TEST_FRACTION: f64 = 0.1;
/// Node buckets of the partitioned engine, and buckets of the `.agph`.
const PARTITIONS: usize = 4;
/// Set-ups per run; `setup_s` is their median. They all run before the
/// first job: `train-ooc`'s `.agph` fsyncs would slow jobs around them.
const SETUPS: usize = 9;
/// Measured jobs every run completes, however long they take.
const MIN_JOBS: usize = 3;
/// Stream mixed into the seed for the split's RNG.
const SPLIT_STREAM: u64 = 0x5b11;
/// Stream mixed into the seed for the layer replays' RNG.
const REPLAY_STREAM: u64 = 0x7e91;

/// The job configuration: AdvSGM at the paper defaults (r = 128,
/// B = 128, k = 5, n_D = 15, n_G = 5, C = 1, σ = 5) with the benchmark's
/// epoch count and budget.
fn builder(seed: u64, threads: usize, partitions: usize) -> Result<PipelineBuilder, BoxError> {
    Ok(PipelineBuilder::new(ModelVariant::AdvSgm)
        .epochs(EPOCHS)
        .epsilon(Epsilon::new(EPSILON)?)
        .seed(seed)
        .threads(threads)
        .partitions(partitions))
}

/// Discriminator pairs one job pushes through: `B + B·k` per iteration.
fn pairs_per_job(cfg: &AdvSgmConfig) -> f64 {
    (cfg.epochs * cfg.disc_iters * (cfg.batch_size + cfg.batch_size * cfg.negatives)) as f64
}

/// The timings of every set-up in a run, seconds.
#[derive(Default)]
struct Setups {
    total: Vec<f64>,
    synth: Vec<f64>,
    split: Vec<f64>,
    agph_save: Vec<f64>,
}

/// One set-up: `ppi` synthesis and the link-prediction split, plus, for
/// `train-ooc`, the `.agph` write and its read-back. Returns the split and
/// the graph read back.
fn set_up(
    tr: &mut Tracer,
    seed: u64,
    agph: Option<&Path>,
    times: &mut Setups,
) -> Result<(LinkPredictionSplit, Option<Graph>), BoxError> {
    let root = tr.begin("setup");
    let t0 = Instant::now();
    let graph = tr.time("datasets.synth", || synthesize(&Dataset::Ppi.spec(), seed));
    let t1 = Instant::now();
    let split = tr.time("graph.split", || {
        link_prediction_split(&graph, TEST_FRACTION, &mut seeded(seed ^ SPLIT_STREAM))
    })?;
    let t2 = Instant::now();
    let loaded = match agph {
        Some(path) => {
            tr.time("store.agph.save", || {
                save_agph(path, &split.train, PARTITIONS)
            })?;
            times.agph_save.push(t2.elapsed().as_secs_f64());
            Some(tr.time("store.agph.load", || load_agph(path))?)
        }
        None => None,
    };
    times.total.push(t0.elapsed().as_secs_f64());
    times.synth.push((t1 - t0).as_secs_f64());
    times.split.push((t2 - t1).as_secs_f64());
    tr.end(root);
    Ok((split, loaded))
}

/// One finished job's timings.
struct Job {
    total_s: f64,
    train_s: f64,
    save_s: f64,
    epochs_s: Vec<f64>,
    traced: bool,
}

pub fn run(ctx: &mut Ctx, ooc: bool) -> Result<Outcome, BoxError> {
    let seed = ctx.args.seed;
    let threads = ctx.host.threads_used;
    let partitions = if ooc { PARTITIONS } else { 0 };
    let tr = &mut ctx.tracer;
    let mut out = Outcome::default();
    let agph_path = ctx.out_dir.join("train.agph");
    let aemb_path = ctx.out_dir.join("release.aemb");

    let agph = ooc.then_some(agph_path.as_path());
    let mut setups = Setups::default();
    for _ in 1..SETUPS {
        set_up(tr, seed, agph, &mut setups)?;
    }
    let (split, loaded) = set_up(tr, seed, agph, &mut setups)?;
    let graph: &Graph = loaded.as_ref().unwrap_or(&split.train);
    let cfg = builder(seed, threads, partitions)?.config().clone();
    let expected_updates = (EPOCHS * cfg.disc_iters * 2) as u64;

    // train-ooc's release must equal the sequential in-RAM engine's.
    let reference = if ooc {
        let open = tr.begin("reference");
        let trained = builder(seed, 1, 0)?.build(graph)?.train()?;
        tr.end(open);
        Some(fnv1a(&trained.release_bytes()))
    } else {
        None
    };

    // The measurement window: whole jobs, build to durable release. Job
    // 0 warms up (page faults, thread start-up) and is checked but not
    // measured; the window opens when it ends.
    let mut jobs: Vec<Job> = Vec::new();
    let mut first_hash = None;
    let mut last: Option<Trained> = None;
    let mut window = Instant::now();
    while jobs.len() <= MIN_JOBS || window.elapsed() < ctx.args.seconds {
        // The traced run alternates untraced and traced jobs, so the
        // tracing overhead is measured inside one run.
        let traced = ctx.args.trace && jobs.len().is_multiple_of(2) && !jobs.is_empty();
        tr.set_on(traced);
        let root = tr.begin("job");
        let t0 = Instant::now();
        let pipeline = tr.time("core.pipeline.build", || {
            builder(seed, threads, partitions)?
                .build(graph)
                .map_err(BoxError::from)
        })?;
        let width = pipeline.threads();
        let mut epoch_ends = Vec::with_capacity(EPOCHS);
        let pipeline = pipeline.observe(|e| {
            if let PipelineEvent::Epoch(_) = e {
                epoch_ends.push(Instant::now());
            }
        });
        let t_train = Instant::now();
        let trained = tr.time("core.pipeline.train", || pipeline.train())?;
        let t1 = Instant::now();
        tr.time("store.aemb.save", || -> Result<(), BoxError> {
            trained.save_embeddings(&aemb_path)?;
            Ok(sync_file(&aemb_path)?)
        })?;
        let t2 = Instant::now();
        tr.end(root);

        let open = tr.begin("check");
        let n = jobs.len();
        let o = trained.outcome();
        out.checks.ops(1, 0);
        out.checks.check(width == threads, || {
            format!("job {n}: pipeline runs {width} threads, asked for {threads}")
        });
        out.checks.check(!o.stopped_by_budget, || {
            format!("job {n}: stopped by budget")
        });
        out.checks.check(o.disc_updates == expected_updates, || {
            format!(
                "job {n}: {} disc updates, expected {expected_updates}",
                o.disc_updates
            )
        });
        let bytes = std::fs::read(&aemb_path)?;
        let hash = fnv1a(&bytes);
        let first = *first_hash.get_or_insert(hash);
        out.checks.check(hash == first, || {
            format!("job {n}: release differs from job 0")
        });
        if let Some(r) = reference {
            out.checks.check(hash == r, || {
                format!("job {n}: partitioned release differs from the sequential engine's")
            });
        }
        let stamped = EmbeddingStore::from_bytes(&bytes)?.meta().epsilon;
        let spent = trained.spend().map(|s| s.epsilon_spent);
        out.checks.check(
            stamped.map(f64::to_bits) == spent.map(f64::to_bits) && spent.is_some(),
            || format!("job {n}: .aemb stamps epsilon {stamped:?}, spend is {spent:?}"),
        );
        tr.end(open);

        let mut prev = t_train;
        let epochs_s = epoch_ends
            .iter()
            .map(|&t| {
                let d = (t - prev).as_secs_f64();
                prev = t;
                d
            })
            .collect();
        jobs.push(Job {
            total_s: (t2 - t0).as_secs_f64(),
            train_s: (t1 - t0).as_secs_f64(),
            save_s: (t2 - t1).as_secs_f64(),
            epochs_s,
            traced,
        });
        last = Some(trained);
        if jobs.len() == 1 {
            window = Instant::now();
        }
    }
    jobs.remove(0);
    let trained = last.expect("MIN_JOBS > 0");
    // Every job released the same bytes (checked above), so one AUC holds
    // for all of them.
    let auc = tr.time("eval.link_auc", || {
        evaluate_split(trained.embeddings(), &split)
    })?;
    out.e2e.insert("quality", auc);
    out.name("link_auc", auc, "ratio");

    // End-to-end figures, from untraced jobs only.
    let plain: Vec<&Job> = jobs.iter().filter(|j| !j.traced).collect();
    let pairs = pairs_per_job(&cfg);
    let job_s: Vec<f64> = plain.iter().map(|j| j.total_s).collect();
    let pairs_per_s: Vec<f64> = plain.iter().map(|j| pairs / j.train_s).collect();
    let job_tail = tail(&job_s);
    out.e2e.insert("setup_s", median(&setups.total));
    out.e2e.insert("throughput", median(&pairs_per_s));
    out.e2e.insert("latency_p50_ms", median(&job_s) * 1e3);
    out.name("setup_s", median(&setups.total), "s");
    out.name("release_s", median(&job_s), "s");
    out.name(
        format!("release_s_p{} (n={})", job_tail.percentile, job_s.len()),
        job_tail.value,
        "s",
    );
    if job_s.len() >= 2 {
        out.name(
            "release_s_iqr_over_median",
            relative_spread(&job_s),
            "ratio",
        );
    }
    out.name("train_pairs_per_s", median(&pairs_per_s), "pairs/s");

    // Per-layer figures.
    let l = &mut out.layers;
    l.insert("datasets.synth_s", median(&setups.synth));
    l.insert("graph.split_s", median(&setups.split));
    if ooc {
        l.insert("store.agph.save_s", median(&setups.agph_save));
        l.insert(
            "store.agph.bytes",
            std::fs::metadata(&agph_path)?.len() as f64,
        );
    }
    let epochs: Vec<f64> = jobs
        .iter()
        .flat_map(|j| j.epochs_s.iter().copied())
        .collect();
    l.insert("core.session.epoch_s_median", median(&epochs));
    l.insert(
        "core.session.epoch_s_max",
        epochs.iter().copied().fold(0.0, f64::max),
    );
    l.insert(
        "core.session.disc_updates",
        trained.outcome().disc_updates as f64,
    );
    l.insert(
        "store.aemb.save_s",
        median(&jobs.iter().map(|j| j.save_s).collect::<Vec<_>>()),
    );
    l.insert(
        "store.aemb.bytes",
        std::fs::metadata(&aemb_path)?.len() as f64,
    );
    if ctx.args.trace {
        let traced: Vec<f64> = jobs
            .iter()
            .filter(|j| j.traced)
            .map(|j| j.total_s)
            .collect();
        if !traced.is_empty() {
            let base = median(&job_s);
            l.insert(
                "trace.overhead_pct",
                (median(&traced) - base) / base * 100.0,
            );
        }
        let encode_s: Vec<f64> = (0..5)
            .map(|_| {
                let open = tr.begin("store.aemb.encode");
                let t = Instant::now();
                black_box(trained.release_bytes());
                let d = t.elapsed().as_secs_f64();
                tr.end(open);
                d
            })
            .collect();
        l.insert("store.aemb.encode_s", median(&encode_s));
        replay_layers(tr, graph, &cfg, &trained, seed, &mut out)?;
        if ooc {
            replay_slot_pool(tr, graph, &cfg, reference, &mut out)?;
        }
    }
    std::fs::remove_file(&aemb_path)?;
    if ooc {
        std::fs::remove_file(&agph_path)?;
    }
    Ok(out)
}

/// Replays each training layer's public call as many times as one job
/// called it, on the job's own graph and final parameters, and records
/// the time per call.
fn replay_layers(
    tr: &mut Tracer,
    graph: &Graph,
    cfg: &AdvSgmConfig,
    trained: &Trained,
    seed: u64,
    out: &mut Outcome,
) -> Result<(), BoxError> {
    let outcome = trained.outcome();
    let iterations = outcome.disc_updates / 2;
    let mut rng = seeded(seed ^ REPLAY_STREAM);
    let mut provider = BatchProvider::new_for_variant(
        graph,
        cfg.batch_size,
        cfg.negatives,
        cfg.negative_distribution,
        cfg.variant,
    )?;

    // Algorithm 2: one positive and one negative batch per iteration.
    let open = tr.begin("core.sampler.iteration");
    let t = Instant::now();
    let batches = (0..iterations)
        .map(|_| provider.sample_disc_iteration(graph, &mut rng))
        .collect::<Result<Vec<_>, _>>()?;
    let sampler_s = t.elapsed().as_secs_f64();
    tr.end_with(open, iterations);

    // Per batch: the fakes, then each pair's grads + augment + clip.
    let n = graph.num_nodes();
    let r = cfg.dim;
    let gen_i = Generator::new(n, r, &mut rng);
    let gen_j = Generator::new(n, r, &mut rng);
    let kind = SigmoidKind::constrained(cfg.sigmoid_a, cfg.sigmoid_b);
    let (w_in, w_out) = (&outcome.node_vectors, &outcome.context_vectors);
    let (mut fake_s, mut grad_s) = (0.0, 0.0);
    let (mut fakes_made, mut pairs, mut clipped, mut rows_touched) = (0u64, 0u64, 0u64, 0u64);
    let mut sink = 0.0;
    for batch in batches.iter().flat_map(|(p, q)| [p, q]) {
        let m = batch.pairs.len();
        let open = tr.begin("core.generator.fake");
        let t = Instant::now();
        let mut mean_j = vec![0.0; r];
        let mut mean_i = vec![0.0; r];
        let mut fakes = Vec::with_capacity(m);
        for &(i, j) in &batch.pairs {
            let fj = gen_i.generate(j, &mut rng).v;
            let fi = gen_j.generate(i, &mut rng).v;
            vector::add_assign(&mut mean_j, &fj);
            vector::add_assign(&mut mean_i, &fi);
            fakes.push((fj, fi));
        }
        vector::scale(&mut mean_j, 1.0 / m as f64);
        vector::scale(&mut mean_i, 1.0 / m as f64);
        fake_s += t.elapsed().as_secs_f64();
        tr.end_with(open, 2 * m as u64);
        fakes_made += 2 * m as u64;

        let open = tr.begin("core.grad.pair");
        let t = Instant::now();
        for (&(i, j), (fj, fi)) in batch.pairs.iter().zip(&fakes) {
            let (gi, gj) = pair_grads(
                kind,
                cfg.clip,
                batch,
                w_in.row(i),
                w_out.row(j),
                (fj, fi),
                (&mean_j, &mean_i),
            );
            clipped += u64::from(gi) + u64::from(gj);
        }
        grad_s += t.elapsed().as_secs_f64();
        tr.end_with(open, m as u64);
        pairs += m as u64;
        let rows_in: HashSet<usize> = batch.pairs.iter().map(|p| p.0).collect();
        let rows_out: HashSet<usize> = batch.pairs.iter().map(|p| p.1).collect();
        rows_touched += (rows_in.len() + rows_out.len()) as u64;
    }

    // Theorem 7 accounting: one record + budget check per update.
    let updates = outcome.disc_updates;
    let mut accountant = RdpAccountant::new();
    let open = tr.begin("privacy.accountant.record");
    let t = Instant::now();
    for u in 0..updates {
        let gamma = if u % 2 == 0 {
            provider.gamma_pos()
        } else {
            provider.gamma_neg()
        };
        accountant.record_subsampled_gaussian(cfg.sigma, gamma, 1)?;
        black_box(accountant.check_budget(cfg.epsilon, cfg.delta).is_ok());
    }
    let record_s = t.elapsed().as_secs_f64();
    tr.end_with(open, updates);

    // Kernels at r = 128: one dot per pair, one fused finalize per
    // touched row.
    let open = tr.begin("linalg.backend.dot");
    let t = Instant::now();
    for batch in batches.iter().flat_map(|(p, q)| [p, q]) {
        for &(i, j) in &batch.pairs {
            sink += backend::dot(black_box(w_in.row(i)), black_box(w_out.row(j)));
        }
    }
    let dot_s = t.elapsed().as_secs_f64();
    tr.end_with(open, pairs);
    let noise = w_in.row(0).to_vec();
    let mut y = w_out.row(0).to_vec();
    let open = tr.begin("linalg.backend.fused_axpy_scale");
    let t = Instant::now();
    for _ in 0..rows_touched {
        backend::fused_axpy_scale(black_box(&mut y), 2.0, black_box(&noise), 0.5);
    }
    let fused_s = t.elapsed().as_secs_f64();
    tr.end_with(open, rows_touched);
    black_box((sink, &y));

    let l = &mut out.layers;
    l.insert(
        "core.sampler.iteration_us",
        sampler_s / iterations as f64 * 1e6,
    );
    l.insert("core.generator.fake_us", fake_s / fakes_made as f64 * 1e6);
    l.insert("core.grad.pair_us", grad_s / pairs as f64 * 1e6);
    l.insert(
        "core.grad.clip_fraction",
        clipped as f64 / (2 * pairs) as f64,
    );
    l.insert(
        "privacy.accountant.record_us",
        record_s / updates as f64 * 1e6,
    );
    l.insert("linalg.backend.dot_ns", dot_s / pairs as f64 * 1e9);
    l.insert(
        "linalg.backend.fused_axpy_scale_ns",
        fused_s / rows_touched as f64 * 1e9,
    );
    Ok(())
}

/// One pair's Theorem-6 direction as the engines compute it — closed-form
/// skip-gram grads, the centered fake added, both sides clipped to `C` —
/// returning whether each side was clipped.
fn pair_grads(
    kind: SigmoidKind,
    clip: f64,
    batch: &DiscBatch,
    vi: &[f64],
    vj: &[f64],
    (fake_j, fake_i): (&Vec<f64>, &Vec<f64>),
    (mean_j, mean_i): (&Vec<f64>, &Vec<f64>),
) -> (bool, bool) {
    let g = if batch.positive {
        grad::sgm_positive_grads(kind, vi, vj)
    } else {
        grad::sgm_negative_grads(kind, vi, vj)
    };
    let (mut gi, mut gj) = (g.first, g.second);
    grad::advsgm_augment(&mut gi, &vector::sub(fake_j, mean_j));
    grad::advsgm_augment(&mut gj, &vector::sub(fake_i, mean_i));
    let ci = vector::clip_l2(&mut gi, clip) < 1.0;
    let cj = vector::clip_l2(&mut gj, clip) < 1.0;
    black_box((&gi, &gj));
    (ci, cj)
}

/// Trains once more through `PartitionedTrainer` to read its slot-pool
/// counters, and checks that release against the sequential reference.
fn replay_slot_pool(
    tr: &mut Tracer,
    graph: &Graph,
    cfg: &AdvSgmConfig,
    reference: Option<u64>,
    out: &mut Outcome,
) -> Result<(), BoxError> {
    let trainer = PartitionedTrainer::new(graph, cfg.clone(), PARTITIONS)?;
    let stats = trainer.slot_stats();
    let outcome = tr.time("core.partitioned.train", || trainer.train(graph))?;
    let bytes = EmbeddingStore::from_outcome(&outcome, cfg)?.to_bytes();
    out.checks.check(Some(fnv1a(&bytes)) == reference, || {
        "PartitionedTrainer release differs from the sequential engine's".into()
    });
    let partition_bytes = (graph.num_nodes() * cfg.dim * 8) as f64 / PARTITIONS as f64;
    let l = &mut out.layers;
    l.insert("core.partitioned.slot_loads", stats.loads() as f64);
    l.insert("core.partitioned.slot_evictions", stats.evictions() as f64);
    l.insert(
        "core.partitioned.slot_high_water",
        stats.high_water() as f64,
    );
    l.insert(
        "core.partitioned.spill_bytes",
        stats.loads() as f64 * partition_bytes,
    );
    Ok(())
}
