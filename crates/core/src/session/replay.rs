//! The replay [`Engine`], the one production engine: Algorithm 3's
//! one-stream trajectory at any thread count, in RAM (DESIGN.md §7) or
//! out of core (DESIGN.md §14).
//!
//! Executes the Algorithm-3 steps of the sequential engine — the literal
//! one-stream execution, kept as the unit tests' oracle — over one of two
//! row stores:
//!
//! * **in RAM** (`Trainer::new`, at every width): the embedding rows stay
//!   in `core.emb`, every step reads them in place, and the apply steps
//!   them through [`apply_noisy_updates`], as the oracle does;
//! * **the spill store** (`PartitionedTrainer::new`): at most **two**
//!   embedding partitions in memory — one `W_in` bucket and one `W_out`
//!   bucket — in a fixed-size slot pool backed by one spill file per role.
//!
//! The headline contract is *bitwise identity*: at a fixed seed the
//! released embeddings, epoch losses, and privacy spend are identical to
//! the oracle's for either store, every partition count and every thread
//! count.
//!
//! That identity holds because every step is a *replay* of the sequential
//! step, split into three phases:
//!
//! 1. **Phase A (draw)** — the RNG-consuming work (batch sampling, edge
//!    and orientation draws, noise vectors) runs on the single sequential
//!    stream in the sequential engine's exact program order. Fake
//!    neighbors are not drawn here: for each item Phase A records the
//!    stream position where its two fakes start and skips their draws
//!    ([`Generator::skip_generate`](crate::model::Generator::skip_generate)),
//!    so the stream ends exactly where
//!    the sequential step leaves it. Embedding reads consume no
//!    randomness, so deferring them cannot shift a draw.
//! 2. **Phase B (compute)** — the fakes are regenerated from their
//!    recorded positions into a flat buffer the engine reuses across
//!    steps, by the pool's workers in small pieces taken from one shared
//!    iterator. A fake is a pure function of its stream position, its node
//!    and `theta`, and nothing writes `theta` between a fake's record and
//!    its use, so which thread fills a piece cannot change a fake.
//!    Meanwhile, under the spill store, the calling thread *gathers* the
//!    rows the step reads, role by role: every item's `W_in` row, then
//!    every item's `W_out` row, is copied into a flat buffer at the item's
//!    batch index, visiting each touched bucket once in the
//!    *resident-first cyclic order* (the resident bucket, then the next
//!    ones, wrapping at `P`), and then helps with the fakes. The in-RAM
//!    store gathers nothing. AdvSGM's batch means are folded serially in
//!    pair order. The *pure* per-item results are then computed from the
//!    rows, read in place or from the gather buffers ([`ItemRows`]), and
//!    stored at each item's original batch index; they are
//!    chunk-invariant too.
//! 3. **Phase C (fold)** — the floating-point accumulations (per-row
//!    gradient sums, the loss fold) run over the per-item results in
//!    original batch order — exactly the association the sequential
//!    engine uses — and record each row's first batch index.
//!
//! All embedding reads in a step see the pre-update snapshot (the
//! sequential engine also reads everything before writing anything). In
//! RAM the apply is the sequential engine's own, [`apply_noisy_updates`].
//! Under the spill store each touched row's pre-update value is already
//! in its role's gather buffer, at the row's first batch index. The apply
//! updates that copy once with the sequential arithmetic ([`step_row`])
//! and writes it in place into the role's spill file, rows ascending, one
//! write per run of consecutive rows; a resident slot holding the row gets
//! the same bytes.
//! The apply therefore loads nothing, and a discriminator update loads at
//! most `2 (P - 1)` partitions: `P - 1` per role for the gathers.
//!
//! # The lookahead
//!
//! Algorithm 3 runs a phase's `2 n_D` discriminator updates against a
//! fixed generator, and no draw reads the parameters, so update `u + 1`'s
//! Phase A and the regeneration of its fakes can run during update `u`
//! without moving a draw or a bit. When [`Engine::disc_update`] is told
//! that another update of the phase follows, the variant has fakes and a
//! pool exists, update `u`:
//!
//! 1. runs its own Phase A, unless `u - 1` already did, and then
//!    `u + 1`'s: it takes `u + 1`'s batch (the pending negative half, or
//!    else the positive half of the next iteration, sampled now and handed
//!    to the next `next_batch`), draws its two noise vectors and records
//!    its fake stream positions. Nothing draws between `u`'s draws and
//!    `u + 1`'s, so the stream order is the sequential engine's;
//! 2. **stage 1**, when its own fakes are not regenerated yet (the first
//!    update of a phase): the workers regenerate them while this thread
//!    gathers;
//! 3. **stage 2**, one pool scope: the workers regenerate `u + 1`'s fakes
//!    into a second buffer while this thread runs the rest of `u` — the
//!    gathers if not yet done, the batch means, the per-pair gradients
//!    (serially), Phase C and the apply — and then helps with the fakes.
//!    The two buffers swap.
//!
//! The discriminator never writes the generator tables, so `u + 1`'s
//! fakes read the tables `u + 1` itself would. Generator iterations,
//! epoch losses and the first update of a phase run stage 1; at one
//! thread there is no pool and the fakes come before the gathers. The
//! last update of a phase never looks ahead, so at every epoch boundary,
//! the only place a checkpoint is captured, nothing has been drawn ahead.
//! Neither does the update that exhausts the privacy budget, which the
//! schedule charges before it runs, so the stream a budget stop leaves
//! (the Fig. 2 loss reads it) is the same at every width. Across steps the
//! lookahead holds `u + 1`'s noise vectors, a second set of fake records,
//! a second fake buffer and the positive batch sampled ahead. Both fake
//! buffers are allocated once, at the largest step's size. DESIGN.md §7
//! and §14 have the measured gains.
//!
//! Each role's spill file is created and sized once: the whole matrix as
//! row-major little-endian `f64`, so row `i` sits at byte `i * r * 8` and
//! is the authoritative copy. Slots are clean read copies of it: an
//! eviction never writes.
//!
//! The generator tables and the graph's edge list stay RAM-resident: the
//! embedding matrices dominate the model's footprint (two dense
//! `n x r` matrices against the generators' two), and the scope of the
//! spill store is bounding *embedding* residency; see DESIGN.md §14.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use advsgm_graph::{Graph, NodeBuckets};
use advsgm_linalg::rng::{gaussian_vec, rng_from_state, rng_state};
use advsgm_linalg::{backend, vector, DenseMatrix};
use advsgm_parallel::ThreadPool;
use rand::rngs::SmallRng;
use rand::Rng;

use crate::error::CoreError;
use crate::loss::{fold_novel_loss, negative_dot, positive_terms};
use crate::model::embeddings::step_row;
use crate::model::{Embeddings, GeneratorPair};
use crate::sampler::{BatchProvider, DiscBatch};
use crate::session::{
    accumulate, apply_noisy_updates, clipped_pair_grads, gradient_noise_std, Engine, EngineKind,
    EngineStreams, PairCtx, PairFakes, RowAcc, SessionCore,
};
use crate::trainer::SlotPoolStats;
use crate::variants::ModelVariant;
use crate::weighting::WeightMode;

/// Distinguishes spill directories of concurrently-built engines within
/// one process (the process id distinguishes across processes).
static SPILL_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Values per spill read or write: the reused byte buffer is about 64 KiB,
/// never a whole bucket.
const IO_CHUNK: usize = 8 * 1024;

/// Which embedding matrix a slot holds a bucket of; indexes the per-role
/// spill files and slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// A `W_in` (node-vector) bucket.
    In = 0,
    /// A `W_out` (context-vector) bucket.
    Out = 1,
}

impl Role {
    fn name(self) -> &'static str {
        match self {
            Role::In => "w_in",
            Role::Out => "w_out",
        }
    }
}

/// Wraps a spill I/O failure with the role and bucket it hit.
fn spill_error(role: Role, bucket: usize) -> impl FnOnce(io::Error) -> CoreError {
    move |e| {
        CoreError::Io(io::Error::new(
            e.kind(),
            format!("spill of {} bucket {bucket}: {e}", role.name()),
        ))
    }
}

/// Wraps a spill set-up failure with what was being set up and its path.
fn setup_error(what: String, path: &Path) -> impl FnOnce(io::Error) -> CoreError + '_ {
    move |e| {
        CoreError::Io(io::Error::new(
            e.kind(),
            format!("{what} {}: {e}", path.display()),
        ))
    }
}

/// One resident embedding partition: a clean read copy of its rows in the
/// role's spill file.
struct Slot {
    /// Which bucket the rows belong to.
    bucket: usize,
    /// The bucket's rows, row-major, `len_of(bucket) * dim` values.
    rows: Vec<f64>,
}

/// One role's Phase-C output: the per-row gradient sums, plus each
/// touched row with the batch index of its first touch — where the
/// role's gather buffer holds the row's pre-update value.
#[derive(Default)]
struct RowUpdates {
    acc: RowAcc,
    touched: Vec<(usize, usize)>,
}

impl RowUpdates {
    /// Adds item `k`'s gradient for `row`; call in batch order.
    fn add(&mut self, row: usize, k: usize, grad: Vec<f64>) {
        if accumulate(&mut self.acc, row, grad) {
            self.touched.push((row, k));
        }
    }
}

/// The embedding matrices, bucketed by node range, with at most one
/// resident bucket per role — a two-slot pool by construction.
///
/// Each role's spill file holds the whole matrix as raw little-endian
/// `f64`; the byte round-trip is exact, so spilling cannot perturb the
/// trajectory.
struct PartitionedEmbeddings {
    buckets: NodeBuckets,
    dim: usize,
    spill_dir: PathBuf,
    /// One open spill file per role, indexed by [`Role`].
    files: [File; 2],
    /// The resident bucket per role, indexed by [`Role`].
    slots: [Option<Slot>; 2],
    /// The encode/decode buffer of every spill read and write.
    io_buf: Vec<u8>,
    stats: Arc<SlotPoolStats>,
}

impl PartitionedEmbeddings {
    /// Spills both matrices of `emb` to a fresh directory under
    /// `spill_root` and starts with both slots empty; `emb` is consumed
    /// (the full matrices stop existing in RAM).
    fn new(
        emb: Embeddings,
        buckets: NodeBuckets,
        stats: Arc<SlotPoolStats>,
        spill_root: &Path,
    ) -> Result<Self, CoreError> {
        let spill_dir = spill_root.join(format!(
            "advsgm-ooc-{}-{}",
            std::process::id(),
            SPILL_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&spill_dir)
            .map_err(setup_error("create spill directory".into(), &spill_dir))?;
        let paths =
            [Role::In, Role::Out].map(|role| spill_dir.join(format!("{}.spill", role.name())));
        // Create + truncate, not create-new: a stale directory left by a
        // killed process whose pid was reused is simply overwritten.
        let open = |role: Role| {
            let path = &paths[role as usize];
            OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(true)
                .open(path)
                .map_err(setup_error(
                    format!("open {} spill file", role.name()),
                    path,
                ))
        };
        let files = [open(Role::In)?, open(Role::Out)?];
        let mut this = Self {
            buckets,
            dim: emb.dim(),
            spill_dir,
            files,
            slots: [None, None],
            io_buf: Vec::new(),
            stats,
        };
        // Writing the whole matrix sizes each file for the engine's life.
        for (role, m) in [(Role::In, emb.w_in()), (Role::Out, emb.w_out())] {
            this.write_rows(role, 0, m.as_slice()).map_err(setup_error(
                format!("fill {} spill file", role.name()),
                &paths[role as usize],
            ))?;
        }
        Ok(this)
    }

    /// Overwrites `role`'s spill rows from node `first` on with `rows`,
    /// whole rows of at most [`IO_CHUNK`] values at a time.
    fn write_rows(&mut self, role: Role, first: usize, rows: &[f64]) -> io::Result<()> {
        let per_chunk = (IO_CHUNK / self.dim).max(1);
        for (c, chunk) in rows.chunks(per_chunk * self.dim).enumerate() {
            self.io_buf.clear();
            encode(&mut self.io_buf, chunk);
            self.flush(role, first + c * per_chunk)?;
        }
        Ok(())
    }

    /// Writes the encoded rows in `io_buf` to `role`'s spill file from node
    /// `first` on, then empties the buffer.
    fn flush(&mut self, role: Role, first: usize) -> io::Result<()> {
        let mut file = &self.files[role as usize];
        file.seek(SeekFrom::Start((first * self.dim * 8) as u64))?;
        file.write_all(&self.io_buf)?;
        self.io_buf.clear();
        Ok(())
    }

    /// Fills `rows` from `role`'s spill rows from node `first` on.
    fn read_rows(&mut self, role: Role, first: usize, rows: &mut [f64]) -> io::Result<()> {
        let mut file = &self.files[role as usize];
        file.seek(SeekFrom::Start((first * self.dim * 8) as u64))?;
        for chunk in rows.chunks_mut(IO_CHUNK) {
            self.io_buf.resize(chunk.len() * 8, 0);
            file.read_exact(&mut self.io_buf)?;
            for (v, b) in chunk.iter_mut().zip(self.io_buf.chunks_exact(8)) {
                *v = f64::from_le_bytes(b.try_into().expect("8-byte chunk"));
            }
        }
        Ok(())
    }

    /// Makes `bucket` resident in the role's slot: a no-op when already
    /// resident, otherwise evict (slots are clean, so nothing is written)
    /// and load into the evicted slot's buffer.
    fn acquire(&mut self, role: Role, bucket: usize) -> Result<(), CoreError> {
        let slot = &mut self.slots[role as usize];
        if slot.as_ref().is_some_and(|s| s.bucket == bucket) {
            return Ok(());
        }
        let mut rows = match slot.take() {
            Some(s) => {
                self.stats.evictions.fetch_add(1, Ordering::Relaxed);
                self.stats.resident.fetch_sub(1, Ordering::Relaxed);
                s.rows
            }
            None => Vec::new(),
        };
        let range = self.buckets.range(bucket);
        rows.resize(range.len() * self.dim, 0.0);
        self.read_rows(role, range.start, &mut rows)
            .map_err(spill_error(role, bucket))?;
        self.slots[role as usize] = Some(Slot { bucket, rows });
        self.stats.loads.fetch_add(1, Ordering::Relaxed);
        let resident = self.stats.resident.fetch_add(1, Ordering::Relaxed) + 1;
        self.stats.high_water.fetch_max(resident, Ordering::Relaxed);
        Ok(())
    }

    /// Sort key of the resident-first cyclic order for `role`: buckets from
    /// the resident one on, wrapping at `P`, nodes ascending within each,
    /// so a walk in key order loads each touched bucket at most once.
    fn visit_key(&self, role: Role) -> impl Fn(usize) -> (usize, usize) {
        let buckets = self.buckets;
        let start = self.slots[role as usize].as_ref().map_or(0, |s| s.bucket);
        move |node| {
            let b = buckets.bucket_of(node);
            ((b + buckets.count() - start) % buckets.count(), node)
        }
    }

    /// Copies each node's `role` row into `out` (reused across steps) in
    /// `nodes` order, walking the touched buckets in visit order.
    fn gather(
        &mut self,
        role: Role,
        nodes: impl Iterator<Item = usize>,
        out: &mut Vec<f64>,
    ) -> Result<(), CoreError> {
        let key = self.visit_key(role);
        let mut order: Vec<((usize, usize), usize)> =
            nodes.enumerate().map(|(k, node)| (key(node), k)).collect();
        order.sort_unstable();
        let dim = self.dim;
        out.resize(order.len() * dim, 0.0);
        for ((_, node), k) in order {
            let bucket = self.buckets.bucket_of(node);
            self.acquire(role, bucket)?;
            let off = (node - self.buckets.range(bucket).start) * dim;
            let slot = self.slots[role as usize].as_ref().expect("just acquired");
            out[k * dim..(k + 1) * dim].copy_from_slice(&slot.rows[off..off + dim]);
        }
        Ok(())
    }

    /// Gathers each pair's first node's `W_in` row and second node's
    /// `W_out` row into `rows` (indexed by [`Role`]), role by role, in
    /// pair order.
    fn gather_pairs(
        &mut self,
        pairs: &[(usize, usize)],
        [rows_in, rows_out]: &mut [Vec<f64>; 2],
    ) -> Result<(), CoreError> {
        self.gather(Role::In, pairs.iter().map(|p| p.0), rows_in)?;
        self.gather(Role::Out, pairs.iter().map(|p| p.1), rows_out)
    }

    /// Applies one role's noisy, touch-count-normalised updates without
    /// loading a partition. Each touched row's pre-update value is its
    /// copy in `gathered` (the role's gather buffer) at its first batch
    /// index; that copy takes the sequential arithmetic in place, then goes
    /// to the spill file — rows ascending, one write per run of
    /// consecutive rows within a bucket — and to the slot when its bucket
    /// is resident. Rows are distinct, so the order across them is
    /// bitwise-neutral.
    fn apply(
        &mut self,
        role: Role,
        updates: RowUpdates,
        gathered: &mut [f64],
        noise: &[f64],
        eta: f64,
        project: bool,
    ) -> Result<(), CoreError> {
        let RowUpdates {
            mut acc,
            mut touched,
        } = updates;
        touched.sort_unstable();
        let dim = self.dim;
        // The pending run, encoded in `io_buf`: its first node and the
        // node after its last.
        self.io_buf.clear();
        let (mut start, mut end) = (0, 0);
        for (node, k) in touched {
            let (g, c) = acc.get_mut(&node).expect("touched rows are accumulated");
            backend::fused_axpy_scale(g, *c as f64, noise, 1.0 / *c as f64);
            let updated = &mut gathered[k * dim..(k + 1) * dim];
            step_row(updated, eta, g, project);
            let bucket = self.buckets.bucket_of(node);
            if let Some(slot) = self.slots[role as usize].as_mut() {
                if slot.bucket == bucket {
                    let off = (node - self.buckets.range(bucket).start) * dim;
                    slot.rows[off..off + dim].copy_from_slice(updated);
                }
            }
            let extends = !self.io_buf.is_empty()
                && node == end
                && self.buckets.bucket_of(start) == bucket
                && self.io_buf.len() < IO_CHUNK * 8;
            if !extends {
                self.flush_run(role, start)?;
                start = node;
            }
            end = node + 1;
            encode(&mut self.io_buf, updated);
        }
        self.flush_run(role, start)
    }

    /// Writes the apply's pending run, starting at node `start`, if any.
    fn flush_run(&mut self, role: Role, start: usize) -> Result<(), CoreError> {
        if self.io_buf.is_empty() {
            return Ok(());
        }
        let bucket = self.buckets.bucket_of(start);
        self.flush(role, start).map_err(spill_error(role, bucket))
    }

    /// Rebuilds the full matrices from the spill files, which are always
    /// current. Leaves the pool and its counters untouched.
    fn snapshot(&mut self) -> Result<Embeddings, CoreError> {
        let n = self.buckets.num_nodes();
        let dim = self.dim;
        let mut mats = [vec![0.0; n * dim], vec![0.0; n * dim]];
        for role in [Role::In, Role::Out] {
            for b in 0..self.buckets.count() {
                let range = self.buckets.range(b);
                let rows = &mut mats[role as usize][range.start * dim..range.end * dim];
                self.read_rows(role, range.start, rows)
                    .map_err(spill_error(role, b))?;
            }
        }
        let [w_in, w_out] = mats.map(|m| DenseMatrix::from_vec(n, dim, m).expect("snapshot shape"));
        Ok(Embeddings::from_parts(w_in, w_out))
    }
}

impl Drop for PartitionedEmbeddings {
    fn drop(&mut self) {
        // Best-effort cleanup; a leaked temp directory is not worth a panic.
        let _ = fs::remove_dir_all(&self.spill_dir);
    }
}

/// Appends `rows` to `buf` as little-endian bytes.
fn encode(buf: &mut Vec<u8>, rows: &[f64]) {
    for v in rows {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

/// An empty placeholder for `core.emb` while the partitions own the data.
fn empty_embeddings() -> Embeddings {
    Embeddings::from_parts(DenseMatrix::zeros(0, 0), DenseMatrix::zeros(0, 0))
}

/// Item `k`'s row in a gather buffer of `r`-wide rows.
fn row(rows: &[f64], k: usize, r: usize) -> &[f64] {
    &rows[k * r..(k + 1) * r]
}

/// Item `k`'s two fakes in a buffer [`regenerate_fakes`] filled: the
/// `for_i` generator's, then the `for_j` generator's.
fn fake_pair(fakes: &[f64], k: usize, r: usize) -> (&[f64], &[f64]) {
    row(fakes, k, 2 * r).split_at(r)
}

/// Where a step reads its items' rows. Item `k` at node pair `(a, b)`
/// reads `W_in` row `a` and `W_out` row `b`.
#[derive(Clone, Copy)]
enum ItemRows<'a> {
    /// The in-RAM store: the rows in place in `core.emb`.
    InPlace(&'a Embeddings),
    /// The spill store: row `k` of each role's gather buffer.
    Gathered(&'a [Vec<f64>; 2]),
}

impl<'a> ItemRows<'a> {
    /// The rows of whichever store `parts` says the engine has.
    fn new(
        parts: &Option<PartitionedEmbeddings>,
        emb: &'a Embeddings,
        rows: &'a [Vec<f64>; 2],
    ) -> Self {
        match parts {
            Some(_) => Self::Gathered(rows),
            None => Self::InPlace(emb),
        }
    }

    /// Item `k`'s `W_in` and `W_out` rows; `(a, b)` is its node pair.
    fn of(self, k: usize, (a, b): (usize, usize), r: usize) -> (&'a [f64], &'a [f64]) {
        match self {
            Self::InPlace(emb) => (emb.input(a), emb.output(b)),
            Self::Gathered([rows_in, rows_out]) => (row(rows_in, k, r), row(rows_out, k, r)),
        }
    }
}

/// Copies every item's `W_in` and `W_out` rows into `rows` under the spill
/// store; the in-RAM store reads its rows in place and gathers nothing.
fn gather(
    parts: &mut Option<PartitionedEmbeddings>,
    items: &[(usize, usize)],
    rows: &mut [Vec<f64>; 2],
) -> Result<(), CoreError> {
    match parts {
        Some(parts) => parts.gather_pairs(items, rows),
        None => Ok(()),
    }
}

/// Where one item's two fakes start on the one stream (Phase A), and the
/// node each generator fakes a neighbor of. Every step draws the
/// `for_i` fake first and the `for_j` fake right after it.
struct FakeDraw {
    state: [u64; 4],
    /// The node `GeneratorPair::for_i` fakes a neighbor of.
    for_i: usize,
    /// The node `GeneratorPair::for_j` fakes a neighbor of.
    for_j: usize,
}

/// Phase A for one item: records in `draws` where its fakes start on the
/// stream — `for_i`'s fake of node `for_i`, then `for_j`'s of node `for_j`
/// — and skips both, leaving `rng` where generating them would.
fn record_fakes(
    rng: &mut SmallRng,
    draws: &mut Vec<FakeDraw>,
    gens: &GeneratorPair,
    for_i: usize,
    for_j: usize,
) {
    draws.push(FakeDraw {
        state: rng_state(rng),
        for_i,
        for_j,
    });
    gens.for_i.skip_generate(rng);
    gens.for_j.skip_generate(rng);
}

/// Phase A of one discriminator update over `pairs`: the two per-batch
/// noise vectors (Theorem 6's `N_{D,1}`, `N_{D,2}`), then, for the
/// adversarial variants, each pair's fake stream position in pair order,
/// recorded into `draws` — the sequential engine's draw sequence.
fn draw_disc_update(
    rng: &mut SmallRng,
    core: &SessionCore,
    pairs: &[(usize, usize)],
    draws: &mut Vec<FakeDraw>,
) -> [Vec<f64>; 2] {
    let r = core.cfg.dim;
    let noise_std = gradient_noise_std(&core.cfg);
    let noise = [
        gaussian_vec(rng, noise_std, r),
        gaussian_vec(rng, noise_std, r),
    ];
    draws.clear();
    if core.cfg.variant.is_adversarial() {
        for &(i, j) in pairs {
            record_fakes(rng, draws, &core.gens, j, i);
        }
    }
    noise
}

/// Regenerates each record's two fakes from its stream position into
/// `out`, `2r` values per record as [`fake_pair`] reads them: the one
/// copy of the fake-fill loop.
fn fill_fakes(gens: &GeneratorPair, draws: &[FakeDraw], out: &mut [f64]) {
    let r = gens.for_i.dim();
    for (d, pair) in draws.iter().zip(out.chunks_exact_mut(2 * r)) {
        let (by_i, by_j) = pair.split_at_mut(r);
        let mut rng = rng_from_state(d.state);
        gens.for_i.generate_into(d.for_i, &mut rng, by_i);
        gens.for_j.generate_into(d.for_j, &mut rng, by_j);
    }
}

/// Fake records per piece of [`regenerate_fakes`]'s work: small enough
/// that the threads sharing a regeneration finish together, large enough
/// (about 0.1 ms of work at `r = 128`) that claiming a piece costs under
/// 1 %.
const FAKE_PIECE: usize = 16;

/// Phase B's fake generation: regenerates every recorded item's fakes
/// into `fakes` on the pool's workers while `work` runs on the calling
/// thread, and returns `work`'s result once both are done. The records
/// are split into pieces of [`FAKE_PIECE`], taken in turn from one shared
/// iterator by every worker and, once `work` is done, by the calling
/// thread too, so no thread idles while a piece is left. Without a pool
/// the fakes come first, then `work`. Each fake is a pure function of its
/// record and the generator tables, which `work` can only read, so
/// neither the thread count, nor which thread fills a piece, nor `work`
/// can change a bit.
fn regenerate_fakes<R>(
    pool: &mut Option<ThreadPool>,
    gens: &GeneratorPair,
    draws: &[FakeDraw],
    fakes: &mut Vec<f64>,
    work: impl FnOnce() -> R,
) -> R {
    let per_draw = 2 * gens.for_i.dim();
    fakes.resize(draws.len() * per_draw, 0.0);
    let Some(p) = pool else {
        fill_fakes(gens, draws, fakes);
        return work();
    };
    let pieces = Mutex::new(
        draws
            .chunks(FAKE_PIECE)
            .zip(fakes.chunks_mut(FAKE_PIECE * per_draw)),
    );
    let fill = || loop {
        let next = pieces
            .lock()
            .expect("no thread panics holding the pieces")
            .next();
        let Some((draws, out)) = next else { break };
        fill_fakes(gens, draws, out);
    };
    let workers = p.threads();
    p.scope(|s| {
        for _ in 0..workers {
            s.spawn(fill);
        }
        let done = work();
        fill();
        done
    })
}

/// Maps `f` over `items`, preserving order; uses the pool when present.
/// Results are independent of the chunking, so thread count cannot change
/// them.
fn map_indexed<T, R>(
    pool: &mut Option<ThreadPool>,
    items: &[T],
    f: impl Fn(usize, &T) -> R + Sync,
) -> Vec<R>
where
    T: Sync,
    R: Send,
{
    match pool {
        Some(p) => {
            let chunk_len = items.len().div_ceil(p.threads()).max(1);
            p.map_chunks(items, chunk_len, |_k, offset, chunk| {
                chunk
                    .iter()
                    .enumerate()
                    .map(|(i, item)| f(offset + i, item))
                    .collect::<Vec<R>>()
            })
            .into_iter()
            .flatten()
            .collect()
        }
        None => items
            .iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect(),
    }
}

/// Step execution replaying the one-stream trajectory over an in-RAM or
/// a spill row store, at every width (module docs have the phase
/// structure and determinism argument).
pub(crate) struct ReplayEngine {
    /// Algorithm-2 batch provisioning, identical to the sequential engine's.
    provider: BatchProvider,
    /// The one RNG stream, in the sequential engine's draw order.
    rng: SmallRng,
    /// The negative half of a sampled iteration, buffered between the two
    /// `next_batch` calls of one discriminator iteration.
    pending_neg: Option<DiscBatch>,
    /// The positive half of an iteration a lookahead sampled one update
    /// early; the next `next_batch` hands it out.
    sampled_ahead: Option<DiscBatch>,
    /// The next discriminator update's noise vectors, drawn by a
    /// lookahead; `Some` exactly when that update's Phase A is done and
    /// its fakes are in `fakes`.
    next_noise: Option<[Vec<f64>; 2]>,
    /// The spill store: the bucketed embeddings behind the two-slot pool.
    /// `None` is the in-RAM store, whose rows stay in `core.emb`.
    parts: Option<PartitionedEmbeddings>,
    /// The spill store's Phase-B gather buffers per role, indexed by
    /// [`Role`] and reused across steps: row `k` is item `k`'s row.
    rows: [Vec<f64>; 2],
    /// Phase A's fake records, reused across steps: entry `k` is item `k`'s.
    draws: Vec<FakeDraw>,
    /// A lookahead's fake records for the next update, reused likewise.
    next_draws: Vec<FakeDraw>,
    /// Phase B's regenerated fakes, reused across steps (see [`fake_pair`]).
    fakes: Vec<f64>,
    /// The buffer a lookahead regenerates the next update's fakes into;
    /// swapped with `fakes` when the update ends.
    next_fakes: Vec<f64>,
    /// Worker pool for Phase B and the lookahead's fakes; `None` runs
    /// serially and never looks ahead.
    pool: Option<ThreadPool>,
    threads: usize,
}

impl ReplayEngine {
    /// Wraps the provider plus the post-init RNG stream. At
    /// `partitions == 0` the rows stay in `core.emb`; otherwise they move
    /// into a spill store of `partitions` buckets, leaving an empty
    /// placeholder in `core.emb`.
    pub(crate) fn new(
        core: &mut SessionCore,
        provider: BatchProvider,
        rng: SmallRng,
        partitions: usize,
        stats: Arc<SlotPoolStats>,
    ) -> Result<Self, CoreError> {
        let cfg = &core.cfg;
        let threads = cfg.effective_threads();
        // Both fake buffers take the largest step's records from the start
        // (the generator's `B (k + 1)` samples): once glibc's dynamic mmap
        // threshold has risen, a buffer that grows mid-job comes from the
        // heap and raises peak RSS (DESIGN.md §7).
        let most = cfg.batch_size * (cfg.negatives + 1) * 2 * cfg.dim;
        let parts = match partitions {
            0 => None,
            p => {
                let buckets = NodeBuckets::new(core.emb.num_nodes(), p)?;
                let emb = std::mem::replace(&mut core.emb, empty_embeddings());
                let temp = std::env::temp_dir();
                Some(PartitionedEmbeddings::new(emb, buckets, stats, &temp)?)
            }
        };
        Ok(Self {
            provider,
            rng,
            pending_neg: None,
            sampled_ahead: None,
            next_noise: None,
            parts,
            rows: [Vec::new(), Vec::new()],
            draws: Vec::new(),
            next_draws: Vec::new(),
            fakes: Vec::with_capacity(most),
            next_fakes: Vec::with_capacity(most),
            pool: (threads > 1).then(|| ThreadPool::new(threads)),
            threads,
        })
    }

    /// Drops the full-matrix copy a checkpoint's [`Engine::sync_core`]
    /// left in `core.emb` under the spill store, restoring the
    /// two-partition residency bound. The spill files remain
    /// authoritative throughout; the in-RAM store keeps its rows there.
    fn reclaim(&self, core: &mut SessionCore) {
        if self.parts.is_some() && core.emb.num_nodes() != 0 {
            core.emb = empty_embeddings();
        }
    }

    /// The lookahead's Phase A: takes the next update's batch — the
    /// pending negative half, or else (this update is a negative half) the
    /// positive half of an iteration sampled now — and draws its noise and
    /// records its fake stream positions. Called right after this update's
    /// own Phase A, so the stream order is the sequential engine's.
    fn draw_next_update(&mut self, core: &SessionCore, graph: &Graph) -> Result<(), CoreError> {
        if self.pending_neg.is_none() {
            let (pos, neg) = self.provider.sample_disc_iteration(graph, &mut self.rng)?;
            self.sampled_ahead = Some(pos);
            self.pending_neg = Some(neg);
        }
        let next = self.sampled_ahead.as_ref().or(self.pending_neg.as_ref());
        let next = &next.expect("sampled above").pairs;
        self.next_noise = Some(draw_disc_update(
            &mut self.rng,
            core,
            next,
            &mut self.next_draws,
        ));
        Ok(())
    }
}

impl Engine for ReplayEngine {
    fn kind(&self) -> EngineKind {
        match self.parts {
            Some(_) => EngineKind::Partitioned,
            None => EngineKind::Sequential,
        }
    }

    fn threads(&self) -> usize {
        self.threads
    }

    fn next_batch(&mut self, graph: &Graph) -> Result<DiscBatch, CoreError> {
        if let Some(pos) = self.sampled_ahead.take() {
            return Ok(pos);
        }
        match self.pending_neg.take() {
            Some(neg) => Ok(neg),
            None => {
                let (pos, neg) = self.provider.sample_disc_iteration(graph, &mut self.rng)?;
                self.pending_neg = Some(neg);
                Ok(pos)
            }
        }
    }

    /// One discriminator update, replayed (module docs): noise and fake
    /// stream positions in Phase A, unless the previous update ran it
    /// ahead; the fakes, batch means, role-wise gathers and clipped
    /// per-pair gradients in Phase B; pair-order accumulation in Phase C;
    /// then the apply. When `next_in_phase`, the variant has fakes and a
    /// pool exists, it also runs the next update's Phase A and has the
    /// workers regenerate that update's fakes while this thread computes.
    fn disc_update(
        &mut self,
        core: &mut SessionCore,
        graph: &Graph,
        batch: &DiscBatch,
        next_in_phase: bool,
    ) -> Result<(), CoreError> {
        self.reclaim(core);
        let r = core.cfg.dim;
        let variant = core.cfg.variant;
        let clip = core.cfg.clip;
        let adversarial = variant.is_adversarial();
        let count = batch.pairs.len();
        debug_assert!(count > 0, "empty batch");

        // Phase A, unless the previous update ran it: its fakes are then
        // already in `fakes`. The lookahead's Phase A follows this one's
        // before anything else draws.
        let (noise, fakes_ready) = match self.next_noise.take() {
            Some(noise) => (noise, true),
            None => {
                let noise = draw_disc_update(&mut self.rng, core, &batch.pairs, &mut self.draws);
                (noise, false)
            }
        };
        let lookahead = next_in_phase && adversarial && self.pool.is_some();
        if lookahead {
            self.draw_next_update(core, graph)?;
        }

        let Self {
            parts,
            rows,
            draws,
            next_draws,
            fakes,
            next_fakes,
            pool,
            ..
        } = self;
        let SessionCore {
            cfg,
            kind,
            emb,
            gens,
            ..
        } = core;
        let pairs = &batch.pairs;
        // Stage 1, for fakes not yet regenerated: the workers regenerate
        // them while this thread gathers every pair's W_in and W_out rows
        // (spill store) or joins them at once (in RAM).
        let gathered = adversarial && !fakes_ready;
        if gathered {
            regenerate_fakes(pool, gens, draws, fakes, || gather(parts, pairs, rows))?;
        }
        debug_assert!(!adversarial || fakes.len() == count * 2 * r);

        // The rest of Phase B — the batch means, folded in pair order, and
        // each pair's clipped gradients (pure, RNG-free) at its original
        // index, computed on `grads_pool` or else serially — then Phase C
        // and the apply.
        let [n_in, n_out] = noise;
        let cur_fakes = &*fakes;
        let kind = *kind;
        let mut finish = |grads_pool: &mut Option<ThreadPool>| -> Result<(), CoreError> {
            if !gathered {
                gather(parts, pairs, rows)?;
            }
            let mut mean_j = vec![0.0; r];
            let mut mean_i = vec![0.0; r];
            if adversarial {
                for k in 0..count {
                    let (fj, fi) = fake_pair(cur_fakes, k, r);
                    vector::add_assign(&mut mean_j, fj);
                    vector::add_assign(&mut mean_i, fi);
                }
                vector::scale(&mut mean_j, 1.0 / count as f64);
                vector::scale(&mut mean_i, 1.0 / count as f64);
            }
            let at = ItemRows::new(parts, emb, rows);
            let (mean_j, mean_i) = (&mean_j, &mean_i);
            let grads = map_indexed(grads_pool, pairs, |idx, &pair| {
                let pair_fakes = adversarial.then(|| {
                    let (fake_j, fake_i) = fake_pair(cur_fakes, idx, r);
                    PairFakes {
                        fake_j,
                        fake_i,
                        mean_j,
                        mean_i,
                    }
                });
                let (vi, vj) = at.of(idx, pair, r);
                let ctx = PairCtx::of(batch, idx);
                clipped_pair_grads(kind, variant, clip, ctx, vi, vj, pair_fakes)
            });

            // Phase C: accumulate per-row sums in original pair order — the
            // sequential engine's exact floating-point association.
            let mut upd_in = RowUpdates::default();
            let mut upd_out = RowUpdates::default();
            for (k, (&(i, j), (gi, gj))) in pairs.iter().zip(grads).enumerate() {
                upd_in.add(i, k, gi);
                upd_out.add(j, k, gj);
            }

            let eta = cfg.eta_d;
            let project = cfg.project_rows && variant != ModelVariant::Sgm;
            let Some(parts) = parts else {
                apply_noisy_updates(upd_in.acc, &n_in, |i, g| emb.step_input(i, eta, g, project));
                apply_noisy_updates(upd_out.acc, &n_out, |j, g| {
                    emb.step_output(j, eta, g, project)
                });
                return Ok(());
            };
            let [rows_in, rows_out] = rows;
            parts.apply(Role::In, upd_in, rows_in, &n_in, eta, project)?;
            parts.apply(Role::Out, upd_out, rows_out, &n_out, eta, project)
        };
        if !lookahead {
            return finish(pool);
        }
        // Stage 2: the workers regenerate the next update's fakes while
        // this thread finishes this one, its gradients serially, and then
        // helps them.
        regenerate_fakes(pool, gens, next_draws, next_fakes, || finish(&mut None))?;
        std::mem::swap(fakes, next_fakes);
        Ok(())
    }

    /// One generator iteration, replayed: per sample the edge and
    /// orientation draws and the stream position of `f1` then `f2` in
    /// Phase A (the sequential order, since nothing between them draws);
    /// the fakes, role-wise gathers and per-sample upstreams in Phase B;
    /// sample-order gradient accumulation in Phase C. No embedding is
    /// written.
    fn generator_update(&mut self, core: &mut SessionCore, graph: &Graph) -> Result<(), CoreError> {
        self.reclaim(core);
        let r = core.cfg.dim;
        let sample_count = core.cfg.batch_size * (core.cfg.negatives + 1);
        let noise_std = gradient_noise_std(&core.cfg);
        let ng1 = gaussian_vec(&mut self.rng, noise_std, r);
        let ng2 = gaussian_vec(&mut self.rng, noise_std, r);

        // Phase A: `f1` fakes a neighbor of `t`, `f2` one of `s`.
        let edges = graph.edges();
        let mut samples: Vec<(usize, usize)> = Vec::with_capacity(sample_count);
        self.draws.clear();
        for _ in 0..sample_count {
            let e = edges[self.rng.gen_range(0..edges.len())];
            let (s, t) = if self.rng.gen::<bool>() {
                (e.u().index(), e.v().index())
            } else {
                (e.v().index(), e.u().index())
            };
            record_fakes(&mut self.rng, &mut self.draws, &core.gens, t, s);
            samples.push((s, t));
        }

        // Phase B: the workers regenerate the fakes while this thread
        // gathers v_i = W_in[s] and v_j = W_out[t] role by role (spill
        // store only); then the per-sample upstream gradients (pure).
        let Self {
            parts,
            rows,
            draws,
            fakes,
            pool,
            ..
        } = self;
        regenerate_fakes(pool, &core.gens, draws, fakes, || {
            gather(parts, &samples, rows)
        })?;
        let kind = core.kind;
        let at = ItemRows::new(parts, &core.emb, rows);
        let fakes = &*fakes;
        let (ng1, ng2) = (&ng1, &ng2);
        let ups = map_indexed(pool, &samples, |idx, &sample| {
            let (vi, vj) = at.of(idx, sample, r);
            let (f1, f2) = fake_pair(fakes, idx, r);
            let (s1_fake, s1_noise) = backend::dot2(vi, f1, ng1);
            let s1 = s1_fake + s1_noise;
            let c1 = -kind.neg_log_one_minus_grad(s1);
            let up1 = vector::scaled(c1, vi);
            let (s2_fake, s2_noise) = backend::dot2(vj, f2, ng2);
            let s2 = s2_fake + s2_noise;
            let c2 = -kind.neg_log_one_minus_grad(s2);
            let up2 = vector::scaled(c2, vj);
            (up1, up2)
        });

        // Phase C: accumulate generator gradients in sample order.
        let mut grads_j: RowAcc = RowAcc::new();
        let mut grads_i: RowAcc = RowAcc::new();
        for (idx, (&(s, t), (up1, up2))) in samples.iter().zip(&ups).enumerate() {
            let (f1, f2) = fake_pair(fakes, idx, r);
            core.gens.for_i.accumulate_grad(t, f1, up1, &mut grads_j);
            core.gens.for_j.accumulate_grad(s, f2, up2, &mut grads_i);
        }
        core.gens.for_i.step(core.cfg.eta_g, &grads_j);
        core.gens.for_j.step(core.cfg.eta_g, &grads_i);
        Ok(())
    }

    /// `|L_Nov|` on one fresh batch, replayed through the order-fixed
    /// fold split of [`crate::loss`].
    fn epoch_loss(
        &mut self,
        core: &mut SessionCore,
        graph: &Graph,
        mode: WeightMode,
    ) -> Result<f64, CoreError> {
        self.reclaim(core);
        let (pos, pos_signs) = self.provider.positives_with_signs(graph, &mut self.rng)?;
        let negs = self.provider.negatives(&pos, &mut self.rng);
        // Same panic point as the one-stream evaluation, before any draw.
        assert!(!pos.is_empty(), "need at least one positive pair");
        let r = core.cfg.dim;
        let noise_std = gradient_noise_std(&core.cfg);
        let n1 = gaussian_vec(&mut self.rng, noise_std.max(0.0), r);
        let n2 = gaussian_vec(&mut self.rng, noise_std.max(0.0), r);

        // Phase A: each positive's fake stream position, in batch order.
        self.draws.clear();
        for e in &pos {
            record_fakes(
                &mut self.rng,
                &mut self.draws,
                &core.gens,
                e.v().index(),
                e.u().index(),
            );
        }

        // Phase B: the workers regenerate the fakes while this thread runs
        // one gather per role over the positives followed by the
        // negatives (spill store only); then the per-pair scalar terms.
        let items: Vec<(usize, usize)> = pos
            .iter()
            .map(|e| (e.u().index(), e.v().index()))
            .chain(negs.iter().map(|p| (p.source.index(), p.negative.index())))
            .collect();
        let Self {
            parts,
            rows,
            draws,
            fakes,
            pool,
            ..
        } = self;
        regenerate_fakes(pool, &core.gens, draws, fakes, || {
            gather(parts, &items, rows)
        })?;
        let at = ItemRows::new(parts, &core.emb, rows);
        let fakes = &*fakes;
        let (n1, n2, pos_signs) = (&n1, &n2, &pos_signs);
        let terms = map_indexed(pool, &items[..pos.len()], |idx, &item| {
            let (vi, vj) = at.of(idx, item, r);
            let (fake_j, fake_i) = fake_pair(fakes, idx, r);
            let foe = pos_signs.get(idx).copied().unwrap_or(false);
            positive_terms(vi, vj, fake_j, fake_i, n1, n2, foe)
        });
        let neg_dots: Vec<f64> = (pos.len()..items.len())
            .map(|k| {
                let (vi, vn) = at.of(k, items[k], r);
                negative_dot(vi, vn)
            })
            .collect();

        // Phase C: the order-fixed fold.
        Ok(fold_novel_loss(core.kind, mode, &terms, &neg_dots).abs())
    }

    fn sync_core(&mut self, core: &mut SessionCore) -> Result<(), CoreError> {
        if let Some(parts) = &mut self.parts {
            core.emb = parts.snapshot()?;
        }
        Ok(())
    }

    fn streams(&self) -> EngineStreams {
        debug_assert!(
            self.pending_neg.is_none(),
            "checkpoint capture mid-iteration"
        );
        // The last update of a phase never looks ahead, so at an epoch
        // boundary nothing has been drawn ahead of the schedule.
        debug_assert!(
            self.sampled_ahead.is_none() && self.next_noise.is_none(),
            "checkpoint capture with a lookahead in flight"
        );
        EngineStreams {
            rngs: vec![rng_state(&self.rng)],
            edge_permutation: self.provider.edge_permutation().to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AdvSgmConfig;
    use advsgm_graph::generators::classic::karate_club;

    /// A live engine over the karate club on a spill store of
    /// `partitions` buckets.
    fn engine(graph: &Graph, partitions: usize) -> (SessionCore, ReplayEngine, Arc<SlotPoolStats>) {
        engine_at(graph, partitions, 1)
    }

    /// [`engine`] with `threads` workers (a pool above one).
    fn engine_at(
        graph: &Graph,
        partitions: usize,
        threads: usize,
    ) -> (SessionCore, ReplayEngine, Arc<SlotPoolStats>) {
        let cfg = AdvSgmConfig::test_small(ModelVariant::AdvSgm).with_threads(threads);
        let (mut core, provider, rng) = SessionCore::new(graph, cfg).unwrap();
        let stats = Arc::new(SlotPoolStats::default());
        let engine =
            ReplayEngine::new(&mut core, provider, rng, partitions, Arc::clone(&stats)).unwrap();
        (core, engine, stats)
    }

    /// The engine's spill store.
    fn spill(engine: &mut ReplayEngine) -> &mut PartitionedEmbeddings {
        engine.parts.as_mut().expect("a spill store")
    }

    /// A positive batch over every pair of every third node: it touches
    /// every bucket of both roles, and every bucket pair, at `P <= 4`.
    fn grid_batch(n: usize) -> DiscBatch {
        let nodes = (0..n).step_by(3);
        DiscBatch {
            pairs: nodes
                .clone()
                .flat_map(|i| nodes.clone().map(move |j| (i, j)))
                .collect(),
            positive: true,
            signs: Vec::new(),
            weights: Vec::new(),
        }
    }

    #[test]
    fn disc_update_loads_at_most_two_times_p_minus_one_partitions() {
        let g = karate_club();
        for p in [2, 3, 4] {
            let (mut core, mut engine, stats) = engine(&g, p);
            let warm = engine.next_batch(&g).unwrap();
            engine.disc_update(&mut core, &g, &warm, false).unwrap();
            assert_eq!(stats.resident(), 2, "P={p}: warm pool");
            let before = stats.loads();
            engine
                .disc_update(&mut core, &g, &grid_batch(g.num_nodes()), false)
                .unwrap();
            let loads = stats.loads() - before;
            assert!(loads <= 2 * (p - 1), "P={p}: {loads} loads");
        }
    }

    #[test]
    fn resident_slots_stay_equal_to_their_spill_rows() {
        let g = karate_club();
        let (mut core, mut engine, _stats) = engine(&g, 3);
        for _ in 0..4 {
            let batch = engine.next_batch(&g).unwrap();
            engine.disc_update(&mut core, &g, &batch, false).unwrap();
            engine
                .disc_update(&mut core, &g, &grid_batch(g.num_nodes()), false)
                .unwrap();
            for role in [Role::In, Role::Out] {
                let parts = spill(&mut engine);
                let slot = parts.slots[role as usize].take().expect("resident");
                let mut on_disk = vec![0.0; slot.rows.len()];
                let first = parts.buckets.range(slot.bucket).start;
                parts.read_rows(role, first, &mut on_disk).unwrap();
                assert_eq!(slot.rows, on_disk, "{}: slot is not clean", role.name());
                parts.slots[role as usize] = Some(slot);
            }
        }
    }

    #[test]
    fn failed_spill_write_is_a_typed_error_naming_role_and_bucket() {
        let g = karate_club();
        let (mut core, mut engine, _stats) = engine(&g, 2);
        let warm = engine.next_batch(&g).unwrap();
        engine.disc_update(&mut core, &g, &warm, false).unwrap();
        // Swap W_in's handle for a read-only one: gathers still succeed,
        // the apply's first write (bucket 0 holds node 0) fails.
        let parts = spill(&mut engine);
        let path = parts.spill_dir.join("w_in.spill");
        parts.files[Role::In as usize] = File::open(path).unwrap();
        let err = engine
            .disc_update(&mut core, &g, &grid_batch(g.num_nodes()), false)
            .unwrap_err();
        let CoreError::Io(e) = &err else {
            panic!("expected CoreError::Io, got {err:?}");
        };
        assert!(
            e.to_string().contains("w_in bucket 0"),
            "the error must name the role and bucket: {e}"
        );
    }

    #[test]
    fn spill_setup_error_is_typed_and_names_the_path() {
        let g = karate_club();
        let cfg = AdvSgmConfig::test_small(ModelVariant::AdvSgm).with_threads(1);
        let (core, _provider, _rng) = SessionCore::new(&g, cfg).unwrap();
        // A regular file where the spill root's parent directory belongs.
        let file =
            std::env::temp_dir().join(format!("advsgm-ooc-not-a-dir-{}", std::process::id()));
        fs::write(&file, b"").unwrap();
        let root = file.join("spill");
        let buckets = NodeBuckets::new(g.num_nodes(), 2).unwrap();
        let result = PartitionedEmbeddings::new(core.emb, buckets, Arc::default(), &root);
        fs::remove_file(&file).unwrap();
        let Err(CoreError::Io(e)) = result else {
            panic!("expected CoreError::Io");
        };
        assert!(
            e.to_string().contains(&root.display().to_string()),
            "the error must name the spill path: {e}"
        );
    }

    #[test]
    fn shrunk_spill_file_is_a_typed_error_naming_role_and_bucket() {
        let g = karate_club();
        let (mut core, mut engine, _stats) = engine(&g, 2);
        let warm = engine.next_batch(&g).unwrap();
        engine.disc_update(&mut core, &g, &warm, false).unwrap();
        // Park W_out on bucket 0, then cut its file where bucket 1 starts.
        let parts = spill(&mut engine);
        parts.acquire(Role::Out, 0).unwrap();
        let cut = parts.buckets.range(1).start * parts.dim * 8;
        parts.files[Role::Out as usize].set_len(cut as u64).unwrap();
        let err = engine
            .disc_update(&mut core, &g, &grid_batch(g.num_nodes()), false)
            .unwrap_err();
        let CoreError::Io(e) = &err else {
            panic!("expected CoreError::Io, got {err:?}");
        };
        assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof);
        assert!(
            e.to_string().contains("w_out bucket 1"),
            "the error must name the role and bucket: {e}"
        );
    }

    #[test]
    fn sampling_error_while_looking_ahead_is_typed() {
        let g = karate_club();
        let (mut core, mut engine, _stats) = engine_at(&g, 2, 2);
        let pos = engine.next_batch(&g).unwrap();
        engine.disc_update(&mut core, &g, &pos, true).unwrap();
        let neg = engine.next_batch(&g).unwrap();
        // After a negative batch the lookahead samples the next iteration;
        // from a graph the sampler was not sized for, that must fail.
        let fewer = Graph::from_parts(g.num_nodes(), g.edges()[1..].to_vec(), None);
        let err = engine
            .disc_update(&mut core, &fewer, &neg, true)
            .unwrap_err();
        assert!(matches!(err, CoreError::Graph(_)), "{err:?}");
    }
}
