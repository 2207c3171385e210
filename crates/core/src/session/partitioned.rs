//! The partitioned [`Engine`]: out-of-core execution (DESIGN.md §14).
//!
//! Executes the same Algorithm-3 steps as the sequential engine while
//! keeping at most **two** embedding partitions in memory — one `W_in`
//! bucket and one `W_out` bucket — swapped through a fixed-size slot pool
//! that spills evicted partitions to disk. The headline contract is
//! *bitwise identity*: at a fixed seed the released embeddings, epoch
//! losses, and privacy spend are identical to the sequential trainer's
//! for every partition count and thread count.
//!
//! That identity holds because every step is a *replay* of the sequential
//! step, split into three phases:
//!
//! 1. **Phase A (draw)** — all RNG-consuming work (batch sampling, fake
//!    neighbors, noise vectors) runs on the single sequential stream in
//!    the sequential engine's exact program order. Embedding *reads*
//!    consume no randomness, so deferring them cannot shift a draw.
//! 2. **Phase B (compute)** — the rows a step reads are *gathered* role by
//!    role: every item's `W_in` row, then every item's `W_out` row, is
//!    copied into a flat buffer at the item's batch index, visiting each
//!    touched bucket once in the *resident-first cyclic order* (the
//!    resident bucket, then the next ones, wrapping at `P`). The *pure*
//!    per-item results are then computed from those buffers in one pool
//!    dispatch per step, stored at each item's original batch index; they
//!    are chunk-invariant, so the thread count cannot change them.
//! 3. **Phase C (fold)** — the floating-point accumulations (per-row
//!    gradient sums, the loss fold) run over the per-item results in
//!    original batch order — exactly the association the sequential
//!    engine uses.
//!
//! All embedding reads in a step see the pre-update snapshot (the
//! sequential engine also reads everything before writing anything), and
//! the final apply updates each touched row exactly once with identical
//! arithmetic ([`step_row`]), so apply order across distinct rows is
//! immaterial — the apply walks the buckets in the same resident-first
//! cyclic order. A discriminator update thus loads at most `4 (P - 1)`
//! partitions: `P - 1` per role for the gather, and again for the apply.
//!
//! Evicted partitions live in one spill file per role, created and sized
//! once: the whole matrix as row-major little-endian `f64`, so bucket `b`
//! sits at its first row's byte offset and a dirty eviction overwrites it
//! in place.
//!
//! The generator tables and the graph's edge list stay RAM-resident: the
//! embedding matrices dominate the model's footprint (two dense
//! `n x r` matrices against the generators' two), and the scope of this
//! engine is bounding *embedding* residency; see DESIGN.md §14.

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use advsgm_graph::{Graph, NodeBuckets};
use advsgm_linalg::rng::{gaussian_vec, rng_state};
use advsgm_linalg::{backend, vector, DenseMatrix};
use advsgm_parallel::ThreadPool;
use rand::rngs::SmallRng;
use rand::Rng;

use crate::error::CoreError;
use crate::loss::{fold_novel_loss, negative_dot, positive_terms};
use crate::model::embeddings::step_row;
use crate::model::generator::FakeNeighbor;
use crate::model::Embeddings;
use crate::partitioned::SlotPoolStats;
use crate::sampler::{BatchProvider, DiscBatch};
use crate::session::{
    accumulate, clipped_pair_grads, gradient_noise_std, Engine, EngineKind, EngineStreams, PairCtx,
    PairFakes, RowAcc, SessionCore,
};
use crate::variants::ModelVariant;
use crate::weighting::WeightMode;

/// Distinguishes spill directories of concurrently-built engines within
/// one process (the process id distinguishes across processes).
static SPILL_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Values per spill read or write: the reused byte buffer is 64 KiB, never
/// a whole bucket.
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

/// One resident embedding partition.
struct Slot {
    /// Which bucket the rows belong to.
    bucket: usize,
    /// The bucket's rows, row-major, `len_of(bucket) * dim` values.
    rows: Vec<f64>,
    /// Whether the rows have been written since loading (evicting a clean
    /// slot skips the spill write).
    dirty: bool,
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
    /// Spills both matrices of `emb` to disk and starts with both slots
    /// empty; `emb` is consumed (the full matrices stop existing in RAM).
    fn new(
        emb: Embeddings,
        buckets: NodeBuckets,
        stats: Arc<SlotPoolStats>,
    ) -> Result<Self, CoreError> {
        let spill_dir = std::env::temp_dir().join(format!(
            "advsgm-ooc-{}-{}",
            std::process::id(),
            SPILL_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&spill_dir)?;
        // Create + truncate, not create-new: a stale directory left by a
        // killed process whose pid was reused is simply overwritten.
        let open = |role: Role| {
            OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(true)
                .open(spill_dir.join(format!("{}.spill", role.name())))
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
            this.write_rows(role, 0, m.as_slice())?;
        }
        Ok(this)
    }

    /// Overwrites `role`'s spill rows from node `first` on with `rows`.
    fn write_rows(&mut self, role: Role, first: usize, rows: &[f64]) -> io::Result<()> {
        let mut file = &self.files[role as usize];
        file.seek(SeekFrom::Start((first * self.dim * 8) as u64))?;
        for chunk in rows.chunks(IO_CHUNK) {
            self.io_buf.clear();
            for v in chunk {
                self.io_buf.extend_from_slice(&v.to_le_bytes());
            }
            file.write_all(&self.io_buf)?;
        }
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
    /// resident, otherwise evict (writing back in place only if dirty) and
    /// load into the evicted slot's buffer.
    fn acquire(&mut self, role: Role, bucket: usize) -> Result<(), CoreError> {
        let slot = &mut self.slots[role as usize];
        if slot.as_ref().is_some_and(|s| s.bucket == bucket) {
            return Ok(());
        }
        let mut rows = match slot.take() {
            Some(s) => {
                if s.dirty {
                    let first = self.buckets.range(s.bucket).start;
                    self.write_rows(role, first, &s.rows)
                        .map_err(spill_error(role, s.bucket))?;
                }
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
        self.slots[role as usize] = Some(Slot {
            bucket,
            rows,
            dirty: false,
        });
        self.stats.loads.fetch_add(1, Ordering::Relaxed);
        let resident = self.stats.resident.fetch_add(1, Ordering::Relaxed) + 1;
        self.stats.high_water.fetch_max(resident, Ordering::Relaxed);
        Ok(())
    }

    /// Makes `node`'s bucket resident for `role` and returns its slot plus
    /// the row's offset in it.
    fn resident(&mut self, role: Role, node: usize) -> Result<(&mut Slot, usize), CoreError> {
        let bucket = self.buckets.bucket_of(node);
        self.acquire(role, bucket)?;
        let off = (node - self.buckets.range(bucket).start) * self.dim;
        let slot = self.slots[role as usize].as_mut().expect("just acquired");
        Ok((slot, off))
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
            let (slot, off) = self.resident(role, node)?;
            out[k * dim..(k + 1) * dim].copy_from_slice(&slot.rows[off..off + dim]);
        }
        Ok(())
    }

    /// Applies each accumulated row's noisy, touch-count-normalised update
    /// with the sequential arithmetic, walking the buckets in visit order
    /// (rows ascending within each, DESIGN.md §15). Rows are distinct, so
    /// the order across them is bitwise-neutral.
    fn apply(
        &mut self,
        role: Role,
        acc: RowAcc,
        noise: &[f64],
        eta: f64,
        project: bool,
    ) -> Result<(), CoreError> {
        let key = self.visit_key(role);
        let mut rows: Vec<(usize, (Vec<f64>, usize))> = acc.into_iter().collect();
        rows.sort_unstable_by_key(|&(node, _)| key(node));
        let dim = self.dim;
        for (node, (mut g, c)) in rows {
            backend::fused_axpy_scale(&mut g, c as f64, noise, 1.0 / c as f64);
            let (slot, off) = self.resident(role, node)?;
            slot.dirty = true;
            step_row(&mut slot.rows[off..off + dim], eta, &g, project);
        }
        Ok(())
    }

    /// Rebuilds the full matrices: resident slots are authoritative,
    /// everything else comes from the spill files. Leaves the pool and
    /// its counters untouched.
    fn snapshot(&mut self) -> Result<Embeddings, CoreError> {
        let n = self.buckets.num_nodes();
        let dim = self.dim;
        let mut mats = [vec![0.0; n * dim], vec![0.0; n * dim]];
        for role in [Role::In, Role::Out] {
            let m = &mut mats[role as usize];
            for b in 0..self.buckets.count() {
                let range = self.buckets.range(b);
                let rows = &mut m[range.start * dim..range.end * dim];
                match &self.slots[role as usize] {
                    Some(s) if s.bucket == b => rows.copy_from_slice(&s.rows),
                    _ => self
                        .read_rows(role, range.start, rows)
                        .map_err(spill_error(role, b))?,
                }
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

/// An empty placeholder for `core.emb` while the partitions own the data.
fn empty_embeddings() -> Embeddings {
    Embeddings::from_parts(DenseMatrix::zeros(0, 0), DenseMatrix::zeros(0, 0))
}

/// Item `k`'s row in a gather buffer of `r`-wide rows.
fn row(rows: &[f64], k: usize, r: usize) -> &[f64] {
    &rows[k * r..(k + 1) * r]
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

/// Out-of-core step execution replaying the sequential trajectory
/// (module docs have the phase structure and determinism argument).
pub(crate) struct PartitionedEngine {
    /// Algorithm-2 batch provisioning, identical to the sequential engine's.
    provider: BatchProvider,
    /// The one RNG stream, in the sequential engine's draw order.
    rng: SmallRng,
    /// The negative half of a sampled iteration, buffered between the two
    /// `next_batch` calls of one discriminator iteration.
    pending_neg: Option<DiscBatch>,
    /// The bucketed embeddings behind the two-slot pool.
    parts: PartitionedEmbeddings,
    /// Phase-B gather buffers per role, indexed by [`Role`] and reused
    /// across steps: row `k` is item `k`'s row.
    rows: [Vec<f64>; 2],
    /// Worker pool for Phase-B computation; `None` runs serially.
    pool: Option<ThreadPool>,
    threads: usize,
}

impl PartitionedEngine {
    /// Steals `core.emb` into the slot pool (leaving an empty placeholder)
    /// and wraps the provider plus the post-init RNG stream.
    pub(crate) fn new(
        core: &mut SessionCore,
        provider: BatchProvider,
        rng: SmallRng,
        partitions: usize,
        stats: Arc<SlotPoolStats>,
    ) -> Result<Self, CoreError> {
        let threads = core.cfg.effective_threads();
        let buckets = NodeBuckets::new(core.emb.num_nodes(), partitions)?;
        let emb = std::mem::replace(&mut core.emb, empty_embeddings());
        let parts = PartitionedEmbeddings::new(emb, buckets, stats)?;
        let pool = (threads > 1).then(|| ThreadPool::new(threads));
        Ok(Self {
            provider,
            rng,
            pending_neg: None,
            parts,
            rows: [Vec::new(), Vec::new()],
            pool,
            threads,
        })
    }

    /// Drops the full-matrix copy a checkpoint's [`Engine::sync_core`]
    /// left in `core.emb`, restoring the two-partition residency bound.
    /// The slots and spill files remain authoritative throughout.
    fn reclaim(core: &mut SessionCore) {
        if core.emb.num_nodes() != 0 {
            core.emb = empty_embeddings();
        }
    }
}

impl Engine for PartitionedEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Partitioned
    }

    fn threads(&self) -> usize {
        self.threads
    }

    fn next_batch(&mut self, graph: &Graph) -> Result<DiscBatch, CoreError> {
        match self.pending_neg.take() {
            Some(neg) => Ok(neg),
            None => {
                let (pos, neg) = self.provider.sample_disc_iteration(graph, &mut self.rng)?;
                self.pending_neg = Some(neg);
                Ok(pos)
            }
        }
    }

    /// One discriminator update, replayed (module docs): fakes and noise
    /// in Phase A, role-wise gathers and clipped per-pair gradients in
    /// Phase B, pair-order accumulation in Phase C, then the apply.
    fn disc_update(&mut self, core: &mut SessionCore, batch: &DiscBatch) -> Result<(), CoreError> {
        Self::reclaim(core);
        let r = core.cfg.dim;
        let variant = core.cfg.variant;
        let clip = core.cfg.clip;
        // Per-batch shared noise vectors (Theorem 6's N_{D,1}, N_{D,2}).
        let noise_std = gradient_noise_std(&core.cfg);
        let n_in = gaussian_vec(&mut self.rng, noise_std, r);
        let n_out = gaussian_vec(&mut self.rng, noise_std, r);

        let count = batch.pairs.len();
        debug_assert!(count > 0, "empty batch");

        // Phase A: fake neighbors and batch means, in pair order on the
        // one stream — exactly the sequential engine's draw sequence.
        let adversarial = variant.is_adversarial();
        let mut fakes_j: Vec<Vec<f64>> = Vec::new();
        let mut fakes_i: Vec<Vec<f64>> = Vec::new();
        let mut mean_j = vec![0.0; r];
        let mut mean_i = vec![0.0; r];
        if adversarial {
            for &(i, j) in &batch.pairs {
                let fj = core.gens.for_i.generate(j, &mut self.rng).v;
                let fi = core.gens.for_j.generate(i, &mut self.rng).v;
                vector::add_assign(&mut mean_j, &fj);
                vector::add_assign(&mut mean_i, &fi);
                fakes_j.push(fj);
                fakes_i.push(fi);
            }
            vector::scale(&mut mean_j, 1.0 / count as f64);
            vector::scale(&mut mean_i, 1.0 / count as f64);
        }

        // Phase B: gather every pair's W_in row, then its W_out row, and
        // compute each pair's clipped gradients (pure, RNG-free) at its
        // original index in one dispatch.
        let [rows_in, rows_out] = &mut self.rows;
        let pairs = &batch.pairs;
        self.parts
            .gather(Role::In, pairs.iter().map(|p| p.0), rows_in)?;
        self.parts
            .gather(Role::Out, pairs.iter().map(|p| p.1), rows_out)?;
        let kind = core.kind;
        let (rows_in, rows_out) = (&*rows_in, &*rows_out);
        let (fakes_j, fakes_i) = (&fakes_j, &fakes_i);
        let (mean_j, mean_i) = (&mean_j, &mean_i);
        let grads = map_indexed(&mut self.pool, pairs, |idx, _| {
            let pair_fakes = adversarial.then(|| PairFakes {
                fake_j: &fakes_j[idx],
                fake_i: &fakes_i[idx],
                mean_j,
                mean_i,
            });
            clipped_pair_grads(
                kind,
                variant,
                clip,
                PairCtx::of(batch, idx),
                row(rows_in, idx, r),
                row(rows_out, idx, r),
                pair_fakes,
            )
        });

        // Phase C: accumulate per-row sums in original pair order — the
        // sequential engine's exact floating-point association.
        let mut acc_in: RowAcc = HashMap::new();
        let mut acc_out: RowAcc = HashMap::new();
        for (&(i, j), (gi, gj)) in pairs.iter().zip(grads) {
            accumulate(&mut acc_in, i, gi);
            accumulate(&mut acc_out, j, gj);
        }

        let eta = core.cfg.eta_d;
        let project = core.cfg.project_rows && variant != ModelVariant::Sgm;
        self.parts.apply(Role::In, acc_in, &n_in, eta, project)?;
        self.parts.apply(Role::Out, acc_out, &n_out, eta, project)
    }

    /// One generator iteration, replayed: sampling and fake generation in
    /// Phase A (per sample: edge, orientation, `f1`, `f2` — the
    /// sequential order, since nothing between them draws), role-wise
    /// gathers and the per-sample upstreams in Phase B, sample-order
    /// gradient accumulation in Phase C. No embedding is written.
    fn generator_update(&mut self, core: &mut SessionCore, graph: &Graph) -> Result<(), CoreError> {
        Self::reclaim(core);
        let r = core.cfg.dim;
        let sample_count = core.cfg.batch_size * (core.cfg.negatives + 1);
        let noise_std = gradient_noise_std(&core.cfg);
        let ng1 = gaussian_vec(&mut self.rng, noise_std, r);
        let ng2 = gaussian_vec(&mut self.rng, noise_std, r);

        // Phase A.
        let edges = graph.edges();
        let mut samples: Vec<(usize, usize, FakeNeighbor, FakeNeighbor)> =
            Vec::with_capacity(sample_count);
        for _ in 0..sample_count {
            let e = edges[self.rng.gen_range(0..edges.len())];
            let (s, t) = if self.rng.gen::<bool>() {
                (e.u().index(), e.v().index())
            } else {
                (e.v().index(), e.u().index())
            };
            let f1 = core.gens.for_i.generate(t, &mut self.rng);
            let f2 = core.gens.for_j.generate(s, &mut self.rng);
            samples.push((s, t, f1, f2));
        }

        // Phase B: v_i = W_in[s] and v_j = W_out[t], gathered role by
        // role, then the per-sample upstream gradients (pure).
        let [vi, vj] = &mut self.rows;
        self.parts
            .gather(Role::In, samples.iter().map(|x| x.0), vi)?;
        self.parts
            .gather(Role::Out, samples.iter().map(|x| x.1), vj)?;
        let kind = core.kind;
        let (vi, vj) = (&*vi, &*vj);
        let (ng1, ng2) = (&ng1, &ng2);
        let ups = map_indexed(&mut self.pool, &samples, |idx, (_s, _t, f1, f2)| {
            let (vi, vj) = (row(vi, idx, r), row(vj, idx, r));
            let (s1_fake, s1_noise) = backend::dot2(vi, &f1.v, ng1);
            let s1 = s1_fake + s1_noise;
            let c1 = -kind.neg_log_one_minus_grad(s1);
            let up1 = vector::scaled(c1, vi);
            let (s2_fake, s2_noise) = backend::dot2(vj, &f2.v, ng2);
            let s2 = s2_fake + s2_noise;
            let c2 = -kind.neg_log_one_minus_grad(s2);
            let up2 = vector::scaled(c2, vj);
            (up1, up2)
        });

        // Phase C: accumulate generator gradients in sample order.
        let mut grads_j: RowAcc = HashMap::new();
        let mut grads_i: RowAcc = HashMap::new();
        for (idx, (_s, _t, f1, f2)) in samples.iter().enumerate() {
            core.gens
                .for_i
                .accumulate_grad(f1, &ups[idx].0, &mut grads_j);
            core.gens
                .for_j
                .accumulate_grad(f2, &ups[idx].1, &mut grads_i);
        }
        core.gens.for_i.step(core.cfg.eta_g, &grads_j);
        core.gens.for_j.step(core.cfg.eta_g, &grads_i);
        Ok(())
    }

    /// Per-epoch `|L_Nov|` on one fresh batch, replayed through the
    /// order-fixed fold split of [`crate::loss`].
    fn epoch_loss(&mut self, core: &mut SessionCore, graph: &Graph) -> Result<f64, CoreError> {
        Self::reclaim(core);
        let (pos, pos_signs) = self.provider.positives_with_signs(graph, &mut self.rng)?;
        let negs = self.provider.negatives(&pos, &mut self.rng);
        let mode = if core.cfg.variant.is_adversarial() {
            WeightMode::InverseS
        } else {
            WeightMode::Fixed(0.0)
        };
        // Same panic point as `novel_loss_batch`, before any draw.
        assert!(!pos.is_empty(), "need at least one positive pair");
        let r = core.cfg.dim;
        let noise_std = gradient_noise_std(&core.cfg);
        let n1 = gaussian_vec(&mut self.rng, noise_std.max(0.0), r);
        let n2 = gaussian_vec(&mut self.rng, noise_std.max(0.0), r);

        // Phase A: fresh fakes per positive, in batch order.
        let mut fakes: Vec<(Vec<f64>, Vec<f64>)> = Vec::with_capacity(pos.len());
        for e in &pos {
            let fake_j = core.gens.for_i.generate(e.v().index(), &mut self.rng).v;
            let fake_i = core.gens.for_j.generate(e.u().index(), &mut self.rng).v;
            fakes.push((fake_j, fake_i));
        }

        // Phase B: one gather per role over the positives followed by the
        // negatives, then the per-pair scalar terms.
        let [rows_in, rows_out] = &mut self.rows;
        let sources = pos.iter().map(|e| e.u().index());
        let sources = sources.chain(negs.iter().map(|p| p.source.index()));
        self.parts.gather(Role::In, sources, rows_in)?;
        let targets = pos.iter().map(|e| e.v().index());
        let targets = targets.chain(negs.iter().map(|p| p.negative.index()));
        self.parts.gather(Role::Out, targets, rows_out)?;
        let (rows_in, rows_out) = (&*rows_in, &*rows_out);
        let (n1, n2, pos_signs) = (&n1, &n2, &pos_signs);
        let terms = map_indexed(&mut self.pool, &fakes, |idx, (fake_j, fake_i)| {
            positive_terms(
                row(rows_in, idx, r),
                row(rows_out, idx, r),
                fake_j,
                fake_i,
                n1,
                n2,
                pos_signs.get(idx).copied().unwrap_or(false),
            )
        });
        let neg_dots: Vec<f64> = (pos.len()..pos.len() + negs.len())
            .map(|k| negative_dot(row(rows_in, k, r), row(rows_out, k, r)))
            .collect();

        // Phase C: the order-fixed fold.
        Ok(fold_novel_loss(core.kind, mode, &terms, &neg_dots).abs())
    }

    fn sync_core(&mut self, core: &mut SessionCore) -> Result<(), CoreError> {
        core.emb = self.parts.snapshot()?;
        Ok(())
    }

    fn streams(&self) -> EngineStreams {
        debug_assert!(
            self.pending_neg.is_none(),
            "checkpoint capture mid-iteration"
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

    /// A live engine over the karate club at `partitions` buckets.
    fn engine(
        graph: &Graph,
        partitions: usize,
    ) -> (SessionCore, PartitionedEngine, Arc<SlotPoolStats>) {
        let cfg = AdvSgmConfig::test_small(ModelVariant::AdvSgm).with_threads(1);
        let (mut core, provider, rng) = SessionCore::new(graph, cfg).unwrap();
        let stats = Arc::new(SlotPoolStats::default());
        let engine =
            PartitionedEngine::new(&mut core, provider, rng, partitions, Arc::clone(&stats))
                .unwrap();
        (core, engine, stats)
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
    fn disc_update_loads_at_most_four_times_p_minus_one_partitions() {
        let g = karate_club();
        for p in [2, 3, 4] {
            let (mut core, mut engine, stats) = engine(&g, p);
            let warm = engine.next_batch(&g).unwrap();
            engine.disc_update(&mut core, &warm).unwrap();
            assert_eq!(stats.resident(), 2, "P={p}: warm pool");
            let before = stats.loads();
            engine
                .disc_update(&mut core, &grid_batch(g.num_nodes()))
                .unwrap();
            let loads = stats.loads() - before;
            assert!(loads <= 4 * (p - 1), "P={p}: {loads} loads");
        }
    }

    #[test]
    fn shrunk_spill_file_is_a_typed_error_naming_role_and_bucket() {
        let g = karate_club();
        let (mut core, mut engine, _stats) = engine(&g, 2);
        let warm = engine.next_batch(&g).unwrap();
        engine.disc_update(&mut core, &warm).unwrap();
        // Park W_out on bucket 0, then cut its file where bucket 1 starts.
        engine.parts.acquire(Role::Out, 0).unwrap();
        let cut = engine.parts.buckets.range(1).start * engine.parts.dim * 8;
        engine.parts.files[Role::Out as usize]
            .set_len(cut as u64)
            .unwrap();
        let err = engine
            .disc_update(&mut core, &grid_batch(g.num_nodes()))
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
}
