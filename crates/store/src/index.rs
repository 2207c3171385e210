//! Cluster-pruned (IVF-style) approximate top-k over a released store,
//! and its `.aidx` on-disk format.
//!
//! The exhaustive [`EmbeddingStore::top_k`] scan costs `O(n·r)` per query
//! — fine at 10k nodes, unusable at the "millions of users" scale the
//! serving layer targets. An [`IvfIndex`] trades a one-time build for
//! sublinear queries: rows are partitioned into `nlist` clusters by
//! k-means at the Theorem-5 release boundary, and a query scans only the
//! `nprobe` clusters whose centroids score highest against it.
//!
//! **Privacy:** the index is computed *from the released matrix* — it is
//! post-processing under the paper's Theorem 5, so building, persisting,
//! and serving from it consume no additional privacy budget. (This is why
//! it must be built at or after the release boundary, never from
//! pre-noise state.)
//!
//! **Exactness-vs-recall toggle:** `nprobe` ranges from 1 (fastest,
//! lowest recall) to `nlist` (every cluster probed). At `nprobe >=
//! nlist` the search is *exact* and **bitwise-identical** to
//! [`advsgm_linalg::topk::top_k_rows`]. Exact mode visits clusters in
//! descending order of an upper bound on any member's score,
//! `q·c + ‖q‖·R_c` plus a proven rounding margin (`R_c` is the
//! cluster's radius), and stops once no unvisited cluster can reach the
//! k-th kept score. When the clusters the bound still admits hold more
//! than a quarter of the store, it takes the contiguous full scan
//! instead. Either way every score comes from the dispatched bitwise
//! kernel [`advsgm_linalg::backend::dot16`], each lane of which is
//! [`advsgm_linalg::backend::dot`] bit for bit, and top-k selection
//! under the total `(score desc, index asc)` order does not depend on
//! scan order, so the answer is the full scan's (property-tested in
//! `tests/index_serving.rs`). The radii are
//! derived from the store when the index is built and when
//! [`IvfIndex::validate_for`] accepts a store, and are never serialised;
//! until then exact mode is the full scan. Approximate search scores its
//! candidates through the same kernel, so its answers, like exact ones,
//! do not depend on the kernel backend. Callers usually don't pick
//! `nprobe` directly: [`IvfIndex::nprobe_for`] maps a recall target to a
//! probe count through a calibration table measured at build time.
//!
//! Rows containing non-finite values (NaN/±inf) cannot be clustered
//! meaningfully; they live on an *always-scanned* list so approximate
//! search still sees them and exact-mode equality holds for hostile
//! stores.
//!
//! The `.aidx` codec follows the same conventions as `.aemb`
//! (`docs/FORMAT.md`): little-endian, raw IEEE-754 bit patterns, CRC-32
//! trailer, every corruption mode a typed [`StoreError`], and an
//! append-only compatibility policy. An index file carries the
//! [`EmbeddingStore::fingerprint`] of the store it was built from, and
//! pairing it with any other store is a typed
//! [`StoreError::IndexStoreMismatch`].

use std::path::Path;
use std::sync::OnceLock;

use advsgm_linalg::backend::{self, CentroidPanels};
use advsgm_linalg::topk::{score_rows, top_k_rows, top_k_rows_among, ScoredIndex, TopK};
use advsgm_linalg::{vector, DenseMatrix};
use advsgm_parallel::ThreadPool;

use crate::error::StoreError;
use crate::format::crc32;
use crate::store::{EmbeddingStore, Neighbor};

/// The four magic bytes every `.aidx` file starts with.
pub const INDEX_MAGIC: [u8; 4] = *b"AIDX";

/// The `.aidx` format version this build writes and the highest it reads.
pub const INDEX_FORMAT_VERSION: u16 = 1;

/// Fixed `.aidx` header length in bytes (everything before the centroid
/// section).
pub const INDEX_HEADER_LEN: usize = 36;

/// Assignment sentinel: the row is on the always-scanned list (non-finite
/// values), not in any cluster.
const ALWAYS_SCAN: u32 = u32::MAX;

/// Recall targets the build calibrates probe counts for.
const CALIBRATION_TARGETS: [f64; 5] = [0.50, 0.80, 0.90, 0.95, 0.99];

/// Exact mode takes the contiguous full scan when the clusters its bound
/// still admits hold more than `1 / FULL_SCAN_SHARE` of the store. A row
/// reached through a cluster list costs about 3× a row of the contiguous
/// scan (2.6–2.9× measured on a 2-core AVX2 host, 100k × 32 store):
/// list order jumps around the matrix while the full scan streams it.
/// Past about a quarter of the rows the pruned visit saves little or
/// loses.
const FULL_SCAN_SHARE: usize = 4;

/// Build-time knobs for [`IvfIndex::build`].
///
/// The defaults are sized for "build once at release, serve forever":
/// `nlist = 0` auto-selects ~`sqrt(n)` clusters, a handful of Lloyd
/// iterations is enough for pruning (the index only needs *good* clusters,
/// not converged ones), and 64 sampled queries calibrate the
/// recall → `nprobe` table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndexParams {
    /// Number of clusters; `0` auto-selects `max(1, round(sqrt(n)))`,
    /// clamped to the number of finite rows.
    pub nlist: usize,
    /// Lloyd (k-means) refinement iterations after deterministic seeding.
    pub kmeans_iters: usize,
    /// Rows sampled as calibration queries (clamped to the finite rows).
    pub sample_queries: usize,
    /// `k` used when measuring calibration recall (recall@k).
    pub calibration_k: usize,
}

impl Default for IndexParams {
    fn default() -> Self {
        Self {
            nlist: 0,
            kmeans_iters: 5,
            sample_queries: 64,
            calibration_k: 10,
        }
    }
}

/// One approximate query's outcome: the neighbors plus how much of the
/// store the search actually touched (the cost the index exists to cut).
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResult {
    /// The retrieved neighbors, sorted by `(score desc, row asc)` exactly
    /// like [`EmbeddingStore::top_k`].
    pub neighbors: Vec<Neighbor>,
    /// Rows whose scores were computed (including the query's own row
    /// when it had to be visited and skipped). In exact mode these are
    /// the rows the bound-pruned visit scored, plus the `nodes − 1` of
    /// the full scan when it fell back to it.
    pub rows_scanned: usize,
}

/// A cluster-pruned approximate-nearest-neighbor index over one released
/// [`EmbeddingStore`].
///
/// Deterministic end to end: seeding, Lloyd iteration, tie-breaks
/// (lower-index wins), and probe ordering are all fixed functions of the
/// store's contents, so the same release always builds byte-identical
/// indexes and every query is reproducible.
///
/// # Examples
/// ```
/// use advsgm_linalg::DenseMatrix;
/// use advsgm_core::ModelVariant;
/// use advsgm_store::{EmbeddingStore, IndexParams, IvfIndex, PrivacyMeta};
///
/// let m = DenseMatrix::from_fn(200, 8, |i, j| ((i * 7 + j) as f64 * 0.31).sin());
/// let store = EmbeddingStore::new(m, PrivacyMeta::non_private(ModelVariant::Sgm)).unwrap();
/// let index = IvfIndex::build(&store, IndexParams::default()).unwrap();
///
/// // Exact mode (nprobe = nlist) is bitwise-identical to the full scan.
/// let exact = index.search(&store, 3, 5, index.nlist()).unwrap();
/// assert_eq!(exact.neighbors, store.top_k(3, 5).unwrap());
///
/// // Approximate mode scans a fraction of the rows.
/// let nprobe = index.nprobe_for(0.9);
/// let approx = index.search(&store, 3, 5, nprobe).unwrap();
/// assert!(approx.rows_scanned <= store.len());
/// ```
#[derive(Debug, Clone)]
pub struct IvfIndex {
    dim: usize,
    nodes: usize,
    store_fingerprint: u64,
    /// `nlist x dim` cluster centroids (always finite values).
    centroids: DenseMatrix,
    /// Per-row cluster id, or [`ALWAYS_SCAN`] for non-finite rows.
    assignments: Vec<u32>,
    /// `(recall target, nprobe)` pairs, ascending by target.
    calibration: Vec<(f64, u32)>,
    /// Derived: member rows per cluster (not serialised; rebuilt on load).
    clusters: Vec<Vec<usize>>,
    /// Derived: rows scanned on every query (non-finite embeddings).
    always: Vec<usize>,
    /// Derived from the store, never serialised: the per-cluster bounds
    /// exact mode prunes with. Set by the build and by
    /// [`IvfIndex::validate_for`]; while unset, exact mode is the full
    /// scan.
    geometry: OnceLock<Geometry>,
}

/// Equality over the serialised fields: the cluster lists derive from
/// them, and the geometry from the store they are paired with.
impl PartialEq for IvfIndex {
    fn eq(&self, other: &Self) -> bool {
        self.dim == other.dim
            && self.nodes == other.nodes
            && self.store_fingerprint == other.store_fingerprint
            && self.centroids == other.centroids
            && self.assignments == other.assignments
            && self.calibration == other.calibration
    }
}

impl IvfIndex {
    /// Builds an index over `store` — k-means clustering with
    /// deterministic seeding (evenly spaced rows), then a recall
    /// calibration pass over sampled queries — on the calling thread.
    ///
    /// Cost is `O(iters · n · nlist · r)` for clustering plus
    /// `O(samples · n · r)` for calibration; this is the one-time price of
    /// sublinear queries and belongs at the release boundary, not on the
    /// serving path.
    ///
    /// # Errors
    /// [`StoreError::LimitExceeded`] if the resolved `nlist` overflows the
    /// format's u32 field (unreachable for any store that fits in memory,
    /// guarded anyway per the FORMAT.md no-truncation policy).
    pub fn build(store: &EmbeddingStore, params: IndexParams) -> Result<Self, StoreError> {
        Self::build_in(store, params, &mut ThreadPool::new(1))
    }

    /// [`IvfIndex::build`] on a caller-owned pool. The work is split by
    /// output: each row's assignment, each centroid's sum (walking its
    /// rows in ascending order) and each calibration query is computed
    /// whole on one thread, and calibration hits are summed as integers,
    /// so the index is byte-identical at every pool width.
    ///
    /// # Errors
    /// See [`IvfIndex::build`].
    pub fn build_in(
        store: &EmbeddingStore,
        params: IndexParams,
        pool: &mut ThreadPool,
    ) -> Result<Self, StoreError> {
        let n = store.len();
        let dim = store.dim();
        let matrix = store.matrix();

        // Non-finite rows cannot be clustered; they are always scanned.
        let mut finite: Vec<usize> = Vec::with_capacity(n);
        let mut always: Vec<usize> = Vec::new();
        for row in 0..n {
            if matrix.row(row).iter().all(|v| v.is_finite()) {
                finite.push(row);
            } else {
                always.push(row);
            }
        }

        let nlist = if finite.is_empty() {
            0
        } else {
            let requested = if params.nlist > 0 {
                params.nlist
            } else {
                ((n as f64).sqrt().round() as usize).max(1)
            };
            requested.min(finite.len())
        };
        if nlist as u64 > ALWAYS_SCAN as u64 - 1 {
            return Err(StoreError::LimitExceeded {
                what: "index cluster count",
                value: nlist as u64,
                max: ALWAYS_SCAN as u64 - 1,
            });
        }

        // Deterministic seeding: centroids start at evenly spaced finite
        // rows, then Lloyd iterations refine (empty clusters keep their
        // previous centroid, so every centroid stays finite).
        let mut centroids = DenseMatrix::zeros(nlist, dim);
        for c in 0..nlist {
            let row = finite[c * finite.len() / nlist];
            centroids.row_mut(c).copy_from_slice(matrix.row(row));
        }
        for _ in 0..params.kmeans_iters.max(1) {
            let finite_assign = assign_nearest(pool, &centroids, matrix, &finite);
            update_centroids(pool, &mut centroids, matrix, &finite, &finite_assign);
        }
        // Final assignment against the final centroids.
        let finite_assign = assign_nearest(pool, &centroids, matrix, &finite);

        let mut assignments = vec![ALWAYS_SCAN; n];
        for (&row, &c) in finite.iter().zip(&finite_assign) {
            assignments[row] = c as u32;
        }

        let mut index = Self {
            dim,
            nodes: n,
            store_fingerprint: store.fingerprint(),
            centroids,
            assignments,
            calibration: Vec::new(),
            clusters: Vec::new(),
            always: Vec::new(),
            geometry: OnceLock::new(),
        };
        index.rebuild_derived();
        index.calibration = index.calibrate(store, &finite, params, pool);
        index.derive_geometry(store);
        Ok(index)
    }

    /// Derives the per-cluster geometry from `store` unless it is
    /// already set (an `O(n·r)` pass). The caller vouches that `store`
    /// is the release the index belongs to.
    fn derive_geometry(&self, store: &EmbeddingStore) {
        self.geometry
            .get_or_init(|| Geometry::derive(store.matrix(), &self.centroids, &self.clusters));
    }

    /// Recomputes the derived cluster membership lists from the
    /// serialised assignment table.
    fn rebuild_derived(&mut self) {
        let nlist = self.centroids.rows();
        let mut clusters = vec![Vec::new(); nlist];
        let mut always = Vec::new();
        for (row, &a) in self.assignments.iter().enumerate() {
            if a == ALWAYS_SCAN {
                always.push(row);
            } else {
                clusters[a as usize].push(row);
            }
        }
        self.clusters = clusters;
        self.always = always;
    }

    /// Measures, on evenly sampled query rows, how many probes each
    /// [`CALIBRATION_TARGETS`] recall level needs, producing the
    /// `(target, nprobe)` table behind [`IvfIndex::nprobe_for`]. One probe
    /// of safety margin is added on top of the in-sample requirement so
    /// out-of-sample queries stay at or above the target in practice.
    fn calibrate(
        &self,
        store: &EmbeddingStore,
        finite: &[usize],
        params: IndexParams,
        pool: &mut ThreadPool,
    ) -> Vec<(f64, u32)> {
        let nlist = self.nlist();
        if nlist == 0 || finite.is_empty() {
            return Vec::new();
        }
        let samples = params.sample_queries.clamp(1, finite.len());
        let k = params.calibration_k.max(1);
        let queries: Vec<usize> = (0..samples)
            .map(|s| finite[s * finite.len() / samples])
            .collect();
        // hits_at[p] = exact-top-k rows found with p+1 probes, summed over
        // all sampled queries; always-scanned hits count at every p. Each
        // query is measured whole on one thread, and integer sums do not
        // depend on how the queries were split.
        let parts = pool.map_chunks(&queries, samples.div_ceil(pool.threads()), |_, _, part| {
            let mut hits_at = vec![0usize; nlist];
            for &u in part {
                let query = store.matrix().row(u);
                // rank_of[c] = position of cluster c in this query's
                // probe order.
                let mut rank_of = vec![0usize; nlist];
                for (rank, c) in self.probe_order(query, nlist).into_iter().enumerate() {
                    rank_of[c] = rank;
                }
                for hit in top_k_rows(store.matrix(), query, k, Some(u)) {
                    let a = self.assignments[hit.index];
                    let first_found = if a == ALWAYS_SCAN {
                        0
                    } else {
                        rank_of[a as usize]
                    };
                    hits_at[first_found] += 1;
                }
            }
            hits_at
        });
        let mut hits_at = vec![0usize; nlist];
        for part in parts {
            for (total, h) in hits_at.iter_mut().zip(part) {
                *total += h;
            }
        }
        let total_hits: usize = hits_at.iter().sum();
        if total_hits == 0 {
            // Degenerate store (k = 0 effective, single node): every
            // target is satisfied by a single probe.
            return CALIBRATION_TARGETS.iter().map(|&t| (t, 1u32)).collect();
        }
        // Prefix-sum into a recall curve: recall(p) with p probes.
        let mut cumulative = 0usize;
        let recall_at: Vec<f64> = hits_at
            .iter()
            .map(|&h| {
                cumulative += h;
                cumulative as f64 / total_hits as f64
            })
            .collect();
        CALIBRATION_TARGETS
            .iter()
            .map(|&target| {
                let needed = recall_at
                    .iter()
                    .position(|&r| r >= target)
                    .map(|p| p + 1)
                    .unwrap_or(nlist);
                // +1 probe out-of-sample margin, capped at a full scan.
                (target, (needed + 1).min(nlist) as u32)
            })
            .collect()
    }

    /// Each cluster's centroid score `q·c` against `query`, as
    /// `(cluster, score)` in cluster order: 16 centroids per
    /// [`backend::dot16`] call through [`score_rows`], bitwise
    /// [`backend::dot`] each.
    fn centroid_scores(&self, query: &[f64]) -> Vec<(usize, f64)> {
        let mut scored = Vec::with_capacity(self.nlist());
        score_rows(&self.centroids, query, 0..self.nlist(), |c, s| {
            scored.push((c, s))
        });
        scored
    }

    /// The first `count` clusters (all of them when `count >= nlist`) of
    /// the probe order: centroid score against `query` descending, ties
    /// toward the lower cluster index — the order probes open clusters in.
    ///
    /// The order is total over distinct cluster indices, so selecting the
    /// first `count` and sorting only those gives the same clusters in the
    /// same order as sorting them all.
    fn probe_order(&self, query: &[f64], count: usize) -> Vec<usize> {
        let by_probe =
            |a: &(usize, f64), b: &(usize, f64)| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0));
        let mut scored = self.centroid_scores(query);
        if count < scored.len() {
            scored.select_nth_unstable_by(count, by_probe);
            scored.truncate(count);
        }
        scored.sort_unstable_by(by_probe);
        scored.into_iter().map(|(c, _)| c).collect()
    }

    /// Number of clusters.
    pub fn nlist(&self) -> usize {
        self.centroids.rows()
    }

    /// Embedding dimension the index was built for.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of rows in the store the index was built from.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Fingerprint of the store this index belongs to
    /// ([`EmbeddingStore::fingerprint`]).
    pub fn store_fingerprint(&self) -> u64 {
        self.store_fingerprint
    }

    /// The build-time `(recall target, nprobe)` calibration table,
    /// ascending by target.
    pub fn calibration(&self) -> &[(f64, u32)] {
        &self.calibration
    }

    /// Rows scanned on every query because their embeddings contain
    /// non-finite values.
    pub fn always_scanned(&self) -> usize {
        self.always.len()
    }

    /// Maps a recall target in `[0, 1]` to a probe count via the
    /// calibration table: the first calibrated level at or above the
    /// target wins; targets beyond the calibrated range (including
    /// `>= 1.0`, i.e. exactness) return `nlist` — a full, exact scan.
    pub fn nprobe_for(&self, recall_target: f64) -> usize {
        let nlist = self.nlist();
        if nlist == 0 {
            return 0;
        }
        let target = recall_target.clamp(0.0, 1.0);
        for &(t, p) in &self.calibration {
            if t >= target {
                return (p as usize).clamp(1, nlist);
            }
        }
        nlist
    }

    /// Cheap compatibility check — row count, dimension, and the content
    /// fingerprint must all match the presented store. Call once when
    /// pairing an index with a store (the fingerprint pass is `O(n·r)`);
    /// [`IvfIndex::search`] then only re-checks the cheap shape fields.
    /// Accepting a store also derives, once, the per-cluster geometry
    /// exact mode prunes with (one more `O(n·r)` pass).
    ///
    /// # Errors
    /// [`StoreError::IndexStoreMismatch`] naming the first field that
    /// disagrees.
    pub fn validate_for(&self, store: &EmbeddingStore) -> Result<(), StoreError> {
        self.check_shape(store)?;
        let found = store.fingerprint();
        if found != self.store_fingerprint {
            return Err(StoreError::IndexStoreMismatch {
                reason: format!(
                    "store fingerprint {found:#018x} != index's {:#018x} (the index \
                     was built from a different release)",
                    self.store_fingerprint
                ),
            });
        }
        self.derive_geometry(store);
        Ok(())
    }

    /// Shape-only compatibility check (no fingerprint pass).
    fn check_shape(&self, store: &EmbeddingStore) -> Result<(), StoreError> {
        if store.len() != self.nodes {
            return Err(StoreError::IndexStoreMismatch {
                reason: format!(
                    "store has {} rows, index was built over {}",
                    store.len(),
                    self.nodes
                ),
            });
        }
        if store.dim() != self.dim {
            return Err(StoreError::IndexStoreMismatch {
                reason: format!(
                    "store dimension {} != index dimension {}",
                    store.dim(),
                    self.dim
                ),
            });
        }
        Ok(())
    }

    /// The `k` highest-scoring neighbors of row `u` (self excluded),
    /// probing the top `nprobe` clusters plus the always-scanned list.
    ///
    /// `nprobe >= nlist` is **exact mode**: the result is
    /// bitwise-identical to [`EmbeddingStore::top_k`]. It visits clusters
    /// by descending score bound and stops once none left can reach the
    /// k-th kept score, or takes the full scan where the bound cannot
    /// prune (see the module docs). Smaller `nprobe` trades recall for a
    /// smaller [`SearchResult::rows_scanned`].
    ///
    /// Exact mode relies on `store` being the release the geometry was
    /// derived from (the build's store, or the one
    /// [`IvfIndex::validate_for`] accepted); pairing is the caller's
    /// contract, as for approximate answers.
    ///
    /// # Errors
    /// [`StoreError::IndexStoreMismatch`] if the store's shape disagrees
    /// with the index (fingerprint equality is the caller's pairing-time
    /// check, see [`IvfIndex::validate_for`]);
    /// [`StoreError::NodeOutOfRange`] for rows the store does not hold.
    pub fn search(
        &self,
        store: &EmbeddingStore,
        u: usize,
        k: usize,
        nprobe: usize,
    ) -> Result<SearchResult, StoreError> {
        self.check_shape(store)?;
        if u >= self.nodes {
            return Err(StoreError::NodeOutOfRange {
                node: u,
                num_nodes: self.nodes,
            });
        }
        let matrix = store.matrix();
        let query = matrix.row(u);
        let nlist = self.nlist();
        if nprobe >= nlist {
            let (scored, rows_scanned) = self.exact(matrix, u, k);
            return Ok(SearchResult {
                neighbors: scored_to_neighbors(store, scored),
                rows_scanned,
            });
        }
        let probed = self.probe_order(query, nprobe.max(1));
        let candidates = probed
            .iter()
            .flat_map(|&c| self.clusters[c].iter().copied())
            .chain(self.always.iter().copied());
        let rows_scanned: usize = probed
            .iter()
            .map(|&c| self.clusters[c].len())
            .sum::<usize>()
            + self.always.len();
        let scored = top_k_rows_among(matrix, query, k, candidates, Some(u));
        let neighbors = scored_to_neighbors(store, scored);
        Ok(SearchResult {
            neighbors,
            rows_scanned,
        })
    }

    /// Exact mode: the top `k` of row `u` and the rows scored, through
    /// the bound-pruned visit where it applies, else the full scan.
    fn exact(&self, matrix: &DenseMatrix, u: usize, k: usize) -> (Vec<ScoredIndex>, usize) {
        let eligible = self.nodes - 1;
        // A `k` the heap can never reach leaves the bound nothing to prune.
        let pruned = match self.geometry.get() {
            Some(geometry) if k < eligible => self.pruned_top_k(geometry, matrix, u, k),
            _ => Err(0),
        };
        pruned.unwrap_or_else(|scored| {
            let top = top_k_rows(matrix, matrix.row(u), k, Some(u));
            (top, scored + eligible)
        })
    }

    /// The bound-pruned exact top-k of row `u`: `Ok((top, rows scored))`,
    /// or `Err(rows scored)` when the full scan must answer instead —
    /// the bound cannot be trusted (a non-finite query row, radius,
    /// bound or margin), or the clusters it admits hold more than
    /// `1 / FULL_SCAN_SHARE` of the store.
    fn pruned_top_k(
        &self,
        geometry: &Geometry,
        matrix: &DenseMatrix,
        u: usize,
        k: usize,
    ) -> Result<(Vec<ScoredIndex>, usize), usize> {
        if k == 0 {
            return Ok((Vec::new(), 0));
        }
        let query = matrix.row(u);
        let q_norm = floored_sqrt(vector::norm2_sq(query));
        if !q_norm.is_finite() {
            return Err(0);
        }
        let mut order = self
            .centroid_scores(query)
            .into_iter()
            .map(|(c, q_dot_c)| Ok((geometry.bound(c, q_dot_c, q_norm).ok_or(0usize)?, c)))
            .collect::<Result<Vec<_>, usize>>()?;
        // Descending bound, the lower cluster index first on ties: a total
        // order over distinct indices, so an unstable sort is exact.
        order.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1)));

        let mut top = TopK::new(k);
        top.push_rows(matrix, query, self.always.iter().copied(), Some(u));
        let mut scored = self.always.len();
        let mut share_checked = false;
        for (at, &(bound, c)) in order.iter().enumerate() {
            if let Some(kth) = top.kth() {
                // Only a bound strictly below the k-th score, under the
                // heap's own order, ends the visit: a member that ties the
                // k-th score with a lower index still enters the heap.
                if bound.total_cmp(&kth.score).is_lt() {
                    break;
                }
                if !share_checked {
                    share_checked = true;
                    let admitted: usize = order[at..]
                        .iter()
                        .take_while(|(b, _)| b.total_cmp(&kth.score).is_ge())
                        .map(|&(_, c)| self.clusters[c].len())
                        .sum();
                    if admitted * FULL_SCAN_SHARE > self.nodes {
                        return Err(scored);
                    }
                }
            }
            top.push_rows(matrix, query, self.clusters[c].iter().copied(), Some(u));
            scored += self.clusters[c].len();
        }
        Ok((top.into_sorted(), scored))
    }

    /// Serialises the index to the `.aidx` wire format (`docs/FORMAT.md`).
    pub fn to_bytes(&self) -> Vec<u8> {
        encode_index(self)
    }

    /// Parses an index from `.aidx` bytes, verifying structure and the
    /// CRC-32 trailer.
    ///
    /// # Errors
    /// The full typed menu: [`StoreError::BadMagic`],
    /// [`StoreError::UnsupportedVersion`], [`StoreError::Truncated`],
    /// [`StoreError::ChecksumMismatch`], [`StoreError::Corrupted`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, StoreError> {
        decode_index(bytes)
    }

    /// Writes the index to a file (bytes fully serialised, checksum
    /// included, before the file is created).
    ///
    /// # Errors
    /// I/O failures.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), StoreError> {
        std::fs::write(path, self.to_bytes())?;
        Ok(())
    }

    /// Loads an index from an `.aidx` file.
    ///
    /// # Errors
    /// I/O failures plus everything [`IvfIndex::from_bytes`] reports.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        Self::from_bytes(&std::fs::read(path)?)
    }
}

/// Each of `rows`' nearest centroid in squared Euclidean distance (ties
/// toward the lower centroid index), the rows split across the pool.
///
/// The centroids are packed once per call, and each worker scores its
/// rows two at a time (an odd last row is paired with itself): whole
/// blocks of 16 centroids through [`backend::dist_sq_2x16`], the rest
/// through [`vector::dist_sq`]. Both give `dist_sq`'s bits, and the scan
/// visits centroids in ascending order keeping only a strictly smaller
/// distance, so every row gets the one-centroid-at-a-time answer.
fn assign_nearest(
    pool: &mut ThreadPool,
    centroids: &DenseMatrix,
    matrix: &DenseMatrix,
    rows: &[usize],
) -> Vec<usize> {
    let panels = CentroidPanels::pack(centroids);
    let chunk = rows.len().div_ceil(pool.threads());
    pool.map_chunks(rows, chunk, |_, _, part| {
        let mut nearest = Vec::with_capacity(part.len());
        for pair in part.chunks(2) {
            let x = [matrix.row(pair[0]), matrix.row(pair[pair.len() - 1])];
            let mut best = [0usize; 2];
            let mut best_d = [f64::INFINITY; 2];
            let mut consider = |i: usize, c: usize, d: f64| {
                if d < best_d[i] {
                    best_d[i] = d;
                    best[i] = c;
                }
            };
            for block in 0..panels.blocks() {
                let dists = backend::dist_sq_2x16(&panels, block, x[0], x[1]);
                for (i, row_dists) in dists.iter().enumerate() {
                    for (j, &d) in row_dists.iter().enumerate() {
                        consider(i, block * CentroidPanels::BLOCK + j, d);
                    }
                }
            }
            for c in panels.blocks() * CentroidPanels::BLOCK..centroids.rows() {
                for (i, x) in x.iter().enumerate() {
                    consider(i, c, vector::dist_sq(x, centroids.row(c)));
                }
            }
            nearest.extend_from_slice(&best[..pair.len()]);
        }
        nearest
    })
    .concat()
}

/// One Lloyd update: each centroid becomes the mean of the rows
/// assigned to it (`assign[i]` for `rows[i]`); empty clusters keep
/// theirs. Each centroid is summed whole on the thread that owns it,
/// walking its rows in ascending order, so the sums are bitwise the
/// one-thread ones.
fn update_centroids(
    pool: &mut ThreadPool,
    centroids: &mut DenseMatrix,
    matrix: &DenseMatrix,
    rows: &[usize],
    assign: &[usize],
) {
    let (nlist, dim) = centroids.shape();
    let mut members = vec![Vec::new(); nlist];
    for (&row, &c) in rows.iter().zip(assign) {
        members[c].push(row);
    }
    let owned = nlist.div_ceil(pool.threads()).max(1);
    pool.for_each_chunk_mut(centroids.as_mut_slice(), owned * dim, |_, offset, part| {
        for (i, centroid) in part.chunks_mut(dim).enumerate() {
            let members = &members[offset / dim + i];
            if members.is_empty() {
                continue;
            }
            let mut sum = vec![0.0; dim];
            for &row in members {
                vector::add_assign(&mut sum, matrix.row(row));
            }
            let inv = 1.0 / members.len() as f64;
            for (d, &s) in centroid.iter_mut().zip(&sum) {
                *d = s * inv;
            }
        }
    });
}

/// Per-cluster geometry behind exact mode's bound, derived from the
/// store (never serialised). For cluster `c` with centroid `c` and radius
/// `R_c = max ‖x − c‖` over its members `x`, [`Geometry::bound`] gives
/// an upper bound on the *computed* score `dot(q, x)` of every member.
///
/// Why the bound holds. Let `u = ε/2` be the unit roundoff, `r < 2^50`
/// the dimension, `γ_r = r·u / (1 − r·u)` and `A = ‖q‖·(‖c‖ + R_c)`,
/// with true norms. A product that lands below the normal range is off
/// by up to `2^-1075` (half the least subnormal) rather than by a
/// relative `u`, and a sum that lands there is exact.
///
/// 1. Exactly, `q·x = q·c + q·(x − c) ≤ q·c + ‖q‖·R_c` (Cauchy–Schwarz).
/// 2. A length-`r` dot product summed in any order is within
///    `γ_r·Σ|q_i·x_i| + (1 + γ_r)·r·2^-1075` of the exact value (Higham,
///    *Accuracy and Stability of Numerical Algorithms*, §3.1, with the
///    underflow terms carried along), where `Σ|q_i·x_i| ≤ ‖q‖·‖x‖ ≤ A`
///    and the underflow part is below `2^-1024`. So is `dot(q, c)`, with
///    `‖q‖·‖c‖ ≤ A`.
/// 3. Hence `dot(q, x) ≤ dot(q, c) + ‖q‖·R_c + 2γ_r·A + 2^-1023`.
/// 4. A computed sum of squares falls short of the true one by a
///    relative `γ_r` and, by step 2's argument, by less than `2^-1024`
///    of underflow. Adding `MIN_POSITIVE = 2^-1022` before the square
///    root ([`floored_sqrt`]) cancels the underflow, so the computed
///    `‖q‖`, `‖c‖` and `R_c` are short of the true values by a relative
///    `(r/2 + 3)·u` at most (the root halves `γ_r`; the differences
///    `x − c`, the addition and the root round once each), however small
///    the coordinates. The floor also keeps each of them at or above
///    `2^-511`, so the bound's products of two of them stay in the
///    normal range and round relatively; its sums round by a few `u·A`
///    more, and the margin's own product `s·A` may underflow by up to
///    `2^-1075`.
/// 5. With `s = (4r + 16)·ε = (8r + 32)·u`, the stored radius is
///    `R_c·(1 + s)`, which more than covers the shortfall of the
///    computed `‖q‖·R_c` term, and the margin `s·A + MIN_POSITIVE`
///    supplies more than three times the `(2r + 4)·u·A` that the rest of
///    step 3 and the bound's own rounding need, plus the
///    `2^-1023 + 2^-1075` of underflow.
///
/// Overflow voids step 2. Every partial sum of a member's dot is at
/// most `(1 + γ_r)·A` in magnitude, below `reach + margin`, so requiring
/// that finite rules overflow out; a non-finite centroid, radius or
/// query norm fails the same test, and the caller takes the full scan.
#[derive(Debug, Clone)]
struct Geometry {
    /// `R_c·(1 + s)` per cluster.
    radius: Vec<f64>,
    /// `‖c‖ + R_c·(1 + s)` per cluster.
    span: Vec<f64>,
    /// The relative allowance `s = (4r + 16)·ε`.
    slack: f64,
}

impl Geometry {
    fn derive(matrix: &DenseMatrix, centroids: &DenseMatrix, clusters: &[Vec<usize>]) -> Self {
        let slack = (4 * centroids.cols() + 16) as f64 * f64::EPSILON;
        let mut radius = Vec::with_capacity(clusters.len());
        let mut span = Vec::with_capacity(clusters.len());
        for (c, members) in clusters.iter().enumerate() {
            let centroid = centroids.row(c);
            // NaN-propagating max: a non-finite member (only a hand-made
            // `.aidx` can cluster one) must make the bound unusable,
            // never small.
            let far = members.iter().fold(0.0_f64, |far, &row| {
                let d = vector::dist_sq(matrix.row(row), centroid);
                if d > far || d.is_nan() {
                    d
                } else {
                    far
                }
            });
            let r = floored_sqrt(far) * (1.0 + slack);
            radius.push(r);
            span.push(floored_sqrt(vector::norm2_sq(centroid)) + r);
        }
        Self {
            radius,
            span,
            slack,
        }
    }

    /// An upper bound on the computed `dot(q, x)` of every member `x` of
    /// cluster `c`, from the computed `dot(q, c)` and `‖q‖`; `None` when
    /// it cannot be trusted (see the type docs).
    fn bound(&self, c: usize, q_dot_c: f64, q_norm: f64) -> Option<f64> {
        let reach = q_norm * self.span[c];
        let margin = self.slack * reach + f64::MIN_POSITIVE;
        let bound = q_dot_c + q_norm * self.radius[c] + margin;
        ((reach + margin).is_finite() && bound.is_finite()).then_some(bound)
    }
}

/// A norm from its computed sum of squares, never short of the true norm
/// by more than a relative `(r/2 + 3)·u` however far the squares
/// underflow (step 4 of [`Geometry`]'s argument). At least `2^-511`.
fn floored_sqrt(sum_sq: f64) -> f64 {
    (sum_sq + f64::MIN_POSITIVE).sqrt()
}

/// Maps kernel-level scored rows to the serving [`Neighbor`] type.
fn scored_to_neighbors(
    store: &EmbeddingStore,
    scored: Vec<advsgm_linalg::topk::ScoredIndex>,
) -> Vec<Neighbor> {
    scored
        .into_iter()
        .map(|s| Neighbor {
            node: s.index,
            id: store.node_ids()[s.index],
            score: s.score,
        })
        .collect()
}

/// Serialises an index to the version-1 `.aidx` wire format.
fn encode_index(index: &IvfIndex) -> Vec<u8> {
    let nlist = index.centroids.rows();
    let total = INDEX_HEADER_LEN
        + 8 * nlist * index.dim
        + 4 * index.nodes
        + 12 * index.calibration.len()
        + 4;
    let mut out = Vec::with_capacity(total);
    out.extend_from_slice(&INDEX_MAGIC);
    out.extend_from_slice(&INDEX_FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes()); // flags: none defined in v1
    out.extend_from_slice(&(index.dim as u32).to_le_bytes());
    out.extend_from_slice(&(index.nodes as u64).to_le_bytes());
    out.extend_from_slice(&(nlist as u32).to_le_bytes());
    out.extend_from_slice(&(index.calibration.len() as u32).to_le_bytes());
    out.extend_from_slice(&index.store_fingerprint.to_le_bytes());
    debug_assert_eq!(out.len(), INDEX_HEADER_LEN);
    for &v in index.centroids.as_slice() {
        out.extend_from_slice(&v.to_le_bytes());
    }
    for &a in &index.assignments {
        out.extend_from_slice(&a.to_le_bytes());
    }
    for &(target, nprobe) in &index.calibration {
        out.extend_from_slice(&target.to_le_bytes());
        out.extend_from_slice(&nprobe.to_le_bytes());
    }
    let checksum = crc32(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// Parses the version-1 `.aidx` wire format, verifying magic, version,
/// structural lengths, field validity, and the CRC-32 trailer — the same
/// reader-obligation order as `.aemb` (`docs/FORMAT.md`).
fn decode_index(bytes: &[u8]) -> Result<IvfIndex, StoreError> {
    if bytes.len() < 4 || bytes[0..4] != INDEX_MAGIC {
        let mut found = [0u8; 4];
        let take = bytes.len().min(4);
        found[..take].copy_from_slice(&bytes[..take]);
        return Err(StoreError::BadMagic { found });
    }
    if bytes.len() < 6 {
        return Err(StoreError::Truncated {
            expected: (INDEX_HEADER_LEN + 4) as u64,
            found: bytes.len() as u64,
        });
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version == 0 || version > INDEX_FORMAT_VERSION {
        return Err(StoreError::UnsupportedVersion {
            found: version,
            supported: INDEX_FORMAT_VERSION,
        });
    }
    if bytes.len() < INDEX_HEADER_LEN + 4 {
        return Err(StoreError::Truncated {
            expected: (INDEX_HEADER_LEN + 4) as u64,
            found: bytes.len() as u64,
        });
    }
    let flags = u16::from_le_bytes([bytes[6], bytes[7]]);
    let dim = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes")) as usize;
    let nodes = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
    let nlist = u32::from_le_bytes(bytes[20..24].try_into().expect("4 bytes"));
    let calib_len = u32::from_le_bytes(bytes[24..28].try_into().expect("4 bytes"));
    let store_fingerprint = u64::from_le_bytes(bytes[28..36].try_into().expect("8 bytes"));

    // Header-implied total in u128 so hostile counts cannot overflow into
    // a bogus "valid" length.
    let expected = INDEX_HEADER_LEN as u128
        + 8 * nlist as u128 * dim as u128
        + 4 * nodes as u128
        + 12 * calib_len as u128
        + 4;
    if (bytes.len() as u128) < expected {
        return Err(StoreError::Truncated {
            expected: expected.min(u64::MAX as u128) as u64,
            found: bytes.len() as u64,
        });
    }
    if (bytes.len() as u128) > expected {
        return Err(StoreError::Corrupted {
            reason: format!(
                "{} trailing bytes after the checksum",
                bytes.len() as u128 - expected
            ),
        });
    }
    let nodes = nodes as usize;

    if flags != 0 {
        return Err(StoreError::Corrupted {
            reason: format!("unknown flag bits {flags:#06x} (version 1 defines none)"),
        });
    }
    if dim == 0 {
        return Err(StoreError::Corrupted {
            reason: "index dimension is zero".into(),
        });
    }

    // Structure checks out; verify integrity before trusting the body.
    let body = &bytes[..bytes.len() - 4];
    let stored = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().expect("4 bytes"));
    let computed = crc32(body);
    if stored != computed {
        return Err(StoreError::ChecksumMismatch { stored, computed });
    }

    let mut pos = INDEX_HEADER_LEN;
    let mut centroid_data = Vec::with_capacity(nlist as usize * dim);
    for _ in 0..nlist as usize * dim {
        centroid_data.push(f64::from_le_bytes(
            bytes[pos..pos + 8].try_into().expect("8 bytes"),
        ));
        pos += 8;
    }
    let centroids = DenseMatrix::from_vec(nlist as usize, dim, centroid_data).map_err(|e| {
        StoreError::Corrupted {
            reason: format!("centroid shape: {e}"),
        }
    })?;
    let mut assignments = Vec::with_capacity(nodes);
    for _ in 0..nodes {
        let a = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes"));
        if a != ALWAYS_SCAN && a >= nlist {
            return Err(StoreError::Corrupted {
                reason: format!("row assigned to cluster {a} but the index has {nlist}"),
            });
        }
        assignments.push(a);
        pos += 4;
    }
    let mut calibration = Vec::with_capacity(calib_len as usize);
    let mut last_target = f64::NEG_INFINITY;
    for _ in 0..calib_len {
        let target = f64::from_le_bytes(bytes[pos..pos + 8].try_into().expect("8 bytes"));
        let nprobe = u32::from_le_bytes(bytes[pos + 8..pos + 12].try_into().expect("4 bytes"));
        pos += 12;
        if !(0.0..=1.0).contains(&target) || target < last_target {
            return Err(StoreError::Corrupted {
                reason: format!("calibration targets must ascend within [0, 1], got {target}"),
            });
        }
        last_target = target;
        if nprobe as usize > nlist as usize && nlist > 0 {
            return Err(StoreError::Corrupted {
                reason: format!("calibration nprobe {nprobe} exceeds nlist {nlist}"),
            });
        }
        calibration.push((target, nprobe));
    }

    let mut index = IvfIndex {
        dim,
        nodes,
        store_fingerprint,
        centroids,
        assignments,
        calibration,
        clusters: Vec::new(),
        always: Vec::new(),
        geometry: OnceLock::new(),
    };
    index.rebuild_derived();
    Ok(index)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::PrivacyMeta;
    use advsgm_core::ModelVariant;

    /// A clustered fixture: `groups` well-separated Gaussian-ish blobs,
    /// the workload IVF pruning is designed for.
    fn clustered_store(n: usize, dim: usize, groups: usize) -> EmbeddingStore {
        let m = DenseMatrix::from_fn(n, dim, |i, j| {
            let g = i % groups;
            let center = ((g * 31 + j * 7) as f64 * 0.7).sin() * 4.0;
            center + ((i * 13 + j * 5) as f64 * 0.37).sin() * 0.25
        });
        EmbeddingStore::new(m, PrivacyMeta::non_private(ModelVariant::Sgm)).unwrap()
    }

    fn small_params() -> IndexParams {
        IndexParams {
            nlist: 16,
            kmeans_iters: 4,
            sample_queries: 32,
            calibration_k: 10,
        }
    }

    #[test]
    fn exact_mode_is_bitwise_equal_to_top_k() {
        let store = clustered_store(500, 8, 12);
        let index = IvfIndex::build(&store, small_params()).unwrap();
        for u in [0usize, 13, 250, 499] {
            let exact = index.search(&store, u, 10, index.nlist()).unwrap();
            let reference = store.top_k(u, 10).unwrap();
            assert_eq!(exact.neighbors.len(), reference.len());
            for (a, b) in exact.neighbors.iter().zip(&reference) {
                assert_eq!(a.node, b.node, "u={u}");
                assert_eq!(a.score.to_bits(), b.score.to_bits(), "u={u}");
            }
        }
    }

    #[test]
    fn approx_search_prunes_and_finds_neighbors() {
        let store = clustered_store(2_000, 8, 16);
        let index = IvfIndex::build(&store, small_params()).unwrap();
        let nprobe = index.nprobe_for(0.95);
        assert!(nprobe >= 1 && nprobe <= index.nlist());
        let mut scanned_total = 0usize;
        let mut hits = 0usize;
        let mut total = 0usize;
        for u in (0..2_000).step_by(97) {
            let approx = index.search(&store, u, 10, nprobe).unwrap();
            scanned_total += approx.rows_scanned;
            let exact: Vec<usize> = store.top_k(u, 10).unwrap().iter().map(|n| n.node).collect();
            total += exact.len();
            hits += approx
                .neighbors
                .iter()
                .filter(|n| exact.contains(&n.node))
                .count();
        }
        let queries = (0..2_000).step_by(97).count();
        let recall = hits as f64 / total as f64;
        assert!(recall >= 0.95, "recall {recall} below the calibrated 0.95");
        assert!(
            scanned_total < queries * 2_000,
            "approx mode should scan fewer rows than exhaustive"
        );
    }

    #[test]
    fn nonfinite_rows_are_always_scanned_and_exactness_survives() {
        let mut m = DenseMatrix::from_fn(64, 4, |i, j| ((i * 7 + j) as f64 * 0.3).sin());
        m.set(5, 1, f64::NAN);
        m.set(40, 0, f64::INFINITY);
        let store = EmbeddingStore::new(m, PrivacyMeta::non_private(ModelVariant::Sgm)).unwrap();
        let index = IvfIndex::build(
            &store,
            IndexParams {
                nlist: 8,
                ..IndexParams::default()
            },
        )
        .unwrap();
        assert_eq!(index.always_scanned(), 2);
        // Exact mode bitwise against the full scan, NaN rows included.
        for u in [0usize, 5, 40] {
            let exact = index.search(&store, u, 64, index.nlist()).unwrap();
            let reference = store.top_k(u, 64).unwrap();
            assert_eq!(exact.neighbors.len(), reference.len());
            for (a, b) in exact.neighbors.iter().zip(&reference) {
                assert_eq!(a.node, b.node);
                assert_eq!(a.score.to_bits(), b.score.to_bits());
            }
        }
        // Approx search still sees the non-finite rows.
        let approx = index.search(&store, 0, 64, 1).unwrap();
        assert!(approx.rows_scanned >= 2);
    }

    #[test]
    fn a_crafted_index_clustering_a_nan_row_stays_exact() {
        // The decoder accepts any in-range assignment, so a hand-made
        // `.aidx` can file a NaN row under a cluster. That cluster's
        // radius must then void the bound, not shrink it: the NaN row
        // tops every full-scan answer.
        let mut m = clustered_store(240, 6, 12).matrix().clone();
        m.set(7, 2, f64::NAN);
        let store = EmbeddingStore::new(m, PrivacyMeta::non_private(ModelVariant::Sgm)).unwrap();
        let index = IvfIndex::build(&store, small_params()).unwrap();
        let mut bytes = index.to_bytes();
        let at = INDEX_HEADER_LEN + 8 * index.nlist() * index.dim() + 4 * 7;
        bytes[at..at + 4].copy_from_slice(&0u32.to_le_bytes());
        let end = bytes.len() - 4;
        let sum = crc32(&bytes[..end]);
        bytes[end..].copy_from_slice(&sum.to_le_bytes());
        let crafted = IvfIndex::from_bytes(&bytes).unwrap();
        assert_eq!(crafted.always_scanned(), 0);
        crafted.validate_for(&store).unwrap();
        for u in 0..240 {
            let got = crafted.search(&store, u, 5, crafted.nlist()).unwrap();
            let want = store.top_k(u, 5).unwrap();
            assert_eq!(got.neighbors.len(), want.len());
            for (a, b) in got.neighbors.iter().zip(&want) {
                assert_eq!(a.node, b.node, "u={u}");
                assert_eq!(a.score.to_bits(), b.score.to_bits(), "u={u}");
            }
        }
    }

    #[test]
    fn build_is_deterministic() {
        let store = clustered_store(300, 6, 10);
        let a = IvfIndex::build(&store, small_params()).unwrap();
        let b = IvfIndex::build(&store, small_params()).unwrap();
        assert_eq!(a.to_bytes(), b.to_bytes());
        for threads in 1..=4 {
            let mut pool = ThreadPool::new(threads);
            let c = IvfIndex::build_in(&store, small_params(), &mut pool).unwrap();
            assert_eq!(c.to_bytes(), a.to_bytes(), "threads={threads}");
        }
    }

    #[test]
    fn tied_centroids_take_the_lower_index() {
        // 21 centroids: one packed block of 16 and five scored one by one.
        // Centroid 9 repeats 3 inside the block, and 18 repeats 5 across
        // its edge. Rows at or near a repeated centroid are equally far
        // from both copies and must go to the lower index, on every odd
        // or even split of the seven rows.
        let dim = 5;
        let mut centroids = DenseMatrix::from_fn(21, dim, |c, j| (c * 10 + j) as f64);
        let (c3, c5) = (centroids.row(3).to_vec(), centroids.row(5).to_vec());
        centroids.row_mut(9).copy_from_slice(&c3);
        centroids.row_mut(18).copy_from_slice(&c5);
        let matrix = DenseMatrix::from_fn(7, dim, |i, j| match i {
            0 | 4 => c3[j],
            1 => c5[j],
            2 => c3[j] + 0.25,
            3 => c5[j] - 0.25,
            5 => (20 * 10 + j) as f64,
            _ => c5[j],
        });
        let rows: Vec<usize> = (0..7).collect();
        for threads in 1..=3 {
            let mut pool = ThreadPool::new(threads);
            let got = assign_nearest(&mut pool, &centroids, &matrix, &rows);
            assert_eq!(got, vec![3, 5, 3, 5, 3, 20, 5], "threads={threads}");
        }
    }

    #[test]
    fn approximate_search_probes_a_prefix_of_the_probe_order() {
        // The tied centroids of `tied_centroids_take_the_lower_index`:
        // 9 repeats 3 inside the first block of 16, and 18 repeats 5
        // across its edge. Row c of the store is centroid c and its only
        // member; rows 21 and 22 are queries pointing elsewhere, filed
        // under clusters 0 and 20.
        let (dim, nlist) = (5, 21);
        let mut centroids = DenseMatrix::from_fn(nlist, dim, |c, j| (c * 10 + j) as f64);
        let (c3, c5) = (centroids.row(3).to_vec(), centroids.row(5).to_vec());
        centroids.row_mut(9).copy_from_slice(&c3);
        centroids.row_mut(18).copy_from_slice(&c5);
        let mut rows = centroids.as_slice().to_vec();
        rows.extend([-1.0, -1.0, -1.0, -1.0, -1.0, 1.0, -2.0, 0.5, 0.0, -3.0]);
        let store = EmbeddingStore::new(
            DenseMatrix::from_vec(nlist + 2, dim, rows).unwrap(),
            PrivacyMeta::non_private(ModelVariant::Sgm),
        )
        .unwrap();
        let mut assignments: Vec<u32> = (0..nlist as u32).collect();
        assignments.extend([0, 20]);
        let mut index = IvfIndex {
            dim,
            nodes: nlist + 2,
            store_fingerprint: store.fingerprint(),
            centroids,
            assignments,
            calibration: Vec::new(),
            clusters: Vec::new(),
            always: Vec::new(),
            geometry: OnceLock::new(),
        };
        index.rebuild_derived();
        for u in [0, 3, 5, 9, 18, 20, 21, 22] {
            let query = store.matrix().row(u);
            // Reference: a stable sort by score alone keeps tied clusters
            // in ascending index order.
            let mut full: Vec<usize> = (0..nlist).collect();
            full.sort_by(|&a, &b| {
                vector::dot(query, index.centroids.row(b))
                    .total_cmp(&vector::dot(query, index.centroids.row(a)))
            });
            assert_eq!(index.probe_order(query, nlist), full, "u={u}");
            for nprobe in 1..nlist {
                let probed = &full[..nprobe];
                assert_eq!(index.probe_order(query, nprobe), probed, "u={u}");
                let got = index.search(&store, u, nlist + 2, nprobe).unwrap();
                let mut found: Vec<usize> = got.neighbors.iter().map(|n| n.node).collect();
                found.sort_unstable();
                let mut want: Vec<usize> = probed
                    .iter()
                    .flat_map(|&c| index.clusters[c].iter().copied())
                    .filter(|&row| row != u)
                    .collect();
                want.sort_unstable();
                assert_eq!(found, want, "u={u} nprobe={nprobe}");
            }
        }
    }

    #[test]
    fn build_bytes_are_pinned() {
        // Only correctly rounded +, −, ×, ÷ make these inputs and the
        // build, so the bytes are the same on every IEEE-754 platform, and
        // the sums round: a change to their order changes the bytes. The
        // checksum was taken from the sequential build this parallel one
        // replaced.
        let m = DenseMatrix::from_fn(500, 6, |i, j| {
            ((i * 7 + j * 13) % 23) as f64 * 0.1 + ((i % 5) * 3) as f64 - 2.0
        });
        let store = EmbeddingStore::new(m, PrivacyMeta::non_private(ModelVariant::Sgm)).unwrap();
        let params = IndexParams {
            nlist: 12,
            sample_queries: 16,
            ..small_params()
        };
        for threads in [1, 3] {
            let index = IvfIndex::build_in(&store, params, &mut ThreadPool::new(threads)).unwrap();
            let bytes = index.to_bytes();
            let body = &bytes[..bytes.len() - 4];
            assert_eq!((crc32(body), bytes.len()), (0x7f96_95ea, 2676));
        }
    }

    #[test]
    fn bound_covers_a_member_at_the_radius() {
        // The only cluster holds c ± v, so its centroid is c up to
        // rounding and the farther member defines the radius. A query
        // along v scores that member at q·c + ‖q‖·R in real arithmetic,
        // so the bound has only its margin to absorb the rounding of
        // dot(q, x).
        let dim = 7;
        let c: Vec<f64> = (0..dim)
            .map(|j| (j as f64 * 0.9 + 0.3).sin() * 3.0)
            .collect();
        let v: Vec<f64> = (0..dim)
            .map(|j| (j as f64 * 1.7 + 0.1).cos() * 0.11)
            .collect();
        // The second cluster sits 1e-150 from the origin with members
        // 1e-162 off its centre: the squares behind its radius underflow.
        for (c_scale, v_scale) in [(1.0, 1.0), (1e-150, 1e-162)] {
            let member = |sign: f64| -> Vec<f64> {
                c.iter()
                    .zip(&v)
                    .map(|(a, b)| c_scale * a + sign * v_scale * b)
                    .collect()
            };
            let m = DenseMatrix::from_vec(2, dim, [member(1.0), member(-1.0)].concat()).unwrap();
            let store =
                EmbeddingStore::new(m, PrivacyMeta::non_private(ModelVariant::Sgm)).unwrap();
            let index = IvfIndex::build(
                &store,
                IndexParams {
                    nlist: 1,
                    ..small_params()
                },
            )
            .unwrap();
            let geometry = index.geometry.get().expect("the build derives it");
            // 1e-310 is subnormal: its products underflow. At 1e-163 and
            // 1e-160 the query's squares underflow while its dots do not.
            for scale in [1e-310, 1e-163, 1e-160, 1e-3, 1.0, 7.5, 1e150] {
                for tilt in [0.0, 1e-9, 0.3] {
                    let q: Vec<f64> = v
                        .iter()
                        .zip(&c)
                        .map(|(a, b)| scale * (a + tilt * b))
                        .collect();
                    let bound = geometry
                        .bound(
                            0,
                            backend::dot(&q, index.centroids.row(0)),
                            floored_sqrt(vector::norm2_sq(&q)),
                        )
                        .expect("finite");
                    for row in 0..2 {
                        let score = backend::dot(&q, store.matrix().row(row));
                        assert!(
                            score <= bound,
                            "c_scale={c_scale} scale={scale} tilt={tilt}: {score} > {bound}"
                        );
                    }
                }
            }
            // Magnitudes at which a member's dot could overflow void the
            // bound.
            let huge: Vec<f64> = v.iter().map(|a| a * 1e308 / c_scale).collect();
            let q_dot_c = backend::dot(&huge, index.centroids.row(0));
            let q_norm = floored_sqrt(vector::norm2_sq(&huge));
            assert_eq!(
                geometry.bound(0, q_dot_c, q_norm),
                None,
                "c_scale={c_scale}"
            );
        }
    }

    #[test]
    fn roundtrip_is_bitwise_exact() {
        let store = clustered_store(120, 5, 8);
        let index = IvfIndex::build(&store, small_params()).unwrap();
        let bytes = index.to_bytes();
        let back = IvfIndex::from_bytes(&bytes).unwrap();
        assert_eq!(back, index);
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn empty_and_single_node_stores_index() {
        let empty = EmbeddingStore::new(
            DenseMatrix::zeros(0, 4),
            PrivacyMeta::non_private(ModelVariant::Sgm),
        )
        .unwrap();
        let index = IvfIndex::build(&empty, IndexParams::default()).unwrap();
        assert_eq!(index.nlist(), 0);
        let back = IvfIndex::from_bytes(&index.to_bytes()).unwrap();
        assert_eq!(back, index);

        let single = clustered_store(1, 3, 1);
        let index = IvfIndex::build(&single, IndexParams::default()).unwrap();
        let got = index.search(&single, 0, 5, index.nprobe_for(0.9)).unwrap();
        assert!(got.neighbors.is_empty(), "no neighbors besides self");
    }

    #[test]
    fn mismatched_store_is_rejected() {
        let store = clustered_store(100, 4, 8);
        let index = IvfIndex::build(&store, small_params()).unwrap();
        index.validate_for(&store).unwrap();

        let other = clustered_store(100, 4, 9);
        let err = index.validate_for(&other).unwrap_err();
        assert!(
            matches!(err, StoreError::IndexStoreMismatch { .. }),
            "{err}"
        );

        let shorter = clustered_store(99, 4, 8);
        let err = index.search(&shorter, 0, 3, 2).unwrap_err();
        assert!(
            matches!(err, StoreError::IndexStoreMismatch { .. }),
            "{err}"
        );
    }

    #[test]
    fn out_of_range_query_is_typed() {
        let store = clustered_store(50, 4, 4);
        let index = IvfIndex::build(&store, small_params()).unwrap();
        let err = index.search(&store, 50, 3, 2).unwrap_err();
        assert!(matches!(err, StoreError::NodeOutOfRange { node: 50, .. }));
    }

    #[test]
    fn corruption_modes_are_typed() {
        let store = clustered_store(40, 4, 6);
        let index = IvfIndex::build(&store, small_params()).unwrap();
        let bytes = index.to_bytes();

        assert!(matches!(
            IvfIndex::from_bytes(b"AEMBnotanindex").unwrap_err(),
            StoreError::BadMagic { .. }
        ));

        let mut v = bytes.clone();
        v[4..6].copy_from_slice(&9u16.to_le_bytes());
        assert!(matches!(
            IvfIndex::from_bytes(&v).unwrap_err(),
            StoreError::UnsupportedVersion { found: 9, .. }
        ));

        for cut in [3usize, 10, INDEX_HEADER_LEN + 5, bytes.len() - 1] {
            let err = IvfIndex::from_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    StoreError::Truncated { .. } | StoreError::BadMagic { .. }
                ),
                "cut={cut}: {err}"
            );
        }

        let mut v = bytes.clone();
        let i = INDEX_HEADER_LEN + 9;
        v[i] ^= 0x10;
        assert!(matches!(
            IvfIndex::from_bytes(&v).unwrap_err(),
            StoreError::ChecksumMismatch { .. }
        ));

        let mut v = bytes.clone();
        v.extend_from_slice(b"zzz");
        assert!(matches!(
            IvfIndex::from_bytes(&v).unwrap_err(),
            StoreError::Corrupted { .. }
        ));

        // Out-of-range cluster assignment with a re-stamped checksum.
        let mut v = bytes;
        let assign_start = INDEX_HEADER_LEN + 8 * index.nlist() * index.dim();
        v[assign_start..assign_start + 4].copy_from_slice(&500u32.to_le_bytes());
        let sum = crc32(&v[..v.len() - 4]);
        let end = v.len();
        v[end - 4..].copy_from_slice(&sum.to_le_bytes());
        let err = IvfIndex::from_bytes(&v).unwrap_err();
        assert!(matches!(err, StoreError::Corrupted { .. }), "{err}");
    }
}
