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
//! nlist` the search is *exact* and **bitwise-identical** to the full
//! scan of [`EmbeddingStore::top_k`]. Exact mode visits clusters in
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
//! `tests/index_serving.rs`). The radii come from the build's last
//! assignment pass, or from the store when [`IvfIndex::validate_for`]
//! accepts one, and are never serialised; until then exact mode is the
//! full scan. Approximate search scores its
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
//! **Lists as runs:** the index keeps every node in one flat member list,
//! cluster by cluster (ascending node order within each) and the
//! always-scanned list last. [`IvfIndex::arrange`] moves a store's rows
//! in place into that order, so search on that store reads each list it
//! visits as one contiguous run of rows and offers each row under its
//! node. Any other store, a plain one or one another index arranged,
//! reaches each member through the store's node → storage map. Answers
//! are the same bits either way: `TopK` ranks by node, whatever order
//! rows arrive in.
//!
//! The `.aidx` codec follows the same conventions as `.aemb`
//! (`docs/FORMAT.md`): little-endian, raw IEEE-754 bit patterns, CRC-32
//! trailer, every corruption mode a typed [`StoreError`], and an
//! append-only compatibility policy. An index file carries the
//! [`EmbeddingStore::fingerprint`] of the store it was built from, and
//! pairing it with any other store is a typed
//! [`StoreError::IndexStoreMismatch`].

use std::ops::Range;
use std::path::Path;
use std::sync::{Arc, OnceLock};

use advsgm_linalg::backend::{self, CentroidPanels};
use advsgm_linalg::topk::{score_rows, ScoredIndex, TopK};
use advsgm_linalg::{vector, DenseMatrix};
use advsgm_parallel::ThreadPool;

use crate::codec::{check_len, check_prologue, check_seal, seal, write_sealed, Reader};
use crate::error::StoreError;
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
/// still admits hold more than `1 / FULL_SCAN_SHARE` of the store. In a
/// store this index did not arrange, a row reached through a cluster
/// list costs about 3× a row of the contiguous scan (2.6–2.9× measured
/// on a 2-core AVX2 host, 100k × 32 store): list order jumps around the
/// matrix while the full scan streams it, and past about a quarter of
/// the rows the pruned visit saves little or loses. In a store it
/// arranged ([`IvfIndex::arrange`]) each list is a contiguous run, and a
/// visit of every cluster cost 0.97–1.05× the full scan on trained
/// releases, so there the share matters little either way (DESIGN.md
/// §12). The Lloyd passes' filter ([`Admission`]) takes the full scan
/// past the same share of the centroids: a distance it scores one at a
/// time costs about 3–5× one of the 16-centroid kernel's (24–30 against
/// 5–10 ns per distance on that store, one thread).
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
    /// Derived from the assignments (not serialised): every node in list
    /// order, each cluster's members in ascending node order, cluster by
    /// cluster, then the always-scanned ones. The storage order
    /// [`IvfIndex::arrange`] gives a store, shared with the stores it
    /// arranged.
    members: Arc<[u32]>,
    /// Derived: cluster `c` holds `members[offsets[c]..offsets[c + 1]]`,
    /// and the always-scanned list starts at `offsets[nlist]`.
    offsets: Vec<usize>,
    /// Derived from the store, never serialised: the per-cluster bounds
    /// exact mode prunes with. Set by the build (from its last assignment
    /// pass) and by [`IvfIndex::validate_for`]; while unset, exact mode is
    /// the full scan.
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
    /// Cost is at most `O(iters · n · nlist · r)` for clustering plus
    /// `O(samples · n · r)` for calibration; this is the one-time price of
    /// sublinear queries and belongs at the release boundary, not on the
    /// serving path. Where the release falls into separated clusters, the
    /// Lloyd passes after the first score each row against the few
    /// centroids a triangle-inequality bound admits (about 15 of 316 on a
    /// 100k × 32 store), and calibration's exact answers come from exact
    /// mode's pruned visit; elsewhere both take the full scans.
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
        Self::build_counted(store, params, pool).map(|(index, _)| index)
    }

    /// [`IvfIndex::build_in`], also returning how many row-to-centroid
    /// distances each assignment pass computed.
    pub(crate) fn build_counted(
        store: &EmbeddingStore,
        params: IndexParams,
        pool: &mut ThreadPool,
    ) -> Result<(Self, Vec<usize>), StoreError> {
        let n = store.len();
        let dim = store.dim();
        if n as u64 > u32::MAX as u64 {
            return Err(StoreError::LimitExceeded {
                what: "index row count",
                value: n as u64,
                max: u32::MAX as u64,
            });
        }
        let matrix = store.storage();

        // Non-finite rows cannot be clustered; they are always scanned.
        // `finite` holds the finite nodes' storage rows in node order, the
        // order every pass walks them in, so the bytes do not depend on
        // how the store holds its rows.
        let finite: Vec<usize> = (0..n)
            .map(|u| store.storage_row(u))
            .filter(|&row| matrix.row(row).iter().all(|v| v.is_finite()))
            .collect();

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
        // The first pass scans every centroid; each later one starts every
        // row from its previous centroid and scores only the centroids
        // [`Admission`] admits. Once a pass sends most rows to the full scan
        // anyway, the passes left skip the filter.
        let mut pass = assign_nearest(pool, &centroids, matrix, &finite);
        let mut distances = vec![pass.distances];
        let mut filter = true;
        for _ in 0..params.kmeans_iters.max(1) {
            update_centroids(pool, &mut centroids, matrix, &finite, &pass.nearest);
            pass = if filter {
                reassign_nearest(pool, &centroids, matrix, &finite, &pass.nearest)
            } else {
                assign_nearest(pool, &centroids, matrix, &finite)
            };
            filter = pass.full_scans * 2 <= finite.len();
            distances.push(pass.distances);
        }

        // The last pass measured every row against the final centroids:
        // each cluster's farthest member gives exact mode its radius.
        let mut assignments = vec![ALWAYS_SCAN; n];
        let mut far = vec![0.0; nlist];
        for ((&row, &c), &d) in finite.iter().zip(&pass.nearest).zip(&pass.dist_sq) {
            assignments[store.node_at(row)] = c as u32;
            far[c] = farther(far[c], d);
        }
        let geometry = Geometry::new(&centroids, &far);

        let mut index =
            Self::assemble(dim, store.fingerprint(), centroids, assignments, Vec::new());
        index.geometry = OnceLock::from(geometry);
        index.calibration = index.calibrate(store, &finite, params, pool);
        Ok((index, distances))
    }

    /// An index from its serialised fields, with the member lists derived
    /// from the assignments by a counting sort (ascending node order within
    /// each list) and no geometry yet. The assignments must be below
    /// `centroids.rows()` or [`ALWAYS_SCAN`], and at most `u32::MAX` long.
    fn assemble(
        dim: usize,
        store_fingerprint: u64,
        centroids: DenseMatrix,
        assignments: Vec<u32>,
        calibration: Vec<(f64, u32)>,
    ) -> Self {
        let nlist = centroids.rows();
        // List `nlist` is the always-scanned one.
        let list_of = |a: u32| if a == ALWAYS_SCAN { nlist } else { a as usize };
        let mut offsets = vec![0; nlist + 2];
        for &a in &assignments {
            offsets[list_of(a) + 1] += 1;
        }
        for c in 0..=nlist {
            offsets[c + 1] += offsets[c];
        }
        let mut next = offsets.clone();
        let mut members = vec![0u32; assignments.len()];
        for (u, &a) in assignments.iter().enumerate() {
            let at = &mut next[list_of(a)];
            members[*at] = u as u32;
            *at += 1;
        }
        offsets.pop();
        Self {
            dim,
            nodes: assignments.len(),
            store_fingerprint,
            centroids,
            assignments,
            calibration,
            members: members.into(),
            offsets,
            geometry: OnceLock::new(),
        }
    }

    /// Cluster `c`'s positions in the member list.
    fn list(&self, c: usize) -> Range<usize> {
        self.offsets[c]..self.offsets[c + 1]
    }

    /// The always-scanned list's positions in the member list.
    fn always(&self) -> Range<usize> {
        self.offsets[self.nlist()]..self.members.len()
    }

    /// One query's scan of the lists in `store`, excluding node `u`.
    fn scan<'a>(&'a self, store: &'a EmbeddingStore, u: usize) -> ListScan<'a> {
        ListScan {
            members: &self.members,
            store,
            arranged: store.is_arranged_as(&self.members),
            query: store.row(u),
            skip: u,
        }
    }

    /// Measures, on evenly sampled query rows, how many probes each
    /// [`CALIBRATION_TARGETS`] recall level needs, producing the
    /// `(target, nprobe)` table behind [`IvfIndex::nprobe_for`]. One probe
    /// of safety margin is added on top of the in-sample requirement so
    /// out-of-sample queries stay at or above the target in practice.
    /// Each query's exact top `k` comes from exact mode, which is the
    /// full scan's answer bit for bit, so the geometry must be set first
    /// for the visit to prune. `finite` holds the finite nodes' storage
    /// rows in node order.
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
            .map(|s| store.node_at(finite[s * finite.len() / samples]))
            .collect();
        // hits_at[p] = exact-top-k rows found with p+1 probes, summed over
        // all sampled queries; always-scanned hits count at every p. Each
        // query is measured whole on one thread, and integer sums do not
        // depend on how the queries were split.
        let parts = pool.map_chunks(&queries, samples.div_ceil(pool.threads()), |_, _, part| {
            let mut hits_at = vec![0usize; nlist];
            for &u in part {
                // rank_of[c] = position of cluster c in this query's
                // probe order.
                let mut rank_of = vec![0usize; nlist];
                for (rank, c) in self
                    .probe_order(store.row(u), nlist)
                    .into_iter()
                    .enumerate()
                {
                    rank_of[c] = rank;
                }
                for hit in self.exact(store, u, k).0 {
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
        self.always().len()
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
        self.geometry.get_or_init(|| self.derive_geometry(store));
        Ok(())
    }

    /// Arranges `store`'s rows in place into this index's list order:
    /// each cluster's members in ascending node order, cluster by
    /// cluster, then the always-scanned rows. [`IvfIndex::search`] then
    /// reads every list it visits in that store as one contiguous run of
    /// rows instead of rows scattered through the matrix. The store's
    /// answers, fingerprint, bytes and equality do not change, and the
    /// arrangement travels with clones of the store, as the lists do with
    /// clones of the index. Rows already in this order do not move, and
    /// the matrix keeps its allocation. Pair the index with the store
    /// first ([`IvfIndex::validate_for`]).
    ///
    /// # Errors
    /// [`StoreError::IndexStoreMismatch`] if the store's shape disagrees
    /// with the index.
    pub fn arrange(&self, store: &mut EmbeddingStore) -> Result<(), StoreError> {
        self.check_shape(store)?;
        store.arrange(&self.members);
        Ok(())
    }

    /// Exact mode's per-cluster geometry, measured on `store`: each
    /// cluster's members against its centroid.
    fn derive_geometry(&self, store: &EmbeddingStore) -> Geometry {
        let far: Vec<f64> = (0..self.nlist())
            .map(|c| {
                self.members[self.list(c)].iter().fold(0.0, |far, &u| {
                    farther(
                        far,
                        vector::dist_sq(store.row(u as usize), self.centroids.row(c)),
                    )
                })
            })
            .collect();
        Geometry::new(&self.centroids, &far)
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
        if nprobe >= self.nlist() {
            let (scored, rows_scanned) = self.exact(store, u, k);
            return Ok(SearchResult {
                neighbors: scored_to_neighbors(store, scored),
                rows_scanned,
            });
        }
        // One list at a time, as exact mode visits them: selection does
        // not depend on the order rows arrive in.
        let scan = self.scan(store, u);
        let probed = self.probe_order(scan.query, nprobe.max(1));
        let mut top = TopK::new(k);
        let mut rows_scanned = 0;
        for list in probed.iter().map(|&c| self.list(c)).chain([self.always()]) {
            rows_scanned += list.len();
            scan.push(&mut top, list);
        }
        Ok(SearchResult {
            neighbors: scored_to_neighbors(store, top.into_sorted()),
            rows_scanned,
        })
    }

    /// Exact mode: the top `k` of node `u` and the rows scored, through
    /// the bound-pruned visit where it applies, else the full scan.
    fn exact(&self, store: &EmbeddingStore, u: usize, k: usize) -> (Vec<ScoredIndex>, usize) {
        let eligible = self.nodes - 1;
        // A `k` the heap can never reach leaves the bound nothing to prune.
        let pruned = match self.geometry.get() {
            Some(geometry) if k < eligible => self.pruned_top_k(geometry, store, u, k),
            _ => Err(0),
        };
        pruned.unwrap_or_else(|scored| (store.scan_top_k(u, k), scored + eligible))
    }

    /// The bound-pruned exact top-k of node `u`: `Ok((top, rows scored))`,
    /// or `Err(rows scored)` when the full scan must answer instead —
    /// the bound cannot be trusted (a non-finite query row, radius,
    /// bound or margin), or the clusters it admits hold more than
    /// `1 / FULL_SCAN_SHARE` of the store.
    fn pruned_top_k(
        &self,
        geometry: &Geometry,
        store: &EmbeddingStore,
        u: usize,
        k: usize,
    ) -> Result<(Vec<ScoredIndex>, usize), usize> {
        if k == 0 {
            return Ok((Vec::new(), 0));
        }
        let scan = self.scan(store, u);
        let query = scan.query;
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
        scan.push(&mut top, self.always());
        let mut scored = self.always_scanned();
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
                        .map(|&(_, c)| self.list(c).len())
                        .sum();
                    if admitted * FULL_SCAN_SHARE > self.nodes {
                        return Err(scored);
                    }
                }
            }
            let list = self.list(c);
            scored += list.len();
            scan.push(&mut top, list);
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

    /// Writes the index to a file crash-safely (temporary sibling, fsync,
    /// rename, as every artifact is written): a failed save leaves the
    /// previous file whole.
    ///
    /// # Errors
    /// I/O failures.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), StoreError> {
        write_sealed(path.as_ref(), &self.to_bytes())
    }

    /// Loads an index from an `.aidx` file.
    ///
    /// # Errors
    /// I/O failures plus everything [`IvfIndex::from_bytes`] reports.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        Self::from_bytes(&std::fs::read(path)?)
    }
}

/// One query's scan of an index's lists in one store.
struct ListScan<'a> {
    /// The index's member list.
    members: &'a [u32],
    store: &'a EmbeddingStore,
    /// Whether the index arranged `store`, so that list position `i` is
    /// storage row `i`.
    arranged: bool,
    /// The query node's row.
    query: &'a [f64],
    /// The query node, which is never offered.
    skip: usize,
}

impl ListScan<'_> {
    /// Scores the query against the members at list positions `span`,
    /// 16 rows per [`backend::dot16`] call through [`score_rows`], and
    /// offers each but the query node to `top` under its node. In a store
    /// the index arranged, the span is that run of storage rows, read in
    /// place; any other store maps each member to its row. Every score is
    /// bitwise [`backend::dot`] of the two rows either way.
    fn push(&self, top: &mut TopK, span: Range<usize>) {
        let mut offer = |node: usize, score: f64| {
            if node != self.skip {
                top.push(node, score);
            }
        };
        let matrix = self.store.storage();
        if self.arranged {
            score_rows(matrix, self.query, span, |row, score| {
                offer(self.members[row] as usize, score)
            });
        } else {
            let rows = self.members[span]
                .iter()
                .map(|&u| self.store.storage_row(u as usize));
            score_rows(matrix, self.query, rows, |row, score| {
                offer(self.store.node_at(row), score)
            });
        }
    }
}

/// One assignment pass over a list of rows.
struct Pass {
    /// `rows[i]`'s nearest centroid, ties toward the lower index.
    nearest: Vec<usize>,
    /// `rows[i]`'s squared distance to it, bitwise [`vector::dist_sq`].
    dist_sq: Vec<f64>,
    /// Rows that took the full scan.
    full_scans: usize,
    /// Row-to-centroid distances computed.
    distances: usize,
}

/// Each of `rows`' nearest centroid in squared Euclidean distance (ties
/// toward the lower centroid index), the rows split across the pool, all
/// of them through the full scan.
///
/// The centroids are packed once per call, and each worker scores its
/// rows two at a time (an odd last row is paired with itself) through
/// [`scan_centroids`], keeping only a strictly smaller distance, so every
/// row gets the one-centroid-at-a-time answer.
fn assign_nearest(
    pool: &mut ThreadPool,
    centroids: &DenseMatrix,
    matrix: &DenseMatrix,
    rows: &[usize],
) -> Pass {
    let panels = CentroidPanels::pack(centroids);
    let chunk = rows.len().div_ceil(pool.threads());
    let parts = pool.map_chunks(rows, chunk, |_, _, part| {
        let mut nearest = Vec::with_capacity(part.len());
        for pair in part.chunks(2) {
            let x = [matrix.row(pair[0]), matrix.row(pair[pair.len() - 1])];
            nearest.extend_from_slice(&nearest_of_pair(&panels, centroids, x)[..pair.len()]);
        }
        nearest
    });
    let (nearest, dist_sq) = parts.concat().into_iter().unzip();
    Pass {
        nearest,
        dist_sq,
        full_scans: rows.len(),
        distances: rows.len() * centroids.rows(),
    }
}

/// The squared distance from each of the two rows `x` to every centroid,
/// as `visit(i, c, d)` for row `x[i]`, centroid `c` in ascending order:
/// whole blocks of 16 centroids through [`backend::dist_sq_2x16`], the
/// rest through [`vector::dist_sq`]. Both give `dist_sq`'s bits.
fn scan_centroids(
    panels: &CentroidPanels,
    centroids: &DenseMatrix,
    x: [&[f64]; 2],
    mut visit: impl FnMut(usize, usize, f64),
) {
    for block in 0..panels.blocks() {
        let dists = backend::dist_sq_2x16(panels, block, x[0], x[1]);
        for (i, row_dists) in dists.iter().enumerate() {
            for (j, &d) in row_dists.iter().enumerate() {
                visit(i, block * CentroidPanels::BLOCK + j, d);
            }
        }
    }
    for c in panels.blocks() * CentroidPanels::BLOCK..centroids.rows() {
        for (i, x) in x.iter().enumerate() {
            visit(i, c, vector::dist_sq(x, centroids.row(c)));
        }
    }
}

/// The nearest centroid of each of the two rows `x` and its distance: the
/// first centroid in ascending order whose distance no later one beats
/// strictly.
fn nearest_of_pair(
    panels: &CentroidPanels,
    centroids: &DenseMatrix,
    x: [&[f64]; 2],
) -> [(usize, f64); 2] {
    let mut best = [(0, f64::INFINITY); 2];
    scan_centroids(panels, centroids, x, |i, c, d| {
        if d < best[i].1 {
            best[i] = (c, d);
        }
    });
    best
}

/// [`assign_nearest`]'s answer for a later Lloyd pass, from each row's
/// `previous` centroid: a row scores only the centroids [`Admission`]
/// admits, and takes [`nearest_of_pair`]'s full scan (two such rows at a
/// time) when the admission cannot be trusted or holds more than
/// `1 / FULL_SCAN_SHARE` of the centroids.
fn reassign_nearest(
    pool: &mut ThreadPool,
    centroids: &DenseMatrix,
    matrix: &DenseMatrix,
    rows: &[usize],
    previous: &[usize],
) -> Pass {
    let panels = CentroidPanels::pack(centroids);
    let admission = Admission::new(pool, centroids, &panels);
    let nlist = centroids.rows();
    let chunk = rows.len().div_ceil(pool.threads());
    let parts = pool.map_chunks(rows, chunk, |_, offset, part| {
        let mut nearest = vec![(0, 0.0); part.len()];
        let mut distances = 0;
        let mut scan = Vec::new();
        for (i, &row) in part.iter().enumerate() {
            match admission.nearest(centroids, matrix.row(row), previous[offset + i]) {
                Ok((best, scored)) => {
                    nearest[i] = best;
                    distances += scored;
                }
                Err(scored) => {
                    scan.push(i);
                    distances += scored + nlist;
                }
            }
        }
        for pair in scan.chunks(2) {
            let x = [
                matrix.row(part[pair[0]]),
                matrix.row(part[pair[pair.len() - 1]]),
            ];
            for (&i, best) in pair.iter().zip(nearest_of_pair(&panels, centroids, x)) {
                nearest[i] = best;
            }
        }
        (nearest, scan.len(), distances)
    });
    let mut best = Vec::with_capacity(rows.len());
    let (mut full_scans, mut distances) = (0, 0);
    for (part, scans, scored) in parts {
        best.extend(part);
        full_scans += scans;
        distances += scored;
    }
    let (nearest, dist_sq) = best.into_iter().unzip();
    Pass {
        nearest,
        dist_sq,
        full_scans,
        distances,
    }
}

/// The Lloyd passes' filter (after Elkan, "Using the Triangle Inequality
/// to Accelerate k-Means", ICML 2003, Lemma 1): for each centroid `a`,
/// the `keep` centroids nearest to it, ascending by the computed
/// `E_c = dist_sq(c_a, c)`. A row `x` whose previous centroid is `a`
/// computes `D_a = dist_sq(x, c_a)` and the threshold
/// `T = (D_a + MIN_POSITIVE)·4·(1 + s)`, and scores only the centroids
/// with `E_c ≤ T`, a prefix of `a`'s list. Every other centroid is
/// strictly farther from `x` than `c_a` in computed distance, so the
/// lowest-index minimum over the admitted ones is the full scan's answer.
/// (Squared, the test reads `‖c_a − c‖ > 2·‖x − c_a‖` with a margin.)
///
/// Why an excluded centroid can neither win nor tie. Let `u = ε/2`,
/// `r < 2^50` the dimension, `g = γ_{r+2}` (as in [`Geometry`]),
/// `ν = 2^-1024`, and `δ_a = ‖x − c_a‖`, `δ_c = ‖x − c‖`,
/// `δ_ac = ‖c_a − c‖` the true distances between finite vectors (the
/// build clusters only finite rows, and every centroid stays finite).
///
/// 1. A computed `dist_sq` `D` of two finite vectors at true distance `δ`
///    satisfies `(1 − g)·δ² − ν ≤ D ≤ (1 + g)·δ² + ν` when it is finite.
///    Each difference rounds once by a relative `u` (exactly below the
///    normal range), each square once by a relative `u` or, below the
///    normal range, by at most `2^-1075`, and the sum of `r`
///    non-negative terms by a relative `γ_{r−1}` (Higham, *Accuracy and
///    Stability of Numerical Algorithms*, §3.1). The `r` underflow terms
///    stay below `ν`.
/// 2. Let `A = (D_a + ν) / (1 − g)`. By step 1, `δ_a² ≤ A`.
/// 3. `T` rounds three times (`1 + s`, the sum, the product), all in
///    the normal range, and `MIN_POSITIVE = 4ν`, so
///    `T ≥ 4·(1 + s)·(1 − u)³·(D_a + 4ν)`. With `s = (4r + 16)·ε`,
///    `(1 + s)·(1 − u)³·(1 − g) ≥ 1 + 3g > 1 + g`, so `T ≥ 4·(1 + g)·A + ν`.
/// 4. If `E_c > T`, step 1 gives `δ_ac² ≥ (E_c − ν)/(1 + g) > 4A`. By
///    the triangle inequality `δ_c ≥ δ_ac − δ_a > 2√A − √A = √A`, so
///    `dist_sq(x, c) ≥ (1 − g)·δ_c² − ν > (1 − g)·A − ν = D_a`.
///
/// Overflow voids step 1. A row whose `D_a` or `T` is not finite takes
/// the full scan. An `E_c` that overflowed to `+∞` may be excluded: the
/// same sum with an unbounded exponent is above `f64::MAX ≥ T`, and
/// step 1 holds for it. A `dist_sq(x, c)` that overflowed is above the
/// finite `D_a` anyway. Underflow is what `MIN_POSITIVE` pays for, as in
/// [`floored_sqrt`]: rows and centroids a few `2^-537` apart square to
/// zero, and no margin of the relative kind alone could keep such a tie.
struct Admission {
    /// `keep` entries `(E_c, c)` per centroid, ascending by `E_c` and then
    /// by `c`.
    near: Vec<(f64, usize)>,
    /// Entries per centroid: `⌊nlist / FULL_SCAN_SHARE⌋ + 1`, capped at
    /// `nlist`, so a row whose admitted set fills its list has more than
    /// `1 / FULL_SCAN_SHARE` of the centroids admitted.
    keep: usize,
    /// `4·(1 + s)`.
    factor: f64,
}

impl Admission {
    /// Every centroid's list, the centroids split across the pool by
    /// output and scored two at a time like rows.
    fn new(pool: &mut ThreadPool, centroids: &DenseMatrix, panels: &CentroidPanels) -> Self {
        let nlist = centroids.rows();
        let keep = (nlist / FULL_SCAN_SHARE + 1).min(nlist);
        let ids: Vec<usize> = (0..nlist).collect();
        let by_distance =
            |a: &(f64, usize), b: &(f64, usize)| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1));
        let chunk = nlist.div_ceil(pool.threads());
        let near = pool
            .map_chunks(&ids, chunk, |_, _, part| {
                let mut near = Vec::with_capacity(part.len() * keep);
                for pair in part.chunks(2) {
                    let x = [centroids.row(pair[0]), centroids.row(pair[pair.len() - 1])];
                    let mut lists = [Vec::with_capacity(nlist), Vec::with_capacity(nlist)];
                    scan_centroids(panels, centroids, x, |i, c, d| lists[i].push((d, c)));
                    for list in &mut lists[..pair.len()] {
                        if keep < nlist {
                            list.select_nth_unstable_by(keep, by_distance);
                            list.truncate(keep);
                        }
                        list.sort_unstable_by(by_distance);
                        near.extend_from_slice(list);
                    }
                }
                near
            })
            .concat();
        let slack = (4 * centroids.cols() + 16) as f64 * f64::EPSILON;
        Self {
            near,
            keep,
            factor: 4.0 * (1.0 + slack),
        }
    }

    /// Row `x`'s nearest centroid given its previous centroid `a`:
    /// `Ok(((nearest, its distance), distances computed))`, or
    /// `Err(distances computed)` when the row must take the full scan
    /// instead.
    fn nearest(
        &self,
        centroids: &DenseMatrix,
        x: &[f64],
        a: usize,
    ) -> Result<((usize, f64), usize), usize> {
        let d_a = vector::dist_sq(x, centroids.row(a));
        let threshold = (d_a + f64::MIN_POSITIVE) * self.factor;
        if !threshold.is_finite() {
            return Err(1);
        }
        let near = &self.near[a * self.keep..(a + 1) * self.keep];
        let admitted = near.partition_point(|&(e, _)| e <= threshold);
        if admitted == self.keep {
            return Err(1);
        }
        // The lowest index among the minima, as the ascending scan with a
        // strict `<` finds it.
        let mut best = (a, d_a);
        let mut scored = 1;
        for &(_, c) in &near[..admitted] {
            if c != a {
                let d = vector::dist_sq(x, centroids.row(c));
                scored += 1;
                if d < best.1 || (d == best.1 && c < best.0) {
                    best = (c, d);
                }
            }
        }
        Ok((best, scored))
    }
}

/// One Lloyd update: each centroid becomes the mean of the rows
/// assigned to it (`assign[i]` for `rows[i]`). An empty cluster keeps
/// its centroid, and so does one whose mean is not finite (its members'
/// sum overflowed), so every centroid stays finite. Each centroid is
/// summed whole on the thread that owns it, walking its rows in
/// ascending order, so the sums are bitwise the one-thread ones.
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
            for s in &mut sum {
                *s *= inv;
            }
            if sum.iter().all(|s| s.is_finite()) {
                centroid.copy_from_slice(&sum);
            }
        }
    });
}

/// Per-cluster geometry behind exact mode's bound, from the store's
/// distances to the centroids (never serialised). For cluster `c` with
/// centroid `c` and radius `R_c = max ‖x − c‖` over its members `x`,
/// [`Geometry::bound`] gives an upper bound on the *computed* score
/// `dot(q, x)` of every member.
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
    /// From `far[c]`, the largest computed `dist_sq` from a member of
    /// cluster `c` to its centroid (`0` for an empty cluster).
    fn new(centroids: &DenseMatrix, far: &[f64]) -> Self {
        let slack = (4 * centroids.cols() + 16) as f64 * f64::EPSILON;
        let (radius, span) = far
            .iter()
            .enumerate()
            .map(|(c, &far)| {
                let r = floored_sqrt(far) * (1.0 + slack);
                (r, floored_sqrt(vector::norm2_sq(centroids.row(c))) + r)
            })
            .unzip();
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

/// The larger of a cluster's farthest squared distance so far and a
/// member's `d`, NaN-propagating: a non-finite member (only a hand-made
/// `.aidx` can cluster one) must make the bound unusable, never small.
fn farther(far: f64, d: f64) -> f64 {
    if d > far || d.is_nan() {
        d
    } else {
        far
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
    seal(&mut out);
    out
}

/// Parses the version-1 `.aidx` wire format, verifying magic, version,
/// structural lengths, field validity, and the CRC-32 trailer — the same
/// reader-obligation order as `.aemb` (`docs/FORMAT.md`).
fn decode_index(bytes: &[u8]) -> Result<IvfIndex, StoreError> {
    check_prologue(
        bytes,
        INDEX_MAGIC,
        INDEX_FORMAT_VERSION,
        INDEX_HEADER_LEN + 4,
        INDEX_HEADER_LEN + 4,
    )?;
    let mut r = Reader::new(bytes, 6, INDEX_HEADER_LEN);
    let flags = r.u16()?;
    let dim = r.u32()? as usize;
    let nodes = r.u64()?;
    let nlist = r.u32()?;
    let calib_len = r.u32()?;
    let store_fingerprint = r.u64()?;

    let expected = INDEX_HEADER_LEN as u128
        + 8 * nlist as u128 * dim as u128
        + 4 * nodes as u128
        + 12 * calib_len as u128
        + 4;
    check_len(bytes.len(), expected, "the checksum")?;
    // Member lists hold nodes as u32. Unreachable below a 16 GiB file.
    if nodes > u32::MAX as u64 {
        return Err(StoreError::LimitExceeded {
            what: "index row count",
            value: nodes,
            max: u32::MAX as u64,
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
    check_seal(bytes)?;

    let mut r = Reader::new(bytes, INDEX_HEADER_LEN, bytes.len() - 4);
    let centroids = r.matrix(nlist as usize, dim)?;
    let assignments = r.u32s(nodes)?;
    if let Some(&a) = assignments
        .iter()
        .find(|&&a| a != ALWAYS_SCAN && a >= nlist)
    {
        return Err(StoreError::Corrupted {
            reason: format!("row assigned to cluster {a} but the index has {nlist}"),
        });
    }
    let mut calibration = Vec::with_capacity(calib_len as usize);
    let mut last_target = f64::NEG_INFINITY;
    for _ in 0..calib_len {
        let target = r.f64()?;
        let nprobe = r.u32()?;
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

    Ok(IvfIndex::assemble(
        dim,
        store_fingerprint,
        centroids,
        assignments,
        calibration,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::crc32;
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
        let mut m = clustered_store(240, 6, 12).storage().clone();
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
            let got = assign_nearest(&mut pool, &centroids, &matrix, &rows).nearest;
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
        let index =
            IvfIndex::assemble(dim, store.fingerprint(), centroids, assignments, Vec::new());
        for u in [0, 3, 5, 9, 18, 20, 21, 22] {
            let query = store.row(u);
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
                    .flat_map(|&c| index.members[index.list(c)].iter().map(|&m| m as usize))
                    .filter(|&row| row != u)
                    .collect();
                want.sort_unstable();
                assert_eq!(found, want, "u={u} nprobe={nprobe}");
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn approximate_search_equals_a_reference_over_the_probed_lists(
            seed in 0u64..u64::MAX,
            n in 12usize..48,
            dim in 1usize..6,
            nlist in 2usize..10,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            // Rows around a few centres on a coarse grid, so scores tie too,
            // a few repeated rows, and one NaN, one +inf and one -inf row.
            // Coordinates are never zero and each row holds at most one
            // non-finite value, so no score sees two NaN-making events (a
            // NaN operand, ∞·0, ∞ − ∞). Where two NaNs meet, which one an
            // add passes on depends on operand order, and so does the sign
            // that ranks a NaN score (DESIGN.md §15): the scalar kernel and
            // `vector::dot` may then disagree.
            let centres: Vec<Vec<f64>> = (0..4)
                .map(|_| (0..dim).map(|_| f64::from(rng.gen_range(-4i32..=4))).collect())
                .collect();
            let mut m = DenseMatrix::zeros(n, dim);
            for i in 0..n {
                let centre = &centres[rng.gen_range(0..centres.len())];
                for (j, &c) in centre.iter().enumerate() {
                    m.set(i, j, c + f64::from(rng.gen_range(-2i32..=2)) * 0.25 + 0.125);
                }
            }
            for _ in 0..3 {
                let (from, to) = (rng.gen_range(0..n), rng.gen_range(0..n));
                for j in 0..dim {
                    m.set(to, j, m.get(from, j));
                }
            }
            let at = rng.gen_range(0..n);
            for (i, value) in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY].into_iter().enumerate() {
                m.set((at + i) % n, rng.gen_range(0..dim), value);
            }
            let store =
                EmbeddingStore::new(m, PrivacyMeta::non_private(ModelVariant::Sgm)).unwrap();
            let params = IndexParams {
                nlist,
                kmeans_iters: 3,
                sample_queries: 8,
                calibration_k: 3,
            };
            let index = IvfIndex::build(&store, params).unwrap();
            let matrix = store.storage();
            let mut own_row_probed = false;
            for u in 0..n {
                let query = matrix.row(u);
                // The probe order: centroid score descending, and a stable
                // sort keeps tied clusters in ascending index order.
                let mut order: Vec<usize> = (0..index.nlist()).collect();
                order.sort_by(|&a, &b| {
                    vector::dot(query, index.centroids.row(b))
                        .total_cmp(&vector::dot(query, index.centroids.row(a)))
                });
                for nprobe in 1..index.nlist() {
                    let listed: Vec<usize> = (0..n)
                        .filter(|&row| match index.assignments[row] {
                            ALWAYS_SCAN => true,
                            c => order[..nprobe].contains(&(c as usize)),
                        })
                        .collect();
                    own_row_probed |= index.assignments[u] != ALWAYS_SCAN && listed.contains(&u);
                    let mut want: Vec<(usize, f64)> = listed
                        .iter()
                        .filter(|&&row| row != u)
                        .map(|&row| (row, vector::dot(query, matrix.row(row))))
                        .collect();
                    want.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
                    for k in [0, 1, 10, want.len() + 3] {
                        let got = index.search(&store, u, k, nprobe).unwrap();
                        proptest::prop_assert_eq!(got.rows_scanned, listed.len());
                        let got: Vec<(usize, u64)> =
                            got.neighbors.iter().map(|g| (g.node, g.score.to_bits())).collect();
                        let want: Vec<(usize, u64)> =
                            want.iter().take(k).map(|&(row, s)| (row, s.to_bits())).collect();
                        proptest::prop_assert_eq!(got, want, "u={} nprobe={} k={}", u, nprobe, k);
                    }
                }
            }
            proptest::prop_assert!(own_row_probed, "no query row sat in a probed cluster");
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

    /// Rows in `groups` separated groups, from integer arithmetic and
    /// correctly rounded `÷` and `×` only, so the bytes built from them
    /// are the same on every IEEE-754 platform.
    fn arithmetic_clusters(n: usize, dim: usize, groups: usize) -> EmbeddingStore {
        let m = DenseMatrix::from_fn(n, dim, |i, j| {
            let g = (i * 7) % groups;
            let center = ((g * 37 + j * 11) % 53) as f64 * 2.0 - 52.0;
            center + ((i * 7919 + j * 104_729) % 97) as f64 / 97.0 * 0.75
        });
        EmbeddingStore::new(m, PrivacyMeta::non_private(ModelVariant::Sgm)).unwrap()
    }

    #[test]
    fn clustered_build_bytes_are_pinned_while_the_filter_skips() {
        // The checksum was taken from the build before the Lloyd passes
        // filtered centroids, which scored every row against every one.
        let store = arithmetic_clusters(3_000, 8, 48);
        for threads in [1, 3] {
            let (index, distances) = IvfIndex::build_counted(
                &store,
                IndexParams::default(),
                &mut ThreadPool::new(threads),
            )
            .unwrap();
            let bytes = index.to_bytes();
            let body = &bytes[..bytes.len() - 4];
            assert_eq!((crc32(body), bytes.len()), (0xf2fd_987e, 15_620));
            let full = store.len() * index.nlist();
            assert_eq!(distances.len(), 6);
            assert_eq!(distances[0], full);
            for (pass, &d) in distances.iter().enumerate().skip(1) {
                assert!(d * 10 < full, "pass {pass} scored {d} of {full}");
            }
        }
    }

    #[test]
    fn arranging_moves_rows_in_place_into_list_runs() {
        let mut store = clustered_store(500, 8, 12);
        let plain = store.clone();
        let index = IvfIndex::build(&store, small_params()).unwrap();
        let backing = store.storage().as_slice().as_ptr();
        index.arrange(&mut store).unwrap();
        // No second matrix: the rows moved within the one allocation.
        assert_eq!(store.storage().as_slice().as_ptr(), backing);
        assert!(store.is_arranged_as(&index.members));
        // Every list is a run of storage rows holding its members.
        for (row, &u) in index.members.iter().enumerate() {
            assert_eq!(store.node_at(row), u as usize);
            assert_eq!(store.storage_row(u as usize), row);
            assert_eq!(store.storage().row(row), plain.storage().row(u as usize));
        }
        assert!(
            (0..store.len()).any(|row| store.node_at(row) != row),
            "list order must differ from node order on this store"
        );
        // An equal list (a loaded copy of the index) moves nothing and
        // takes over the arrangement.
        let loaded = IvfIndex::from_bytes(&index.to_bytes()).unwrap();
        let before = store.storage().clone();
        loaded.arrange(&mut store).unwrap();
        assert_eq!(store.storage(), &before);
        assert!(store.is_arranged_as(&loaded.members));
        assert!(!store.is_arranged_as(&index.members));
        // A store arranged by another index's lists is read through the
        // map: the same answers as the unarranged store, in both modes.
        let other = IvfIndex::build(
            &plain,
            IndexParams {
                nlist: 5,
                ..small_params()
            },
        )
        .unwrap();
        other.arrange(&mut store).unwrap();
        assert_eq!(store.storage().as_slice().as_ptr(), backing);
        for u in [0, 77, 250, 499] {
            for nprobe in [1, 3, index.nlist()] {
                let got = index.search(&store, u, 10, nprobe).unwrap();
                let want = index.search(&plain, u, 10, nprobe).unwrap();
                assert_eq!(got, want, "u={u} nprobe={nprobe}");
            }
        }
        let err = index.arrange(&mut clustered_store(499, 8, 12)).unwrap_err();
        assert!(
            matches!(err, StoreError::IndexStoreMismatch { .. }),
            "{err}"
        );
    }

    #[test]
    fn an_arranged_store_builds_the_pinned_bytes() {
        // The fixtures of the two pinned-bytes tests above, arranged by
        // another index before the build reads them.
        let m = DenseMatrix::from_fn(500, 6, |i, j| {
            ((i * 7 + j * 13) % 23) as f64 * 0.1 + ((i % 5) * 3) as f64 - 2.0
        });
        let store = EmbeddingStore::new(m, PrivacyMeta::non_private(ModelVariant::Sgm)).unwrap();
        let params = IndexParams {
            nlist: 12,
            sample_queries: 16,
            ..small_params()
        };
        let pinned = [
            (store, params, (0x7f96_95ea, 2676)),
            (
                arithmetic_clusters(3_000, 8, 48),
                IndexParams::default(),
                (0xf2fd_987e, 15_620),
            ),
        ];
        for (mut store, params, want) in pinned {
            let coarse = IvfIndex::build(&store, IndexParams { nlist: 7, ..params }).unwrap();
            coarse.arrange(&mut store).unwrap();
            assert!((0..store.len()).any(|row| store.node_at(row) != row));
            for threads in [1, 3] {
                let index =
                    IvfIndex::build_in(&store, params, &mut ThreadPool::new(threads)).unwrap();
                let bytes = index.to_bytes();
                let body = &bytes[..bytes.len() - 4];
                assert_eq!((crc32(body), bytes.len()), want, "threads={threads}");
            }
        }
    }

    /// Rows spread evenly in 48 dimensions, with no clusters to find.
    fn spread_store() -> EmbeddingStore {
        let m = DenseMatrix::from_fn(1_500, 48, |i, j| {
            let h = ((i * 48 + j) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            ((h ^ (h >> 29)) % 1_000) as f64
        });
        EmbeddingStore::new(m, PrivacyMeta::non_private(ModelVariant::Sgm)).unwrap()
    }

    #[test]
    fn unclustered_builds_stop_filtering() {
        // Every centroid is about as far from a row as its own, so the
        // filter admits too many, and the passes after the first filtered
        // one scan in full.
        let store = spread_store();
        let (index, distances) =
            IvfIndex::build_counted(&store, IndexParams::default(), &mut ThreadPool::new(2))
                .unwrap();
        let full = store.len() * index.nlist();
        assert!(distances[1] > full, "{distances:?}");
        assert!(distances[2..].iter().all(|&d| d == full), "{distances:?}");
    }

    #[test]
    fn the_build_keeps_the_geometry_validate_for_derives() {
        // The build folds its radii from the last Lloyd pass's distances:
        // a filtered pass, a full-scan pass, and a filtered pass over a
        // store whose non-finite rows are always scanned.
        let mut hostile = clustered_store(400, 6, 9).storage().clone();
        hostile.set(7, 2, f64::NAN);
        hostile.set(100, 0, f64::INFINITY);
        hostile.set(222, 5, f64::NEG_INFINITY);
        let hostile =
            EmbeddingStore::new(hostile, PrivacyMeta::non_private(ModelVariant::Sgm)).unwrap();
        let stores = [
            (arithmetic_clusters(3_000, 8, 48), true, 0),
            (spread_store(), false, 0),
            (hostile, true, 3),
        ];
        for (store, filtered, always) in stores {
            let mut pool = ThreadPool::new(2);
            let (index, distances) =
                IvfIndex::build_counted(&store, IndexParams::default(), &mut pool).unwrap();
            let full = (store.len() - always) * index.nlist();
            assert_eq!(index.always_scanned(), always);
            assert_eq!(
                distances[distances.len() - 1] < full,
                filtered,
                "{distances:?}"
            );
            let built = index.geometry.get().expect("the build sets it");
            let loaded = IvfIndex::from_bytes(&index.to_bytes()).unwrap();
            assert!(loaded.geometry.get().is_none());
            loaded.validate_for(&store).unwrap();
            let derived = loaded.geometry.get().expect("validate_for derives it");
            assert_eq!(bits(&built.radius), bits(&derived.radius));
            assert_eq!(bits(&built.span), bits(&derived.span));
            assert_eq!(built.slack.to_bits(), derived.slack.to_bits());
        }
    }

    #[test]
    fn overflowing_means_keep_the_previous_centroid() {
        // Two clusters of two rows each at ±MAX/1.5: each member sum
        // overflows, so both centroids keep their seed rows.
        let big = f64::MAX / 1.5;
        let m =
            DenseMatrix::from_vec(4, 2, vec![big, big, big, big, -big, -big, -big, -big]).unwrap();
        let store = EmbeddingStore::new(m, PrivacyMeta::non_private(ModelVariant::Sgm)).unwrap();
        let index = IvfIndex::build(&store, IndexParams::default()).unwrap();
        assert_eq!(index.nlist(), 2);
        let bytes = index.to_bytes();
        let centroids: Vec<f64> = bytes[INDEX_HEADER_LEN..INDEX_HEADER_LEN + 32]
            .chunks(8)
            .map(|b| f64::from_le_bytes(b.try_into().unwrap()))
            .collect();
        assert_eq!(centroids, [big, big, -big, -big]);
    }

    #[test]
    fn the_filter_keeps_ties_at_its_bound() {
        // Centroids 0 and 1 and a row exactly as far from both in computed
        // distance, starting from centroid 1; six more centroids lie `far`
        // beyond centroid 1 along every axis. Centroid 0 sits at twice the
        // row's distance, so the filter must admit it, and the tie goes to
        // the lower index.
        let tie = |c0: &[f64], c1: &[f64], x: &[f64], far: f64| {
            let dim = x.len();
            let rest = (2..8).flat_map(|k| c1.iter().map(move |v| v + k as f64 * far));
            let centroids =
                DenseMatrix::from_vec(8, dim, c0.iter().chain(c1).copied().chain(rest).collect())
                    .unwrap();
            let matrix = DenseMatrix::from_vec(1, dim, x.to_vec()).unwrap();
            assert_eq!(
                vector::dist_sq(x, c0).to_bits(),
                vector::dist_sq(x, c1).to_bits()
            );
            let mut pool = ThreadPool::new(1);
            let pass = reassign_nearest(&mut pool, &centroids, &matrix, &[0], &[1]);
            assert_eq!(pass.full_scans, 0, "the filter must decide");
            assert_eq!(pass.nearest, [0]);
            let full = assign_nearest(&mut pool, &centroids, &matrix, &[0]);
            assert_eq!(full.nearest, [0]);
        };
        // The exact midpoint: `E_0 = 4·D_1` exactly. At 2^-538 every
        // square but the centroids' own distance (2^-1074) underflows.
        tie(&[0.0], &[2.0], &[1.0], 100.0);
        let unit = 2f64.powi(-538);
        tie(&[0.0], &[2.0 * unit], &[unit], 2f64.powi(-500));
        // Rounding alone puts `E_0` one ulp above `4·D_1` here (found by a
        // random search over rounded midpoints).
        tie(
            &[
                0.6915145120073704,
                -4.277648496659992,
                2.8594728778673875,
                -0.3380249178274878,
                0.23347610632535043,
                0.8476406653626074,
                -0.10653191905299583,
                0.3200922882973547,
            ],
            &[
                0.01892543685683179,
                -4.384396520676098,
                2.8306148475650073,
                -0.16478513220625124,
                0.2890578210412247,
                0.027795729083524512,
                -0.012318524758260202,
                1.9932728830762025,
            ],
            &[
                0.35521997443210107,
                -4.331022508668045,
                2.8450438627161976,
                -0.2514050250168695,
                0.26126696368328756,
                0.43771819722306593,
                -0.05942522190562802,
                1.1566825856867786,
            ],
            100.0,
        );
    }

    /// A row of `dim` grid coordinates, multiples of `4·scale` in
    /// `[-64, 64]·scale`.
    fn grid_row(rng: &mut rand::rngs::SmallRng, dim: usize, scale: f64) -> Vec<f64> {
        use rand::Rng;
        (0..dim)
            .map(|_| rng.gen_range(-16i64..=16) as f64 * 4.0 * scale)
            .collect()
    }

    /// Grid centroids for the filter's property test, with each one's
    /// parent: about a quarter repeat an earlier centroid, a quarter are
    /// an earlier one moved a grid step along one axis, and the rest are
    /// free (their own parent).
    fn grid_centroids(
        rng: &mut rand::rngs::SmallRng,
        nlist: usize,
        dim: usize,
        scale: f64,
    ) -> (Vec<Vec<f64>>, Vec<usize>) {
        use rand::Rng;
        let (mut rows, mut parent): (Vec<Vec<f64>>, Vec<usize>) = (Vec::new(), Vec::new());
        for c in 0..nlist {
            let from = if c > 0 { rng.gen_range(0..c) } else { 0 };
            let (row, p) = match rng.gen_range(0..4) {
                0 if c > 0 => (rows[from].clone(), from),
                1 if c > 0 => {
                    let mut row = rows[from].clone();
                    row[rng.gen_range(0..dim)] += 4.0 * scale;
                    (row, from)
                }
                _ => (grid_row(rng, dim, scale), c),
            };
            rows.push(row);
            parent.push(p);
        }
        (rows, parent)
    }

    /// Rows for the filter's property test, in four kinds: a copy of a
    /// centroid, a centroid moved by up to two `scale` steps per
    /// coordinate, the midpoint of a centroid and its parent (equally far
    /// from both, up to rounding), and a free grid point.
    fn rows_around(
        rng: &mut rand::rngs::SmallRng,
        centroids: &[Vec<f64>],
        parent: &[usize],
        n: usize,
        scale: f64,
    ) -> Vec<Vec<f64>> {
        use rand::Rng;
        let dim = centroids[0].len();
        (0..n)
            .map(|_| {
                let c = rng.gen_range(0..centroids.len());
                match rng.gen_range(0..4) {
                    0 => centroids[c].clone(),
                    1 => centroids[c]
                        .iter()
                        .map(|v| v + rng.gen_range(-2i64..=2) as f64 * scale)
                        .collect(),
                    2 => centroids[c]
                        .iter()
                        .zip(&centroids[parent[c]])
                        .map(|(a, b)| a / 2.0 + b / 2.0)
                        .collect(),
                    _ => grid_row(rng, dim, scale),
                }
            })
            .collect()
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Each row's nearest centroid, ties toward the *higher* index: the
    /// previous centroid that least favours the lower-index answer.
    fn last_nearest(centroids: &DenseMatrix, matrix: &DenseMatrix) -> Vec<usize> {
        (0..matrix.rows())
            .map(|i| {
                let mut best = (f64::INFINITY, 0);
                for c in 0..centroids.rows() {
                    let d = vector::dist_sq(matrix.row(i), centroids.row(c));
                    if d <= best.0 {
                        best = (d, c);
                    }
                }
                best.1
            })
            .collect()
    }

    proptest::proptest! {
        #[test]
        fn filtered_assignment_equals_the_full_scan(
            seed in 0u64..u64::MAX,
            dim in 1usize..=33,
            nlist in 1usize..=40,
            scale_kind in 0usize..6,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            // Exact grid arithmetic; rounding; squares near overflow;
            // coordinates near MAX, whose nonzero distances all overflow;
            // grid steps whose squares just reach the subnormal range;
            // subnormal coordinates.
            let scale = [
                1.0,
                0.1,
                2f64.powi(505),
                2f64.powi(1017),
                2f64.powi(-539),
                2f64.powi(-1070),
            ][scale_kind];
            let (centroid_rows, parent) = grid_centroids(&mut rng, nlist, dim, scale);
            let n = rng.gen_range(1..=120);
            let rows = rows_around(&mut rng, &centroid_rows, &parent, n, scale);
            let centroids = DenseMatrix::from_vec(nlist, dim, centroid_rows.concat()).unwrap();
            let matrix = DenseMatrix::from_vec(n, dim, rows.concat()).unwrap();
            let all: Vec<usize> = (0..n).collect();
            let mut pools = [ThreadPool::new(1), ThreadPool::new(3)];

            // Any previous centroid: the answer, the last of the tied
            // nearest ones, or any other.
            let full = assign_nearest(&mut pools[0], &centroids, &matrix, &all);
            for (i, (&c, d)) in full.nearest.iter().zip(&full.dist_sq).enumerate() {
                let want = vector::dist_sq(matrix.row(i), centroids.row(c));
                proptest::prop_assert_eq!(d.to_bits(), want.to_bits());
            }
            let last = last_nearest(&centroids, &matrix);
            let previous: Vec<usize> = (0..n)
                .map(|i| match rng.gen_range(0..3) {
                    0 => full.nearest[i],
                    1 => last[i],
                    _ => rng.gen_range(0..nlist),
                })
                .collect();
            for pool in &mut pools {
                let pass = reassign_nearest(pool, &centroids, &matrix, &all, &previous);
                proptest::prop_assert_eq!(&pass.nearest, &full.nearest);
                proptest::prop_assert_eq!(bits(&pass.dist_sq), bits(&full.dist_sq));
            }

            // Every pass of a build's Lloyd loop over these rows, seeded
            // as the build seeds (so repeated rows give tied centroids).
            let k = nlist.min(n);
            let mut lloyd = DenseMatrix::from_fn(k, dim, |c, j| matrix.get(c * n / k, j));
            let mut assign = assign_nearest(&mut pools[0], &lloyd, &matrix, &all).nearest;
            for _ in 0..4 {
                update_centroids(&mut pools[0], &mut lloyd, &matrix, &all, &assign);
                let full = assign_nearest(&mut pools[0], &lloyd, &matrix, &all);
                for pool in &mut pools {
                    let pass = reassign_nearest(pool, &lloyd, &matrix, &all, &assign);
                    proptest::prop_assert_eq!(&pass.nearest, &full.nearest);
                    proptest::prop_assert_eq!(bits(&pass.dist_sq), bits(&full.dist_sq));
                }
                assign = full.nearest;
            }
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
                        let score = backend::dot(&q, store.row(row));
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
