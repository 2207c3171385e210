//! The in-memory embedding store and its query-serving API.
//!
//! An [`EmbeddingStore`] is the released artifact of a training run: the
//! node-vector matrix `W_in`, a node → external-node-id table, and the
//! privacy metadata the release carries. Every query — pair scores
//! ([`EmbeddingStore::score`], Eq. 2's inner product), neighbor retrieval
//! ([`EmbeddingStore::top_k`]), and the parallel
//! [`EmbeddingStore::batch_top_k`] — is post-processing of that artifact
//! (Theorem 5), so serving adds **no** privacy cost regardless of query
//! volume.
//!
//! # Determinism contract
//!
//! `top_k` depends only on the store's contents (ties break toward the
//! lower node index, see [`advsgm_linalg::topk`]), not on the order the
//! rows are held in. `batch_top_k` computes
//! each query independently and reassembles results in query order, so its
//! output is **bitwise-identical at every thread count** — the serving
//! counterpart of the training engines' determinism contract
//! (DESIGN.md §7/§9).

use std::path::Path;
use std::sync::Arc;

use advsgm_core::{AdvSgmConfig, TrainOutcome};
use advsgm_linalg::topk::{score_rows, ScoredIndex, TopK};
use advsgm_linalg::{backend, DenseMatrix};
use advsgm_parallel::{resolve_threads, ThreadPool};

use crate::codec::write_sealed;
use crate::error::StoreError;
use crate::format;
use crate::meta::PrivacyMeta;

/// One neighbor returned by a top-k query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// The neighbor's node: its row in the released matrix.
    pub node: usize,
    /// External node id from the store's id table.
    pub id: u64,
    /// Inner-product link score against the query node (Eq. 2).
    pub score: f64,
}

/// A queryable, persistable embedding matrix with privacy provenance.
///
/// Every query takes and every answer carries *nodes*: node `u` is row
/// `u` of the released matrix. The store holds the rows in *storage
/// order*, which is node order unless an index arranged them into its
/// list order ([`IvfIndex::arrange`](crate::IvfIndex::arrange)), so that
/// its search reads each cluster list as one contiguous run. No answer,
/// fingerprint, encoding or comparison depends on the storage order, and
/// a clone keeps it.
#[derive(Debug, Clone)]
pub struct EmbeddingStore {
    /// The rows in storage order.
    vectors: DenseMatrix,
    /// External id per node.
    node_ids: Vec<u64>,
    meta: PrivacyMeta,
    /// Where each node's row is held; `None` while storage order is node
    /// order.
    layout: Option<Layout>,
}

/// The storage order an index arranged a store into.
#[derive(Debug, Clone)]
struct Layout {
    /// Storage row → node: the arranging index's member list, shared with
    /// it, so search tells an arranged store by pointer.
    node_of: Arc<[u32]>,
    /// Node → storage row.
    storage_of: Vec<u32>,
}

/// Equality in node order: the same nodes with the same ids, metadata and
/// rows (compared as `f64`s, so a NaN row is unequal to itself, as it
/// always was), however each side holds its rows.
impl PartialEq for EmbeddingStore {
    fn eq(&self, other: &Self) -> bool {
        self.dim() == other.dim()
            && self.meta == other.meta
            && self.node_ids == other.node_ids
            && (0..self.len()).all(|u| self.row(u) == other.row(u))
    }
}

impl EmbeddingStore {
    /// Builds a store with the identity id table (row `i` has id `i`).
    ///
    /// # Errors
    /// [`StoreError::Invalid`] if the matrix has zero columns.
    pub fn new(vectors: DenseMatrix, meta: PrivacyMeta) -> Result<Self, StoreError> {
        let ids = (0..vectors.rows() as u64).collect();
        Self::with_node_ids(vectors, ids, meta)
    }

    /// Builds a store with an explicit row → external-node-id table.
    ///
    /// The row index is the store's primary key; ids are carried for
    /// display and for joining results back to the caller's graph.
    ///
    /// # Errors
    /// [`StoreError::Invalid`] if the table length differs from the row
    /// count or the matrix has zero columns.
    pub fn with_node_ids(
        vectors: DenseMatrix,
        node_ids: Vec<u64>,
        meta: PrivacyMeta,
    ) -> Result<Self, StoreError> {
        if vectors.cols() == 0 {
            return Err(StoreError::Invalid {
                reason: "embedding dimension must be positive".into(),
            });
        }
        // The `.aemb` header stores the dimension as a u32 (FORMAT.md,
        // "Format limits"): refuse here, at construction, so the writer's
        // `dim as u32` cast is provably lossless and can never silently
        // truncate a store into a different one on a 64-bit host.
        if vectors.cols() as u64 > u32::MAX as u64 {
            return Err(StoreError::LimitExceeded {
                what: "embedding dimension",
                value: vectors.cols() as u64,
                max: u32::MAX as u64,
            });
        }
        if node_ids.len() != vectors.rows() {
            return Err(StoreError::Invalid {
                reason: format!(
                    "node-id table has {} entries for {} rows",
                    node_ids.len(),
                    vectors.rows()
                ),
            });
        }
        // The privacy stamp travels as a unit (FORMAT.md): enforcing it
        // here keeps the writer incapable of producing files the reader
        // rejects.
        let present = [
            meta.epsilon.is_some(),
            meta.delta.is_some(),
            meta.sigma.is_some(),
        ];
        if present.iter().any(|&p| p) && !present.iter().all(|&p| p) {
            return Err(StoreError::Invalid {
                reason: "privacy metadata must set epsilon, delta, and sigma together \
                         or not at all"
                    .into(),
            });
        }
        Ok(Self {
            vectors,
            node_ids,
            meta,
            layout: None,
        })
    }

    /// Builds a store from a finished training run, stamping the privacy
    /// metadata: the variant, the accountant's **spent** epsilon (already
    /// snapshot into [`TrainOutcome::epsilon_spent`]), and the configured
    /// `delta` / `sigma` for private variants.
    ///
    /// # Errors
    /// [`StoreError::Invalid`] on a malformed outcome (zero-dim vectors).
    pub fn from_outcome(outcome: &TrainOutcome, cfg: &AdvSgmConfig) -> Result<Self, StoreError> {
        let meta = match outcome.epsilon_spent {
            Some(eps) => PrivacyMeta::private(outcome.variant, eps, cfg.delta, cfg.sigma),
            None => PrivacyMeta::non_private(outcome.variant),
        };
        Self::new(outcome.node_vectors.clone(), meta)
    }

    /// Number of stored nodes (rows).
    pub fn len(&self) -> usize {
        self.vectors.rows()
    }

    /// Whether the store holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.vectors.rows() == 0
    }

    /// Embedding dimension `r`.
    pub fn dim(&self) -> usize {
        self.vectors.cols()
    }

    /// The privacy metadata this release carries.
    pub fn meta(&self) -> &PrivacyMeta {
        &self.meta
    }

    /// The node → external-node-id table.
    pub fn node_ids(&self) -> &[u64] {
        &self.node_ids
    }

    /// The rows in storage order.
    pub(crate) fn storage(&self) -> &DenseMatrix {
        &self.vectors
    }

    /// The storage row holding node `u`'s row.
    pub(crate) fn storage_row(&self, u: usize) -> usize {
        self.layout.as_ref().map_or(u, |l| l.storage_of[u] as usize)
    }

    /// The node whose row storage row `row` holds.
    pub(crate) fn node_at(&self, row: usize) -> usize {
        self.layout
            .as_ref()
            .map_or(row, |l| l.node_of[row] as usize)
    }

    /// Node `u`'s row (`u` must be in range).
    pub(crate) fn row(&self, u: usize) -> &[f64] {
        self.vectors.row(self.storage_row(u))
    }

    /// Whether the rows are held in `order`'s storage order, the very
    /// list (not an equal copy) the store was arranged by.
    pub(crate) fn is_arranged_as(&self, order: &Arc<[u32]>) -> bool {
        self.layout
            .as_ref()
            .is_some_and(|l| Arc::ptr_eq(&l.node_of, order))
    }

    /// Moves the rows in place so storage row `s` holds node `order[s]`'s
    /// row; `order` must be a permutation of the nodes. The rows move
    /// cycle by cycle through one row of scratch, with a bitset marking
    /// the rows already placed, so the matrix keeps its allocation. Rows
    /// already where `order` puts them (a store arranged by an equal list)
    /// do not move.
    pub(crate) fn arrange(&mut self, order: &Arc<[u32]>) {
        if self.is_arranged_as(order) {
            return;
        }
        debug_assert_eq!(order.len(), self.len());
        let (n, dim) = self.vectors.shape();
        // Storage row `s` takes the row now held for node `order[s]`.
        let layout = self.layout.as_ref();
        let source = |s: usize| {
            let u = order[s] as usize;
            layout.map_or(u, |l| l.storage_of[u] as usize)
        };
        let data = self.vectors.as_mut_slice();
        let mut placed = vec![0u64; n.div_ceil(64)];
        let mut scratch = vec![0.0; dim];
        for start in 0..n {
            if (placed[start / 64] >> (start % 64)) & 1 == 1 || source(start) == start {
                continue;
            }
            scratch.copy_from_slice(&data[start * dim..(start + 1) * dim]);
            let mut at = start;
            loop {
                placed[at / 64] |= 1 << (at % 64);
                let from = source(at);
                if from == start {
                    data[at * dim..(at + 1) * dim].copy_from_slice(&scratch);
                    break;
                }
                data.copy_within(from * dim..(from + 1) * dim, at * dim);
                at = from;
            }
        }
        let mut storage_of = self
            .layout
            .take()
            .map_or_else(|| vec![0; n], |l| l.storage_of);
        for (s, &u) in order.iter().enumerate() {
            storage_of[u as usize] = s as u32;
        }
        self.layout = Some(Layout {
            node_of: Arc::clone(order),
            storage_of,
        });
    }

    /// The top `k` nodes by score against node `u` (itself excluded) over
    /// the contiguous scan of every stored row, as
    /// `(node, score)` sorted by `(score desc, node asc)`: the full scan
    /// behind [`Self::top_k`] and exact search's fallback. Each row's
    /// score is its own [`backend::dot16`] lane and the selection does not
    /// depend on the order rows arrive in, so the answer does not depend
    /// on the storage order.
    pub(crate) fn scan_top_k(&self, u: usize, k: usize) -> Vec<ScoredIndex> {
        let query = self.row(u);
        let mut top = TopK::new(k);
        score_rows(&self.vectors, query, 0..self.len(), |row, score| {
            let node = self.node_at(row);
            if node != u {
                top.push(node, score);
            }
        });
        top.into_sorted()
    }

    /// A 64-bit FNV-1a fingerprint of the store's contents: the row
    /// count, the dimension, the node-id table, and every payload value's
    /// raw bit pattern, folded word-wise with the standard FNV-64
    /// parameters (offset basis `0xcbf29ce484222325`, prime
    /// `0x100000001b3`) — the same folding scheme as the checkpoint graph
    /// fingerprint (`docs/FORMAT.md`).
    ///
    /// Derived artifacts built from a release (the `.aidx` ANN index)
    /// carry this fingerprint so a mismatched pairing is rejected instead
    /// of silently serving wrong neighbors.
    pub fn fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut fold = |w: u64| h = (h ^ w).wrapping_mul(FNV_PRIME);
        fold(self.len() as u64);
        fold(self.dim() as u64);
        for &id in &self.node_ids {
            fold(id);
        }
        for u in 0..self.len() {
            for &v in self.row(u) {
                fold(v.to_bits());
            }
        }
        h
    }

    /// The embedding of node `node`.
    ///
    /// # Errors
    /// [`StoreError::NodeOutOfRange`] for nodes the store does not hold.
    pub fn vector(&self, node: usize) -> Result<&[f64], StoreError> {
        if node >= self.len() {
            return Err(StoreError::NodeOutOfRange {
                node,
                num_nodes: self.len(),
            });
        }
        Ok(self.row(node))
    }

    /// Eq. 2's link score: the inner product `<v_u, v_v>` (AUC-equivalent
    /// to the sigmoid the paper's discriminant applies, which is
    /// monotone).
    ///
    /// # Errors
    /// [`StoreError::NodeOutOfRange`] for rows the store does not hold.
    pub fn score(&self, u: usize, v: usize) -> Result<f64, StoreError> {
        Ok(backend::dot(self.vector(u)?, self.vector(v)?))
    }

    /// The `k` highest-scoring neighbors of `u` (excluding `u` itself),
    /// sorted by `(score desc, node asc)`. Fewer than `k` come back when
    /// the store holds fewer than `k + 1` nodes.
    ///
    /// # Errors
    /// [`StoreError::NodeOutOfRange`] for rows the store does not hold.
    pub fn top_k(&self, u: usize, k: usize) -> Result<Vec<Neighbor>, StoreError> {
        self.vector(u)?; // range check
        Ok(self.top_k_unchecked(u, k))
    }

    /// The single source of truth for neighbor retrieval: `u` must already
    /// be range-checked. Shared by [`Self::top_k`] and the batched paths
    /// so their results can never diverge.
    fn top_k_unchecked(&self, u: usize, k: usize) -> Vec<Neighbor> {
        self.scan_top_k(u, k)
            .into_iter()
            .map(|s| Neighbor {
                node: s.index,
                id: self.node_ids[s.index],
                score: s.score,
            })
            .collect()
    }

    /// [`Self::top_k`] for many query nodes at once, parallelised over the
    /// vendored `advsgm-parallel` pool.
    ///
    /// `threads = 0` resolves via `ADVSGM_THREADS` (else 1), matching the
    /// training engine's convention. Builds a fresh pool per call — a
    /// long-lived serving loop should construct one pool and call
    /// [`Self::batch_top_k_in`] instead.
    ///
    /// # Errors
    /// [`StoreError::NodeOutOfRange`] if *any* query row is out of range
    /// (checked up front; no partial results).
    pub fn batch_top_k(
        &self,
        queries: &[usize],
        k: usize,
        threads: usize,
    ) -> Result<Vec<Vec<Neighbor>>, StoreError> {
        let mut pool = ThreadPool::new(resolve_threads(threads));
        self.batch_top_k_in(queries, k, &mut pool)
    }

    /// [`Self::batch_top_k`] on a caller-owned pool, amortising thread
    /// spawns across calls (the serving-loop entry point). Queries are
    /// computed independently and results reassembled in query order, so
    /// the output is bitwise-identical at every pool width.
    ///
    /// Duplicate query nodes are computed **once**: the batch is deduped
    /// to its distinct nodes before dispatch and results are fanned back
    /// out in query order. A query's result depends only on the store and
    /// the `(node, k)` pair, so the output is bitwise-identical to
    /// computing every duplicate from scratch (regression-tested) — a
    /// serving loop with hot query nodes pays for each distinct scan once
    /// per batch.
    ///
    /// # Errors
    /// [`StoreError::NodeOutOfRange`] if *any* query row is out of range
    /// (checked up front; no partial results).
    pub fn batch_top_k_in(
        &self,
        queries: &[usize],
        k: usize,
        pool: &mut ThreadPool,
    ) -> Result<Vec<Vec<Neighbor>>, StoreError> {
        for &q in queries {
            if q >= self.len() {
                return Err(StoreError::NodeOutOfRange {
                    node: q,
                    num_nodes: self.len(),
                });
            }
        }
        // Dedupe to first occurrences. `slot[i]` is each query's index
        // into the distinct-node work list, so fan-out is a plain lookup.
        let mut first_slot: std::collections::HashMap<usize, usize> =
            std::collections::HashMap::with_capacity(queries.len());
        let mut distinct: Vec<usize> = Vec::with_capacity(queries.len());
        let slots: Vec<usize> = queries
            .iter()
            .map(|&q| {
                *first_slot.entry(q).or_insert_with(|| {
                    distinct.push(q);
                    distinct.len() - 1
                })
            })
            .collect();
        let chunk_len = distinct.len().div_ceil(pool.threads()).max(1);
        let per_chunk = pool.map_chunks(&distinct, chunk_len, |_k, _offset, chunk| {
            chunk
                .iter()
                .map(|&u| self.top_k_unchecked(u, k))
                .collect::<Vec<_>>()
        });
        let per_distinct: Vec<Vec<Neighbor>> = per_chunk.into_iter().flatten().collect();
        if distinct.len() == queries.len() {
            return Ok(per_distinct);
        }
        Ok(slots.iter().map(|&s| per_distinct[s].clone()).collect())
    }

    /// Serialises the store to the `.aemb` wire format (`docs/FORMAT.md`).
    pub fn to_bytes(&self) -> Vec<u8> {
        format::encode(self)
    }

    /// Parses a store from `.aemb` bytes, verifying structure and the
    /// CRC-32 trailer.
    ///
    /// # Errors
    /// The full typed menu: [`StoreError::BadMagic`],
    /// [`StoreError::UnsupportedVersion`], [`StoreError::Truncated`],
    /// [`StoreError::ChecksumMismatch`], [`StoreError::Corrupted`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, StoreError> {
        format::decode(bytes)
    }

    /// Writes the store to a file crash-safely: the bytes go to a
    /// temporary sibling, are fsynced, and are renamed over `path`, so a
    /// crash or a failed save never destroys the previous release.
    ///
    /// # Errors
    /// I/O failures.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), StoreError> {
        write_sealed(path.as_ref(), &self.to_bytes())
    }

    /// Loads a store from an `.aemb` file.
    ///
    /// # Errors
    /// I/O failures plus everything [`Self::from_bytes`] reports.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        Self::from_bytes(&std::fs::read(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use advsgm_core::ModelVariant;

    fn store_of(rows: &[&[f64]]) -> EmbeddingStore {
        let cols = rows[0].len();
        let data: Vec<f64> = rows.iter().flat_map(|r| r.iter().copied()).collect();
        EmbeddingStore::new(
            DenseMatrix::from_vec(rows.len(), cols, data).unwrap(),
            PrivacyMeta::non_private(ModelVariant::Sgm),
        )
        .unwrap()
    }

    #[test]
    fn score_is_inner_product() {
        let s = store_of(&[&[1.0, 2.0], &[3.0, -1.0]]);
        assert_eq!(s.score(0, 1).unwrap(), 1.0);
        assert_eq!(s.score(0, 0).unwrap(), 5.0);
        assert!(matches!(
            s.score(0, 5),
            Err(StoreError::NodeOutOfRange { node: 5, .. })
        ));
    }

    #[test]
    fn top_k_excludes_self_and_sorts() {
        let s = store_of(&[&[1.0, 0.0], &[2.0, 0.0], &[0.5, 0.0], &[-1.0, 0.0]]);
        let top = s.top_k(0, 10).unwrap();
        assert_eq!(
            top.iter().map(|n| n.node).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert_eq!(top[0].score, 2.0);
        assert_eq!(top[0].id, 1);
    }

    #[test]
    fn zero_scores_keep_the_sign_score_gives_them() {
        // Every product against row 0 is a negative zero. The scan scores
        // some rows in fused groups of four and the rest one by one; all
        // must carry `score`'s bits, or the rank of a zero row would
        // depend on how the scan grouped it.
        let zero: &[f64] = &[0.0, 0.0];
        let s = store_of(&[&[-1.0, -2.0], zero, zero, zero, zero, zero]);
        let top = s.top_k(0, 5).unwrap();
        assert_eq!(top.len(), 5);
        for n in &top {
            let want = s.score(0, n.node).unwrap();
            assert_eq!(n.score.to_bits(), want.to_bits(), "node {}", n.node);
        }
    }

    #[test]
    fn top_k_on_single_node_store_is_empty() {
        let s = store_of(&[&[1.0]]);
        assert!(s.top_k(0, 5).unwrap().is_empty());
    }

    #[test]
    fn batch_top_k_matches_sequential_top_k() {
        let m = DenseMatrix::from_fn(40, 8, |i, j| ((i * 13 + j * 7) as f64 * 0.21).sin());
        let s = EmbeddingStore::new(m, PrivacyMeta::non_private(ModelVariant::Sgm)).unwrap();
        let queries: Vec<usize> = (0..40).step_by(3).collect();
        for threads in [1usize, 2, 4] {
            let batch = s.batch_top_k(&queries, 5, threads).unwrap();
            assert_eq!(batch.len(), queries.len());
            for (&q, result) in queries.iter().zip(&batch) {
                let solo = s.top_k(q, 5).unwrap();
                assert_eq!(result.len(), solo.len(), "threads={threads} q={q}");
                for (a, b) in result.iter().zip(&solo) {
                    assert_eq!(a.node, b.node);
                    assert_eq!(a.score.to_bits(), b.score.to_bits());
                }
            }
        }
    }

    #[test]
    fn batch_top_k_in_reuses_a_pool_across_calls() {
        let m = DenseMatrix::from_fn(20, 4, |i, j| ((i + j * 5) as f64 * 0.3).cos());
        let s = EmbeddingStore::new(m, PrivacyMeta::non_private(ModelVariant::Sgm)).unwrap();
        let queries: Vec<usize> = (0..20).collect();
        let reference = s.batch_top_k(&queries, 3, 1).unwrap();
        let mut pool = ThreadPool::new(3);
        for _ in 0..4 {
            let got = s.batch_top_k_in(&queries, 3, &mut pool).unwrap();
            assert_eq!(got, reference);
        }
    }

    #[test]
    fn batch_top_k_dedupes_bitwise_identically() {
        // A batch with heavy duplication must be indistinguishable from
        // the per-query path — same nodes, same score bits, query order.
        let m = DenseMatrix::from_fn(30, 6, |i, j| ((i * 17 + j * 5) as f64 * 0.13).sin());
        let s = EmbeddingStore::new(m, PrivacyMeta::non_private(ModelVariant::Sgm)).unwrap();
        let queries = [7usize, 3, 7, 7, 0, 3, 29, 7, 0];
        for threads in [1usize, 2, 4] {
            let batch = s.batch_top_k(&queries, 4, threads).unwrap();
            assert_eq!(batch.len(), queries.len());
            for (&q, result) in queries.iter().zip(&batch) {
                let solo = s.top_k(q, 4).unwrap();
                assert_eq!(result.len(), solo.len(), "threads={threads} q={q}");
                for (a, b) in result.iter().zip(&solo) {
                    assert_eq!(a.node, b.node);
                    assert_eq!(a.score.to_bits(), b.score.to_bits());
                }
            }
        }
        // All-duplicates edge: one distinct scan, four identical results.
        let same = s.batch_top_k(&[5, 5, 5, 5], 3, 2).unwrap();
        assert!(same.iter().all(|r| r == &same[0]));
    }

    #[test]
    fn oversized_dimension_is_rejected_before_any_write() {
        // 0 rows x (u32::MAX + 1) cols allocates nothing but would
        // truncate the header's u32 dim field if it ever reached encode().
        let m = DenseMatrix::zeros(0, u32::MAX as usize + 1);
        let err = EmbeddingStore::new(m, PrivacyMeta::non_private(ModelVariant::Sgm)).unwrap_err();
        assert!(
            matches!(
                err,
                StoreError::LimitExceeded {
                    what: "embedding dimension",
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn fingerprint_tracks_content() {
        let a = store_of(&[&[1.0, 2.0], &[3.0, -1.0]]);
        let b = store_of(&[&[1.0, 2.0], &[3.0, -1.0]]);
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = store_of(&[&[1.0, 2.0], &[3.0, -1.0000000001]]);
        assert_ne!(a.fingerprint(), c.fingerprint());
        let d = EmbeddingStore::with_node_ids(
            DenseMatrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, -1.0]).unwrap(),
            vec![10, 11],
            PrivacyMeta::non_private(ModelVariant::Sgm),
        )
        .unwrap();
        assert_ne!(a.fingerprint(), d.fingerprint(), "id table is covered");
    }

    #[test]
    fn batch_top_k_rejects_any_bad_query_up_front() {
        let s = store_of(&[&[1.0], &[2.0]]);
        let err = s.batch_top_k(&[0, 7], 1, 1).unwrap_err();
        assert!(matches!(err, StoreError::NodeOutOfRange { node: 7, .. }));
    }

    #[test]
    fn batch_top_k_empty_queries() {
        let s = store_of(&[&[1.0]]);
        assert!(s.batch_top_k(&[], 3, 4).unwrap().is_empty());
    }

    #[test]
    fn construction_validates_parts() {
        let m = DenseMatrix::zeros(3, 0);
        assert!(matches!(
            EmbeddingStore::new(m, PrivacyMeta::non_private(ModelVariant::Sgm)),
            Err(StoreError::Invalid { .. })
        ));
        let m = DenseMatrix::zeros(3, 2);
        assert!(matches!(
            EmbeddingStore::with_node_ids(
                m,
                vec![1, 2],
                PrivacyMeta::non_private(ModelVariant::Sgm)
            ),
            Err(StoreError::Invalid { .. })
        ));
    }

    #[test]
    fn empty_store_queries_fail_typed() {
        let s = EmbeddingStore::new(
            DenseMatrix::zeros(0, 4),
            PrivacyMeta::non_private(ModelVariant::Sgm),
        )
        .unwrap();
        assert!(s.is_empty());
        assert!(matches!(
            s.top_k(0, 3),
            Err(StoreError::NodeOutOfRange { .. })
        ));
        assert!(matches!(
            s.score(0, 0),
            Err(StoreError::NodeOutOfRange { .. })
        ));
    }

    #[test]
    fn save_load_file_roundtrip() {
        let s = store_of(&[&[1.5, -2.5], &[0.25, 1e-300]]);
        let dir = std::env::temp_dir().join("advsgm_store_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.aemb");
        s.save(&path).unwrap();
        let back = EmbeddingStore::load(&path).unwrap();
        assert_eq!(back, s);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn load_missing_file_is_io_error() {
        let err = EmbeddingStore::load("/nonexistent/advsgm/nope.aemb").unwrap_err();
        assert!(matches!(err, StoreError::Io(_)));
    }
}
