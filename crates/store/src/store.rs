//! The in-memory embedding store and its query-serving API.
//!
//! An [`EmbeddingStore`] is the released artifact of a training run: the
//! node-vector matrix `W_in`, a row → external-node-id table, and the
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
//! lower row index, see [`advsgm_linalg::topk`]). `batch_top_k` computes
//! each query independently and reassembles results in query order, so its
//! output is **bitwise-identical at every thread count** — the serving
//! counterpart of the training engines' determinism contract
//! (DESIGN.md §7/§9).

use std::path::Path;

use advsgm_core::{AdvSgmConfig, TrainOutcome};
use advsgm_linalg::topk::top_k_rows;
use advsgm_linalg::{backend, DenseMatrix};
use advsgm_parallel::{resolve_threads, ThreadPool};

use crate::error::StoreError;
use crate::format;
use crate::meta::PrivacyMeta;

/// One neighbor returned by a top-k query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Row index in the store.
    pub node: usize,
    /// External node id from the store's id table.
    pub id: u64,
    /// Inner-product link score against the query node (Eq. 2).
    pub score: f64,
}

/// A queryable, persistable embedding matrix with privacy provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct EmbeddingStore {
    vectors: DenseMatrix,
    node_ids: Vec<u64>,
    meta: PrivacyMeta,
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

    /// The row → external-node-id table.
    pub fn node_ids(&self) -> &[u64] {
        &self.node_ids
    }

    /// The underlying embedding matrix.
    pub fn matrix(&self) -> &DenseMatrix {
        &self.vectors
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
        for &v in self.vectors.as_slice() {
            fold(v.to_bits());
        }
        h
    }

    /// The embedding of row `node`.
    ///
    /// # Errors
    /// [`StoreError::NodeOutOfRange`] for rows the store does not hold.
    pub fn vector(&self, node: usize) -> Result<&[f64], StoreError> {
        if node >= self.len() {
            return Err(StoreError::NodeOutOfRange {
                node,
                num_nodes: self.len(),
            });
        }
        Ok(self.vectors.row(node))
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
    /// sorted by `(score desc, row asc)`. Fewer than `k` come back when
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
        top_k_rows(&self.vectors, self.vectors.row(u), k, Some(u))
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

    /// Writes the store to a file atomically enough for a single writer:
    /// the bytes are fully serialised (checksum included) before the file
    /// is created.
    ///
    /// # Errors
    /// I/O failures.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), StoreError> {
        std::fs::write(path, self.to_bytes())?;
        Ok(())
    }

    /// Loads a store from an `.aemb` file.
    ///
    /// # Errors
    /// I/O failures plus everything [`Self::from_bytes`] reports.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        Self::from_bytes(&std::fs::read(path)?)
    }

    /// Loads a store and additionally requires its embedding dimension to
    /// equal `dim` — the guard for consumers compiled against a fixed
    /// layout.
    ///
    /// # Errors
    /// [`StoreError::DimMismatch`] on top of everything [`Self::load`]
    /// reports.
    pub fn load_expecting(path: impl AsRef<Path>, dim: usize) -> Result<Self, StoreError> {
        let store = Self::load(path)?;
        if store.dim() != dim {
            return Err(StoreError::DimMismatch {
                expected: dim,
                found: store.dim(),
            });
        }
        Ok(store)
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
    fn save_load_file_roundtrip_and_dim_guard() {
        let s = store_of(&[&[1.5, -2.5], &[0.25, 1e-300]]);
        let dir = std::env::temp_dir().join("advsgm_store_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.aemb");
        s.save(&path).unwrap();
        let back = EmbeddingStore::load(&path).unwrap();
        assert_eq!(back, s);
        assert!(EmbeddingStore::load_expecting(&path, 2).is_ok());
        assert!(matches!(
            EmbeddingStore::load_expecting(&path, 128),
            Err(StoreError::DimMismatch {
                expected: 128,
                found: 2
            })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn load_missing_file_is_io_error() {
        let err = EmbeddingStore::load("/nonexistent/advsgm/nope.aemb").unwrap_err();
        assert!(matches!(err, StoreError::Io(_)));
    }
}
