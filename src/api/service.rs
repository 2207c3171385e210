//! The long-lived query-serving handle over a released embedding store.
//!
//! [`EmbeddingService`] wraps an [`EmbeddingStore`] together with an
//! owned worker pool, so a serving loop pays thread spawns once and
//! answers every query — Eq.-2 pair scores, top-k neighbors, batched
//! top-k — from then on. All of it is post-processing of the released
//! matrix (the paper's Theorem 5): the privacy stamp the service reports
//! is the complete cost no matter how many queries run, and batched
//! results are bitwise-identical at every pool width.

use std::path::Path;
use std::sync::Mutex;

use advsgm_parallel::{resolve_threads, ThreadPool};
use advsgm_store::{EmbeddingStore, IndexParams, IvfIndex, Neighbor, PrivacyMeta, SearchResult};

use crate::api::error::Result;

/// A query-serving handle: the released store plus an owned worker pool.
///
/// # Examples
/// ```
/// use advsgm::api::{EmbeddingService, ModelVariant, PipelineBuilder};
/// use advsgm::graph::generators::classic::karate_club;
///
/// let graph = karate_club();
/// let dir = std::env::temp_dir().join("advsgm_api_service_doc");
/// std::fs::create_dir_all(&dir)?;
/// let path = dir.join("doc.aemb");
///
/// PipelineBuilder::test_small(ModelVariant::AdvSgm)
///     .build(&graph)?
///     .train()?
///     .save_embeddings(&path)?;
///
/// let service = EmbeddingService::open(&path)?;
/// println!("released under: {}", service.privacy());
/// let score = service.score(0, 33)?;
/// assert!(score.is_finite());
/// let top = service.top_k(0, 5)?;
/// assert_eq!(top.len(), 5);
/// let batched = service.batch_top_k(&[0, 33], 5)?;
/// assert_eq!(batched[0], top, "batched serving matches single-query");
/// # std::fs::remove_file(&path)?;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct EmbeddingService {
    store: EmbeddingStore,
    /// Resolved worker width; the pool itself is built on the first
    /// batched query or index build, so single-query and metadata-only
    /// consumers (e.g. `advsgm info`) never spawn threads.
    /// Interior-mutable so the whole query surface takes `&self` (a
    /// shared service handle can serve).
    threads: usize,
    pool: Mutex<Option<ThreadPool>>,
    /// Optional ANN index for sublinear approximate queries and pruned
    /// exact ones at the dial's exact point; validated against the
    /// store's fingerprint when attached. `top_k` and `batch_top_k`
    /// never consult it.
    index: Option<IvfIndex>,
}

impl std::fmt::Debug for EmbeddingService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EmbeddingService")
            .field("nodes", &self.store.len())
            .field("dim", &self.store.dim())
            .field("privacy", self.store.meta())
            .field("pool_threads", &self.threads)
            .finish()
    }
}

impl EmbeddingService {
    /// Loads an `.aemb` file (checksum-verified) and stands up a serving
    /// handle with the worker width auto-resolved (`ADVSGM_THREADS` if
    /// set, else 1).
    ///
    /// # Errors
    /// [`Error`](crate::api::Error) wrapping I/O failures and every
    /// typed corruption mode of the format.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        Ok(Self::from_store(EmbeddingStore::load(path)?))
    }

    /// [`EmbeddingService::open`] with an explicit worker width
    /// (`0` = auto). Width never changes results, only latency: batched
    /// serving is bitwise thread-count-invariant.
    ///
    /// # Errors
    /// See [`EmbeddingService::open`].
    pub fn open_with_threads(path: impl AsRef<Path>, threads: usize) -> Result<Self> {
        Ok(Self::with_threads(EmbeddingStore::load(path)?, threads))
    }

    /// Wraps an in-memory store with the worker width auto-resolved.
    pub fn from_store(store: EmbeddingStore) -> Self {
        Self::with_threads(store, 0)
    }

    /// Wraps an in-memory store with an explicit worker width
    /// (`0` = auto, resolved here so `ADVSGM_THREADS` is read once at
    /// construction). Worker threads spawn lazily on the first
    /// [`EmbeddingService::batch_top_k`] or
    /// [`EmbeddingService::build_index`] call.
    pub fn with_threads(store: EmbeddingStore, threads: usize) -> Self {
        Self {
            threads: resolve_threads(threads),
            pool: Mutex::new(None),
            store,
            index: None,
        }
    }

    /// [`EmbeddingService::open_with_threads`] plus an `.aidx` ANN index
    /// loaded alongside and validated against the store (fingerprint,
    /// shape). The result serves approximate queries sublinearly, and
    /// [`EmbeddingService::top_k_approx`]'s exact point through the
    /// index's pruned exact mode; `top_k` stays the full scan.
    ///
    /// # Errors
    /// Everything [`EmbeddingService::open`] reports, the index format's
    /// typed corruption modes, and
    /// [`StoreError::IndexStoreMismatch`](advsgm_store::StoreError::IndexStoreMismatch)
    /// when the index was built from a different release.
    pub fn open_indexed(
        store_path: impl AsRef<Path>,
        index_path: impl AsRef<Path>,
        threads: usize,
    ) -> Result<Self> {
        let mut service = Self::open_with_threads(store_path, threads)?;
        service.attach_index(IvfIndex::load(index_path)?)?;
        Ok(service)
    }

    /// Attaches a prebuilt ANN index after validating it belongs to the
    /// served store (the `O(n·r)` fingerprint pass, and the derivation of
    /// the geometry exact mode prunes with, run once, here — not per
    /// query).
    ///
    /// # Errors
    /// [`StoreError::IndexStoreMismatch`](advsgm_store::StoreError::IndexStoreMismatch)
    /// when shape or fingerprint disagree.
    pub fn attach_index(&mut self, index: IvfIndex) -> Result<()> {
        index.validate_for(&self.store)?;
        self.index = Some(index);
        Ok(())
    }

    /// Builds an ANN index from the served store (Theorem-5
    /// post-processing; no privacy cost) on the service's pool and
    /// attaches it. The index bytes do not depend on the pool width.
    ///
    /// # Errors
    /// See [`IvfIndex::build`].
    pub fn build_index(&mut self, params: IndexParams) -> Result<&IvfIndex> {
        let pool = self
            .pool
            .get_mut()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get_or_insert_with(|| ThreadPool::new(self.threads));
        let index = IvfIndex::build_in(&self.store, params, pool)?;
        self.index = Some(index);
        Ok(self.index.as_ref().expect("just attached"))
    }

    /// The attached ANN index, if any.
    pub fn index(&self) -> Option<&IvfIndex> {
        self.index.as_ref()
    }

    /// Number of served nodes.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether the service holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Embedding dimension `r`.
    pub fn dim(&self) -> usize {
        self.store.dim()
    }

    /// The privacy stamp the release carries: variant and, for private
    /// variants, the spent `(epsilon, delta)` and `sigma`.
    pub fn privacy(&self) -> &PrivacyMeta {
        self.store.meta()
    }

    /// Eq. 2's link score `<v_u, v_v>`.
    ///
    /// # Errors
    /// [`Error::Store`](crate::api::Error::Store) for rows the store
    /// does not hold.
    pub fn score(&self, u: usize, v: usize) -> Result<f64> {
        Ok(self.store.score(u, v)?)
    }

    /// The `k` highest-scoring neighbors of `u` (self excluded), sorted
    /// by `(score desc, row asc)`. Always the full scan, the reference
    /// exact answers are tested against; `top_k_approx(u, k, 1.0)` gives
    /// the same bits through an attached index.
    ///
    /// # Errors
    /// [`Error::Store`](crate::api::Error::Store) for rows the store
    /// does not hold.
    pub fn top_k(&self, u: usize, k: usize) -> Result<Vec<Neighbor>> {
        Ok(self.store.top_k(u, k)?)
    }

    /// [`EmbeddingService::top_k`] for many query nodes at once, spread
    /// over the service's pool (spawned on the first call, then reused;
    /// concurrent callers serialise on it). Results are assembled in
    /// query order and are bitwise-identical at every pool width.
    ///
    /// # Errors
    /// [`Error::Store`](crate::api::Error::Store) if *any* query row is
    /// out of range (checked up front; no partial results).
    pub fn batch_top_k(&self, queries: &[usize], k: usize) -> Result<Vec<Vec<Neighbor>>> {
        // A poisoned lock only means a previous batch panicked; the pool
        // cache itself stays usable.
        let mut guard = self
            .pool
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let pool = guard.get_or_insert_with(|| ThreadPool::new(self.threads));
        Ok(self.store.batch_top_k_in(queries, k, pool)?)
    }

    /// Approximate top-k through the attached ANN index: probes the
    /// clusters the build-time calibration says reach `recall_target`,
    /// scanning a fraction of the store instead of all of it.
    ///
    /// `recall_target >= 1.0` is the dial's exact point: the answer is
    /// bitwise [`EmbeddingService::top_k`]'s. With an index attached it
    /// comes from the index's bound-pruned exact mode, which scores only
    /// the clusters that can hold a top-`k` row and takes the full scan
    /// where that bound cannot prune; with no index, every target gets
    /// the full scan. So the call is always answerable.
    ///
    /// # Errors
    /// [`Error::Store`](crate::api::Error::Store) for rows the store does
    /// not hold.
    pub fn top_k_approx(&self, u: usize, k: usize, recall_target: f64) -> Result<Vec<Neighbor>> {
        Ok(self.top_k_approx_with_stats(u, k, recall_target)?.neighbors)
    }

    /// [`EmbeddingService::top_k_approx`] keeping the search statistics
    /// ([`SearchResult::rows_scanned`]) — the bench harness and recall
    /// tests read the scan fraction from here.
    ///
    /// # Errors
    /// See [`EmbeddingService::top_k_approx`].
    pub fn top_k_approx_with_stats(
        &self,
        u: usize,
        k: usize,
        recall_target: f64,
    ) -> Result<SearchResult> {
        match &self.index {
            Some(index) => {
                // At or past 1.0, `nprobe_for` gives `nlist`: exact mode.
                let nprobe = index.nprobe_for(recall_target);
                Ok(index.search(&self.store, u, k, nprobe)?)
            }
            None => Ok(SearchResult {
                neighbors: self.store.top_k(u, k)?,
                rows_scanned: self.store.len().saturating_sub(1),
            }),
        }
    }

    /// Persists the served store as an `.aemb` file (bitwise-exact
    /// roundtrip).
    ///
    /// # Errors
    /// [`Error::Store`](crate::api::Error::Store) on I/O failures.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        Ok(self.store.save(path)?)
    }

    /// The wrapped store (internals escape hatch).
    pub fn store(&self) -> &EmbeddingStore {
        &self.store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use advsgm_core::ModelVariant;
    use advsgm_linalg::DenseMatrix;

    fn service() -> EmbeddingService {
        let m = DenseMatrix::from_fn(20, 4, |i, j| ((i * 7 + j * 3) as f64 * 0.17).sin());
        let store = EmbeddingStore::new(m, PrivacyMeta::non_private(ModelVariant::Sgm)).unwrap();
        EmbeddingService::with_threads(store, 2)
    }

    #[test]
    fn queries_match_the_store() {
        let s = service();
        assert_eq!(s.len(), 20);
        assert_eq!(s.dim(), 4);
        assert!(!s.is_empty());
        assert!(!s.privacy().is_private());
        let solo = s.top_k(3, 5).unwrap();
        assert_eq!(solo, s.store().top_k(3, 5).unwrap());
        let batched = s.batch_top_k(&[3, 7], 5).unwrap();
        assert_eq!(batched[0], solo);
        assert_eq!(
            s.score(1, 2).unwrap().to_bits(),
            s.store().score(1, 2).unwrap().to_bits()
        );
    }

    #[test]
    fn out_of_range_queries_are_typed_errors() {
        let s = service();
        assert!(s.score(0, 99).is_err());
        assert!(s.top_k(99, 3).is_err());
        assert!(s.batch_top_k(&[0, 99], 3).is_err());
    }

    #[test]
    fn open_missing_file_reports_the_store_layer() {
        let err = EmbeddingService::open("/nonexistent/advsgm/nope.aemb").unwrap_err();
        assert!(err.to_string().starts_with("store: "), "{err}");
    }

    #[test]
    fn approx_without_index_is_the_exact_scan() {
        let s = service();
        let approx = s.top_k_approx(3, 5, 0.9).unwrap();
        let exact = s.top_k(3, 5).unwrap();
        assert_eq!(approx, exact);
        let stats = s.top_k_approx_with_stats(3, 5, 0.9).unwrap();
        assert_eq!(stats.rows_scanned, s.len() - 1);
    }

    #[test]
    fn approx_with_index_serves_and_exact_target_matches_top_k() {
        let mut s = service();
        s.build_index(IndexParams {
            nlist: 4,
            ..IndexParams::default()
        })
        .unwrap();
        assert!(s.index().is_some());
        // recall_target >= 1.0 is exact mode: bitwise the full scan.
        let exact = s.top_k_approx(3, 5, 1.0).unwrap();
        let reference = s.top_k(3, 5).unwrap();
        assert_eq!(exact.len(), reference.len());
        for (a, b) in exact.iter().zip(&reference) {
            assert_eq!(a.node, b.node);
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
    }

    #[test]
    fn foreign_index_is_rejected_at_attach() {
        let mut s = service();
        let other = {
            let m = DenseMatrix::from_fn(20, 4, |i, j| ((i * 5 + j) as f64 * 0.23).cos());
            EmbeddingStore::new(m, PrivacyMeta::non_private(ModelVariant::Sgm)).unwrap()
        };
        let foreign = IvfIndex::build(&other, IndexParams::default()).unwrap();
        let err = s.attach_index(foreign).unwrap_err();
        assert!(err.to_string().contains("does not match"), "{err}");
        assert!(s.index().is_none());
    }
}
