//! Bounded top-k selection over row scores.
//!
//! The inference-side counterpart of the training kernels: a trained
//! embedding matrix answers "which `k` nodes score highest against this
//! query?" (link prediction and neighbor serving — the paper's Fig. 3 /
//! Table 5 workload, run online). Scoring is a dense scan — one inner
//! product per row, 16 rows per call of the dispatched
//! [`crate::backend::dot16`] ([`score_rows`]) — and selection keeps a
//! bounded binary min-heap of size `k`, so a query over `n` rows costs
//! `O(n r)` multiplies and `O(n log k)` comparisons with no `O(n)` score
//! buffer.
//!
//! Determinism contract: results depend only on the scores. Ties break
//! toward the **lower row index**, and the returned list is sorted by
//! `(score desc, index asc)`, so callers (including the parallel
//! `batch_top_k` in `advsgm-store`) can compare result lists across thread
//! counts bitwise.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::backend;
use crate::matrix::DenseMatrix;

#[cfg(test)]
use crate::vector;

/// One scored row: the output unit of a top-k query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredIndex {
    /// Row index in the scanned matrix.
    pub index: usize,
    /// The row's score (inner product against the query).
    pub score: f64,
}

/// Min-heap entry ordered by `(score, Reverse(index))` under total order,
/// so the heap root is always the *weakest* kept candidate and ties evict
/// the higher index first.
#[derive(Debug, Clone, Copy)]
struct HeapEntry(ScoredIndex);

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the root is the entry we
        // want to evict first: lowest score, then highest index.
        other
            .0
            .score
            .total_cmp(&self.0.score)
            .then_with(|| self.0.index.cmp(&other.0.index))
    }
}

/// A bounded top-k accumulator: keeps the `k` highest-scoring indices seen
/// so far, evicting the weakest entry once full.
///
/// # Examples
/// ```
/// use advsgm_linalg::topk::TopK;
///
/// let mut top = TopK::new(2);
/// for (i, s) in [0.5, 2.0, 1.0, 2.0].iter().enumerate() {
///     top.push(i, *s);
/// }
/// let out = top.into_sorted();
/// // Ties break toward the lower index: row 1 beats row 3 at score 2.0.
/// assert_eq!(out.iter().map(|e| e.index).collect::<Vec<_>>(), vec![1, 3]);
/// ```
#[derive(Debug, Clone)]
pub struct TopK {
    k: usize,
    heap: BinaryHeap<HeapEntry>,
}

impl TopK {
    /// Creates an accumulator keeping the best `k` entries (`k = 0` keeps
    /// nothing and every push is a no-op).
    pub fn new(k: usize) -> Self {
        Self {
            k,
            heap: BinaryHeap::with_capacity(k.saturating_add(1)),
        }
    }

    /// Offers one `(index, score)` candidate.
    #[inline]
    pub fn push(&mut self, index: usize, score: f64) {
        if self.k == 0 {
            return;
        }
        let entry = HeapEntry(ScoredIndex { index, score });
        if self.heap.len() < self.k {
            self.heap.push(entry);
        } else if let Some(weakest) = self.heap.peek() {
            // Replace the root only if the candidate strictly beats it
            // under the same (score, index) order the heap uses.
            if entry.cmp(weakest) == Ordering::Less {
                self.heap.pop();
                self.heap.push(entry);
            }
        }
    }

    /// Scores `query` against each listed row of `matrix` except `skip`
    /// and offers it, through [`score_rows`], so every score is bit for
    /// bit the one [`top_k_rows`] computes for that row.
    ///
    /// # Panics
    /// Panics if `query.len() != matrix.cols()` or a listed row is out of
    /// range.
    pub fn push_rows<I>(
        &mut self,
        matrix: &DenseMatrix,
        query: &[f64],
        rows: I,
        skip: Option<usize>,
    ) where
        I: IntoIterator<Item = usize>,
    {
        score_rows(matrix, query, rows, |row, score| {
            if Some(row) != skip {
                self.push(row, score);
            }
        });
    }

    /// Number of entries currently kept.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether nothing has been kept.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The k-th best entry kept so far — the weakest, which a new
    /// candidate must beat under the `(score desc, index asc)` order —
    /// once `k` entries are held; `None` before that, and always for
    /// `k = 0`.
    pub fn kth(&self) -> Option<ScoredIndex> {
        if self.k > 0 && self.heap.len() == self.k {
            self.heap.peek().map(|e| e.0)
        } else {
            None
        }
    }

    /// Consumes the accumulator, returning entries sorted by
    /// `(score desc, index asc)`.
    pub fn into_sorted(self) -> Vec<ScoredIndex> {
        let mut out: Vec<ScoredIndex> = self.heap.into_iter().map(|e| e.0).collect();
        out.sort_by(|a, b| {
            b.score
                .total_cmp(&a.score)
                .then_with(|| a.index.cmp(&b.index))
        });
        out
    }
}

/// Scores `query` against each listed row of `matrix`, in list order,
/// and hands `visit` each `(row, score)`.
///
/// Rows go through the dispatched [`backend::dot16`] 16 at a time. A
/// short last group repeats its last row to fill the kernel's lanes, and
/// the extra lanes' scores are dropped. Every lane of `dot16` is bitwise
/// [`backend::dot`]`(query, row)`, so a row's score does not depend on
/// the list it came in or on its place in a group.
///
/// # Panics
/// Panics if `query.len() != matrix.cols()` or a listed row is out of
/// range.
pub fn score_rows<I, F>(matrix: &DenseMatrix, query: &[f64], rows: I, mut visit: F)
where
    I: IntoIterator<Item = usize>,
    F: FnMut(usize, f64),
{
    let mut rows = rows.into_iter();
    let mut group = [0usize; 16];
    loop {
        let mut held = 0;
        for row in rows.by_ref().take(16) {
            group[held] = row;
            held += 1;
        }
        if held == 0 {
            return;
        }
        let last = group[held - 1];
        group[held..].fill(last);
        let lanes: [&[f64]; 16] = std::array::from_fn(|l| matrix.row(group[l]));
        let scores = backend::dot16(query, &lanes);
        for (&row, score) in group[..held].iter().zip(scores) {
            visit(row, score);
        }
        if held < 16 {
            return;
        }
    }
}

/// Scores `query` against every row of `matrix` (inner product, 16 rows
/// per call of the dispatched [`backend::dot16`], see [`score_rows`]) and
/// returns the top `k` rows, excluding `exclude` when given (the self-row
/// of a neighbor query).
///
/// Returned entries are sorted by `(score desc, index asc)`; fewer than `k`
/// entries come back when the matrix has fewer eligible rows.
///
/// # Panics
/// Panics if `query.len() != matrix.cols()`.
///
/// # Examples
/// ```
/// use advsgm_linalg::matrix::DenseMatrix;
/// use advsgm_linalg::topk::top_k_rows;
///
/// let m = DenseMatrix::from_vec(3, 2, vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0]).unwrap();
/// let top = top_k_rows(&m, &[1.0, 0.0], 2, Some(0));
/// assert_eq!(top[0].index, 2); // [1,1] scores 1.0
/// assert_eq!(top[1].index, 1); // [0,1] scores 0.0
/// ```
pub fn top_k_rows(
    matrix: &DenseMatrix,
    query: &[f64],
    k: usize,
    exclude: Option<usize>,
) -> Vec<ScoredIndex> {
    assert_eq!(
        query.len(),
        matrix.cols(),
        "top_k_rows: query length {} != matrix cols {}",
        query.len(),
        matrix.cols()
    );
    let mut top = TopK::new(k);
    top.push_rows(matrix, query, 0..matrix.rows(), exclude);
    top.into_sorted()
}

/// [`top_k_rows`] restricted to an explicit candidate set: scores `query`
/// against only the listed `rows` and returns the top `k` of them,
/// excluding `exclude` when given.
///
/// This is the scan kernel of cluster-pruned (IVF-style) approximate
/// retrieval: an index nominates a subset of rows and this function ranks
/// them. Rows are scored through [`TopK::push_rows`], 16 listed rows per
/// [`backend::dot16`] call, which gives each row bit for bit the score
/// the full scan gives it (see [`score_rows`]), so a candidate set
/// covering **every** row yields a result bitwise-identical to
/// `top_k_rows` — top-k selection under the total `(score desc, index
/// asc)` order does not depend on scan order.
///
/// The candidate set is expected to list each row at most once (an IVF
/// index's clusters partition the rows, so this holds by construction); a
/// duplicated row may occupy more than one result slot. Out-of-range rows
/// panic like [`DenseMatrix::row`].
///
/// # Panics
/// Panics if `query.len() != matrix.cols()` or a listed row is out of
/// range.
///
/// # Examples
/// ```
/// use advsgm_linalg::matrix::DenseMatrix;
/// use advsgm_linalg::topk::{top_k_rows, top_k_rows_among};
///
/// let m = DenseMatrix::from_vec(3, 2, vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0]).unwrap();
/// // A candidate set covering every row reproduces the full scan.
/// let full = top_k_rows(&m, &[1.0, 0.0], 2, Some(0));
/// let among = top_k_rows_among(&m, &[1.0, 0.0], 2, 0..3, Some(0));
/// assert_eq!(full, among);
/// ```
pub fn top_k_rows_among<I>(
    matrix: &DenseMatrix,
    query: &[f64],
    k: usize,
    rows: I,
    exclude: Option<usize>,
) -> Vec<ScoredIndex>
where
    I: IntoIterator<Item = usize>,
{
    assert_eq!(
        query.len(),
        matrix.cols(),
        "top_k_rows_among: query length {} != matrix cols {}",
        query.len(),
        matrix.cols()
    );
    let mut top = TopK::new(k);
    top.push_rows(matrix, query, rows, exclude);
    top.into_sorted()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix_from_rows(rows: &[&[f64]]) -> DenseMatrix {
        let cols = rows[0].len();
        let data: Vec<f64> = rows.iter().flat_map(|r| r.iter().copied()).collect();
        DenseMatrix::from_vec(rows.len(), cols, data).unwrap()
    }

    /// Reference: full sort of all eligible scores.
    fn brute_force(
        matrix: &DenseMatrix,
        query: &[f64],
        k: usize,
        exclude: Option<usize>,
    ) -> Vec<ScoredIndex> {
        let mut all: Vec<ScoredIndex> = (0..matrix.rows())
            .filter(|&i| Some(i) != exclude)
            .map(|i| ScoredIndex {
                index: i,
                score: vector::dot(query, matrix.row(i)),
            })
            .collect();
        all.sort_by(|a, b| {
            b.score
                .total_cmp(&a.score)
                .then_with(|| a.index.cmp(&b.index))
        });
        all.truncate(k);
        all
    }

    #[test]
    fn matches_brute_force_on_awkward_sizes() {
        // Sizes straddling the 16-row group boundary.
        for n in [1usize, 3, 4, 5, 15, 16, 17, 31, 32, 33] {
            let m = DenseMatrix::from_fn(n, 6, |i, j| ((i * 7 + j * 3) as f64 * 0.37).sin());
            let q: Vec<f64> = (0..6).map(|j| (j as f64 + 0.5).cos()).collect();
            for k in [0usize, 1, 2, n, n + 3] {
                for exclude in [None, Some(0), Some(n - 1)] {
                    let fast = top_k_rows(&m, &q, k, exclude);
                    let slow = brute_force(&m, &q, k, exclude);
                    assert_eq!(fast.len(), slow.len(), "n={n} k={k}");
                    for (f, s) in fast.iter().zip(&slow) {
                        assert_eq!(f.index, s.index, "n={n} k={k} exclude={exclude:?}");
                        assert_eq!(f.score.to_bits(), s.score.to_bits());
                    }
                }
            }
        }
    }

    /// With n = 16k+1 rows the tail row is scored in a group padded with
    /// copies of itself — its score (and the resulting neighbor list)
    /// must be bitwise-identical to scanning the 16k-row prefix plus
    /// scoring the tail row alone.
    #[test]
    fn remainder_row_matches_prefix_plus_tail() {
        let n = 16 * 2 + 1; // 33 rows: 2 full groups + 1 padded group
        let dim = 9;
        let m = DenseMatrix::from_fn(n, dim, |i, j| ((i * 13 + j * 5) as f64 * 0.29).sin());
        let q: Vec<f64> = (0..dim).map(|j| (j as f64 * 0.61).cos()).collect();
        let k = n; // keep every score so all rows are compared bitwise

        let full = top_k_rows(&m, &q, k, None);

        // 16k-row prefix scanned on its own...
        let prefix = DenseMatrix::from_fn(n - 1, dim, |i, j| m.row(i)[j]);
        let mut expected = top_k_rows(&prefix, &q, k, None);
        // ...plus the tail row scored alone through the dispatched dot.
        expected.push(ScoredIndex {
            index: n - 1,
            score: backend::dot(&q, m.row(n - 1)),
        });
        expected.sort_by(|a, b| {
            b.score
                .total_cmp(&a.score)
                .then_with(|| a.index.cmp(&b.index))
        });

        assert_eq!(full.len(), expected.len());
        for (f, e) in full.iter().zip(&expected) {
            assert_eq!(f.index, e.index);
            assert_eq!(f.score.to_bits(), e.score.to_bits());
        }
    }

    #[test]
    fn ties_break_toward_lower_index() {
        let m = matrix_from_rows(&[&[1.0], &[1.0], &[1.0], &[2.0], &[1.0]]);
        let top = top_k_rows(&m, &[1.0], 3, None);
        assert_eq!(
            top.iter().map(|e| e.index).collect::<Vec<_>>(),
            vec![3, 0, 1]
        );
    }

    #[test]
    fn kth_is_the_weakest_kept_entry_once_full() {
        let mut top = TopK::new(3);
        assert_eq!(top.kth(), None);
        for (i, s) in [2.0, 5.0].into_iter().enumerate() {
            top.push(i, s);
        }
        assert_eq!(top.kth(), None, "two of three kept");
        top.push(2, 2.0);
        // Tied at 2.0, the higher index is the weaker entry.
        assert_eq!(
            top.kth(),
            Some(ScoredIndex {
                index: 2,
                score: 2.0
            })
        );
        top.push(3, 4.0);
        assert_eq!(
            top.kth(),
            Some(ScoredIndex {
                index: 0,
                score: 2.0
            })
        );
        // A tie at the k-th score with a higher index is not admitted.
        top.push(9, 2.0);
        assert_eq!(
            top.kth(),
            Some(ScoredIndex {
                index: 0,
                score: 2.0
            })
        );

        let mut none = TopK::new(0);
        none.push(0, 1.0);
        assert_eq!(none.kth(), None);
    }

    #[test]
    fn exclude_removes_self_row() {
        let m = matrix_from_rows(&[&[5.0], &[1.0], &[3.0]]);
        let top = top_k_rows(&m, &[1.0], 3, Some(0));
        assert_eq!(top.iter().map(|e| e.index).collect::<Vec<_>>(), vec![2, 1]);
    }

    #[test]
    fn k_zero_and_empty_matrix() {
        let m = matrix_from_rows(&[&[1.0, 2.0]]);
        assert!(top_k_rows(&m, &[1.0, 1.0], 0, None).is_empty());
        let empty = DenseMatrix::zeros(0, 2);
        assert!(top_k_rows(&empty, &[1.0, 1.0], 5, None).is_empty());
    }

    #[test]
    fn negative_and_nonfinite_scores_order_totally() {
        // total_cmp gives NaN a fixed position; the heap must not panic
        // and ordering must stay deterministic.
        let m = matrix_from_rows(&[&[f64::NAN], &[-1.0], &[f64::INFINITY], &[0.0]]);
        let a = top_k_rows(&m, &[1.0], 4, None);
        let b = top_k_rows(&m, &[1.0], 4, None);
        let idx: Vec<usize> = a.iter().map(|e| e.index).collect();
        assert_eq!(idx, b.iter().map(|e| e.index).collect::<Vec<_>>());
        // +inf first; NaN sorts above +inf under total_cmp's descending order.
        assert_eq!(idx, vec![0, 2, 3, 1]);
    }

    #[test]
    #[should_panic(expected = "query length")]
    fn query_dim_mismatch_panics() {
        top_k_rows(&DenseMatrix::zeros(2, 3), &[1.0], 1, None);
    }

    #[test]
    fn among_full_coverage_is_bitwise_equal_to_full_scan() {
        // Any enumeration order of a full candidate set must reproduce the
        // fused full scan exactly — including NaN/inf rows and ties.
        let mut m = DenseMatrix::from_fn(17, 5, |i, j| ((i * 11 + j * 3) as f64 * 0.29).sin());
        m.set(3, 0, f64::NAN);
        m.set(8, 2, f64::INFINITY);
        m.set(12, 1, f64::NEG_INFINITY);
        let q: Vec<f64> = (0..5).map(|j| (j as f64 * 0.61).cos()).collect();
        for k in [0usize, 1, 4, 17, 30] {
            for exclude in [None, Some(3), Some(16)] {
                let full = top_k_rows(&m, &q, k, exclude);
                let fwd = top_k_rows_among(&m, &q, k, 0..17, exclude);
                let rev = top_k_rows_among(&m, &q, k, (0..17).rev(), exclude);
                assert_eq!(full.len(), fwd.len());
                assert_eq!(fwd.len(), rev.len());
                for ((a, b), c) in full.iter().zip(&fwd).zip(&rev) {
                    assert_eq!(a.index, b.index, "k={k} exclude={exclude:?}");
                    assert_eq!(a.score.to_bits(), b.score.to_bits());
                    // NaN scores defeat PartialEq; scan-order invariance
                    // must hold bitwise.
                    assert_eq!(b.index, c.index, "scan order must not matter");
                    assert_eq!(b.score.to_bits(), c.score.to_bits());
                }
            }
        }
    }

    #[test]
    fn push_rows_in_uneven_lists_matches_the_full_scan() {
        // Lists short of, at and across the 16-row group (so full groups
        // and padded ones alternate), in a shuffled row order, as exact
        // mode visits cluster lists.
        let n = 105;
        let m = DenseMatrix::from_fn(n, 7, |i, j| ((i * 5 + j * 11) as f64 * 0.43).sin());
        let q: Vec<f64> = (0..7).map(|j| (j as f64 * 0.37).cos()).collect();
        let order: Vec<usize> = (0..n).map(|i| i * 11 % n).collect();
        for k in [1usize, 6, 23, n] {
            let mut top = TopK::new(k);
            let mut at = 0;
            for len in [3usize, 0, 5, 4, 1, 2, 5, 3, 15, 16, 0, 17, 1, 33] {
                top.push_rows(&m, &q, order[at..at + len].iter().copied(), Some(9));
                at += len;
            }
            assert_eq!(at, n);
            let got = top.into_sorted();
            let want = top_k_rows(&m, &q, k, Some(9));
            assert_eq!(got.len(), want.len());
            for (a, b) in got.iter().zip(&want) {
                assert_eq!(a.index, b.index, "k={k}");
                assert_eq!(a.score.to_bits(), b.score.to_bits());
            }
        }
    }

    #[test]
    fn among_subset_ranks_only_listed_rows() {
        let m = matrix_from_rows(&[&[5.0], &[4.0], &[3.0], &[2.0], &[1.0]]);
        let top = top_k_rows_among(&m, &[1.0], 2, [4, 2, 3], None);
        assert_eq!(top.iter().map(|e| e.index).collect::<Vec<_>>(), vec![2, 3]);
        // Exclusion applies inside the subset too.
        let top = top_k_rows_among(&m, &[1.0], 2, [4, 2, 3], Some(2));
        assert_eq!(top.iter().map(|e| e.index).collect::<Vec<_>>(), vec![3, 4]);
    }

    #[test]
    #[should_panic(expected = "query length")]
    fn among_query_dim_mismatch_panics() {
        top_k_rows_among(&DenseMatrix::zeros(2, 3), &[1.0], 1, 0..2, None);
    }
}
