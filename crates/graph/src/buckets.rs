//! Node-set bucketing for out-of-core partitioned training.
//!
//! The out-of-core path (DESIGN.md §14) partitions `0..|V|` into `P`
//! contiguous *buckets* so that the embedding matrices can be split into
//! `P` row blocks, only two of which (one input-role, one output-role)
//! are resident in memory at a time.
//!
//! Buckets are contiguous index ranges rather than hashed shards so that
//! the `.agph` on-disk sections (see `advsgm-store`) are defined by the
//! node id alone and the mapping needs no lookup table: with
//! `s = ceil(|V| / P)`, node `i` lives in bucket `i / s`.

use std::ops::Range;

use crate::error::GraphError;

/// A partition of the node set `0..num_nodes` into `buckets` contiguous
/// ranges of equal size `ceil(num_nodes / buckets)` (the last ranges may
/// be shorter or empty).
///
/// # Examples
/// ```
/// use advsgm_graph::buckets::NodeBuckets;
///
/// let b = NodeBuckets::new(10, 4).unwrap();
/// assert_eq!(b.bucket_size(), 3);
/// assert_eq!(b.bucket_of(0), 0);
/// assert_eq!(b.bucket_of(9), 3);
/// assert_eq!(b.range(3), 9..10);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeBuckets {
    num_nodes: usize,
    buckets: usize,
    bucket_size: usize,
}

impl NodeBuckets {
    /// Partitions `0..num_nodes` into `buckets` contiguous ranges.
    ///
    /// `buckets` may exceed `num_nodes`; trailing buckets are then empty
    /// (every node still maps to a bucket below `buckets`).
    ///
    /// # Errors
    /// [`GraphError::InvalidParameter`] when `buckets == 0`.
    pub fn new(num_nodes: usize, buckets: usize) -> Result<Self, GraphError> {
        if buckets == 0 {
            return Err(GraphError::InvalidParameter {
                name: "buckets",
                reason: "bucket count must be at least 1".into(),
            });
        }
        // `max(1)` keeps `bucket_of` well-defined for the empty node set.
        let bucket_size = num_nodes.div_ceil(buckets).max(1);
        Ok(Self {
            num_nodes,
            buckets,
            bucket_size,
        })
    }

    /// Number of nodes being partitioned.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of buckets `P`.
    #[inline]
    pub fn count(&self) -> usize {
        self.buckets
    }

    /// Nodes per bucket `ceil(num_nodes / P)` (the last buckets may hold
    /// fewer).
    #[inline]
    pub fn bucket_size(&self) -> usize {
        self.bucket_size
    }

    /// The bucket holding node `node` (callers guarantee
    /// `node < num_nodes`).
    #[inline]
    pub fn bucket_of(&self, node: usize) -> usize {
        debug_assert!(node < self.num_nodes, "node {node} out of range");
        node / self.bucket_size
    }

    /// The node-index range of bucket `b` (empty for trailing buckets when
    /// `P` does not divide the node count evenly).
    #[inline]
    pub fn range(&self, b: usize) -> Range<usize> {
        debug_assert!(b < self.buckets, "bucket {b} out of range");
        let start = (b * self.bucket_size).min(self.num_nodes);
        let end = ((b + 1) * self.bucket_size).min(self.num_nodes);
        start..end
    }

    /// Number of nodes in bucket `b`.
    #[inline]
    pub fn len_of(&self, b: usize) -> usize {
        self.range(b).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_buckets_rejected() {
        let err = NodeBuckets::new(10, 0).unwrap_err();
        assert!(matches!(err, GraphError::InvalidParameter { name, .. } if name == "buckets"));
    }

    #[test]
    fn ranges_tile_the_node_set() {
        for (n, p) in [(0, 1), (1, 1), (10, 1), (10, 3), (10, 4), (12, 4), (5, 7)] {
            let b = NodeBuckets::new(n, p).unwrap();
            let mut covered = 0;
            for k in 0..p {
                let r = b.range(k);
                assert_eq!(r.start, covered, "n={n} p={p} bucket {k}");
                covered = r.end;
                for i in r {
                    assert_eq!(b.bucket_of(i), k, "n={n} p={p} node {i}");
                }
            }
            assert_eq!(covered, n, "n={n} p={p}: ranges must tile 0..n");
        }
    }

    #[test]
    fn every_node_maps_below_bucket_count() {
        for (n, p) in [(10, 3), (10, 4), (1, 5), (120, 4), (7, 7)] {
            let b = NodeBuckets::new(n, p).unwrap();
            for i in 0..n {
                assert!(b.bucket_of(i) < p, "n={n} p={p} node {i}");
            }
        }
    }

    #[test]
    fn more_buckets_than_nodes_leaves_trailing_buckets_empty() {
        let b = NodeBuckets::new(3, 5).unwrap();
        assert_eq!(b.bucket_size(), 1);
        assert_eq!(b.len_of(0), 1);
        assert_eq!(b.len_of(2), 1);
        assert_eq!(b.len_of(3), 0);
        assert_eq!(b.len_of(4), 0);
    }

    #[test]
    fn empty_node_set_is_well_defined() {
        let b = NodeBuckets::new(0, 3).unwrap();
        assert_eq!(b.bucket_size(), 1);
        for k in 0..3 {
            assert_eq!(b.len_of(k), 0);
        }
    }
}
