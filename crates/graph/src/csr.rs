//! Compressed sparse row adjacency.
//!
//! CSR gives O(1) access to a node's neighbor slice and is the layout every
//! traversal in the workspace (negative-sample rejection, baseline message
//! passing) iterates over.

use crate::edge::Edge;
use crate::node::NodeId;

/// Compressed sparse row adjacency for an undirected simple graph.
///
/// Each undirected edge `(u, v)` appears twice: `v` in `u`'s neighbor list
/// and `u` in `v`'s. Neighbor lists are sorted, enabling binary-search
/// membership tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    /// `offsets[i]..offsets[i+1]` indexes `neighbors` for node `i`.
    offsets: Vec<usize>,
    /// Concatenated sorted neighbor lists.
    neighbors: Vec<u32>,
}

impl Csr {
    /// Builds CSR adjacency from a canonical edge list.
    ///
    /// # Panics
    /// Panics (debug assertion) if an edge endpoint is `>= num_nodes`.
    pub fn from_edges(num_nodes: usize, edges: &[Edge]) -> Self {
        let mut degree = vec![0usize; num_nodes];
        for e in edges {
            debug_assert!(e.v().index() < num_nodes, "edge endpoint out of range");
            degree[e.u().index()] += 1;
            degree[e.v().index()] += 1;
        }
        let mut offsets = Vec::with_capacity(num_nodes + 1);
        offsets.push(0usize);
        for d in &degree {
            offsets.push(offsets.last().unwrap() + d);
        }
        let mut neighbors = vec![0u32; offsets[num_nodes]];
        let mut cursor = offsets[..num_nodes].to_vec();
        for e in edges {
            let (u, v) = (e.u().index(), e.v().index());
            neighbors[cursor[u]] = e.v().0;
            cursor[u] += 1;
            neighbors[cursor[v]] = e.u().0;
            cursor[v] += 1;
        }
        // Sort each neighbor list for binary-search membership checks.
        for i in 0..num_nodes {
            neighbors[offsets[i]..offsets[i + 1]].sort_unstable();
        }
        Csr { offsets, neighbors }
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Degree of node `i`.
    #[inline]
    pub fn degree(&self, i: NodeId) -> usize {
        let i = i.index();
        self.offsets[i + 1] - self.offsets[i]
    }

    /// Sorted neighbor slice of node `i`.
    #[inline]
    pub fn neighbors(&self, i: NodeId) -> &[u32] {
        let i = i.index();
        &self.neighbors[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Whether the undirected edge `(a, b)` exists. O(log degree).
    #[inline]
    pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        // Search the shorter list.
        let (s, t) = if self.degree(a) <= self.degree(b) {
            (a, b)
        } else {
            (b, a)
        };
        self.neighbors(s).binary_search(&t.0).is_ok()
    }

    /// Total neighbor entries (= 2 |E|).
    #[inline]
    pub fn num_directed_entries(&self) -> usize {
        self.neighbors.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_plus_pendant() -> Csr {
        // 0-1, 1-2, 0-2, 2-3
        let edges = vec![
            Edge::from_raw(0, 1),
            Edge::from_raw(1, 2),
            Edge::from_raw(0, 2),
            Edge::from_raw(2, 3),
        ];
        Csr::from_edges(4, &edges)
    }

    #[test]
    fn degrees_match() {
        let c = triangle_plus_pendant();
        assert_eq!(c.degree(NodeId(0)), 2);
        assert_eq!(c.degree(NodeId(1)), 2);
        assert_eq!(c.degree(NodeId(2)), 3);
        assert_eq!(c.degree(NodeId(3)), 1);
    }

    #[test]
    fn neighbor_lists_sorted() {
        let c = triangle_plus_pendant();
        assert_eq!(c.neighbors(NodeId(2)), &[0, 1, 3]);
        assert_eq!(c.neighbors(NodeId(3)), &[2]);
    }

    #[test]
    fn has_edge_symmetric() {
        let c = triangle_plus_pendant();
        assert!(c.has_edge(NodeId(0), NodeId(2)));
        assert!(c.has_edge(NodeId(2), NodeId(0)));
        assert!(!c.has_edge(NodeId(0), NodeId(3)));
    }

    #[test]
    fn entries_count_twice_edges() {
        let c = triangle_plus_pendant();
        assert_eq!(c.num_directed_entries(), 8);
    }

    #[test]
    fn isolated_nodes_have_zero_degree() {
        let c = Csr::from_edges(3, &[Edge::from_raw(0, 1)]);
        assert_eq!(c.degree(NodeId(2)), 0);
        assert!(c.neighbors(NodeId(2)).is_empty());
    }

    #[test]
    fn empty_graph() {
        let c = Csr::from_edges(0, &[]);
        assert_eq!(c.num_nodes(), 0);
        assert_eq!(c.num_directed_entries(), 0);
    }
}
