//! Immutable CSR graph storage.
//!
//! The protocols in the paper run millions of neighbour lookups per
//! simulation (every migrating task samples a neighbour each round), so the
//! representation is a flat CSR layout: one `offsets` array of length
//! `n + 1` and one `neighbors` array of length `2|E|`. Neighbour lists are
//! sorted, which makes `has_edge` a binary search and keeps iteration
//! cache-friendly.

use serde::{Deserialize, Serialize};

/// Identifier of a node (resource). Kept at `u32` deliberately: Table-1
/// sweeps use up to a few million nodes and halving the index width keeps
/// the CSR arrays in cache (see the type-size guidance in the Rust
/// performance book).
pub type NodeId = u32;

/// An immutable, undirected, simple graph in CSR form.
///
/// Construct via [`crate::GraphBuilder`] or the [`crate::generators`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Graph {
    /// `offsets[v]..offsets[v+1]` indexes `neighbors` for node `v`.
    offsets: Vec<usize>,
    /// Concatenated sorted adjacency lists; length `2 * num_edges`.
    neighbors: Vec<NodeId>,
    /// Cached maximum degree (0 for the empty graph).
    max_degree: u32,
    /// Cached minimum degree (0 for the empty graph). Cached alongside
    /// `max_degree` so regularity checks (`min == max`, the batched walk
    /// kernel's fast-path gate) and isolated-node validation are `O(1)`.
    min_degree: u32,
}

impl Graph {
    /// Build directly from CSR parts with degree bounds the caller
    /// already knows. Internal — the two callers, the builder and
    /// `DynamicGraph::snapshot`, see every row's degree as they lay it
    /// out, so million-node snapshot materialization pays no second
    /// `offsets` scan per construction. Debug builds re-derive the
    /// extremes and assert.
    pub(crate) fn from_csr_with_degree_bounds(
        offsets: Vec<usize>,
        neighbors: Vec<NodeId>,
        min_degree: u32,
        max_degree: u32,
    ) -> Self {
        debug_assert!(!offsets.is_empty());
        debug_assert_eq!(*offsets.last().unwrap(), neighbors.len());
        debug_assert_eq!(
            (min_degree, max_degree),
            {
                let (mn, mx) = offsets.windows(2).fold((u32::MAX, 0), |(mn, mx), w| {
                    let d = (w[1] - w[0]) as u32;
                    (mn.min(d), mx.max(d))
                });
                (if mn == u32::MAX { 0 } else { mn }, mx)
            },
            "caller-supplied degree bounds disagree with the CSR layout"
        );
        Graph { offsets, neighbors, max_degree, min_degree }
    }

    /// Number of nodes `n`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `|E|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Degree of node `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Maximum degree `d` over all nodes — the normalizer of the paper's
    /// max-degree random walk (`P_{ij} = 1/d`).
    #[inline]
    pub fn max_degree(&self) -> u32 {
        self.max_degree
    }

    /// Minimum degree over all nodes (0 for the empty graph).
    #[inline]
    pub fn min_degree(&self) -> u32 {
        self.min_degree
    }

    /// Sorted neighbour slice of `v`.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let v = v as usize;
        &self.neighbors[self.offsets[v]..self.offsets[v + 1]]
    }

    /// The whole concatenated adjacency array (CSR values, length
    /// `2|E|`). On a `d`-regular graph every row has exactly `d` entries,
    /// so `offsets[v] = v·d` and node `v`'s neighbours are
    /// `flat[v·d .. (v+1)·d]` — the batched walk kernel uses this to skip
    /// the per-node offset loads entirely on regular graphs.
    #[inline]
    pub fn neighbors_flat(&self) -> &[NodeId] {
        &self.neighbors
    }

    /// Whether the undirected edge `(u, v)` exists. `O(log deg(u))`.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterate every undirected edge once, as ordered pairs `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        (0..self.num_nodes() as NodeId).flat_map(move |u| {
            self.neighbors(u).iter().copied().filter(move |&v| u < v).map(move |v| (u, v))
        })
    }

    /// Iterate all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        0..self.num_nodes() as NodeId
    }

    /// Sum of degrees == `2|E|` (handshake lemma; used by tests and the
    /// walk substrate to size buffers).
    pub fn degree_sum(&self) -> usize {
        self.neighbors.len()
    }

    /// `true` if the graph is `d`-regular. `O(1)` via the cached degree
    /// extremes.
    #[inline]
    pub fn is_regular(&self) -> bool {
        self.min_degree == self.max_degree
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::GraphBuilder;

    #[test]
    fn triangle_basic_accessors() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1).unwrap();
        b.add_edge(1, 2).unwrap();
        b.add_edge(0, 2).unwrap();
        let g = b.build();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.min_degree(), 2);
        assert!(g.is_regular());
        assert!(g.has_edge(0, 2));
        assert!(g.has_edge(2, 0));
        assert!(!g.has_edge(0, 0));
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.degree_sum(), 6);
    }

    #[test]
    fn edges_iterates_each_edge_once() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1).unwrap();
        b.add_edge(2, 3).unwrap();
        b.add_edge(1, 2).unwrap();
        let g = b.build();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn isolated_nodes_have_degree_zero() {
        let b = GraphBuilder::new(5);
        let g = b.build();
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
        assert!((0..5).all(|v| g.degree(v) == 0));
    }

    #[test]
    fn star_is_not_regular() {
        let mut b = GraphBuilder::new(4);
        for v in 1..4 {
            b.add_edge(0, v).unwrap();
        }
        let g = b.build();
        assert!(!g.is_regular());
        assert_eq!(g.max_degree(), 3);
        assert_eq!(g.min_degree(), 1);
    }
}
