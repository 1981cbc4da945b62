//! Node churn over an immutable CSR [`Graph`].
//!
//! In the online simulation resources leave and rejoin while the
//! protocols keep running, but the graph `G` they sit on is fixed: tasks
//! migrate only along its edges (Section 4 of the paper). [`DynamicGraph`]
//! is therefore the base CSR plus an **active mask**. A deactivated node
//! (a drained rack, a failed resource) keeps its edges in the base; they
//! are merely hidden, so the node can be reactivated with its
//! neighbourhood intact.
//!
//! The *effective* graph at any moment is the base restricted to edges
//! whose two endpoints are both active. [`DynamicGraph::snapshot`]
//! materializes exactly that graph as a CSR [`Graph`] (inactive nodes stay
//! in the id space as isolated nodes, so task locations remain valid);
//! this is what the walk kernels consume.

use crate::error::GraphError;
use crate::graph::{Graph, NodeId};
use serde::{Deserialize, Serialize};

/// A serializable description of a [`DynamicGraph`] without its base CSR:
/// the node count and the active mask. Checkpoints persist this instead
/// of the graph itself, so a snapshot costs `O(n)` bits rather than
/// `O(E)` words; restoring applies the mask over a freshly supplied copy
/// of the base ([`DynamicGraph::from_delta`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DynamicDelta {
    /// Node count of the base (restore validates against it).
    pub num_nodes: usize,
    /// Active mask (index = node id).
    pub active: Vec<bool>,
}

/// A CSR base graph plus an active mask.
#[derive(Debug, Clone)]
pub struct DynamicGraph {
    base: Graph,
    active: Vec<bool>,
}

impl DynamicGraph {
    /// Wrap a CSR base graph; every node starts active.
    pub fn new(base: Graph) -> Self {
        let n = base.num_nodes();
        DynamicGraph { base, active: vec![true; n] }
    }

    /// Number of nodes in the id space (active or not).
    pub fn num_nodes(&self) -> usize {
        self.base.num_nodes()
    }

    /// Number of active nodes.
    pub fn num_active(&self) -> usize {
        self.active.iter().filter(|&&a| a).count()
    }

    /// Whether node `v` is active.
    ///
    /// # Panics
    /// If `v` is out of range.
    pub fn is_active(&self, v: NodeId) -> bool {
        self.active[v as usize]
    }

    /// Deactivate node `v` (resource leaves). Its incident edges are
    /// hidden, not deleted: reactivation restores them. Returns `false`
    /// if `v` was already inactive.
    pub fn deactivate(&mut self, v: NodeId) -> bool {
        std::mem::replace(&mut self.active[v as usize], false)
    }

    /// Reactivate node `v` (resource rejoins with its old neighbourhood).
    /// Returns `false` if `v` was already active.
    pub fn activate(&mut self, v: NodeId) -> bool {
        !std::mem::replace(&mut self.active[v as usize], true)
    }

    /// Materialize the effective graph as a CSR [`Graph`] for the walk
    /// kernels. Inactive nodes remain in the id space as isolated nodes,
    /// so resource ids (and task locations) stay valid across churn.
    ///
    /// Each base row is filtered by the mask straight into the output
    /// CSR: base rows are sorted and duplicate-free, so the filtered rows
    /// are too, and the result equals what [`crate::GraphBuilder`] would
    /// build from the effective edge list (the walk kernels index
    /// neighbour order, so it must).
    pub fn snapshot(&self) -> Graph {
        let n = self.num_nodes();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut neighbors = Vec::with_capacity(self.base.degree_sum());
        let (mut min_degree, mut max_degree) = (u32::MAX, 0u32);
        offsets.push(0);
        for v in 0..n as NodeId {
            let start = neighbors.len();
            if self.active[v as usize] {
                neighbors.extend(
                    self.base.neighbors(v).iter().copied().filter(|&u| self.active[u as usize]),
                );
            }
            let degree = (neighbors.len() - start) as u32;
            min_degree = min_degree.min(degree);
            max_degree = max_degree.max(degree);
            offsets.push(neighbors.len());
        }
        let min_degree = if min_degree == u32::MAX { 0 } else { min_degree };
        Graph::from_csr_with_degree_bounds(offsets, neighbors, min_degree, max_degree)
    }

    /// The persisted form of this overlay: node count and active mask.
    /// `O(n)`; the base CSR is not copied.
    pub fn delta(&self) -> DynamicDelta {
        DynamicDelta { num_nodes: self.num_nodes(), active: self.active.clone() }
    }

    /// Rebuild an overlay from its base graph plus a [`delta`](Self::delta)
    /// taken over the same base. The result's effective graph (and hence
    /// [`snapshot`](Self::snapshot)) is identical to the overlay the
    /// delta was taken from.
    ///
    /// # Errors
    /// [`GraphError::DeltaMismatch`] if the delta's node count or active
    /// mask does not fit `base`.
    pub fn from_delta(base: Graph, delta: &DynamicDelta) -> Result<Self, GraphError> {
        let n = base.num_nodes();
        if delta.num_nodes != n || delta.active.len() != n {
            return Err(GraphError::DeltaMismatch(format!(
                "delta covers {} nodes (mask {}), base has {n}",
                delta.num_nodes,
                delta.active.len()
            )));
        }
        Ok(DynamicGraph { base, active: delta.active.clone() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{complete, cycle, torus2d};

    #[test]
    fn fresh_overlay_matches_base() {
        let g = torus2d(4, 4);
        let dg = DynamicGraph::new(g.clone());
        assert_eq!(dg.num_nodes(), 16);
        assert_eq!(dg.num_active(), 16);
        assert_eq!(dg.snapshot(), g);
    }

    #[test]
    fn deactivation_hides_node_and_incident_edges() {
        let g = complete(4);
        let mut dg = DynamicGraph::new(g.clone());
        assert!(dg.deactivate(2));
        assert!(!dg.deactivate(2), "double deactivate is a no-op");
        assert!(!dg.is_active(2));
        assert_eq!(dg.num_active(), 3);
        let snap = dg.snapshot();
        assert_eq!(snap.degree(2), 0);
        assert!(!snap.has_edge(0, 2));
        assert_eq!(snap.neighbors(0), &[1, 3]);
        assert_eq!(snap.num_edges(), 3);

        // Reactivation restores the whole neighbourhood.
        assert!(dg.activate(2));
        assert!(!dg.activate(2), "double activate is a no-op");
        assert_eq!(dg.snapshot(), g);
    }

    #[test]
    fn snapshot_isolates_inactive_nodes() {
        let g = complete(4);
        let mut dg = DynamicGraph::new(g);
        dg.deactivate(1);
        let snap = dg.snapshot();
        assert_eq!(snap.num_nodes(), 4, "id space is preserved");
        assert_eq!(snap.degree(1), 0);
        assert_eq!(snap.neighbors(0), &[2, 3]);
        assert_eq!(snap.num_edges(), 3);
        assert_eq!((snap.min_degree(), snap.max_degree()), (0, 2));
    }

    #[test]
    fn delta_round_trips_through_the_reference() {
        let g = torus2d(3, 3);
        let mut dg = DynamicGraph::new(g.clone());
        dg.deactivate(4);
        let delta = dg.delta();
        assert_eq!(delta.num_nodes, 9);
        assert!(!delta.active[4]);

        let back = DynamicGraph::from_delta(g, &delta).unwrap();
        assert_eq!(back.snapshot(), dg.snapshot());
        assert_eq!(back.num_active(), dg.num_active());
        // Hidden state matches too: reactivating surfaces the same edges.
        let mut a = dg.clone();
        let mut b = back;
        a.activate(4);
        b.activate(4);
        assert_eq!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn fresh_overlay_has_an_empty_delta() {
        let g = complete(5);
        let delta = DynamicGraph::new(g).delta();
        assert_eq!(delta, DynamicDelta { num_nodes: 5, active: vec![true; 5] });
    }

    #[test]
    fn from_delta_rejects_mismatched_references() {
        let g = cycle(6);
        let mut delta = DynamicGraph::new(g.clone()).delta();

        let wrong_n = DynamicGraph::from_delta(cycle(5), &delta);
        assert!(matches!(wrong_n, Err(GraphError::DeltaMismatch(_))));

        delta.active.pop(); // mask shorter than the node count
        let short_mask = DynamicGraph::from_delta(g, &delta);
        assert!(matches!(short_mask, Err(GraphError::DeltaMismatch(_))));
    }
}
