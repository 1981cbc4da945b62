//! Property-based tests for the graph substrate.

use std::collections::HashSet;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use tlb_graphs::{algo, generators, DynamicGraph, GraphBuilder, NodeId};

/// Rebuild the effective graph of the naive model from scratch: every
/// base edge whose two endpoints are active.
fn rebuild(n: usize, edges: &HashSet<(NodeId, NodeId)>, active: &[bool]) -> tlb_graphs::Graph {
    let mut b = GraphBuilder::new(n);
    for &(u, v) in edges {
        if active[u as usize] && active[v as usize] {
            b.add_edge(u, v).unwrap();
        }
    }
    b.build()
}

proptest! {
    /// CSR build is invariant to edge insertion order and duplication.
    #[test]
    fn build_invariant_to_insertion_order(
        n in 2usize..40,
        edges in proptest::collection::vec((0u32..40, 0u32..40), 0..120),
        seed in any::<u64>(),
    ) {
        let valid: Vec<(u32, u32)> = edges
            .into_iter()
            .filter(|&(u, v)| u != v && (u as usize) < n && (v as usize) < n)
            .collect();

        let mut b1 = GraphBuilder::new(n);
        for &(u, v) in &valid {
            b1.add_edge(u, v).unwrap();
        }
        let g1 = b1.build();

        use rand::seq::SliceRandom;
        let mut shuffled = valid.clone();
        let mut rng = SmallRng::seed_from_u64(seed);
        shuffled.shuffle(&mut rng);
        let mut b2 = GraphBuilder::new(n);
        for &(u, v) in &shuffled {
            b2.add_edge(v, u).unwrap(); // also flip orientation
        }
        let g2 = b2.build();

        prop_assert_eq!(g1, g2);
    }

    /// Handshake lemma: degree sum equals twice the edge count.
    #[test]
    fn handshake_lemma(
        n in 1usize..50,
        edges in proptest::collection::vec((0u32..50, 0u32..50), 0..200),
    ) {
        let mut b = GraphBuilder::new(n);
        for (u, v) in edges {
            if u != v && (u as usize) < n && (v as usize) < n {
                b.add_edge(u, v).unwrap();
            }
        }
        let g = b.build();
        prop_assert_eq!(g.degree_sum(), 2 * g.num_edges());
        let deg_total: usize = g.nodes().map(|v| g.degree(v)).sum();
        prop_assert_eq!(deg_total, g.degree_sum());
    }

    /// Every edge reported by `edges()` exists per `has_edge`, symmetric.
    #[test]
    fn edges_consistent_with_has_edge(
        n in 2usize..30,
        edges in proptest::collection::vec((0u32..30, 0u32..30), 1..80),
    ) {
        let mut b = GraphBuilder::new(n);
        for (u, v) in edges {
            if u != v && (u as usize) < n && (v as usize) < n {
                b.add_edge(u, v).unwrap();
            }
        }
        let g = b.build();
        for (u, v) in g.edges() {
            prop_assert!(u < v);
            prop_assert!(g.has_edge(u, v));
            prop_assert!(g.has_edge(v, u));
        }
        prop_assert_eq!(g.edges().count(), g.num_edges());
    }

    /// BFS distances satisfy the triangle property along edges:
    /// |dist(u) - dist(v)| <= 1 for every edge (u, v).
    #[test]
    fn bfs_distance_lipschitz_along_edges(
        n in 2usize..30,
        edges in proptest::collection::vec((0u32..30, 0u32..30), 1..100),
        src in 0u32..30,
    ) {
        let mut b = GraphBuilder::new(n);
        for (u, v) in edges {
            if u != v && (u as usize) < n && (v as usize) < n {
                b.add_edge(u, v).unwrap();
            }
        }
        let g = b.build();
        let src = src % n as u32;
        let dist = algo::bfs_distances(&g, src);
        for (u, v) in g.edges() {
            let (du, dv) = (dist[u as usize], dist[v as usize]);
            if du != algo::UNREACHABLE && dv != algo::UNREACHABLE {
                prop_assert!(du.abs_diff(dv) <= 1);
            } else {
                // endpoints of one edge are in the same component
                prop_assert_eq!(du, dv);
            }
        }
    }

    /// Random regular graphs really are d-regular, for all feasible (n, d).
    #[test]
    fn random_regular_is_regular(n in 4usize..40, d in 1usize..5, seed in any::<u64>()) {
        prop_assume!(n * d % 2 == 0 && d < n);
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = generators::random_regular(n, d, &mut rng).unwrap();
        prop_assert!(g.is_regular());
        prop_assert_eq!(g.max_degree() as usize, d);
        prop_assert_eq!(g.num_edges(), n * d / 2);
    }

    /// G(n, p) never produces self-loops or out-of-range nodes, and edge
    /// count is within the binomial support.
    #[test]
    fn gnp_well_formed(n in 2usize..60, p in 0.0f64..1.0, seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = generators::erdos_renyi(n, p, &mut rng).unwrap();
        prop_assert_eq!(g.num_nodes(), n);
        prop_assert!(g.num_edges() <= n * (n - 1) / 2);
        for (u, v) in g.edges() {
            prop_assert!(u != v);
            prop_assert!((v as usize) < n);
        }
    }

    /// After an arbitrary activate/deactivate sequence, the overlay's
    /// snapshot and active count match a from-scratch rebuild of the
    /// naive edge-set + active-mask model. The walk kernels index
    /// neighbour order, so this pins `snapshot()` to the builder's CSR
    /// exactly (`Graph` equality covers the cached degree bounds too).
    #[test]
    fn dynamic_graph_matches_from_scratch_rebuild(
        n in 2usize..24,
        base_edges in proptest::collection::vec((0u32..24, 0u32..24), 0..60),
        ops in proptest::collection::vec((any::<bool>(), 0u32..24), 0..80),
    ) {
        let mut b = GraphBuilder::new(n);
        let mut edges = HashSet::new();
        let mut active = vec![true; n];
        for (u, v) in base_edges {
            if u != v && (u as usize) < n && (v as usize) < n {
                b.add_edge(u, v).unwrap();
                edges.insert((u.min(v), u.max(v)));
            }
        }
        let mut dg = DynamicGraph::new(b.build());
        for (up, v) in ops {
            let v = v % n as u32;
            let changed = if up { dg.activate(v) } else { dg.deactivate(v) };
            prop_assert_eq!(changed, active[v as usize] != up);
            active[v as usize] = up;
        }

        prop_assert_eq!(dg.num_active(), active.iter().filter(|&&a| a).count());
        prop_assert_eq!(dg.snapshot(), rebuild(n, &edges, &active));
    }

    /// Components partition the node set and count is consistent.
    #[test]
    fn components_partition_nodes(
        n in 1usize..40,
        edges in proptest::collection::vec((0u32..40, 0u32..40), 0..80),
    ) {
        let mut b = GraphBuilder::new(n);
        for (u, v) in edges {
            if u != v && (u as usize) < n && (v as usize) < n {
                b.add_edge(u, v).unwrap();
            }
        }
        let g = b.build();
        let (labels, count) = algo::connected_components(&g);
        prop_assert_eq!(labels.len(), n);
        let distinct: std::collections::HashSet<_> = labels.iter().copied().collect();
        prop_assert_eq!(distinct.len(), count);
        // Edge endpoints share labels.
        for (u, v) in g.edges() {
            prop_assert_eq!(labels[u as usize], labels[v as usize]);
        }
        prop_assert_eq!(count == 1, algo::is_connected(&g) && n >= 1);
    }
}
