//! Randomized families: Erdős–Rényi `G(n, p)` and random `d`-regular graphs
//! (the paper's "Reg. Expander" row — random regular graphs with `d ≥ 3`
//! are expanders with high probability).

use rand::Rng;

use crate::algo;
use crate::builder::GraphBuilder;
use crate::error::GraphError;
use crate::graph::{Graph, NodeId};

/// Erdős–Rényi `G(n, p)`: every unordered pair is an edge independently
/// with probability `p`.
///
/// Table 1 assumes `p > (1+ε)·ln n / n`, above the connectivity threshold;
/// use [`erdos_renyi_connected`] when connectivity must hold (it resamples).
///
/// Sampling uses geometric skipping over the `n(n-1)/2` pair indices, so the
/// cost is `O(n + |E|)` rather than `O(n²)` for sparse `p`.
pub fn erdos_renyi<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> Result<Graph, GraphError> {
    if !(0.0..=1.0).contains(&p) {
        return Err(GraphError::InvalidParameters(format!("p = {p} outside [0, 1]")));
    }
    let mut b = GraphBuilder::new(n);
    if n < 2 || p == 0.0 {
        return Ok(b.build());
    }
    let total_pairs = n * (n - 1) / 2;
    if p >= 1.0 {
        for u in 0..n as NodeId {
            for v in (u + 1)..n as NodeId {
                b.add_edge(u, v).expect("validated endpoints");
            }
        }
        return Ok(b.build());
    }
    // Geometric skipping: the index of the next present pair after position
    // i is i + 1 + Geom(p).
    let log1mp = (1.0 - p).ln();
    let mut idx: usize = 0;
    // Start with a geometric offset for the first edge.
    let mut first = true;
    while idx < total_pairs {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        let skip = (u.ln() / log1mp).floor() as usize;
        idx = if first { skip } else { idx + 1 + skip };
        first = false;
        if idx >= total_pairs {
            break;
        }
        let (a, b_) = pair_from_index(idx, n);
        b.add_edge(a, b_).expect("validated endpoints");
    }
    Ok(b.build())
}

/// Decode pair index `k ∈ [0, n(n-1)/2)` into the `k`-th unordered pair
/// `(u, v)`, `u < v`, in row-major order (`(0,1), (0,2), …, (0,n-1), (1,2), …`).
fn pair_from_index(k: usize, n: usize) -> (NodeId, NodeId) {
    // Row u starts at offset u*n - u*(u+1)/2 - u... derive by scanning rows;
    // binary search keeps this O(log n).
    let row_start = |u: usize| -> usize { u * (2 * n - u - 1) / 2 };
    let (mut lo, mut hi) = (0usize, n - 1);
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        if row_start(mid) <= k {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    let u = lo;
    let v = u + 1 + (k - row_start(u));
    (u as NodeId, v as NodeId)
}

/// Erdős–Rényi conditioned on connectivity: resamples until connected, up
/// to `max_attempts` times.
pub fn erdos_renyi_connected<R: Rng + ?Sized>(
    n: usize,
    p: f64,
    max_attempts: usize,
    rng: &mut R,
) -> Result<Graph, GraphError> {
    for _ in 0..max_attempts {
        let g = erdos_renyi(n, p, rng)?;
        if algo::is_connected(&g) {
            return Ok(g);
        }
    }
    Err(GraphError::GenerationFailed(format!(
        "no connected G({n}, {p}) after {max_attempts} attempts; p likely below threshold"
    )))
}

/// Random `d`-regular graph via circulant seeding plus double-edge-swap
/// randomization.
///
/// A deterministic circulant `d`-regular graph is randomized by `~30·|E|`
/// double edge swaps (`(a,b),(c,d) → (a,d),(c,b)`), the standard Markov
/// chain whose stationary distribution is uniform over simple `d`-regular
/// graphs. Unlike the configuration model this never rejects wholesale, so
/// it is robust for every feasible `(n, d)`. For `d ≥ 3` the result is an
/// expander w.h.p. — the "Reg. Expander" row of Table 1 (mixing `O(log n)`,
/// hitting `O(n)`). For `d ≥ 3` connectivity is verified and swaps continue
/// until it holds.
///
/// # Errors
/// `InvalidParameters` if `n·d` is odd or `d ≥ n`; `GenerationFailed` if
/// connectivity cannot be restored within the retry budget (requires
/// adversarially tiny graphs).
pub fn random_regular<R: Rng + ?Sized>(
    n: usize,
    d: usize,
    rng: &mut R,
) -> Result<Graph, GraphError> {
    if d >= n && !(n <= 1 && d == 0) {
        return Err(GraphError::InvalidParameters(format!("degree {d} >= n = {n}")));
    }
    if !(n * d).is_multiple_of(2) {
        return Err(GraphError::InvalidParameters(format!("n*d = {} is odd", n * d)));
    }
    if d == 0 {
        return Ok(GraphBuilder::new(n).build());
    }

    // Circulant seed: node i connects to i±1, …, i±⌊d/2⌋ (mod n), plus the
    // antipode i + n/2 when d is odd (then n is even by the parity check).
    // `d < n` makes every seed edge distinct.
    let mut edges: Vec<(NodeId, NodeId)> = Vec::with_capacity(n * d / 2);
    for i in 0..n {
        for j in 1..=(d / 2) {
            let (u, v) = (i as NodeId, ((i + j) % n) as NodeId);
            edges.push((u.min(v), u.max(v)));
        }
    }
    if d % 2 == 1 {
        edges.extend((0..n / 2).map(|i| (i as NodeId, (i + n / 2) as NodeId)));
    }
    debug_assert_eq!(edges.len(), n * d / 2, "circulant seed must be exactly d-regular");
    // Fixed-width adjacency rows: row `u` is `adj[u·d..(u+1)·d]`. Every
    // swap keeps the graph d-regular, so a membership probe is a scan of
    // d ids and an accepted swap rewrites four entries in place.
    let mut adj: Vec<NodeId> = vec![0; n * d];
    let mut fill = vec![0usize; n];
    for &(u, v) in &edges {
        for (a, b) in [(u, v), (v, u)] {
            adj[a as usize * d + fill[a as usize]] = b;
            fill[a as usize] += 1;
        }
    }
    let has_edge = |adj: &[NodeId], u: NodeId, v: NodeId| adj[u as usize * d..][..d].contains(&v);
    let relink = |adj: &mut [NodeId], u: NodeId, from: NodeId, to: NodeId| {
        let row = &mut adj[u as usize * d..][..d];
        *row.iter_mut().find(|x| **x == from).expect("edge is in its row") = to;
    };

    // Double-edge-swap randomization.
    let m = edges.len();
    let budget = 30 * m.max(8);
    const MAX_ROUNDS: usize = 50;
    for _round in 0..MAX_ROUNDS {
        for _ in 0..budget {
            if m < 2 {
                break;
            }
            let i = rng.gen_range(0..m);
            let j = rng.gen_range(0..m);
            if i == j {
                continue;
            }
            let (a, b) = edges[i];
            let (mut c, mut dd) = edges[j];
            if rng.gen::<bool>() {
                std::mem::swap(&mut c, &mut dd);
            }
            // Proposed replacement: (a, c) and (b, dd).
            if a == c || b == dd {
                continue;
            }
            let e1 = (a.min(c), a.max(c));
            let e2 = (b.min(dd), b.max(dd));
            if e1 == e2 || has_edge(&adj, a, c) || has_edge(&adj, b, dd) {
                continue;
            }
            relink(&mut adj, a, b, c);
            relink(&mut adj, b, a, dd);
            relink(&mut adj, c, dd, a);
            relink(&mut adj, dd, c, b);
            edges[i] = e1;
            edges[j] = e2;
        }
        let g = {
            let mut b = GraphBuilder::with_edge_capacity(n, m);
            for &(u, v) in &edges {
                b.add_edge(u, v).expect("swap chain preserves simplicity");
            }
            b.build()
        };
        debug_assert!(g.is_regular());
        // d = 1 is a perfect matching and d = 2 a union of cycles — neither
        // is necessarily connected, and callers asking for them know that.
        if d < 3 || algo::is_connected(&g) {
            return Ok(g);
        }
        // Disconnected (rare for d >= 3): keep swapping — the chain is
        // irreducible over all simple d-regular graphs, so more swaps can
        // merge components.
    }
    Err(GraphError::GenerationFailed(format!(
        "could not reach a connected {d}-regular graph on {n} nodes after {MAX_ROUNDS} swap rounds"
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn pair_index_roundtrip_small_n() {
        let n = 7;
        let mut k = 0;
        for u in 0..n {
            for v in (u + 1)..n {
                assert_eq!(pair_from_index(k, n), (u as NodeId, v as NodeId));
                k += 1;
            }
        }
    }

    #[test]
    fn gnp_extremes() {
        let mut rng = SmallRng::seed_from_u64(1);
        let empty = erdos_renyi(10, 0.0, &mut rng).unwrap();
        assert_eq!(empty.num_edges(), 0);
        let full = erdos_renyi(10, 1.0, &mut rng).unwrap();
        assert_eq!(full.num_edges(), 45);
        assert!(erdos_renyi(10, 1.5, &mut rng).is_err());
        assert!(erdos_renyi(10, -0.1, &mut rng).is_err());
    }

    #[test]
    fn gnp_edge_count_concentrates() {
        let mut rng = SmallRng::seed_from_u64(42);
        let n = 200;
        let p = 0.1;
        let trials = 20;
        let mean: f64 = (0..trials)
            .map(|_| erdos_renyi(n, p, &mut rng).unwrap().num_edges() as f64)
            .sum::<f64>()
            / trials as f64;
        let expected = p * (n * (n - 1) / 2) as f64;
        assert!(
            (mean - expected).abs() < 0.05 * expected,
            "mean {mean} far from expected {expected}"
        );
    }

    #[test]
    fn gnp_connected_above_threshold() {
        let mut rng = SmallRng::seed_from_u64(7);
        let n = 100;
        let p = 2.0 * (n as f64).ln() / n as f64;
        let g = erdos_renyi_connected(n, p, 50, &mut rng).unwrap();
        assert!(crate::algo::is_connected(&g));
    }

    #[test]
    fn regular_graph_is_regular_and_connected() {
        let mut rng = SmallRng::seed_from_u64(3);
        for (n, d) in [(10, 3), (50, 4), (64, 3), (30, 6)] {
            let g = random_regular(n, d, &mut rng).unwrap();
            assert_eq!(g.num_nodes(), n);
            assert!(g.is_regular(), "n={n} d={d}");
            assert_eq!(g.max_degree() as usize, d);
            assert!(crate::algo::is_connected(&g));
        }
    }

    /// FNV-1a over the sorted edge list: a fingerprint of the whole graph.
    fn edge_hash(g: &Graph) -> u64 {
        g.edges().fold(0xcbf2_9ce4_8422_2325, |h, (u, v)| {
            [u, v].iter().fold(h, |h, &x| (h ^ x as u64).wrapping_mul(0x0100_0000_01b3))
        })
    }

    /// The swap chain's graphs at fixed seeds, odd degrees included —
    /// pinned so a faster membership test cannot change a single
    /// accept/reject decision.
    #[test]
    fn random_regular_graphs_are_pinned_at_fixed_seeds() {
        let pins: [(usize, usize, u64, u64); 7] = [
            (10, 3, 1, 0x30d8_6bc0_1fb9_66b0),
            (30, 1, 5, 0x430c_d9c8_37bf_214c),
            (31, 2, 11, 0x71f8_1511_1b34_b403),
            (64, 5, 7, 0xc364_f1d6_5ef2_9d71),
            (101, 6, 3, 0x8600_e383_3cdc_0f7d),
            (500, 4, 42, 0xedcc_5e0f_8cdb_3edd),
            (2000, 8, 9, 0x66fb_a514_de65_abbd),
        ];
        for (n, d, seed, want) in pins {
            let g = random_regular(n, d, &mut SmallRng::seed_from_u64(seed)).unwrap();
            assert_eq!(edge_hash(&g), want, "n={n} d={d} seed={seed}");
        }
    }

    #[test]
    fn regular_rejects_bad_parameters() {
        let mut rng = SmallRng::seed_from_u64(3);
        assert!(random_regular(5, 3, &mut rng).is_err()); // odd n*d
        assert!(random_regular(4, 4, &mut rng).is_err()); // d >= n
    }

    #[test]
    fn regular_degree_zero_is_empty() {
        let mut rng = SmallRng::seed_from_u64(3);
        let g = random_regular(6, 0, &mut rng).unwrap();
        assert_eq!(g.num_edges(), 0);
    }
}
