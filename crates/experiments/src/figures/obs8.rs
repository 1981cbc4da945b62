//! **A2 — Observation 8**: the lower-bound family for tight thresholds.
//!
//! The lollipop graph (clique `K_{n−1}` plus a pendant node `u` attached by
//! `k` edges) has `H(G) = Θ(n²/k)`; Observation 8 shows the
//! resource-controlled protocol needs `Ω(H(G)·log m)` rounds on it with
//! tight thresholds, matching Theorem 7's upper bound.
//!
//! The construction must *saturate* the clique: every clique node sits at
//! exactly the threshold `T = W/n + 2·w_max`, so no clique node can accept
//! a single additional task, and the surplus parked on one clique node can
//! only drain into the pendant node — which a random walk takes `Θ(n²/k)`
//! steps to hit. Concretely (unit tasks): `m = W = 3n²`, clique nodes hold
//! `3n + 2 = T` tasks each, and the surplus `s = n + 2` sits on clique
//! node 0.
//!
//! The experiment sweeps `k`, measures the exact `H(G)` on our walk
//! substrate, and reports `rounds / (H·ln m)` — which stays roughly
//! constant while `H` itself varies by an order of magnitude.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use tlb_core::placement::Placement;
use tlb_core::resource_protocol::{run_resource_controlled_with_stats, ResourceControlledConfig};
use tlb_core::task::TaskSet;
use tlb_core::threshold::ThresholdPolicy;
use tlb_graphs::generators::lollipop;
use tlb_graphs::NodeId;
use tlb_obs::ObsReport;
use tlb_walks::{hitting, TransitionMatrix, WalkKind};

use super::{Sweep, Trial};
use crate::cli::Experiment;
use crate::output::Table;
use crate::stats::Summary;

/// Configuration for the Observation-8 experiment.
#[derive(Debug, Clone)]
pub struct Config {
    /// Total nodes `n` (clique has `n − 1`). The workload is `m = 3n²`
    /// unit tasks.
    pub n: usize,
    /// Pendant attachment counts `k` to sweep.
    pub ks: Vec<usize>,
    /// Trials per point.
    pub trials: usize,
    /// Base seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config { n: 48, ks: vec![1, 2, 4, 8, 16, 32], trials: 50, seed: 0xA2 }
    }
}

impl Experiment for Config {
    fn quick() -> Self {
        Config { n: 20, ks: vec![1, 4, 16], trials: 10, ..Default::default() }
    }

    fn trials_mut(&mut self) -> Option<&mut usize> {
        Some(&mut self.trials)
    }
}

/// The Observation-8 saturating workload for a lollipop on `n` nodes:
/// `3n²` unit tasks placed so every clique node holds exactly
/// `T = 3n + 2` of them, the surplus `n + 2` sits on clique node 0, and
/// the pendant node `n−1` starts empty.
///
/// Returns `(tasks, placement)`; with `ThresholdPolicy::TightResource`
/// the threshold computes to exactly `3n + 2`.
pub fn workload(n: usize) -> (TaskSet, Placement) {
    assert!(n >= 3, "need a non-degenerate lollipop");
    let m = 3 * n * n;
    let clique_load = 3 * n + 2; // == W/n + 2 w_max for W = 3n², w_max = 1
    let surplus = n + 2;
    debug_assert_eq!((n - 1) * clique_load + surplus, m, "construction must account for all tasks");
    let mut locs: Vec<NodeId> = Vec::with_capacity(m);
    for node in 0..(n - 1) {
        locs.extend(std::iter::repeat_n(node as NodeId, clique_load));
    }
    locs.extend(std::iter::repeat_n(0 as NodeId, surplus));
    (TaskSet::uniform(m), Placement::Explicit(locs))
}

/// Run the sweep. Columns: k, H_exact, rounds_mean, rounds_ci95, ratio
/// (= rounds / (H · ln m)).
///
/// All `k` points run as one [`Sweep`] batch (obs prefix `obs8`) — the
/// slow-mixing `k = 1` point costs an order of magnitude more than
/// `k = 32`, exactly the straggler shape whole-sweep scheduling wins on.
pub fn run(cfg: &Config) -> (Table, ObsReport) {
    let mut table = Table::new(
        "obs8_lower_bound",
        format!(
            "A2/Observation 8: tight-threshold rounds on the saturated lollipop(n={}, k) vs H(G) log m ({} trials)",
            cfg.n, cfg.trials
        ),
        &["k", "n", "m", "H_exact", "rounds_mean", "rounds_ci95", "ratio"],
    );
    let (tasks, placement) = workload(cfg.n);
    let m = tasks.len();
    let proto = ResourceControlledConfig {
        threshold: ThresholdPolicy::TightResource,
        ..Default::default()
    };
    // Per-k substrate (graph build + exact hitting time), prepared before
    // the single flattened trial batch.
    let points: Vec<(usize, tlb_graphs::Graph, f64)> = cfg
        .ks
        .iter()
        .map(|&k| {
            let g = lollipop(cfg.n, k).expect("valid lollipop parameters");
            let p = TransitionMatrix::build(&g, WalkKind::MaxDegree);
            let h = hitting::max_hitting_time_exact(&p);
            (k, g, h)
        })
        .collect();
    let seeds: Vec<u64> = points.iter().map(|&(k, _, _)| cfg.seed ^ (k as u64) << 16).collect();
    let (results, reg) = Sweep::new("obs8").run(&seeds, cfg.trials, |i, s| {
        let mut rng = SmallRng::seed_from_u64(s);
        let (out, stats) = run_resource_controlled_with_stats(
            &points[i].1,
            &tasks,
            placement.clone(),
            &proto,
            &mut rng,
        );
        Trial { value: out.rounds as f64, rounds: out.rounds, stats: Some(stats) }
    });
    for (&(k, _, h), samples) in points.iter().zip(&results) {
        let s = Summary::of(samples);
        table.push_row(vec![
            k.to_string(),
            cfg.n.to_string(),
            m.to_string(),
            format!("{h:.1}"),
            format!("{:.2}", s.mean),
            format!("{:.2}", s.ci95),
            format!("{:.5}", s.mean / (h * (m as f64).ln())),
        ]);
    }
    (table, reg.snapshot())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hitting_time_decreases_with_k() {
        // H = Θ(n²/k): doubling k should roughly halve H.
        let n = 24;
        let h_of = |k: usize| {
            let g = lollipop(n, k).unwrap();
            let p = TransitionMatrix::build(&g, WalkKind::MaxDegree);
            hitting::max_hitting_time_exact(&p)
        };
        let h1 = h_of(1);
        let h4 = h_of(4);
        let h16 = h_of(16);
        assert!(h1 > h4 && h4 > h16);
        assert!(h1 / h4 > 2.0, "H(k=1)/H(k=4) = {}", h1 / h4);
    }

    #[test]
    fn workload_saturates_every_clique_node() {
        let n = 12;
        let (tasks, placement) = workload(n);
        assert_eq!(tasks.len(), 3 * n * n);
        let t = ThresholdPolicy::TightResource.value(tasks.total_weight(), n, tasks.w_max());
        assert!((t - (3 * n + 2) as f64).abs() < 1e-9, "threshold {t}");
        if let Placement::Explicit(locs) = &placement {
            let mut loads = vec![0usize; n];
            for &l in locs {
                loads[l as usize] += 1;
            }
            // pendant empty, node 0 over threshold, others exactly at it
            assert_eq!(loads[n - 1], 0);
            assert_eq!(loads[0], (3 * n + 2) + (n + 2));
            for &l in &loads[1..n - 1] {
                assert_eq!(l, 3 * n + 2);
            }
        } else {
            panic!("expected explicit placement");
        }
    }

    #[test]
    fn quick_sweep_has_finite_ratios_and_h_scaling() {
        let cfg = Config::quick();
        let (t, _) = run(&cfg);
        assert_eq!(t.rows.len(), cfg.ks.len());
        for ratio in t.column_f64("ratio") {
            assert!(ratio.is_finite() && ratio > 0.0);
        }
        // rounds must *grow* as k shrinks (H grows): first row (k=1)
        // slower than last (k=16).
        let rounds = t.column_f64("rounds_mean");
        assert!(
            rounds[0] > 2.0 * rounds[rounds.len() - 1],
            "k=1 should be much slower than k=16: {rounds:?}"
        );
    }
}
