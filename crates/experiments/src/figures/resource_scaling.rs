//! **A1 — Theorem 3 shape check**: resource-controlled balancing time vs
//! `τ(G)·log m` across graph families.
//!
//! Theorem 3 predicts `O(τ(G)·log m)` rounds w.h.p. for above-average
//! thresholds, *independent of the task weights*. This experiment measures
//! the balancing time on every Table-1 family and reports the ratio
//! `rounds / (τ·ln m)`, which should stay bounded (near-constant) across
//! families whose mixing times differ by orders of magnitude, for both
//! uniform and weighted workloads.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use tlb_core::placement::Placement;
use tlb_core::resource_protocol::{run_resource_controlled_with_stats, ResourceControlledConfig};
use tlb_core::threshold::ThresholdPolicy;
use tlb_core::weights::WeightSpec;
use tlb_graphs::generators::Family;
use tlb_obs::ObsReport;

use super::{Sweep, Trial};
use crate::cli::Experiment;
use crate::figures::table1::build_family;
use crate::output::Table;
use crate::stats::Summary;

/// Configuration for the Theorem-3 scaling experiment.
#[derive(Debug, Clone)]
pub struct Config {
    /// Approximate graph size per family.
    pub size: usize,
    /// Tasks per resource (`m = tasks_per_node · n`).
    pub tasks_per_node: usize,
    /// Threshold slack.
    pub epsilon: f64,
    /// Trials per (family, workload) point.
    pub trials: usize,
    /// Base seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config { size: 256, tasks_per_node: 10, epsilon: 0.2, trials: 100, seed: 0xA1 }
    }
}

impl Experiment for Config {
    fn quick() -> Self {
        Config { size: 64, trials: 15, ..Default::default() }
    }

    fn trials_mut(&mut self) -> Option<&mut usize> {
        Some(&mut self.trials)
    }
}

/// A named workload constructor.
type WorkloadCtor = fn(usize) -> WeightSpec;

/// Workload kinds compared (Theorem 3 says weights should not matter).
const WORKLOADS: [(&str, WorkloadCtor); 2] = [
    ("uniform", |m| WeightSpec::Uniform { m }),
    ("pareto", |m| WeightSpec::ParetoTruncated { m, alpha: 1.5, cap: 32.0 }),
];

/// One prepared family: the graph plus the walk-theory quantities the
/// report column needs (computed once, shared by both workload points).
struct FamilyPoint {
    family: Family,
    g: tlb_graphs::Graph,
    n: usize,
    m: usize,
    tau: f64,
    proto: ResourceControlledConfig,
}

/// Run the sweep. Columns: family, n, m, workload, tau, rounds_mean,
/// rounds_ci95, rounds_over_tau_logm.
///
/// All `(family × workload)` points run as one [`Sweep`] batch (obs
/// prefix `scaling`). The per-point costs differ by orders of magnitude
/// (cycle vs expander mixing times), the straggler shape whole-sweep
/// scheduling wins on. Every Table-1 family walks, so this is the
/// driver whose kernel counters (walk steps, fused lazy draws, regular
/// fast-path hits) carry the most signal.
pub fn run(cfg: &Config) -> (Table, ObsReport) {
    let mut table = Table::new(
        "resource_scaling",
        format!(
            "A1/Theorem 3: resource-controlled rounds vs tau(G) log m (size~{}, {} trials)",
            cfg.size, cfg.trials
        ),
        &["family", "n", "m", "workload", "tau_lemma2", "rounds_mean", "rounds_ci95", "ratio"],
    );
    // Prepare the per-family substrate up front (graph build + spectral
    // gap are per-family, not per-trial).
    let families: Vec<FamilyPoint> = Family::ALL
        .iter()
        .map(|&family| {
            let (g, kind) = build_family(family, cfg.size, cfg.seed);
            let n = g.num_nodes();
            let m = n * cfg.tasks_per_node;
            let p = tlb_walks::TransitionMatrix::build(&g, kind);
            let gap = tlb_walks::spectral::spectral_gap_power(&p, &g, 1e-10, 100_000);
            let tau = tlb_walks::mixing::lemma2_mixing_time(n, &gap).unwrap_or(u64::MAX) as f64;
            let proto = ResourceControlledConfig {
                threshold: ThresholdPolicy::AboveAverage { epsilon: cfg.epsilon },
                walk: kind,
                ..Default::default()
            };
            FamilyPoint { family, g, n, m, tau, proto }
        })
        .collect();
    // Flatten to (family × workload) sweep points. The seed depends on
    // the family only (as the per-point loop always had it).
    let points: Vec<(usize, &str, WeightSpec)> = families
        .iter()
        .enumerate()
        .flat_map(|(fi, fp)| WORKLOADS.iter().map(move |&(wname, wf)| (fi, wname, wf(fp.m))))
        .collect();
    let seeds: Vec<u64> = points
        .iter()
        .map(|&(fi, _, _)| cfg.seed ^ (families[fi].family as u64) << 8)
        .collect();
    let (results, reg) = Sweep::new("scaling").run(&seeds, cfg.trials, |i, s| {
        let (fi, _, ref spec) = points[i];
        let fp = &families[fi];
        let mut rng = SmallRng::seed_from_u64(s);
        let tasks = spec.generate(&mut rng);
        let (out, stats) = run_resource_controlled_with_stats(
            &fp.g,
            &tasks,
            Placement::AllOnOne(0),
            &fp.proto,
            &mut rng,
        );
        Trial { value: out.rounds as f64, rounds: out.rounds, stats: Some(stats) }
    });
    for (&(fi, wname, _), rounds) in points.iter().zip(&results) {
        let fp = &families[fi];
        let s = Summary::of(rounds);
        let denom = fp.tau * (fp.m as f64).ln();
        table.push_row(vec![
            fp.family.name().to_string(),
            fp.n.to_string(),
            fp.m.to_string(),
            wname.to_string(),
            format!("{:.1}", fp.tau),
            format!("{:.2}", s.mean),
            format!("{:.2}", s.ci95),
            format!("{:.5}", s.mean / denom),
        ]);
    }
    (table, reg.snapshot())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_covers_all_families_and_workloads() {
        let cfg = Config::quick();
        let (t, _) = run(&cfg);
        assert_eq!(t.rows.len(), Family::ALL.len() * WORKLOADS.len());
        for ratio in t.column_f64("ratio") {
            assert!(ratio > 0.0 && ratio.is_finite());
        }
    }

    #[test]
    fn ratios_are_bounded_across_families() {
        // The collapse claim: rounds/(tau ln m) varies far less across
        // families than tau itself does. Allow a generous factor.
        let cfg = Config::quick();
        let (t, _) = run(&cfg);
        let ratios = t.column_f64("ratio");
        let max = ratios.iter().fold(f64::MIN, |a, &b| a.max(b));
        let min = ratios.iter().fold(f64::MAX, |a, &b| a.min(b));
        let taus = t.column_f64("tau_lemma2");
        let tau_spread = taus.iter().fold(f64::MIN, |a, &b| a.max(b))
            / taus.iter().fold(f64::MAX, |a, &b| a.min(b));
        assert!(
            max / min < tau_spread,
            "normalized spread {:.2} should be smaller than raw tau spread {:.2}",
            max / min,
            tau_spread
        );
    }

    #[test]
    fn obs_counters_aggregate_the_sweep_deterministically() {
        let nonzero = ["rounds", "walk_steps", "eject_weight_reads"];
        crate::figures::tests::check(run, 2, "scaling", "points", &nonzero);
    }
}
