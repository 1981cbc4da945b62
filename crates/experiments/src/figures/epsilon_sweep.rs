//! **A4 — ε sweep**: above-average vs tight thresholds for the
//! user-controlled protocol (Theorem 11 vs Theorem 12).
//!
//! As `ε → 0` the threshold approaches the tight `W/n + w_max` and the
//! Theorem-11 bound degrades to Theorem 12's `n`-dependent one. The sweep
//! measures the blow-up empirically: mean balancing time per ε, including
//! the exact tight threshold as the `ε = 0` endpoint.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use tlb_core::placement::Placement;
use tlb_core::threshold::ThresholdPolicy;
use tlb_core::user_protocol::{run_user_controlled_with_stats, UserControlledConfig};
use tlb_core::weights::WeightSpec;
use tlb_obs::ObsReport;

use super::{Sweep, Trial};
use crate::cli::Experiment;
use crate::output::Table;
use crate::stats::Summary;

/// Configuration for the ε sweep.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of resources.
    pub n: usize,
    /// Number of tasks.
    pub m: usize,
    /// Heavy-task weights to sweep (single heavy task; 1.0 = uniform).
    /// The ε effect only shows when the *endgame* (finding the last slots)
    /// dominates — i.e. for uniform tasks near saturation; with a heavy
    /// task the hotspot drain dominates and all thresholds cost the same.
    /// Sweeping both exposes exactly that contrast.
    pub w_maxes: Vec<f64>,
    /// ε values; 0 means the tight threshold.
    pub epsilons: Vec<f64>,
    /// Migration damping.
    pub alpha: f64,
    /// Trials per ε.
    pub trials: usize,
    /// Base seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        // Keep W/n well above w_max so the ε term of the threshold is the
        // binding constraint (with w_max ≫ W/n all policies coincide up to
        // the +w_max slack and the sweep shows nothing).
        Config {
            n: 100,
            m: 5000,
            w_maxes: vec![1.0, 16.0],
            epsilons: vec![0.0, 0.05, 0.1, 0.2, 0.5, 1.0],
            alpha: 1.0,
            trials: 200,
            seed: 0xA4,
        }
    }
}

impl Experiment for Config {
    fn quick() -> Self {
        Config {
            n: 50,
            m: 1500,
            w_maxes: vec![1.0],
            epsilons: vec![0.0, 0.2, 1.0],
            trials: 20,
            ..Default::default()
        }
    }

    fn trials_mut(&mut self) -> Option<&mut usize> {
        Some(&mut self.trials)
    }
}

/// One sweep point, prepared up front so the trial closure is pure. The
/// threshold policy lives in `proto.threshold` (not duplicated here).
struct Point {
    w_max: f64,
    eps: f64,
    proto: UserControlledConfig,
    spec: WeightSpec,
    seed: u64,
}

/// Run the sweep. Columns: w_max, epsilon, threshold_label, rounds_mean,
/// rounds_ci95.
///
/// All `(w_max × epsilon)` points run as one [`Sweep`] batch (obs
/// prefix `epsilon`).
pub fn run(cfg: &Config) -> (Table, ObsReport) {
    let mut table = Table::new(
        "epsilon_sweep",
        format!(
            "A4: balancing time vs epsilon (user-controlled, n={}, m={}, alpha={}, {} trials)",
            cfg.n, cfg.m, cfg.alpha, cfg.trials
        ),
        &["w_max", "epsilon", "threshold", "rounds_mean", "rounds_ci95"],
    );
    let mut points = Vec::new();
    for &w_max in &cfg.w_maxes {
        let spec = WeightSpec::figure2(cfg.m, w_max);
        for &eps in &cfg.epsilons {
            let policy = if eps == 0.0 {
                ThresholdPolicy::Tight
            } else {
                ThresholdPolicy::AboveAverage { epsilon: eps }
            };
            points.push(Point {
                w_max,
                eps,
                proto: UserControlledConfig {
                    threshold: policy,
                    alpha: cfg.alpha,
                    ..Default::default()
                },
                spec: spec.clone(),
                seed: cfg.seed ^ (eps * 1e6) as u64 ^ ((w_max as u64) << 40),
            });
        }
    }
    let seeds: Vec<u64> = points.iter().map(|p| p.seed).collect();
    let n = cfg.n;
    let (results, reg) = Sweep::new("epsilon").run(&seeds, cfg.trials, |i, s| {
        let p = &points[i];
        let mut rng = SmallRng::seed_from_u64(s);
        let tasks = p.spec.generate(&mut rng);
        let (out, stats) =
            run_user_controlled_with_stats(n, &tasks, Placement::AllOnOne(0), &p.proto, &mut rng);
        Trial { value: out.rounds as f64, rounds: out.rounds, stats: Some(stats) }
    });
    for (p, rounds) in points.iter().zip(&results) {
        let s = Summary::of(rounds);
        table.push_row(vec![
            format!("{:.0}", p.w_max),
            format!("{}", p.eps),
            p.proto.threshold.label(),
            format!("{:.2}", s.mean),
            format!("{:.2}", s.ci95),
        ]);
    }
    (table, reg.snapshot())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tight_threshold_is_slowest() {
        // Uniform tasks with W/n ≫ w_max: the ε slack dominates and the
        // tight threshold must be measurably slower.
        let cfg = Config { n: 40, m: 1200, w_maxes: vec![1.0], trials: 20, ..Config::quick() };
        let (t, _) = run(&cfg);
        let rounds = t.column_f64("rounds_mean");
        // epsilons are ascending: tight (0.0) first.
        assert!(
            rounds[0] > *rounds.last().unwrap(),
            "tight should be slower than eps=1: {rounds:?}"
        );
    }

    #[test]
    fn all_epsilons_produce_rows() {
        let cfg = Config::quick();
        let (t, _) = run(&cfg);
        assert_eq!(t.rows.len(), cfg.epsilons.len() * cfg.w_maxes.len());
        assert!(t.rows[0][2].contains("tight"));
    }

    #[test]
    fn obs_counters_aggregate_the_sweep_deterministically() {
        crate::figures::tests::check(
            run,
            3,
            "epsilon",
            "points",
            &["rounds", "uniform_jump_draws"],
        );
    }
}
