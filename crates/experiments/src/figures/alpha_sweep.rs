//! **A3 — α sweep**: how conservative is the analysis's
//! `α = ε/(120(1+ε))`?
//!
//! Section 7 of the paper runs `α = 1` and remarks that the small `α`
//! required by Lemma 10 "is quite conservative", leaving tightness for
//! `α = 1` as an open question. This experiment sweeps `α` from the
//! analysis value up to 1 and reports mean balancing time and the product
//! `α · rounds`, which Theorem 11 predicts to be roughly constant
//! (`E[T] ∝ 1/α`).

use rand::rngs::SmallRng;
use rand::SeedableRng;
use tlb_core::drift::analysis_alpha;
use tlb_core::placement::Placement;
use tlb_core::threshold::ThresholdPolicy;
use tlb_core::user_protocol::{run_user_controlled_with_stats, UserControlledConfig};
use tlb_core::weights::WeightSpec;
use tlb_obs::ObsReport;

use super::{Sweep, Trial};
use crate::cli::Experiment;
use crate::output::Table;
use crate::stats::Summary;

/// Configuration for the α sweep.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of resources.
    pub n: usize,
    /// Number of tasks.
    pub m: usize,
    /// Heavy-task weight (single heavy task, Figure-2 style workload).
    pub w_max: f64,
    /// Threshold slack.
    pub epsilon: f64,
    /// α values; if empty, a geometric ladder from the analysis α to 1.
    pub alphas: Vec<f64>,
    /// Trials per α.
    pub trials: usize,
    /// Base seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            n: 500,
            m: 2000,
            w_max: 16.0,
            epsilon: 0.2,
            alphas: vec![],
            trials: 200,
            seed: 0xA3,
        }
    }
}

impl Experiment for Config {
    fn quick() -> Self {
        Config { n: 100, m: 500, trials: 20, ..Default::default() }
    }

    fn trials_mut(&mut self) -> Option<&mut usize> {
        Some(&mut self.trials)
    }
}

impl Config {
    /// The α ladder actually swept.
    pub fn alpha_ladder(&self) -> Vec<f64> {
        if !self.alphas.is_empty() {
            return self.alphas.clone();
        }
        let lo = analysis_alpha(self.epsilon);
        // Geometric ladder lo … 1.0 in 6 steps.
        let steps = 6;
        (0..=steps).map(|i| lo * (1.0 / lo).powf(i as f64 / steps as f64)).collect()
    }
}

/// Run the sweep. Columns: alpha, rounds_mean, rounds_ci95, alpha_x_rounds.
///
/// The whole α ladder runs as one [`Sweep`] batch (obs prefix `alpha`).
/// The ladder is maximally uneven work — small α balances an order of
/// magnitude slower than α = 1 — exactly the shape the flattened batch
/// exists for.
pub fn run(cfg: &Config) -> (Table, ObsReport) {
    let mut table = Table::new(
        "alpha_sweep",
        format!(
            "A3: balancing time vs alpha (user-controlled, n={}, m={}, wmax={}, eps={}, {} trials)",
            cfg.n, cfg.m, cfg.w_max, cfg.epsilon, cfg.trials
        ),
        &["alpha", "rounds_mean", "rounds_ci95", "alpha_x_rounds"],
    );
    let spec = WeightSpec::figure2(cfg.m, cfg.w_max);
    let ladder = cfg.alpha_ladder();
    let protos: Vec<UserControlledConfig> = ladder
        .iter()
        .map(|&alpha| UserControlledConfig {
            threshold: ThresholdPolicy::AboveAverage { epsilon: cfg.epsilon },
            alpha,
            ..Default::default()
        })
        .collect();
    let seeds: Vec<u64> = ladder.iter().map(|&alpha| cfg.seed ^ (alpha * 1e6) as u64).collect();
    let n = cfg.n;
    let (results, reg) = Sweep::new("alpha").run(&seeds, cfg.trials, |i, s| {
        let mut rng = SmallRng::seed_from_u64(s);
        let tasks = spec.generate(&mut rng);
        let (out, stats) =
            run_user_controlled_with_stats(n, &tasks, Placement::AllOnOne(0), &protos[i], &mut rng);
        Trial { value: out.rounds as f64, rounds: out.rounds, stats: Some(stats) }
    });
    for (alpha, rounds) in ladder.iter().zip(&results) {
        let s = Summary::of(rounds);
        table.push_row(vec![
            format!("{alpha:.6}"),
            format!("{:.2}", s.mean),
            format!("{:.2}", s.ci95),
            format!("{:.2}", alpha * s.mean),
        ]);
    }
    (table, reg.snapshot())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_spans_analysis_to_one() {
        let cfg = Config::default();
        let ladder = cfg.alpha_ladder();
        assert!((ladder[0] - analysis_alpha(0.2)).abs() < 1e-12);
        assert!((ladder.last().unwrap() - 1.0).abs() < 1e-9);
        assert!(ladder.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn rounds_decrease_with_alpha() {
        let cfg = Config { alphas: vec![0.05, 1.0], trials: 15, n: 60, m: 300, ..Config::quick() };
        let (t, _) = run(&cfg);
        let rounds = t.column_f64("rounds_mean");
        assert_eq!(rounds.len(), 2);
        assert!(
            rounds[0] > rounds[1],
            "alpha=0.05 ({}) should be slower than alpha=1 ({})",
            rounds[0],
            rounds[1]
        );
    }

    #[test]
    fn alpha_times_rounds_is_stable_within_factor() {
        // E[T] ∝ 1/α means α·E[T] varies slowly; allow a loose factor
        // since small-α runs have extra constant overhead.
        let cfg =
            Config { alphas: vec![0.2, 0.5, 1.0], trials: 25, n: 60, m: 300, ..Config::quick() };
        let (t, _) = run(&cfg);
        let prods = t.column_f64("alpha_x_rounds");
        let max = prods.iter().fold(f64::MIN, |a, &b| a.max(b));
        let min = prods.iter().fold(f64::MAX, |a, &b| a.min(b));
        assert!(max / min < 4.0, "alpha*rounds spread too wide: {prods:?}");
    }

    #[test]
    fn obs_counters_aggregate_the_sweep_deterministically() {
        crate::figures::tests::check(run, 3, "alpha", "points", &["rounds", "uniform_jump_draws"]);
    }
}
