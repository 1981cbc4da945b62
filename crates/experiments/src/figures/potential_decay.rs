//! **A6 — Lemma 10 drift vs measurement**: the per-round relative decay of
//! the user-controlled potential.
//!
//! Lemma 10 proves `E[ΔΦ | Φ] ≥ δ·Φ` with
//! `δ = α·ε/(2(1+ε))·(w_min/w_max)` (at the analysis α). This experiment
//! tracks the potential series of many runs, estimates the empirical decay
//! rate `1 − Φ(t+1)/Φ(t)` averaged over rounds with `Φ(t) > 0`, and
//! compares it to the analytic `δ` — the measured decay should dominate
//! the bound (the analysis is a lower bound on decay).

use rand::rngs::SmallRng;
use rand::SeedableRng;
use tlb_core::drift::lemma10_delta;
use tlb_core::placement::Placement;
use tlb_core::threshold::ThresholdPolicy;
use tlb_core::user_protocol::{run_user_controlled_with_stats, UserControlledConfig};
use tlb_core::weights::WeightSpec;
use tlb_obs::ObsReport;

use super::{Sweep, Trial};
use crate::cli::Experiment;
use crate::output::Table;
use crate::stats::Summary;

/// Configuration for the potential-decay experiment.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of resources.
    pub n: usize,
    /// Number of tasks.
    pub m: usize,
    /// Heavy weights to sweep (single heavy task).
    pub w_maxes: Vec<f64>,
    /// Threshold slack.
    pub epsilon: f64,
    /// Migration damping.
    pub alpha: f64,
    /// Trials per point.
    pub trials: usize,
    /// Base seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            n: 500,
            m: 2000,
            w_maxes: vec![1.0, 4.0, 16.0, 64.0],
            epsilon: 0.2,
            alpha: 1.0,
            trials: 100,
            seed: 0xA6,
        }
    }
}

impl Experiment for Config {
    fn quick() -> Self {
        Config { n: 100, m: 500, w_maxes: vec![1.0, 16.0], trials: 15, ..Default::default() }
    }

    fn trials_mut(&mut self) -> Option<&mut usize> {
        Some(&mut self.trials)
    }
}

/// Mean per-round relative potential decay of one run's series.
pub fn mean_decay(series: &[f64]) -> Option<f64> {
    let mut decays = Vec::new();
    for w in series.windows(2) {
        if w[0] > 0.0 {
            decays.push(1.0 - w[1] / w[0]);
        }
    }
    if decays.is_empty() {
        None
    } else {
        Some(decays.iter().sum::<f64>() / decays.len() as f64)
    }
}

/// Run the sweep. Columns: w_max, measured_decay_mean, measured_decay_ci95,
/// lemma10_delta_at_alpha (analytic, *at the swept α*), ratio.
///
/// All `w_max` points run as one [`Sweep`] batch (obs prefix `decay`).
pub fn run(cfg: &Config) -> (Table, ObsReport) {
    let mut table = Table::new(
        "potential_decay",
        format!(
            "A6/Lemma 10: measured per-round potential decay vs analytic delta (n={}, m={}, alpha={}, {} trials)",
            cfg.n, cfg.m, cfg.alpha, cfg.trials
        ),
        &["w_max", "measured_decay", "decay_ci95", "lemma10_delta", "measured_over_delta"],
    );
    let proto = UserControlledConfig {
        threshold: ThresholdPolicy::AboveAverage { epsilon: cfg.epsilon },
        alpha: cfg.alpha,
        track_potential: true,
        ..Default::default()
    };
    let specs: Vec<WeightSpec> =
        cfg.w_maxes.iter().map(|&w_max| WeightSpec::figure2(cfg.m, w_max)).collect();
    let seeds: Vec<u64> =
        cfg.w_maxes.iter().map(|&w_max| cfg.seed ^ (w_max as u64) << 24).collect();
    let n = cfg.n;
    let (results, reg) = Sweep::new("decay").run(&seeds, cfg.trials, |i, s| {
        let mut rng = SmallRng::seed_from_u64(s);
        let tasks = specs[i].generate(&mut rng);
        let (out, stats) =
            run_user_controlled_with_stats(n, &tasks, Placement::AllOnOne(0), &proto, &mut rng);
        Trial {
            value: mean_decay(&out.potential_series).unwrap_or(1.0),
            rounds: out.rounds,
            stats: Some(stats),
        }
    });
    for (&w_max, decays) in cfg.w_maxes.iter().zip(&results) {
        let s = Summary::of(decays);
        let delta = lemma10_delta(cfg.epsilon, cfg.alpha, w_max, 1.0);
        table.push_row(vec![
            format!("{w_max:.0}"),
            format!("{:.5}", s.mean),
            format!("{:.5}", s.ci95),
            format!("{delta:.5}"),
            format!("{:.2}", s.mean / delta),
        ]);
    }
    (table, reg.snapshot())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_decay_of_geometric_series() {
        let series: Vec<f64> = (0..10).map(|i| 100.0 * 0.5f64.powi(i)).collect();
        let d = mean_decay(&series).unwrap();
        assert!((d - 0.5).abs() < 1e-12);
        assert_eq!(mean_decay(&[0.0, 0.0]), None);
        assert_eq!(mean_decay(&[5.0]), None);
    }

    #[test]
    fn measured_decay_dominates_lemma10_bound() {
        // Lemma 10 is a lower bound on the decay; at alpha = 1 the real
        // decay should be comfortably above the analytic delta (which the
        // run-time bound uses with the conservative alpha).
        let cfg = Config::quick();
        let (t, _) = run(&cfg);
        for ratio in t.column_f64("measured_over_delta") {
            assert!(ratio > 1.0, "measured decay fell below Lemma-10 delta: {ratio}");
        }
    }

    #[test]
    fn decay_shrinks_with_heterogeneity() {
        let cfg = Config::quick();
        let (t, _) = run(&cfg);
        let decays = t.column_f64("measured_decay");
        assert!(decays[0] > decays[1], "uniform workload should decay faster: {decays:?}");
    }

    #[test]
    fn obs_counters_aggregate_the_sweep_deterministically() {
        crate::figures::tests::check(run, 3, "decay", "points", &["rounds", "uniform_jump_draws"]);
    }
}
