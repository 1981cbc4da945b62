//! **F2 — Figure 2**: user-controlled balancing time normalized by
//! `log m`, as a function of the number of tasks `m`, for a single heavy
//! task of weight `w_max ∈ {1, 2, 4, …, 256}`.
//!
//! Paper setting: `n = 1000`, `ε = 0.2`, `α = 1`, all tasks on one
//! resource, 1000 trials. Finding: the normalized time is flat in `m` and
//! almost linear in `w_max/w_min`, i.e. Theorem 11 is tight up to a
//! constant.

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
use crate::stats::{linear_fit, Summary};

/// Configuration of the Figure-2 sweep.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of resources (paper: 1000).
    pub n: usize,
    /// Threshold slack (paper: 0.2).
    pub epsilon: f64,
    /// Migration damping (paper: 1.0).
    pub alpha: f64,
    /// Heavy-task weights to sweep (paper: 1, 2, 4, …, 256).
    pub w_maxes: Vec<f64>,
    /// Task counts to sweep (paper: up to 5000).
    pub ms: Vec<usize>,
    /// Trials per point (paper: 1000).
    pub trials: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            n: 1000,
            epsilon: 0.2,
            alpha: 1.0,
            w_maxes: (0..=8).map(|e| (1u64 << e) as f64).collect(),
            ms: (1..=10).map(|i| i * 500).collect(),
            trials: 1000,
            seed: 0xF162,
        }
    }
}

impl Experiment for Config {
    fn quick() -> Self {
        Config {
            n: 200,
            w_maxes: vec![1.0, 8.0, 64.0],
            ms: vec![1000, 3000, 5000],
            trials: 30,
            ..Default::default()
        }
    }

    fn trials_mut(&mut self) -> Option<&mut usize> {
        Some(&mut self.trials)
    }
}

/// Run the sweep. Columns: `w_max, m, rounds_mean, rounds_ci95,
/// normalized` where `normalized = rounds / ln m` is the paper's y-axis.
/// All `(w_max, m)` points run as one [`Sweep`] batch (obs prefix
/// `figure2`).
pub fn run(cfg: &Config) -> (Table, ObsReport) {
    let mut table = Table::new(
        "figure2",
        format!(
            "Figure 2: normalized balancing time vs m per w_max (user-controlled, n={}, eps={}, alpha={}, {} trials)",
            cfg.n, cfg.epsilon, cfg.alpha, cfg.trials
        ),
        &["w_max", "m", "rounds_mean", "rounds_ci95", "normalized"],
    );
    let points: Vec<(f64, usize)> = cfg
        .w_maxes
        .iter()
        .flat_map(|&w_max| cfg.ms.iter().map(move |&m| (w_max, m)))
        .collect();
    let seeds: Vec<u64> = points
        .iter()
        .map(|&(w_max, m)| cfg.seed ^ ((m as u64) << 20) ^ (w_max as u64))
        .collect();
    let specs: Vec<WeightSpec> =
        points.iter().map(|&(w_max, m)| WeightSpec::figure2(m, w_max)).collect();
    let proto = UserControlledConfig {
        threshold: ThresholdPolicy::AboveAverage { epsilon: cfg.epsilon },
        alpha: cfg.alpha,
        ..Default::default()
    };
    let n = cfg.n;
    let (results, reg) = Sweep::new("figure2").run(&seeds, cfg.trials, |i, s| {
        let mut rng = SmallRng::seed_from_u64(s);
        let tasks = specs[i].generate(&mut rng);
        let (out, stats) =
            run_user_controlled_with_stats(n, &tasks, Placement::AllOnOne(0), &proto, &mut rng);
        Trial { value: out.rounds as f64, rounds: out.rounds, stats: Some(stats) }
    });
    for (&(w_max, m), rounds) in points.iter().zip(&results) {
        let s = Summary::of(rounds);
        table.push_row(vec![
            format!("{w_max:.0}"),
            m.to_string(),
            format!("{:.2}", s.mean),
            format!("{:.2}", s.ci95),
            format!("{:.3}", s.mean / (m as f64).ln()),
        ]);
    }
    (table, reg.snapshot())
}

/// Shape checks for EXPERIMENTS.md:
///
/// 1. per-`w_max` flatness of `normalized` in `m` (max/min ratio),
/// 2. linearity of the per-`w_max` mean plateau in `w_max`
///    (`plateau ~ a + b·w_max`, returns `(b, r²)`).
pub fn shape_checks(cfg: &Config, table: &Table) -> (Vec<(f64, f64)>, (f64, f64)) {
    let mut flatness = Vec::new();
    let mut plateau_x = Vec::new();
    let mut plateau_y = Vec::new();
    for &w_max in &cfg.w_maxes {
        let mut vals = Vec::new();
        for row in &table.rows {
            if row[0] == format!("{w_max:.0}") {
                vals.push(row[4].parse::<f64>().expect("normalized numeric"));
            }
        }
        if vals.is_empty() {
            continue;
        }
        let max = vals.iter().fold(f64::MIN, |a, &b| a.max(b));
        let min = vals.iter().fold(f64::MAX, |a, &b| a.min(b));
        flatness.push((w_max, max / min));
        plateau_x.push(w_max);
        plateau_y.push(vals.iter().sum::<f64>() / vals.len() as f64);
    }
    let (_, slope, r2) = linear_fit(&plateau_x, &plateau_y);
    (flatness, (slope, r2))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Config {
        Config {
            n: 50,
            w_maxes: vec![1.0, 16.0],
            ms: vec![300, 900],
            trials: 10,
            ..Config::default()
        }
    }

    #[test]
    fn sweep_produces_all_points() {
        let cfg = tiny();
        let (t, _) = run(&cfg);
        assert_eq!(t.rows.len(), 4);
    }

    #[test]
    fn heavier_wmax_increases_normalized_time() {
        let cfg = Config { ms: vec![900], ..tiny() };
        let (t, _) = run(&cfg);
        let rounds = t.column_f64("rounds_mean");
        let (light, heavy) = (rounds[0], rounds[1]);
        assert!(heavy > light, "w_max = 16 should balance slower: {light} vs {heavy}");
    }

    #[test]
    fn shape_checks_return_per_wmax_entries() {
        let cfg = tiny();
        let (t, _) = run(&cfg);
        let (flatness, (slope, _r2)) = shape_checks(&cfg, &t);
        assert_eq!(flatness.len(), 2);
        for (_w, ratio) in &flatness {
            assert!(*ratio >= 1.0);
        }
        assert!(slope > 0.0, "normalized time must grow with w_max");
    }
}
