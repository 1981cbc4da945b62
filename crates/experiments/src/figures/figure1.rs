//! **F1 — Figure 1**: user-controlled balancing time as a function of the
//! total weight `W`, for `k ∈ {1, 5, 10, 20, 50}` heavy tasks of weight
//! `w_max = 50` (the rest unit weight).
//!
//! Paper setting: `n = 1000`, `ε = 0.2`, `α = 1`, all tasks initially on
//! one resource, 1000 trials per point. Finding: the balancing time is
//! proportional to `log(m(W,k) + k)` and therefore nearly independent of
//! the number of heavy tasks `k`.

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

/// Configuration of the Figure-1 sweep.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of resources (paper: 1000).
    pub n: usize,
    /// Threshold slack (paper: 0.2).
    pub epsilon: f64,
    /// Migration damping (paper simulations: 1.0).
    pub alpha: f64,
    /// Heavy-task weight (paper: 50).
    pub w_max: f64,
    /// Heavy-task counts to sweep (paper: 1, 5, 10, 20, 50).
    pub ks: Vec<usize>,
    /// Total weights to sweep (paper: 2000..=10000).
    pub w_totals: Vec<f64>,
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
            w_max: 50.0,
            ks: vec![1, 5, 10, 20, 50],
            w_totals: (2..=10).map(|w| (w * 1000) as f64).collect(),
            trials: 1000,
            seed: 0xF161,
        }
    }
}

impl Experiment for Config {
    fn quick() -> Self {
        Config {
            n: 200,
            ks: vec![1, 10, 50],
            w_totals: vec![2000.0, 6000.0, 10000.0],
            trials: 30,
            ..Default::default()
        }
    }

    fn trials_mut(&mut self) -> Option<&mut usize> {
        Some(&mut self.trials)
    }
}

/// Run the sweep. Columns: `W, k, m, rounds_mean, rounds_ci95,
/// rounds_over_log_m` — the last reproducing the paper's observation that
/// the curves collapse under the `log(m+k)` normalization. All `(k, W)`
/// points run as one [`Sweep`] batch (obs prefix `figure1`).
pub fn run(cfg: &Config) -> (Table, ObsReport) {
    let mut table = Table::new(
        "figure1",
        format!(
            "Figure 1: balancing time vs W (user-controlled, n={}, eps={}, alpha={}, wmax={}, {} trials)",
            cfg.n, cfg.epsilon, cfg.alpha, cfg.w_max, cfg.trials
        ),
        &["W", "k", "m", "rounds_mean", "rounds_ci95", "rounds_over_log_m"],
    );
    let mut points: Vec<(f64, usize, WeightSpec)> = Vec::new();
    for &k in &cfg.ks {
        for &w_total in &cfg.w_totals {
            // k heavy tasks cannot outweigh the requested total (e.g. the
            // paper's k = 50 curve cannot start at W = 2000 < 50·50).
            if (k as f64) * cfg.w_max <= w_total {
                points.push((
                    w_total,
                    k,
                    WeightSpec::TwoPoint { total: w_total, k, heavy: cfg.w_max },
                ));
            }
        }
    }
    let seeds: Vec<u64> = points
        .iter()
        .map(|&(w_total, k, _)| cfg.seed ^ (w_total as u64) ^ ((k as u64) << 32))
        .collect();
    let proto = UserControlledConfig {
        threshold: ThresholdPolicy::AboveAverage { epsilon: cfg.epsilon },
        alpha: cfg.alpha,
        ..Default::default()
    };
    let n = cfg.n;
    let (results, reg) = Sweep::new("figure1").run(&seeds, cfg.trials, |i, s| {
        let mut rng = SmallRng::seed_from_u64(s);
        let tasks = points[i].2.generate(&mut rng);
        let (out, stats) =
            run_user_controlled_with_stats(n, &tasks, Placement::AllOnOne(0), &proto, &mut rng);
        Trial { value: out.rounds as f64, rounds: out.rounds, stats: Some(stats) }
    });
    for ((w_total, k, spec), rounds) in points.iter().zip(&results) {
        let m = spec.num_tasks();
        let s = Summary::of(rounds);
        table.push_row(vec![
            format!("{w_total:.0}"),
            k.to_string(),
            m.to_string(),
            format!("{:.2}", s.mean),
            format!("{:.2}", s.ci95),
            format!("{:.3}", s.mean / (m as f64).ln()),
        ]);
    }
    (table, reg.snapshot())
}

/// Shape check used by EXPERIMENTS.md: fit `rounds ~ a + b·ln m` per `k`
/// and report `(k, slope b, r²)`.
pub fn log_fit_per_k(cfg: &Config, table: &Table) -> Vec<(usize, f64, f64)> {
    let mut out = Vec::new();
    for &k in &cfg.ks {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for row in &table.rows {
            if row[1] == k.to_string() {
                let m: f64 = row[2].parse().expect("m numeric");
                let rounds: f64 = row[3].parse().expect("rounds numeric");
                xs.push(m.ln());
                ys.push(rounds);
            }
        }
        if xs.len() >= 2 {
            let (_, b, r2) = linear_fit(&xs, &ys);
            out.push((k, b, r2));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Config {
        Config {
            n: 50,
            ks: vec![1, 5],
            w_totals: vec![500.0, 1500.0],
            trials: 10,
            ..Config::default()
        }
    }

    #[test]
    fn sweep_produces_all_points() {
        let cfg = tiny();
        let (t, _) = run(&cfg);
        assert_eq!(t.rows.len(), 4);
        for r in t.column_f64("rounds_mean") {
            assert!(r >= 1.0, "hotspot start must need at least one round, got {r}");
        }
    }

    #[test]
    fn rounds_grow_with_total_weight() {
        let cfg = Config { ks: vec![1], ..tiny() };
        let (t, _) = run(&cfg);
        let rounds = t.column_f64("rounds_mean");
        let (small, large) = (rounds[0], rounds[1]);
        assert!(
            large >= small * 0.8,
            "larger W should not balance dramatically faster: {small} vs {large}"
        );
    }

    #[test]
    fn log_fit_reports_each_k() {
        let cfg = tiny();
        let (t, _) = run(&cfg);
        let fits = log_fit_per_k(&cfg, &t);
        assert_eq!(fits.len(), 2);
        for (_, slope, _) in fits {
            assert!(slope.is_finite());
        }
    }
}
