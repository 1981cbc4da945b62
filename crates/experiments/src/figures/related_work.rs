//! **A8 — related-work baselines** (paper Section 3): the cited
//! allocators on the same weighted workloads as the threshold protocols.
//!
//! Two comparisons:
//!
//! 1. **Gap vs m** — one-choice, two-choice (Talwar–Wieder \[9\]),
//!    `(1+β)` (Peres et al. \[11\]), sequential threshold-retry
//!    (Berenbrink et al. \[5\]) and 4-round parallel threshold (Adler et
//!    al. \[4\]): the classic result that multi-choice/threshold schemes
//!    have m-independent gaps while one-choice grows as `√m`.
//! 2. **Cost accounting** — random choices consumed per scheme, since the
//!    threshold protocols' advantage is reaching a *guaranteed* threshold
//!    with decentralized decisions rather than fewer samples.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use tlb_baselines::{greedy, one_plus_beta, parallel_threshold, sequential_threshold};
use tlb_core::weights::WeightSpec;
use tlb_obs::ObsReport;

use super::{Sweep, Trial};
use crate::cli::Experiment;
use crate::output::Table;
use crate::stats::Summary;

/// Configuration for the related-work comparison.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of bins.
    pub n: usize,
    /// Task counts to sweep (gap-vs-m axis).
    pub ms: Vec<usize>,
    /// Heavy-tail cap for the weighted workload.
    pub weight_cap: f64,
    /// Trials per point.
    pub trials: usize,
    /// Base seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            n: 500,
            ms: vec![2_500, 10_000, 40_000],
            weight_cap: 16.0,
            trials: 100,
            seed: 0xA8,
        }
    }
}

impl Experiment for Config {
    fn quick() -> Self {
        Config { n: 100, ms: vec![1_000, 8_000], trials: 15, ..Default::default() }
    }

    fn trials_mut(&mut self) -> Option<&mut usize> {
        Some(&mut self.trials)
    }
}

/// The schemes compared, by label.
pub const SCHEMES: [&str; 5] =
    ["one-choice", "two-choice", "(1+beta=0.5)", "seq-threshold", "par-threshold-4r"];

fn run_scheme(scheme: &str, spec: &WeightSpec, n: usize, seed: u64) -> (f64, u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let tasks = spec.generate(&mut rng);
    match scheme {
        "one-choice" => {
            let a = greedy::allocate(&tasks, n, 1, &mut rng);
            (a.gap(), a.choices)
        }
        "two-choice" => {
            let a = greedy::allocate(&tasks, n, 2, &mut rng);
            (a.gap(), a.choices)
        }
        "(1+beta=0.5)" => {
            let a = one_plus_beta::allocate(&tasks, n, 0.5, &mut rng);
            (a.gap(), a.choices)
        }
        "seq-threshold" => {
            let o = sequential_threshold::allocate(&tasks, n, 1.0, 50, &mut rng);
            (o.allocation().gap(), o.choices)
        }
        "par-threshold-4r" => {
            let o = parallel_threshold::allocate_uniform_threshold(&tasks, n, 4, 1.0, &mut rng);
            (o.allocation().gap(), o.choices)
        }
        other => panic!("unknown scheme {other}"),
    }
}

/// Run the sweep. Columns: scheme, m, gap_mean, gap_ci95,
/// choices_per_ball. All `(scheme, m)` points run as one [`Sweep`]
/// batch (obs prefix `related`); the allocators have no round loop, so
/// `related.rounds` stays 0.
pub fn run(cfg: &Config) -> (Table, ObsReport) {
    let mut table = Table::new(
        "related_work",
        format!(
            "A8/Section 3: related-work allocators on weighted workloads (n={}, Pareto cap={}, {} trials)",
            cfg.n, cfg.weight_cap, cfg.trials
        ),
        &["scheme", "m", "gap_mean", "gap_ci95", "choices_per_ball"],
    );
    let points: Vec<(&str, usize)> = SCHEMES
        .iter()
        .flat_map(|&scheme| cfg.ms.iter().map(move |&m| (scheme, m)))
        .collect();
    let seeds: Vec<u64> = points
        .iter()
        .map(|&(scheme, m)| cfg.seed ^ ((m as u64) << 8) ^ scheme.len() as u64)
        .collect();
    let specs: Vec<WeightSpec> = points
        .iter()
        .map(|&(_, m)| WeightSpec::ParetoTruncated { m, alpha: 1.5, cap: cfg.weight_cap })
        .collect();
    let (results, reg) = Sweep::new("related").run(&seeds, cfg.trials, |i, s| Trial {
        value: run_scheme(points[i].0, &specs[i], cfg.n, s),
        rounds: 0,
        stats: None,
    });
    for (&(scheme, m), results) in points.iter().zip(&results) {
        let gaps: Vec<f64> = results.iter().map(|r| r.0).collect();
        let choices: f64 = results.iter().map(|r| r.1 as f64).sum::<f64>() / results.len() as f64;
        let g = Summary::of(&gaps);
        table.push_row(vec![
            scheme.to_string(),
            m.to_string(),
            format!("{:.3}", g.mean),
            format!("{:.3}", g.ci95),
            format!("{:.2}", choices / m as f64),
        ]);
    }
    (table, reg.snapshot())
}

/// Shape check: per scheme, the ratio gap(m_max)/gap(m_min) — one-choice
/// must grow, the multi-choice/threshold schemes must not (by much).
pub fn growth_ratios(cfg: &Config, table: &Table) -> Vec<(String, f64)> {
    let (m_min, m_max) =
        (*cfg.ms.iter().min().expect("non-empty ms"), *cfg.ms.iter().max().expect("non-empty ms"));
    SCHEMES
        .iter()
        .map(|&scheme| {
            let at = |m: usize| -> f64 {
                table
                    .rows
                    .iter()
                    .find(|r| r[0] == scheme && r[1] == m.to_string())
                    .map(|r| r[2].parse().expect("gap numeric"))
                    .expect("row present")
            };
            (scheme.to_string(), at(m_max) / at(m_min).max(1e-9))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_all_schemes_and_sizes() {
        let cfg = Config::quick();
        let (t, _) = run(&cfg);
        assert_eq!(t.rows.len(), SCHEMES.len() * cfg.ms.len());
        for g in t.column_f64("gap_mean") {
            assert!(g >= 0.0 && g.is_finite());
        }
    }

    #[test]
    fn one_choice_grows_multi_choice_does_not() {
        let cfg = Config { trials: 20, ..Config::quick() };
        let (t, _) = run(&cfg);
        let ratios = growth_ratios(&cfg, &t);
        let get = |s: &str| ratios.iter().find(|(name, _)| name == s).unwrap().1;
        let one = get("one-choice");
        let two = get("two-choice");
        assert!(one > 1.5, "one-choice gap must grow with m: ratio {one}");
        assert!(two < one, "two-choice growth {two} must be below one-choice {one}");
        assert!(get("seq-threshold") < one, "threshold-retry must not track one-choice");
    }
}
