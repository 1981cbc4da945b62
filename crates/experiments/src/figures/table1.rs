//! **T1 — Table 1**: mixing and hitting times of the five graph families.
//!
//! The paper cites Aldous–Fill asymptotics (complete `O(1)/O(n)`, regular
//! expander `O(log n)/O(n)`, Erdős–Rényi `O(log n)/O(n)`, hypercube
//! `O(log n log log n)/O(n)`, grid `O(n)/O(n log n)`). This experiment
//! *measures* both quantities on our own substrate across a size sweep so
//! the shapes can be verified: the spectral gap / Lemma-2 mixing time, the
//! empirical total-variation 1/4-mixing time, and the exact maximum
//! hitting time (fundamental matrix) or a Monte-Carlo estimate when `n` is
//! too large to factor.
//!
//! Bipartite regular families (hypercube, even torus) are measured under
//! the lazy walk — the pure max-degree walk is periodic there and has no
//! mixing time; the lazy chain keeps the uniform stationary distribution
//! the paper's analysis needs (footnote: any walk with uniform π
//! qualifies) at the cost of a factor ≤ 2 in both quantities.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use tlb_graphs::generators::{self, Family};
use tlb_graphs::Graph;
use tlb_obs::ObsReport;
use tlb_walks::hitting;
use tlb_walks::mixing;
use tlb_walks::spectral::spectral_gap_power;
use tlb_walks::transition::{TransitionMatrix, WalkKind};

use super::{Sweep, Trial};
use crate::cli::Experiment;
use crate::output::Table;

/// Configuration of the Table-1 sweep.
#[derive(Debug, Clone)]
pub struct Config {
    /// Sizes (approximate node counts) per family. Hypercube rounds to the
    /// next power of two, grid to the next perfect square.
    pub sizes: Vec<usize>,
    /// Exact hitting times use the `O(n³)` fundamental matrix up to this
    /// size; larger graphs fall back to Monte Carlo.
    pub exact_hitting_cap: usize,
    /// Trials per pair for the Monte-Carlo fallback.
    pub mc_trials: usize,
    /// RNG seed for the randomized generators.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config { sizes: vec![64, 128, 256, 512], exact_hitting_cap: 600, mc_trials: 400, seed: 1 }
    }
}

impl Experiment for Config {
    fn quick() -> Self {
        Config { sizes: vec![32, 64], exact_hitting_cap: 128, mc_trials: 50, seed: 1 }
    }

    fn trials_mut(&mut self) -> Option<&mut usize> {
        None
    }
}

/// Instantiate a family at (approximately) `size` nodes. Returns the graph
/// and the walk kind used for its mixing measurement.
pub fn build_family(family: Family, size: usize, seed: u64) -> (Graph, WalkKind) {
    let mut rng = SmallRng::seed_from_u64(seed);
    match family {
        Family::Complete => (generators::complete(size), WalkKind::MaxDegree),
        Family::RegularExpander => {
            let n = if size % 2 == 1 { size + 1 } else { size };
            (generators::random_regular(n, 3, &mut rng).expect("feasible"), WalkKind::MaxDegree)
        }
        Family::ErdosRenyi => {
            let p = 2.0 * (size as f64).ln() / size as f64;
            (
                generators::erdos_renyi_connected(size, p, 200, &mut rng).expect("above threshold"),
                WalkKind::MaxDegree,
            )
        }
        Family::Hypercube => {
            let dim = (size as f64).log2().round().max(1.0) as u32;
            (generators::hypercube(dim), WalkKind::Lazy)
        }
        Family::Grid => {
            let side = (size as f64).sqrt().round().max(2.0) as usize;
            (generators::torus2d(side, side), WalkKind::Lazy)
        }
    }
}

/// One measured row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Family measured.
    pub family: Family,
    /// Actual node count.
    pub n: usize,
    /// Spectral gap µ.
    pub gap: f64,
    /// Lemma-2 mixing time `4 ln n / µ`.
    pub tau_lemma2: f64,
    /// Empirical TV 1/4-mixing time.
    pub tau_tv: Option<usize>,
    /// Maximum hitting time (exact if `n ≤ cap`, else Monte Carlo).
    pub hitting: f64,
    /// Whether `hitting` is exact.
    pub hitting_exact: bool,
}

/// Measure one family at one size.
pub fn measure(family: Family, size: usize, cfg: &Config) -> Row {
    let (g, kind) = build_family(family, size, cfg.seed);
    let n = g.num_nodes();
    let p = TransitionMatrix::build(&g, kind);
    let sg = spectral_gap_power(&p, &g, 1e-10, 100_000);
    let gap = sg.gap;
    let tau_lemma2 = mixing::lemma2_mixing_time(n, &sg).unwrap_or(u64::MAX) as f64;
    let tau_tv = mixing::tv_mixing_time(&p, &g, 0.25, (tau_lemma2 as usize).min(200_000) + 10);
    let (hitting, hitting_exact) = if n <= cfg.exact_hitting_cap {
        (hitting::max_hitting_time_exact(&p), true)
    } else {
        // Cap walks at a generous multiple of the asymptotic worst case.
        let cap = 50 * n * ((n as f64).ln().ceil() as usize + 1);
        (hitting::max_hitting_time_mc(&g, kind, 16, cfg.mc_trials, cap, cfg.seed), false)
    };
    Row { family, n, gap, tau_lemma2, tau_tv, hitting, hitting_exact }
}

/// Run the full sweep and format the paper-shaped table. Every
/// `(family, size)` measurement is one point of a [`Sweep`] batch (obs
/// prefix `table1`) with a single trial; the measurements are
/// deterministic, so the trial seed goes unused.
pub fn run(cfg: &Config) -> (Table, ObsReport) {
    let mut table = Table::new(
        "table1",
        "Table 1: measured mixing & hitting times per graph family (walk: max-degree; lazy on bipartite families)",
        &[
            "family",
            "n",
            "spectral_gap",
            "tau_lemma2",
            "tau_tv_quarter",
            "max_hitting",
            "hitting_mode",
            "theory_mixing",
            "theory_hitting",
        ],
    );
    let points: Vec<(Family, usize)> = Family::ALL
        .iter()
        .flat_map(|&family| cfg.sizes.iter().map(move |&size| (family, size)))
        .collect();
    let (rows, reg) = Sweep::new("table1").run(&vec![cfg.seed; points.len()], 1, |i, _| Trial {
        value: measure(points[i].0, points[i].1, cfg),
        rounds: 0,
        stats: None,
    });
    for row in rows.iter().flatten() {
        let (tm, th) = theory(row.family);
        table.push_row(vec![
            row.family.name().to_string(),
            row.n.to_string(),
            format!("{:.6}", row.gap),
            format!("{:.1}", row.tau_lemma2),
            row.tau_tv.map_or("-".into(), |t| t.to_string()),
            format!("{:.1}", row.hitting),
            if row.hitting_exact { "exact".into() } else { "monte-carlo".into() },
            tm.to_string(),
            th.to_string(),
        ]);
    }
    (table, reg.snapshot())
}

/// The paper's Table-1 asymptotics for a family.
pub fn theory(family: Family) -> (&'static str, &'static str) {
    match family {
        Family::Complete => ("O(1)", "O(n)"),
        Family::RegularExpander => ("O(log n)", "O(n)"),
        Family::ErdosRenyi => ("O(log n)", "O(n)"),
        Family::Hypercube => ("O(log n loglog n)", "O(n)"),
        Family::Grid => ("O(n)", "O(n log n)"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_family_row_matches_closed_forms() {
        let cfg = Config::quick();
        let row = measure(Family::Complete, 32, &cfg);
        assert_eq!(row.n, 32);
        // gap = 1 - 1/(n-1)
        assert!((row.gap - (1.0 - 1.0 / 31.0)).abs() < 1e-6);
        assert!(row.hitting_exact);
        assert!((row.hitting - 31.0).abs() < 1e-6);
        assert!(row.tau_tv.unwrap() <= 4);
    }

    #[test]
    fn grid_mixing_grows_linearly_expander_logarithmically() {
        // At a single small size the absolute values are comparable; the
        // Table-1 separation is in the *growth rate*: grid τ is Θ(n)
        // (ratio ≈ 4 from n=64 to n=256) while the expander's is Θ(log n)
        // (ratio ≈ 1.2).
        let cfg = Config::quick();
        let grid_small = measure(Family::Grid, 64, &cfg);
        let grid_large = measure(Family::Grid, 256, &cfg);
        let exp_small = measure(Family::RegularExpander, 64, &cfg);
        let exp_large = measure(Family::RegularExpander, 256, &cfg);
        let grid_growth = grid_large.tau_lemma2 / grid_small.tau_lemma2;
        let exp_growth = exp_large.tau_lemma2 / exp_small.tau_lemma2;
        assert!(
            grid_growth > 2.0 * exp_growth,
            "grid growth {grid_growth:.2} vs expander growth {exp_growth:.2}"
        );
        assert!(grid_growth > 2.5, "grid tau should scale ~linearly, got {grid_growth:.2}");
    }

    #[test]
    fn full_quick_table_has_all_rows() {
        let cfg = Config::quick();
        let (t, _) = run(&cfg);
        assert_eq!(t.rows.len(), Family::ALL.len() * cfg.sizes.len());
        // every row's hitting time is positive
        for h in t.column_f64("max_hitting") {
            assert!(h > 0.0);
        }
    }

    #[test]
    fn hypercube_size_rounds_to_power_of_two() {
        let (g, kind) = build_family(Family::Hypercube, 100, 1);
        assert_eq!(g.num_nodes(), 128);
        assert_eq!(kind, WalkKind::Lazy);
    }
}
