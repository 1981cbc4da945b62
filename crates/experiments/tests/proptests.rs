//! Property-based tests for the harness/statistics/output layer.

use proptest::prelude::*;
use tlb_experiments::harness;
use tlb_experiments::output::Table;
use tlb_experiments::stats::{linear_fit, Summary};

proptest! {
    /// The parallel harness is a pure fan-out: results always equal the
    /// sequential reference, independent of scheduling.
    #[test]
    fn parallel_equals_sequential(trials in 1usize..300, seed in any::<u64>()) {
        let f = |s: u64| (s >> 5) as f64 * 0.5;
        prop_assert_eq!(
            harness::run_trials(trials, seed, f),
            harness::run_trials_sequential(trials, seed, f)
        );
    }

    /// Whole-sweep scheduling is observationally pure scheduling: for any
    /// point-seed list and trial count, `run_sweep_map` output is
    /// bit-identical to the per-point `run_trials` loop it replaced.
    #[test]
    fn run_sweep_equals_per_point_loop(
        point_seeds in proptest::collection::vec(any::<u64>(), 0..12),
        trials in 0usize..60,
    ) {
        // Mix point index and seed nonlinearly so scheduling mistakes
        // (wrong point, wrong trial, wrong order) cannot cancel out.
        let f = |point: usize, s: u64| {
            (s ^ (point as u64).wrapping_mul(0x9E3779B97F4A7C15)) as f64
        };
        let swept = harness::run_sweep_map(&point_seeds, trials, f);
        let per_point: Vec<Vec<f64>> = point_seeds
            .iter()
            .enumerate()
            .map(|(i, &seed)| harness::run_trials(trials, seed, |s| f(i, s)))
            .collect();
        prop_assert_eq!(swept, per_point);
    }

    /// Derived trial seeds never collide within a sweep and differ across
    /// base seeds.
    #[test]
    fn trial_seeds_injective(base in any::<u64>()) {
        let seeds: std::collections::HashSet<u64> =
            (0..2000).map(|t| harness::trial_seed(base, t)).collect();
        prop_assert_eq!(seeds.len(), 2000);
    }

    /// Summary invariants: min <= mean <= max, non-negative spread, exact
    /// count.
    #[test]
    fn summary_invariants(samples in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
        let s = Summary::of(&samples);
        prop_assert_eq!(s.count, samples.len());
        prop_assert!(s.min <= s.mean + 1e-9);
        prop_assert!(s.mean <= s.max + 1e-9);
        prop_assert!(s.std >= 0.0);
        prop_assert!(s.ci95 >= 0.0);
    }

    /// Linear fit recovers planted lines exactly (within float noise).
    #[test]
    fn linear_fit_recovers_planted_line(
        a in -100.0f64..100.0,
        b in -10.0f64..10.0,
        xs in proptest::collection::vec(-50.0f64..50.0, 2..50),
    ) {
        // Need at least two distinct x values for an identifiable slope.
        let spread = xs.iter().cloned().fold(f64::MIN, f64::max)
            - xs.iter().cloned().fold(f64::MAX, f64::min);
        prop_assume!(spread > 1e-6);
        let ys: Vec<f64> = xs.iter().map(|x| a + b * x).collect();
        let (ahat, bhat, r2) = linear_fit(&xs, &ys);
        prop_assert!((ahat - a).abs() < 1e-6 * (1.0 + a.abs()), "{ahat} vs {a}");
        prop_assert!((bhat - b).abs() < 1e-6 * (1.0 + b.abs()), "{bhat} vs {b}");
        prop_assert!(r2 > 1.0 - 1e-9);
    }

    /// Tables survive a CSV render and a serde JSON roundtrip for
    /// arbitrary cell content.
    #[test]
    fn table_roundtrips(
        cells in proptest::collection::vec(
            proptest::collection::vec("[ -~]{0,12}", 3..=3), 0..20),
    ) {
        let mut t = Table::new("prop", "prop table", &["a", "b", "c"]);
        for row in cells {
            t.push_row(row);
        }
        let json = serde_json::to_string(&t).unwrap();
        let back: Table = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(&back, &t);
        // CSV line count = header + rows (cells are single-line by
        // construction).
        prop_assert_eq!(t.to_csv().lines().count(), 1 + t.rows.len());
    }
}
