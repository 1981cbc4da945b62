//! Sequential `Greedy[d]`: each ball inspects `d` independent uniform
//! bins and joins the least loaded (ties: first sampled).
//!
//! `d = 1` is the one-choice process (gap grows with `m`); `d ≥ 2` gives
//! the two-choice miracle — for unit balls the gap is
//! `log log n / log d + O(1)` *independent of m* (Berenbrink et al.
//! \[10\]), and Talwar–Wieder \[9\] extend the m-independence to weighted
//! balls with finite-second-moment distributions.

use rand::Rng;
use tlb_core::task::TaskSet;

use crate::{rule, Allocation};

/// Allocate `tasks` into `n` bins with `d` choices per ball.
///
/// # Panics
/// If `n == 0` or `d == 0`.
pub fn allocate<R: Rng + ?Sized>(tasks: &TaskSet, n: usize, d: usize, rng: &mut R) -> Allocation {
    assert!(n > 0, "need at least one bin");
    assert!(d > 0, "need at least one choice");
    let mut loads = vec![0.0f64; n];
    for i in 0..tasks.len() {
        let bin = rule::greedy(n, d, |b| loads[b], rng);
        loads[bin] += tasks.weight(i as u32);
    }
    Allocation { loads, choices: (tasks.len() * d) as u64 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn mean_gap(m: usize, n: usize, d: usize, trials: usize, seed: u64) -> f64 {
        let tasks = TaskSet::uniform(m);
        (0..trials)
            .map(|t| {
                let mut rng = SmallRng::seed_from_u64(seed + t as u64);
                allocate(&tasks, n, d, &mut rng).gap()
            })
            .sum::<f64>()
            / trials as f64
    }

    #[test]
    fn conserves_weight_and_counts_choices() {
        let tasks = TaskSet::new(vec![1.0, 2.5, 4.0]);
        let mut rng = SmallRng::seed_from_u64(1);
        let a = allocate(&tasks, 5, 2, &mut rng);
        assert!((a.loads.iter().sum::<f64>() - 7.5).abs() < 1e-12);
        assert_eq!(a.choices, 6);
    }

    #[test]
    fn two_choice_beats_one_choice() {
        let g1 = mean_gap(20_000, 100, 1, 10, 11);
        let g2 = mean_gap(20_000, 100, 2, 10, 22);
        assert!(g2 < g1 / 3.0, "two-choice gap {g2} should be far below one-choice gap {g1}");
    }

    #[test]
    fn two_choice_gap_independent_of_m() {
        // Berenbrink et al. [10]: gap does not grow with m.
        let small = mean_gap(5_000, 100, 2, 15, 33);
        let large = mean_gap(50_000, 100, 2, 15, 44);
        assert!(large < small + 2.0, "two-choice gap grew with m: {small} -> {large}");
    }

    #[test]
    fn one_choice_gap_grows_with_m() {
        // One-choice gap ~ sqrt(m ln n / n): x10 m => ~x3 gap.
        let small = mean_gap(5_000, 100, 1, 15, 55);
        let large = mean_gap(50_000, 100, 1, 15, 66);
        assert!(large > 2.0 * small, "one-choice gap should grow ~sqrt(m): {small} -> {large}");
    }

    #[test]
    fn weighted_two_choice_gap_still_m_independent() {
        // Talwar–Wieder [9]: finite second moment => m-independent gap.
        let gap_at = |m: usize, seed: u64| {
            let mut rng = SmallRng::seed_from_u64(seed);
            let tasks =
                tlb_core::weights::WeightSpec::Exponential { m, mean: 2.0 }.generate(&mut rng);
            (0..10)
                .map(|t| {
                    let mut r = SmallRng::seed_from_u64(seed + 100 + t);
                    allocate(&tasks, 100, 2, &mut r).gap()
                })
                .sum::<f64>()
                / 10.0
        };
        let small = gap_at(5_000, 1);
        let large = gap_at(50_000, 2);
        assert!(
            large < 2.0 * small + 4.0,
            "weighted two-choice gap grew with m: {small} -> {large}"
        );
    }
}
