//! The `(1+β)`-process (Peres–Talwar–Wieder \[11\]): each ball uses one
//! uniform choice with probability `β` and two choices (least loaded)
//! otherwise. Gap `Θ(log n / β)`, independent of `m`, including weighted
//! balls from a large class of distributions.

use rand::Rng;
use tlb_core::task::TaskSet;

use crate::{rule, Allocation};

/// Allocate with mixing parameter `beta ∈ (0, 1]`.
///
/// `beta = 1` degenerates to one-choice; `beta → 0` to two-choice.
///
/// # Panics
/// If `n == 0` or `beta` outside `(0, 1]`.
pub fn allocate<R: Rng + ?Sized>(tasks: &TaskSet, n: usize, beta: f64, rng: &mut R) -> Allocation {
    assert!(n > 0, "need at least one bin");
    assert!(beta > 0.0 && beta <= 1.0, "beta must be in (0, 1], got {beta}");
    let mut loads = vec![0.0f64; n];
    let mut choices = 0u64;
    for i in 0..tasks.len() {
        let (bin, draws) = rule::one_plus_beta(n, beta, |b| loads[b], rng);
        choices += draws;
        loads[bin] += tasks.weight(i as u32);
    }
    Allocation { loads, choices }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn mean_gap(m: usize, n: usize, beta: f64, trials: usize, seed: u64) -> f64 {
        let tasks = TaskSet::uniform(m);
        (0..trials)
            .map(|t| {
                let mut rng = SmallRng::seed_from_u64(seed + t as u64);
                allocate(&tasks, n, beta, &mut rng).gap()
            })
            .sum::<f64>()
            / trials as f64
    }

    #[test]
    fn gap_scales_inversely_with_beta() {
        // Gap ~ log n / beta: halving beta should increase the gap.
        let g_hi = mean_gap(40_000, 100, 0.8, 12, 1);
        let g_lo = mean_gap(40_000, 100, 0.1, 12, 2);
        assert!(
            g_lo < g_hi,
            "smaller beta (more two-choice) must shrink the gap: beta=0.8 -> {g_hi}, beta=0.1 -> {g_lo}"
        );
    }

    #[test]
    fn gap_independent_of_m_for_fixed_beta() {
        let small = mean_gap(5_000, 100, 0.5, 12, 3);
        let large = mean_gap(50_000, 100, 0.5, 12, 4);
        assert!(large < 2.0 * small + 3.0, "(1+beta) gap grew with m: {small} -> {large}");
    }

    #[test]
    fn beta_one_matches_one_choice_statistically() {
        let tasks = TaskSet::uniform(20_000);
        let trials = 10;
        let g_beta: f64 = (0..trials)
            .map(|t| {
                let mut rng = SmallRng::seed_from_u64(50 + t);
                allocate(&tasks, 100, 1.0, &mut rng).gap()
            })
            .sum::<f64>()
            / trials as f64;
        let g_one: f64 = (0..trials)
            .map(|t| {
                let mut rng = SmallRng::seed_from_u64(150 + t);
                crate::greedy::allocate(&tasks, 100, 1, &mut rng).gap()
            })
            .sum::<f64>()
            / trials as f64;
        assert!(
            (g_beta - g_one).abs() < 0.35 * g_one,
            "beta=1 ({g_beta}) should look like one-choice ({g_one})"
        );
    }

    #[test]
    #[should_panic(expected = "beta must be in")]
    fn rejects_zero_beta() {
        let mut rng = SmallRng::seed_from_u64(0);
        allocate(&TaskSet::uniform(10), 5, 0.0, &mut rng);
    }

    #[test]
    fn conserves_weight() {
        let tasks = TaskSet::new(vec![3.0, 1.0, 2.0]);
        let mut rng = SmallRng::seed_from_u64(9);
        let a = allocate(&tasks, 4, 0.3, &mut rng);
        assert!((a.loads.iter().sum::<f64>() - 6.0).abs() < 1e-12);
    }
}
