//! `r`-round parallel threshold allocation (Adler et al. \[4\] regime).
//!
//! All unplaced balls act synchronously: each picks a uniform bin; a bin
//! accepts incoming balls while its load stays at or below the round's
//! threshold, and rejects the rest, which retry next round. After `r`
//! rounds any survivors are force-placed on uniform bins (the "give up"
//! step that Adler et al.'s lower bound says must exist for constant-round
//! protocols). The interesting trade-off is rounds vs final maximum load.

use rand::Rng;
use serde::{Deserialize, Serialize};
use tlb_core::task::TaskSet;

use crate::{rule, Allocation};

/// Outcome of a parallel-threshold run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParallelOutcome {
    /// Per-bin loads after the final (force) placement.
    pub loads: Vec<f64>,
    /// Balls still unplaced after each round (length = rounds executed).
    pub survivors_per_round: Vec<usize>,
    /// Balls force-placed after the last round.
    pub forced: usize,
    /// Total random choices consumed.
    pub choices: u64,
}

impl ParallelOutcome {
    /// View as a generic [`Allocation`].
    pub fn allocation(&self) -> Allocation {
        Allocation { loads: self.loads.clone(), choices: self.choices }
    }
}

/// Run `rounds` synchronous rounds with per-round load threshold
/// `thresholds[j]` (a ball is accepted if the bin's load *including it*
/// stays `≤ thresholds[j]`). `thresholds.len()` must equal `rounds`.
///
/// Arrival order within a round is randomized (ties between colliding
/// balls are broken uniformly, as in the cited model).
///
/// # Panics
/// If `n == 0`, `rounds == 0`, or threshold/round lengths mismatch.
pub fn allocate<R: Rng + ?Sized>(
    tasks: &TaskSet,
    n: usize,
    thresholds: &[f64],
    rng: &mut R,
) -> ParallelOutcome {
    assert!(n > 0, "need at least one bin");
    assert!(!thresholds.is_empty(), "need at least one round");
    let mut loads = vec![0.0f64; n];
    let mut unplaced: Vec<u32> = (0..tasks.len() as u32).collect();
    let mut survivors_per_round = Vec::with_capacity(thresholds.len());
    let mut choices = 0u64;
    let mut bins: Vec<u32> = Vec::new();

    for &t in thresholds {
        choices += unplaced.len() as u64;
        rule::wave(n, &mut unplaced, &mut bins, rng);
        // Accept in arrival order; the rejected keep that order.
        let mut bin = bins.iter().map(|&b| b as usize);
        unplaced.retain(|&ball| {
            let (b, w) = (bin.next().unwrap(), tasks.weight(ball));
            let fits = loads[b] + w <= t;
            if fits {
                loads[b] += w;
            }
            !fits
        });
        survivors_per_round.push(unplaced.len());
    }

    let forced = unplaced.len();
    for &ball in &unplaced {
        let bin = rng.gen_range(0..n);
        choices += 1;
        loads[bin] += tasks.weight(ball);
    }

    ParallelOutcome { loads, survivors_per_round, forced, choices }
}

/// Convenience: `rounds` rounds all at threshold `W/n + slack·w_max`
/// (the natural analog of the paper's thresholds).
pub fn allocate_uniform_threshold<R: Rng + ?Sized>(
    tasks: &TaskSet,
    n: usize,
    rounds: usize,
    slack: f64,
    rng: &mut R,
) -> ParallelOutcome {
    let t = tasks.total_weight() / n as f64 + slack * tasks.w_max();
    let thresholds = vec![t; rounds];
    allocate(tasks, n, &thresholds, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn conserves_weight_even_with_forcing() {
        let tasks = TaskSet::uniform(500);
        let mut rng = SmallRng::seed_from_u64(1);
        let out = allocate_uniform_threshold(&tasks, 50, 2, 1.0, &mut rng);
        let total: f64 = out.loads.iter().sum();
        assert!((total - 500.0).abs() < 1e-9);
        assert_eq!(out.survivors_per_round.len(), 2);
    }

    #[test]
    fn survivors_shrink_geometrically() {
        // With threshold >= average + slack, a constant fraction of balls
        // lands in non-full bins each round.
        let tasks = TaskSet::uniform(5000);
        let mut rng = SmallRng::seed_from_u64(2);
        let out = allocate_uniform_threshold(&tasks, 500, 6, 2.0, &mut rng);
        let s = &out.survivors_per_round;
        assert!(s[0] < 5000);
        for w in s.windows(2) {
            assert!(w[1] <= w[0], "survivors must not increase: {s:?}");
        }
        assert!(*s.last().unwrap() < 5000 / 20, "six rounds should place almost everything: {s:?}");
    }

    #[test]
    fn more_rounds_lower_max_load() {
        let tasks = TaskSet::uniform(10_000);
        let trials = 8;
        let mean_max = |rounds: usize, seed: u64| -> f64 {
            (0..trials)
                .map(|t| {
                    let mut rng = SmallRng::seed_from_u64(seed + t);
                    allocate_uniform_threshold(&tasks, 1000, rounds, 1.0, &mut rng)
                        .allocation()
                        .max_load()
                })
                .sum::<f64>()
                / trials as f64
        };
        let one = mean_max(1, 10);
        let four = mean_max(4, 20);
        assert!(four < one, "4 rounds ({four}) should beat 1 round ({one}) on max load");
    }

    #[test]
    fn zero_survivors_with_generous_threshold() {
        let tasks = TaskSet::uniform(100);
        let mut rng = SmallRng::seed_from_u64(3);
        // Threshold = total weight: first round accepts everything.
        let out = allocate(&tasks, 10, &[100.0], &mut rng);
        assert_eq!(out.survivors_per_round, vec![0]);
        assert_eq!(out.forced, 0);
    }

    #[test]
    fn weighted_balls_respect_threshold_until_forcing() {
        let mut rng = SmallRng::seed_from_u64(4);
        let tasks =
            tlb_core::weights::WeightSpec::ParetoTruncated { m: 2000, alpha: 1.5, cap: 16.0 }
                .generate(&mut rng);
        let t = tasks.total_weight() / 100.0 + 2.0 * tasks.w_max();
        let out = allocate(&tasks, 100, &[t, t, t, t, t, t, t, t], &mut rng);
        if out.forced == 0 {
            assert!(out.allocation().max_load() <= t + 1e-9);
        }
    }
}
