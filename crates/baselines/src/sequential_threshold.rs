//! Sequential threshold-retry allocation (Berenbrink et al. \[5\] regime).
//!
//! Balls arrive one at a time; each repeatedly samples uniform bins until
//! one accepts it under the current threshold. If a ball exhausts its
//! per-ball retry budget the threshold is relaxed by one `w_max` step (the
//! escalation that gives the cited scheme its `⌈m/n⌉ + 1` guarantee with
//! `O(m)` expected choices for unit balls).

use rand::Rng;
use serde::{Deserialize, Serialize};
use tlb_core::task::TaskSet;

use crate::{rule, Allocation};

/// Outcome of a sequential threshold-retry run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SequentialOutcome {
    /// Per-bin loads.
    pub loads: Vec<f64>,
    /// Total random choices consumed.
    pub choices: u64,
    /// Number of threshold escalations that occurred.
    pub escalations: u64,
    /// The final (possibly escalated) threshold.
    pub final_threshold: f64,
}

impl SequentialOutcome {
    /// View as a generic [`Allocation`].
    pub fn allocation(&self) -> Allocation {
        Allocation { loads: self.loads.clone(), choices: self.choices }
    }
}

/// Allocate sequentially with initial threshold
/// `W/n + slack·w_max`, retrying each ball up to `retries_per_ball` times
/// before escalating the threshold by `w_max`.
///
/// # Panics
/// If `n == 0` or `retries_per_ball == 0`.
pub fn allocate<R: Rng + ?Sized>(
    tasks: &TaskSet,
    n: usize,
    slack: f64,
    retries_per_ball: usize,
    rng: &mut R,
) -> SequentialOutcome {
    assert!(n > 0, "need at least one bin");
    assert!(retries_per_ball > 0, "need at least one retry per ball");
    let w_max = tasks.w_max();
    let mut threshold = tasks.total_weight() / n as f64 + slack * w_max;
    let mut loads = vec![0.0f64; n];
    let mut choices = 0u64;
    let mut escalations = 0u64;

    for i in 0..tasks.len() {
        let w = tasks.weight(i as u32);
        loop {
            let (bin, draws) =
                rule::first_fit(n, retries_per_ball, w, threshold, |b| loads[b], rng);
            choices += draws;
            if let Some(bin) = bin {
                loads[bin] += w;
                break;
            }
            // Escalate: feasibility is guaranteed once threshold exceeds
            // max load + w_max, so this loop terminates.
            threshold += w_max;
            escalations += 1;
        }
    }
    SequentialOutcome { loads, choices, escalations, final_threshold: threshold }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn conserves_weight_and_respects_final_threshold() {
        let tasks = TaskSet::uniform(1000);
        let mut rng = SmallRng::seed_from_u64(1);
        let out = allocate(&tasks, 100, 1.0, 20, &mut rng);
        assert!((out.loads.iter().sum::<f64>() - 1000.0).abs() < 1e-9);
        assert!(out.allocation().max_load() <= out.final_threshold + 1e-9);
    }

    #[test]
    fn near_optimal_max_load_with_unit_balls() {
        // The [5] guarantee: max load close to ceil(m/n) + 1 with O(m)
        // choices. slack = 1 means threshold m/n + 1.
        let m = 10_000;
        let n = 1000;
        let tasks = TaskSet::uniform(m);
        let mut rng = SmallRng::seed_from_u64(2);
        let out = allocate(&tasks, n, 1.0, 50, &mut rng);
        assert!(out.allocation().max_load() <= (m / n) as f64 + 2.0);
        // O(m) choices: allow a small constant factor.
        assert!(out.choices < 6 * m as u64, "choices {} should be O(m)", out.choices);
        assert_eq!(out.escalations, 0, "slack 1 should never escalate at these densities");
    }

    #[test]
    fn starved_threshold_escalates_but_terminates() {
        // slack = 0 with integer average: the last balls cannot fit below
        // W/n, forcing escalations — but the run must still finish.
        let tasks = TaskSet::uniform(500);
        let mut rng = SmallRng::seed_from_u64(3);
        let out = allocate(&tasks, 50, 0.0, 3, &mut rng);
        assert!((out.loads.iter().sum::<f64>() - 500.0).abs() < 1e-9);
        assert!(out.escalations >= 1);
    }

    #[test]
    fn weighted_balls_gap_stays_bounded() {
        let mut rng = SmallRng::seed_from_u64(4);
        let tasks =
            tlb_core::weights::WeightSpec::Exponential { m: 5000, mean: 3.0 }.generate(&mut rng);
        let out = allocate(&tasks, 250, 1.0, 50, &mut rng);
        // Gap at most slack*w_max + escalations*w_max.
        let bound = (1.0 + out.escalations as f64) * tasks.w_max();
        assert!(out.allocation().gap() <= bound + 1e-9);
    }

    #[test]
    fn choices_grow_as_threshold_tightens() {
        let tasks = TaskSet::uniform(5000);
        let mean_choices = |slack: f64, seed: u64| -> f64 {
            (0..5)
                .map(|t| {
                    let mut rng = SmallRng::seed_from_u64(seed + t);
                    allocate(&tasks, 500, slack, 100, &mut rng).choices as f64
                })
                .sum::<f64>()
                / 5.0
        };
        assert!(mean_choices(1.0, 10) > mean_choices(3.0, 20));
    }
}
