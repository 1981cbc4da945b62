//! # tlb-baselines
//!
//! The related-work allocators the paper positions itself against
//! (Section 3), implemented so the experiment harness can compare them to
//! the threshold protocols on identical weighted workloads:
//!
//! * [`greedy`] — sequential `Greedy[d]` (each ball goes to the least
//!   loaded of `d` uniform bins). `d = 1` is the classic one-choice
//!   process; `d = 2` is the two-choice process whose weighted analysis is
//!   Talwar–Wieder \[9\]; the gap independence of `m` for unit balls is
//!   Berenbrink–Czumaj–Steger–Vöcking \[10\].
//! * [`one_plus_beta`] — the `(1+β)`-process of Peres–Talwar–Wieder
//!   \[11\]: one choice with probability `β`, two choices otherwise; gap
//!   `Θ(log n / β)` independent of `m`, also for weighted balls.
//! * [`parallel_threshold`] — `r`-round parallel threshold allocation in
//!   the spirit of Adler–Chakrabarti–Mitzenmacher–Rasmussen \[4\]:
//!   unplaced balls repeatedly pick uniform bins, bins accept up to a
//!   threshold, survivors retry; the rounds-vs-load trade-off is their
//!   lower-bound territory.
//! * [`sequential_threshold`] — sequential threshold-retry allocation in
//!   the spirit of Berenbrink–Khodamoradi–Sauerwald–Stauffer \[5\]:
//!   threshold `W/n + slack·w_max`, raised by `w_max` whenever a ball
//!   exhausts its resampling budget; for unit balls the cited scheme
//!   reaches a near optimal maximum load with `O(m)` random choices in
//!   expectation.
//!
//! All allocators take weighted task sets (unit weights recover the cited
//! papers' settings exactly) and report the final load vector plus the
//! *gap* `max load − average load`, the quantity the related work bounds.
//!
//! The [`stepper`] module additionally adapts each placement rule into an
//! iterative rebalancing protocol: a [`tlb_core::protocol::RoundRule`]
//! run by the same [`tlb_core::protocol::Stepper`] as the paper
//! protocols, so the baselines run inside the same generic harness paths.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod greedy;
pub mod one_plus_beta;
pub mod parallel_threshold;
mod rule;
pub mod sequential_threshold;
pub mod stepper;

pub use stepper::{BaselineConfig, BaselineRule};

/// Final state every baseline reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Allocation {
    /// Per-bin loads.
    pub loads: Vec<f64>,
    /// Total random bin choices consumed.
    pub choices: u64,
}

impl Allocation {
    /// Maximum load.
    pub fn max_load(&self) -> f64 {
        self.loads.iter().copied().fold(0.0, f64::max)
    }

    /// Average load `W/n`.
    pub fn avg_load(&self) -> f64 {
        self.loads.iter().sum::<f64>() / self.loads.len() as f64
    }

    /// The gap `max − average` the related work bounds.
    pub fn gap(&self) -> f64 {
        self.max_load() - self.avg_load()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_stats() {
        let a = Allocation { loads: vec![1.0, 3.0, 2.0], choices: 5 };
        assert_eq!(a.max_load(), 3.0);
        assert_eq!(a.avg_load(), 2.0);
        assert_eq!(a.gap(), 1.0);
    }
}
