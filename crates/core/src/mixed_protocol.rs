//! Extension (paper Section 8 future work): a **mixed protocol** that is
//! both resource-based and user-based.
//!
//! The paper's conclusion asks about protocols combining both migration
//! modes. This implementation composes them on arbitrary graphs:
//!
//! * **user-style decisions** — each task on an overloaded resource `r`
//!   independently decides to leave with the Algorithm-6.1 probability
//!   `α·⌈φ_r/w_max⌉/b_r` (no resource-side coordination), and
//! * **resource-style movement** — a leaving task travels one max-degree
//!   random-walk step along the graph (no global view; works on any
//!   topology, unlike Algorithm 6.1's uniform jump).
//!
//! Like the two paper protocols, this module holds the configuration and
//! the one-shot entry point [`run_mixed`]; the round is the shared
//! [`Stepper`](crate::protocol::Stepper) with the core round rule's
//! departures (active or coins) and walk movement, built by
//! [`ProtocolKind::Mixed`]'s [`new_stepper`](ProtocolKind::new_stepper).
//!
//! The two paper protocols are recovered at the extremes:
//!
//! * with `departure = Departure::AllActive` the decision rule degenerates
//!   to Algorithm 5.1 exactly (every cutting/above task leaves each
//!   round), and
//! * on the complete graph with `Departure::Bernoulli`, a walk step *is* a
//!   uniform jump over the other `n−1` resources, so the protocol is
//!   Algorithm 6.1 up to self-jumps.
//!
//! The key behavioural difference from Algorithm 5.1: under Bernoulli
//! departures a task below the threshold may leave (and later land above
//! it elsewhere), so the potential is **not** monotone — the mixed
//! protocol inherits the user-controlled analysis, not Observation 4.

use rand::Rng;
use serde::{Deserialize, Serialize};
use tlb_graphs::Graph;
use tlb_walks::WalkKind;

use crate::placement::Placement;
use crate::protocol::{ProtocolKind, ProtocolOutcome};
use crate::task::TaskSet;
use crate::threshold::ThresholdPolicy;

/// Departure rule of the mixed protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Departure {
    /// Every cutting/above task leaves each round (Algorithm-5.1 rule).
    AllActive,
    /// Each task on an overloaded resource leaves independently with
    /// probability `α·⌈φ_r/w_max⌉/b_r` (Algorithm-6.1 rule).
    Bernoulli,
}

/// Configuration of a mixed run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MixedConfig {
    /// Threshold policy.
    pub threshold: ThresholdPolicy,
    /// Departure rule.
    pub departure: Departure,
    /// Migration damping `α` (only used by [`Departure::Bernoulli`]).
    pub alpha: f64,
    /// Which walk moves departing tasks.
    pub walk: WalkKind,
    /// Safety cap on rounds.
    pub max_rounds: u64,
    /// Record `Φ(t)` after every round.
    pub track_potential: bool,
    /// Record a full `RoundTrace` in the outcome (one stack scan per
    /// resource per round, like `track_potential`).
    pub record_trace: bool,
}

impl Default for MixedConfig {
    fn default() -> Self {
        MixedConfig {
            threshold: ThresholdPolicy::AboveAverage { epsilon: 0.2 },
            departure: Departure::Bernoulli,
            alpha: 1.0,
            walk: WalkKind::MaxDegree,
            max_rounds: 10_000_000,
            track_potential: false,
            record_trace: false,
        }
    }
}

/// Result of a mixed run (an alias of the unified [`ProtocolOutcome`]).
pub type MixedOutcome = ProtocolOutcome;

/// Run the mixed protocol on an arbitrary graph.
///
/// # Panics
/// If the graph is empty, `alpha <= 0` with Bernoulli departures, the
/// placement is invalid, or `cfg.walk` is [`WalkKind::Simple`] on a graph
/// with an isolated node.
pub fn run_mixed<R: Rng + ?Sized>(
    g: &Graph,
    tasks: &TaskSet,
    placement: Placement,
    cfg: &MixedConfig,
    mut rng: &mut R,
) -> MixedOutcome {
    ProtocolKind::Mixed(cfg.clone()).run_with_stats(g, tasks, placement, &mut rng).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use tlb_graphs::generators::{complete, torus2d};

    fn rng(seed: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed)
    }

    #[test]
    fn mixed_balances_on_torus_with_bernoulli_departures() {
        let g = torus2d(8, 8);
        let tasks = TaskSet::new((0..640).map(|i| 1.0 + (i % 7) as f64).collect::<Vec<_>>());
        let out =
            run_mixed(&g, &tasks, Placement::AllOnOne(0), &MixedConfig::default(), &mut rng(1));
        assert!(out.balanced());
        assert!(out.final_max_load <= out.threshold);
        let total: f64 = out.final_loads.iter().sum();
        assert!((total - tasks.total_weight()).abs() < 1e-6);
    }

    #[test]
    fn all_active_mode_equals_resource_protocol_distributionally() {
        // With AllActive departures the mixed protocol IS Algorithm 5.1;
        // under the same seed both must produce identical round counts.
        use crate::resource_protocol::{run_resource_controlled, ResourceControlledConfig};
        let g = torus2d(6, 6);
        let tasks = TaskSet::uniform(360);
        let mixed_cfg = MixedConfig { departure: Departure::AllActive, ..Default::default() };
        let res_cfg = ResourceControlledConfig::default();
        let a = run_mixed(&g, &tasks, Placement::AllOnOne(0), &mixed_cfg, &mut rng(9));
        let b = run_resource_controlled(&g, &tasks, Placement::AllOnOne(0), &res_cfg, &mut rng(9));
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.migrations, b.migrations);
        assert_eq!(a.final_loads, b.final_loads);
    }

    #[test]
    fn mixed_on_complete_graph_tracks_user_protocol_scale() {
        // On K_n a walk step is a uniform jump (excluding self), so the
        // mixed Bernoulli protocol should balance within a small factor of
        // Algorithm 6.1's round count.
        use crate::user_protocol::{run_user_controlled, UserControlledConfig};
        let n = 100;
        let g = complete(n);
        let tasks = TaskSet::uniform(1000);
        let trials = 20;
        let mean = |f: &mut dyn FnMut(u64) -> u64| -> f64 {
            (0..trials).map(|s| f(s) as f64).sum::<f64>() / trials as f64
        };
        let mixed_cfg = MixedConfig::default();
        let user_cfg = UserControlledConfig::default();
        let mixed_mean = mean(&mut |s| {
            run_mixed(&g, &tasks, Placement::AllOnOne(0), &mixed_cfg, &mut rng(s)).rounds
        });
        let user_mean = mean(&mut |s| {
            run_user_controlled(n, &tasks, Placement::AllOnOne(0), &user_cfg, &mut rng(1000 + s))
                .rounds
        });
        let ratio = mixed_mean / user_mean;
        assert!(
            (0.5..=2.0).contains(&ratio),
            "mixed ({mixed_mean}) vs user ({user_mean}) diverge: ratio {ratio}"
        );
    }

    #[test]
    fn mixed_potential_not_necessarily_monotone() {
        // Bernoulli departures can move below-threshold tasks, so Φ may
        // rise transiently; make sure tracking records real values and the
        // series ends at zero.
        let g = torus2d(5, 5);
        let tasks = TaskSet::new((0..500).map(|i| 1.0 + (i % 3) as f64).collect::<Vec<_>>());
        let cfg = MixedConfig { track_potential: true, ..Default::default() };
        let out = run_mixed(&g, &tasks, Placement::AllOnOne(0), &cfg, &mut rng(3));
        assert!(out.balanced());
        assert_eq!(*out.potential_series.last().unwrap(), 0.0);
        assert!(out.potential_series[0] > 0.0);
    }

    #[test]
    fn round_cap_respected() {
        let g = torus2d(8, 8);
        let tasks = TaskSet::uniform(6400);
        let cfg = MixedConfig { max_rounds: 2, ..Default::default() };
        let out = run_mixed(&g, &tasks, Placement::AllOnOne(0), &cfg, &mut rng(4));
        assert!(!out.balanced());
        assert_eq!(out.rounds, 2);
    }

    #[test]
    fn manual_stepping_matches_one_shot_run() {
        let g = torus2d(5, 5);
        let tasks = TaskSet::new((0..300).map(|i| 1.0 + (i % 4) as f64).collect::<Vec<_>>());
        let cfg = MixedConfig { track_potential: true, ..Default::default() };
        let one_shot = run_mixed(&g, &tasks, Placement::AllOnOne(0), &cfg, &mut rng(55));

        let mut r = rng(55);
        let kind = ProtocolKind::Mixed(cfg);
        let mut stepper = kind.new_stepper(&g, &tasks, Placement::AllOnOne(0), &mut r);
        while !stepper.step(&g, &mut r) {}
        assert_eq!(stepper.into_outcome(), one_shot);
    }

    #[test]
    fn trace_recording_matches_outcome_aggregates() {
        // The shared round engine gives the mixed protocol the same trace
        // machinery as its siblings: per-round records in lock-step with
        // the outcome aggregates.
        let g = torus2d(5, 5);
        let tasks = TaskSet::new((0..300).map(|i| 1.0 + (i % 4) as f64).collect::<Vec<_>>());
        let cfg = MixedConfig { record_trace: true, track_potential: true, ..Default::default() };
        let out = run_mixed(&g, &tasks, Placement::AllOnOne(0), &cfg, &mut rng(17));
        assert!(out.balanced());
        let trace = out.trace.as_ref().expect("record_trace must produce a trace");
        assert_eq!(trace.rounds() as u64, out.rounds);
        assert_eq!(trace.total_migrations(), out.migrations);
        assert_eq!(trace.potential_series(), out.potential_series);
        assert_eq!(trace.threshold, out.threshold);
        assert_eq!(trace.records.last().unwrap().max_load, out.final_max_load);
        // Trace snapshots consume no randomness: the traced run's
        // trajectory matches an untraced one under the same seed.
        let bare =
            run_mixed(&g, &tasks, Placement::AllOnOne(0), &MixedConfig::default(), &mut rng(17));
        assert_eq!(bare.rounds, out.rounds);
        assert_eq!(bare.final_loads, out.final_loads);
        assert!(bare.trace.is_none());
    }

    #[test]
    #[should_panic(expected = "undefined on isolated nodes")]
    fn simple_walk_on_graph_with_isolated_node_fails_at_construction() {
        let mut b = tlb_graphs::GraphBuilder::new(3);
        b.add_edge(0, 1).unwrap();
        let g = b.build();
        let cfg = MixedConfig { walk: WalkKind::Simple, ..Default::default() };
        run_mixed(&g, &TaskSet::uniform(9), Placement::AllOnOne(0), &cfg, &mut rng(1));
    }
}
