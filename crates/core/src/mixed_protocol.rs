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
//! Exposed as the one-shot [`run_mixed`] plus the stepping
//! [`MixedStepper`] engine it wraps, like the two paper protocols.
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
use tlb_graphs::{Graph, NodeId};
use tlb_walks::WalkKind;

use crate::placement::Placement;
use crate::protocol::{EngineStats, ProtocolOutcome, RoundEngine};
use crate::stack::ResourceStack;
use crate::task::{TaskId, TaskSet};
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

/// Stepping engine of the mixed protocol: one [`step`] call is one round
/// (user-style departure coins, resource-style walk moves). The graph is
/// passed into each step, so the caller may swap it between rounds.
///
/// [`step`]: MixedStepper::step
#[derive(Debug, Clone)]
pub struct MixedStepper {
    cfg: MixedConfig,
    w_max: f64,
    eng: RoundEngine,
}

impl MixedStepper {
    /// Set up a run: materialize the placement (consuming RNG exactly as
    /// the one-shot entry point always has) and take the initial
    /// snapshots.
    ///
    /// # Panics
    /// If the graph is empty, `alpha <= 0` with Bernoulli departures, the
    /// placement is invalid, or `cfg.walk` is [`WalkKind::Simple`] on a
    /// graph with an isolated node (undefined there — rejected at
    /// construction instead of mid-trial).
    pub fn new<R: Rng + ?Sized>(
        g: &Graph,
        tasks: &TaskSet,
        placement: Placement,
        cfg: &MixedConfig,
        rng: &mut R,
    ) -> Self {
        let n = g.num_nodes();
        assert!(n > 0, "need at least one resource");
        assert!(
            cfg.walk != WalkKind::Simple || g.min_degree() > 0,
            "WalkKind::Simple is undefined on isolated nodes; this graph has one"
        );
        let weights = tasks.weights().to_vec();
        let w_max = tasks.w_max();
        let threshold = cfg.threshold.value(tasks.total_weight(), n, w_max);

        let mut stacks: Vec<ResourceStack> = vec![ResourceStack::new(); n];
        for (i, &loc) in placement.materialize(tasks.len(), n, rng).iter().enumerate() {
            stacks[loc as usize].push(i as TaskId, weights[i]);
        }

        Self::from_parts(stacks, weights, threshold, w_max, cfg.clone())
    }

    /// Build the engine over an existing stack configuration (consumes no
    /// RNG).
    ///
    /// # Panics
    /// If the stack vector is empty, or `alpha <= 0` with Bernoulli
    /// departures.
    fn from_parts(
        stacks: Vec<ResourceStack>,
        weights: Vec<f64>,
        threshold: f64,
        w_max: f64,
        cfg: MixedConfig,
    ) -> Self {
        if cfg.departure == Departure::Bernoulli {
            assert!(cfg.alpha > 0.0, "alpha must be positive, got {}", cfg.alpha);
        }
        let eng = RoundEngine::new(
            stacks,
            weights,
            threshold,
            cfg.max_rounds,
            cfg.track_potential,
            cfg.record_trace,
        );
        MixedStepper { cfg, w_max, eng }
    }

    /// Whether every load is at most the threshold.
    pub fn is_balanced(&self) -> bool {
        self.eng.is_balanced()
    }

    /// Whether the run is over: balanced, or the round cap was hit.
    pub fn is_done(&self) -> bool {
        self.eng.is_done()
    }

    /// Rounds executed so far.
    pub fn rounds(&self) -> u64 {
        self.eng.rounds()
    }

    /// Migrations performed so far.
    pub fn migrations(&self) -> u64 {
        self.eng.migrations()
    }

    /// The threshold this run balances against.
    pub fn threshold(&self) -> f64 {
        self.eng.threshold()
    }

    /// The per-resource stacks (index = resource id).
    pub fn stacks(&self) -> &[ResourceStack] {
        &self.eng.stacks
    }

    /// Weight per task id (freed slots of dynamic callers included).
    pub fn weights(&self) -> &[f64] {
        &self.eng.weights
    }

    /// The `w_max` this run's departure probabilities divide by.
    pub fn w_max(&self) -> f64 {
        self.w_max
    }

    /// Deterministic observability counters accumulated so far.
    pub fn obs_stats(&self) -> EngineStats {
        self.eng.obs_stats()
    }

    /// Execute one round unless the run is already done. Returns
    /// [`is_done`](Self::is_done) after the round.
    pub fn step<R: Rng + ?Sized>(&mut self, g: &Graph, rng: &mut R) -> bool {
        if self.is_done() {
            return true;
        }
        // `new()` already rejects this, but the caller may swap in
        // another graph between rounds — re-check
        // here (O(1): min_degree is cached) so an isolated node fails fast
        // instead of panicking per-task deep in the batched kernel.
        assert!(
            self.cfg.walk != WalkKind::Simple || g.min_degree() > 0,
            "WalkKind::Simple is undefined on isolated nodes; this graph has one"
        );
        self.eng.begin_round();
        let threshold = self.eng.threshold();
        let (alpha, w_max) = (self.cfg.alpha, self.w_max);
        let eng = &mut self.eng;
        // Departure phase: collect the whole round's cohort first
        // (`cohort[i]` leaves from `positions[i]`), then take one
        // batched walk step for everyone. Under Bernoulli departures this
        // draws all departure coins *before* any walk word — a different
        // RNG interleaving than the old per-resource loop (same per-step
        // law; see the stream policy in `tlb_core` docs), which is why
        // the mixed goldens were re-pinned once for this version.
        for r in 0..eng.stacks.len() as NodeId {
            let stack = &mut eng.stacks[r as usize];
            if !stack.is_overloaded(threshold) {
                continue;
            }
            match self.cfg.departure {
                Departure::AllActive => {
                    stack.remove_active_into(threshold, &eng.weights, &mut eng.cohort);
                }
                Departure::Bernoulli => {
                    let psi = stack.psi(threshold, &eng.weights, w_max);
                    let p = (alpha * psi as f64 / stack.num_tasks() as f64).min(1.0);
                    stack.drain_bernoulli_into(p, &eng.weights, rng, &mut eng.cohort);
                }
            }
            eng.positions.resize(eng.cohort.len(), r);
        }
        // Degree-bucket the cohort for the kernel's benefit — Lazy only,
        // for the same stream reasons as the resource stepper (lane
        // words are index-assigned; MaxDegree keeps scalar parity).
        if self.cfg.walk == WalkKind::Lazy {
            eng.sort_cohort_by_degree(g);
        }
        eng.walker.step_batch(g, self.cfg.walk, &mut eng.positions, rng);
        eng.note_walk_batch(g, self.cfg.walk);
        // Arrival phase straight off the stepped cohort — the mixed
        // protocol has no shuffle ablation, so no materialized (task,
        // dest) list is needed.
        let migrated = eng.cohort.len() as u64;
        for (&t, &dest) in eng.cohort.iter().zip(eng.positions.iter()) {
            eng.stacks[dest as usize].push(t, eng.weights[t as usize]);
        }
        eng.finish_round(migrated)
    }

    /// Step until balanced or the round cap.
    pub fn run<R: Rng + ?Sized>(&mut self, g: &Graph, rng: &mut R) {
        while !self.step(g, rng) {}
    }

    /// Finish: consume the engine into the outcome the one-shot entry
    /// point reports.
    pub fn into_outcome(self) -> MixedOutcome {
        self.eng.into_outcome()
    }
}

/// Run the mixed protocol on an arbitrary graph.
///
/// # Panics
/// If the graph is empty, `alpha <= 0` with Bernoulli departures, or the
/// placement is invalid.
pub fn run_mixed<R: Rng + ?Sized>(
    g: &Graph,
    tasks: &TaskSet,
    placement: Placement,
    cfg: &MixedConfig,
    rng: &mut R,
) -> MixedOutcome {
    let mut stepper = MixedStepper::new(g, tasks, placement, cfg, rng);
    stepper.run(g, rng);
    stepper.into_outcome()
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
        let mut stepper = MixedStepper::new(&g, &tasks, Placement::AllOnOne(0), &cfg, &mut r);
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
