//! The user-controlled protocol (paper Algorithm 6.1), on complete graphs.
//!
//! Every round, each task on an overloaded resource `r` (`x_r > T`)
//! independently migrates to a uniformly random resource with probability
//!
//! ```text
//! p_r = α · ⌈φ_r / w_max⌉ · (1 / b_r)
//! ```
//!
//! where `φ_r` is the weight of the cutting-plus-above tasks and `b_r` the
//! number of tasks on `r`. Tasks need only know `α`, `φ_r`, `w_max` and
//! `b_r` — a fully decentralized rule.
//!
//! Like the resource-controlled module, the protocol is exposed as the
//! one-shot [`run_user_controlled`] plus the stepping
//! [`UserControlledStepper`] engine it wraps (`new → step → into_outcome`).
//!
//! Analysis reproduced by the experiments:
//! * Theorem 11 — above-average thresholds with `α = ε/(120(1+ε))`:
//!   `E[T] = 2(1+ε)/(αε)·(w_max/w_min)·log m`.
//! * Theorem 12 — tight threshold `W/n + w_max` with `α ≤ 1/(120n)`:
//!   `E[T] = 2(n/α)·(w_max/w_min)·log m`.
//!
//! The paper's own simulations (Section 7) run `α = 1`, `ε = 0.2` and show
//! the conservative `α` of the analysis is unnecessary in practice; the
//! harness reproduces exactly that setting.

use rand::seq::SliceRandom;
use rand::{lemire_u64, Rng};
use serde::{Deserialize, Serialize};
use tlb_graphs::Graph;

use crate::placement::Placement;
use crate::protocol::{EngineStats, ProtocolOutcome, RoundEngine};
use crate::stack::ResourceStack;
use crate::task::{TaskId, TaskSet};
use crate::threshold::ThresholdPolicy;

/// Configuration of a user-controlled run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UserControlledConfig {
    /// Threshold policy (above-average for Theorem 11, `Tight` for
    /// Theorem 12).
    pub threshold: ThresholdPolicy,
    /// Migration damping `α`. The paper's analysis needs
    /// `ε/(120(1+ε))` (resp. `≤ 1/(120n)`); its simulations use `1.0`.
    pub alpha: f64,
    /// Safety cap on rounds.
    pub max_rounds: u64,
    /// Record `Φ(t)` after every round.
    pub track_potential: bool,
    /// Shuffle arrival order each round (the paper allows arbitrary
    /// order; this ablates it).
    pub shuffle_arrivals: bool,
    /// Record a full [`RoundTrace`] in the outcome (one stack scan per
    /// resource per round, like `track_potential`).
    pub record_trace: bool,
}

impl Default for UserControlledConfig {
    fn default() -> Self {
        UserControlledConfig {
            threshold: ThresholdPolicy::AboveAverage { epsilon: 0.2 },
            alpha: 1.0,
            max_rounds: 10_000_000,
            track_potential: false,
            shuffle_arrivals: false,
            record_trace: false,
        }
    }
}

/// Result of a user-controlled run (an alias of the unified
/// [`ProtocolOutcome`]).
pub type UserControlledOutcome = ProtocolOutcome;

/// Stepping engine of the user-controlled protocol: one [`step`] call is
/// one round of Algorithm 6.1 on the implicit complete graph over `n`
/// resources. `step` takes a `&Graph` like its sibling steppers so all
/// three share one signature, but ignores it — Algorithm 6.1 jumps
/// uniformly over all resources regardless of topology.
///
/// [`step`]: UserControlledStepper::step
#[derive(Debug, Clone)]
pub struct UserControlledStepper {
    cfg: UserControlledConfig,
    w_max: f64,
    eng: RoundEngine,
}

impl UserControlledStepper {
    /// Set up a run: materialize the placement (consuming RNG exactly as
    /// the one-shot entry point always has) and take the initial
    /// snapshots.
    ///
    /// # Panics
    /// If `n == 0`, `alpha <= 0`, or the placement is invalid.
    pub fn new<R: Rng + ?Sized>(
        n: usize,
        tasks: &TaskSet,
        placement: Placement,
        cfg: &UserControlledConfig,
        rng: &mut R,
    ) -> Self {
        assert!(n > 0, "need at least one resource");
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
    /// If the stack vector is empty or `alpha <= 0`.
    fn from_parts(
        stacks: Vec<ResourceStack>,
        weights: Vec<f64>,
        threshold: f64,
        w_max: f64,
        cfg: UserControlledConfig,
    ) -> Self {
        assert!(cfg.alpha > 0.0, "alpha must be positive, got {}", cfg.alpha);
        let eng = RoundEngine::new(
            stacks,
            weights,
            threshold,
            cfg.max_rounds,
            cfg.track_potential,
            cfg.record_trace,
        );
        UserControlledStepper { cfg, w_max, eng }
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

    /// Deterministic observability counters accumulated so far.
    pub fn obs_stats(&self) -> EngineStats {
        self.eng.obs_stats()
    }

    /// One round of Algorithm 6.1 — the graph-free body `step` wraps.
    fn round<R: Rng + ?Sized>(&mut self, rng: &mut R) -> bool {
        if self.is_done() {
            return true;
        }
        self.eng.begin_round();
        let threshold = self.eng.threshold();
        let (alpha, w_max) = (self.cfg.alpha, self.w_max);
        let eng = &mut self.eng;
        let n = eng.stacks.len() as u64;
        // Departure phase: every task on an overloaded resource flips an
        // independent coin with the resource's migration probability.
        for stack in eng.stacks.iter_mut() {
            if !stack.is_overloaded(threshold) {
                continue;
            }
            let psi = stack.psi(threshold, &eng.weights, w_max);
            debug_assert!(psi >= 1, "overloaded resource must have psi >= 1");
            let p = (alpha * psi as f64 / stack.num_tasks() as f64).min(1.0);
            // Appends into the round-reused buffer — no per-resource
            // allocation in the departure phase.
            stack.drain_bernoulli_into(p, &eng.weights, rng, &mut eng.cohort);
        }
        if self.cfg.shuffle_arrivals {
            eng.cohort.shuffle(rng);
        }
        // Arrival phase: uniformly random destination for each migrant.
        // Destinations are bulk-generated (one word per migrant, mapped
        // with the same Lemire multiply `gen_range` uses), so the draw
        // sequence is bit-identical to the old per-migrant `gen_range`
        // loop while the RNG virtual-call round-trips collapse into one
        // register-resident fill.
        let migrated = eng.cohort.len() as u64;
        // Resize only (no clear): the fill overwrites every live slot, so
        // re-zeroing the buffer each round would be a wasted memset.
        eng.dest_words.resize(eng.cohort.len(), 0);
        rng.fill_u64(&mut eng.dest_words);
        eng.note_uniform_batch();
        for (&t, &word) in eng.cohort.iter().zip(eng.dest_words.iter()) {
            let dest = lemire_u64(word, n) as usize;
            eng.stacks[dest].push(t, eng.weights[t as usize]);
        }
        eng.finish_round(migrated)
    }

    /// Execute one round (departure coin flips, uniform re-placement)
    /// unless the run is already done. Returns
    /// [`is_done`](Self::is_done) after the round.
    ///
    /// The graph parameter exists so all three steppers share one `step`
    /// signature (and one [`Protocol`] trait); Algorithm 6.1 ignores it.
    ///
    /// [`Protocol`]: crate::protocol::Protocol
    pub fn step<R: Rng + ?Sized>(&mut self, _g: &Graph, rng: &mut R) -> bool {
        self.round(rng)
    }

    /// Step until balanced or the round cap (the graph is ignored, like
    /// in [`step`](Self::step)).
    pub fn run<R: Rng + ?Sized>(&mut self, _g: &Graph, rng: &mut R) {
        while !self.round(rng) {}
    }

    /// Finish: consume the engine into the outcome the one-shot entry
    /// point reports.
    pub fn into_outcome(self) -> UserControlledOutcome {
        self.eng.into_outcome()
    }
}

/// Run the user-controlled protocol on the complete graph with `n`
/// resources.
///
/// The complete graph is implicit (the paper restricts this protocol to
/// it): destinations are sampled uniformly from all `n` resources.
///
/// # Panics
/// If `n == 0`, `alpha <= 0`, or the placement is invalid.
pub fn run_user_controlled<R: Rng + ?Sized>(
    n: usize,
    tasks: &TaskSet,
    placement: Placement,
    cfg: &UserControlledConfig,
    rng: &mut R,
) -> UserControlledOutcome {
    run_user_controlled_with_stats(n, tasks, placement, cfg, rng).0
}

/// [`run_user_controlled`] plus the engine's deterministic observability
/// counters — the sweep drivers aggregate these per sweep without
/// holding a stepper across the harness fan-out. Reading the counters
/// touches no RNG, so both entry points consume the identical stream.
pub fn run_user_controlled_with_stats<R: Rng + ?Sized>(
    n: usize,
    tasks: &TaskSet,
    placement: Placement,
    cfg: &UserControlledConfig,
    rng: &mut R,
) -> (UserControlledOutcome, EngineStats) {
    let mut stepper = UserControlledStepper::new(n, tasks, placement, cfg, rng);
    while !stepper.round(rng) {}
    let stats = stepper.obs_stats();
    (stepper.into_outcome(), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed)
    }

    #[test]
    fn balanced_start_takes_zero_rounds() {
        let out = run_user_controlled(
            10,
            &TaskSet::uniform(10),
            Placement::RoundRobin,
            &UserControlledConfig::default(),
            &mut rng(1),
        );
        assert_eq!(out.rounds, 0);
        assert!(out.balanced());
    }

    #[test]
    fn paper_simulation_setting_balances() {
        // Section 7 setting (scaled down): n = 100, all tasks on one
        // resource, eps = 0.2, alpha = 1.
        let tasks = TaskSet::new(
            std::iter::repeat_n(50.0, 5)
                .chain(std::iter::repeat_n(1.0, 750))
                .collect::<Vec<_>>(),
        );
        let out = run_user_controlled(
            100,
            &tasks,
            Placement::AllOnOne(0),
            &UserControlledConfig::default(),
            &mut rng(2),
        );
        assert!(out.balanced());
        assert!(out.final_max_load <= out.threshold);
        // Theorem-11 magnitude: O((wmax/wmin) log m) with tiny constants at
        // alpha = 1; generous cap to keep the test robust.
        assert!(out.rounds < 5_000, "took {} rounds", out.rounds);
    }

    #[test]
    fn tight_threshold_balances() {
        let tasks = TaskSet::uniform(200);
        let cfg = UserControlledConfig { threshold: ThresholdPolicy::Tight, ..Default::default() };
        let out = run_user_controlled(20, &tasks, Placement::AllOnOne(0), &cfg, &mut rng(3));
        assert!(out.balanced());
        assert!(out.final_max_load <= out.threshold);
    }

    #[test]
    fn heavier_heterogeneity_takes_longer_on_average() {
        // Theorem 11's wmax/wmin factor should be visible: average rounds
        // with wmax = 32 must exceed average rounds with wmax = 1.
        let n = 50;
        let trials = 30;
        let mean_rounds = |w_max: f64, seed0: u64| -> f64 {
            let tasks = if w_max > 1.0 {
                let mut w = vec![1.0; 499];
                w.push(w_max);
                TaskSet::new(w)
            } else {
                TaskSet::uniform(500)
            };
            let total: u64 = (0..trials)
                .map(|s| {
                    run_user_controlled(
                        n,
                        &tasks,
                        Placement::AllOnOne(0),
                        &UserControlledConfig::default(),
                        &mut rng(seed0 + s),
                    )
                    .rounds
                })
                .sum();
            total as f64 / trials as f64
        };
        let light = mean_rounds(1.0, 100);
        let heavy = mean_rounds(32.0, 200);
        assert!(heavy > light, "heterogeneity should slow balancing: light {light}, heavy {heavy}");
    }

    #[test]
    fn small_alpha_slows_balancing() {
        let tasks = TaskSet::uniform(300);
        let trials = 20;
        let mean = |alpha: f64| -> f64 {
            let cfg = UserControlledConfig { alpha, ..Default::default() };
            (0..trials)
                .map(|s| {
                    run_user_controlled(30, &tasks, Placement::AllOnOne(0), &cfg, &mut rng(s))
                        .rounds as f64
                })
                .sum::<f64>()
                / trials as f64
        };
        assert!(mean(0.1) > mean(1.0));
    }

    #[test]
    fn round_cap_reports_incomplete() {
        let tasks = TaskSet::uniform(1000);
        let cfg = UserControlledConfig { max_rounds: 1, ..Default::default() };
        let out = run_user_controlled(100, &tasks, Placement::AllOnOne(0), &cfg, &mut rng(5));
        assert!(!out.balanced());
        assert_eq!(out.rounds, 1);
    }

    #[test]
    fn potential_hits_zero_at_balance() {
        let tasks = TaskSet::new((0..150).map(|i| 1.0 + (i % 4) as f64).collect::<Vec<_>>());
        let cfg = UserControlledConfig { track_potential: true, ..Default::default() };
        let out = run_user_controlled(25, &tasks, Placement::AllOnOne(0), &cfg, &mut rng(6));
        assert!(out.balanced());
        assert_eq!(*out.potential_series.last().unwrap(), 0.0);
        assert!(out.potential_series[0] > 0.0);
    }

    #[test]
    fn user_potential_can_increase_transiently() {
        // Unlike the resource-controlled potential (Observation 4), the
        // user-controlled potential may go up: a task migrating from below
        // the threshold can land above the threshold elsewhere. Verify the
        // potential bookkeeping permits this with a hand-built move: the
        // simulator must not enforce monotonicity.
        use crate::potential::total_potential;
        use crate::stack::ResourceStack;
        // Weights: task 0 is heavy (4.0) and sits *below* T = 5 on r0;
        // r1 is exactly at the threshold.
        let weights = vec![4.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 5.0];
        let t = 5.0;
        let mut r0 = ResourceStack::new();
        r0.push(0, 4.0); // below (h=0, 0+4<=5)
        for id in 1..=3 {
            r0.push(id, 1.0); // heights 4,5,6: task1 below, 2 above? h=5 >= T -> above
        }
        let mut r1 = ResourceStack::new();
        r1.push(8, 5.0); // exactly at threshold: not overloaded
        let stacks_before = vec![r0.clone(), r1.clone()];
        let phi_before = total_potential(&stacks_before, t, &weights);
        assert!(phi_before > 0.0);

        // Move the heavy below-threshold task 0 from r0 to r1. r0's stack
        // compacts (everything becomes below), r1 becomes overloaded by 4.
        let mut r0_after = ResourceStack::new();
        for id in 1..=3 {
            r0_after.push(id, 1.0);
        }
        let mut r1_after = r1.clone();
        r1_after.push(0, 4.0);
        let stacks_after = vec![r0_after, r1_after];
        let phi_after = total_potential(&stacks_after, t, &weights);
        assert!(
            phi_after > phi_before,
            "moving a heavy below-task onto a full resource must raise Φ: {phi_before} -> {phi_after}"
        );
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let tasks = TaskSet::uniform(100);
        let cfg = UserControlledConfig::default();
        let a = run_user_controlled(10, &tasks, Placement::AllOnOne(0), &cfg, &mut rng(42));
        let b = run_user_controlled(10, &tasks, Placement::AllOnOne(0), &cfg, &mut rng(42));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "alpha must be positive")]
    fn zero_alpha_rejected() {
        let cfg = UserControlledConfig { alpha: 0.0, ..Default::default() };
        run_user_controlled(5, &TaskSet::uniform(10), Placement::AllOnOne(0), &cfg, &mut rng(0));
    }

    #[test]
    fn giant_task_cutting_threshold_still_terminates() {
        // One task heavier than W/n: it always cuts wherever it lands, but
        // the threshold includes +wmax so some resource can accept it.
        let mut w = vec![1.0; 50];
        w.push(40.0);
        let tasks = TaskSet::new(w);
        let out = run_user_controlled(
            10,
            &tasks,
            Placement::AllOnOne(0),
            &UserControlledConfig::default(),
            &mut rng(8),
        );
        assert!(out.balanced());
    }

    #[test]
    fn manual_stepping_matches_one_shot_run() {
        let tasks = TaskSet::new((0..120).map(|i| 1.0 + (i % 6) as f64).collect::<Vec<_>>());
        let cfg = UserControlledConfig { track_potential: true, ..Default::default() };
        let one_shot = run_user_controlled(30, &tasks, Placement::AllOnOne(0), &cfg, &mut rng(91));

        // `step` ignores the graph (it exists only for signature parity
        // with the sibling steppers), so any graph drives it.
        let g = tlb_graphs::generators::complete(1);
        let mut r = rng(91);
        let mut stepper =
            UserControlledStepper::new(30, &tasks, Placement::AllOnOne(0), &cfg, &mut r);
        while !stepper.step(&g, &mut r) {}
        assert_eq!(stepper.into_outcome(), one_shot);
    }

    #[test]
    fn trace_recording_matches_outcome_aggregates() {
        let tasks = TaskSet::new((0..150).map(|i| 1.0 + (i % 4) as f64).collect::<Vec<_>>());
        let cfg = UserControlledConfig {
            record_trace: true,
            track_potential: true,
            ..Default::default()
        };
        let out = run_user_controlled(25, &tasks, Placement::AllOnOne(0), &cfg, &mut rng(6));
        assert!(out.balanced());
        let trace = out.trace.as_ref().expect("record_trace must produce a trace");
        assert_eq!(trace.rounds() as u64, out.rounds);
        assert_eq!(trace.total_migrations(), out.migrations);
        assert_eq!(trace.potential_series(), out.potential_series);
        assert_eq!(trace.records.last().unwrap().max_load, out.final_max_load);
    }
}
