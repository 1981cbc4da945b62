//! The resource-controlled protocol (paper Algorithm 5.1), for arbitrary
//! graphs.
//!
//! Each round, every overloaded resource (`x_r > T`) removes every task
//! that is above or cutting the threshold (`I_a ∪ I_c`) and sends each of
//! them to a neighbour sampled from the max-degree random-walk matrix `P`.
//! Arrivals stack in arbitrary order; a task whose height plus weight stays
//! within `T` is *accepted* and never moves again. The balancing time is
//! the first round after which every load is at most `T`.
//!
//! The protocol is exposed at two levels:
//!
//! * [`run_resource_controlled`] — the one-shot entry point: run until
//!   balanced (or the round cap) and report an outcome, exactly as the
//!   paper's experiments use it;
//! * [`ResourceControlledStepper`] — the stepping engine underneath it
//!   (`new → step → into_outcome`), which the generic harness drives
//!   through the [`Protocol`](crate::protocol::Protocol) trait.
//!
//! Analysis reproduced by the experiments:
//! * Theorem 3 — above-average thresholds: `O(τ(G)·log m)` rounds w.h.p.
//! * Theorem 7 — tight threshold `W/n + 2w_max`: expected `O(H(G)·ln W)`.

use rand::Rng;
use serde::{Deserialize, Serialize};
use tlb_graphs::{Graph, NodeId};
use tlb_walks::WalkKind;

use crate::placement::Placement;
use crate::protocol::{EngineStats, ProtocolOutcome, RoundEngine};
use crate::stack::ResourceStack;
use crate::task::{TaskId, TaskSet};
use crate::threshold::ThresholdPolicy;

/// Configuration of a resource-controlled run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResourceControlledConfig {
    /// Threshold policy (the paper analyses above-average and
    /// `TightResource`).
    pub threshold: ThresholdPolicy,
    /// Which walk reallocates tasks. The paper's protocol uses
    /// [`WalkKind::MaxDegree`]; [`WalkKind::Lazy`] is the aperiodicity
    /// ablation for bipartite graphs.
    pub walk: WalkKind,
    /// Safety cap on rounds; a run that hits it reports `completed = false`.
    pub max_rounds: u64,
    /// Record `Φ(t)` after every round (costs one stack scan per resource
    /// per round).
    pub track_potential: bool,
    /// Shuffle the arrival order of migrating tasks each round. The paper
    /// allows arbitrary arrival order; `false` processes arrivals in the
    /// order their source resources were scanned (deterministic), `true`
    /// randomizes — an ablation that should not change the asymptotics.
    pub shuffle_arrivals: bool,
    /// Record a full [`RoundTrace`](crate::trace::RoundTrace) (potential,
    /// overload count, max load, migrations per round) in the outcome.
    /// Costs one stack scan per resource per round, like
    /// `track_potential`.
    pub record_trace: bool,
}

impl Default for ResourceControlledConfig {
    fn default() -> Self {
        ResourceControlledConfig {
            threshold: ThresholdPolicy::AboveAverage { epsilon: 0.2 },
            walk: WalkKind::MaxDegree,
            max_rounds: 10_000_000,
            track_potential: false,
            shuffle_arrivals: false,
            record_trace: false,
        }
    }
}

/// Result of a resource-controlled run (an alias of the unified
/// [`ProtocolOutcome`]).
pub type ResourceControlledOutcome = ProtocolOutcome;

/// Stepping engine of the resource-controlled protocol: one [`step`]
/// call is one round of Algorithm 5.1. The shared [`RoundEngine`] owns
/// the per-resource stacks and the reused round buffers; the graph is
/// passed into each step, so the caller may swap it between rounds.
///
/// [`step`]: ResourceControlledStepper::step
#[derive(Debug, Clone)]
pub struct ResourceControlledStepper {
    cfg: ResourceControlledConfig,
    eng: RoundEngine,
}

impl ResourceControlledStepper {
    /// Set up a run: materialize the placement (consuming RNG exactly as
    /// the one-shot entry point always has) and take the initial
    /// snapshots.
    ///
    /// # Panics
    /// If the placement is invalid for `(m, n)`, the graph is empty, or
    /// `cfg.walk` is [`WalkKind::Simple`] on a graph with an isolated
    /// node (the simple walk is undefined there — rejected here, at
    /// construction, instead of via an `assert!` deep in the round loop).
    pub fn new<R: Rng + ?Sized>(
        g: &Graph,
        tasks: &TaskSet,
        placement: Placement,
        cfg: &ResourceControlledConfig,
        rng: &mut R,
    ) -> Self {
        let n = g.num_nodes();
        assert!(n > 0, "need at least one resource");
        assert!(
            cfg.walk != WalkKind::Simple || g.min_degree() > 0,
            "WalkKind::Simple is undefined on isolated nodes; this graph has one"
        );
        let weights = tasks.weights().to_vec();
        let threshold = cfg.threshold.value(tasks.total_weight(), n, tasks.w_max());

        let mut stacks: Vec<ResourceStack> = vec![ResourceStack::new(); n];
        for (i, &loc) in placement.materialize(tasks.len(), n, rng).iter().enumerate() {
            stacks[loc as usize].push(i as TaskId, weights[i]);
        }

        Self::from_parts(stacks, weights, threshold, cfg.clone())
    }

    /// Build the engine over an existing stack configuration (consumes no
    /// RNG); the round/migration counters start at zero.
    ///
    /// # Panics
    /// If the stack vector is empty.
    fn from_parts(
        stacks: Vec<ResourceStack>,
        weights: Vec<f64>,
        threshold: f64,
        cfg: ResourceControlledConfig,
    ) -> Self {
        let eng = RoundEngine::new(
            stacks,
            weights,
            threshold,
            cfg.max_rounds,
            cfg.track_potential,
            cfg.record_trace,
        );
        ResourceControlledStepper { cfg, eng }
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

    /// Execute one round (removal phase, walk steps, arrival phase) unless
    /// the run is already done. Returns [`is_done`](Self::is_done) after
    /// the round.
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
        let eng = &mut self.eng;
        // Removal phase: every overloaded resource ejects I_a ∪ I_c into
        // the round cohort (`cohort[i]` departs from `positions[i]`).
        // Removal consumes no RNG, so collecting the whole round before
        // stepping leaves the draw sequence identical to the old
        // per-resource interleaving.
        for r in 0..eng.stacks.len() as NodeId {
            if eng.stacks[r as usize].is_overloaded(threshold) {
                eng.stacks[r as usize].remove_active_into(threshold, &eng.weights, &mut eng.cohort);
                // One source entry per task ejected by this resource.
                eng.positions.resize(eng.cohort.len(), r);
            }
        }
        // Cache-conscious layout: group the cohort by source degree so
        // the batched kernel's irregular path runs in near-regular
        // bucket runs. Lazy only — its lane words are assigned by cohort
        // index under the re-pinned wide stream; MaxDegree/Simple keep
        // ejection order so their scalar-parity goldens stay
        // byte-identical.
        if self.cfg.walk == WalkKind::Lazy {
            eng.sort_cohort_by_degree(g);
        }
        // Walk phase: the whole cohort takes one batched step.
        eng.walker.step_batch(g, self.cfg.walk, &mut eng.positions, rng);
        eng.note_walk_batch(g, self.cfg.walk);
        eng.pending_tasks.clear();
        eng.pending_tasks.extend_from_slice(&eng.cohort);
        eng.pending_dests.clear();
        eng.pending_dests.extend_from_slice(&eng.positions);
        if self.cfg.shuffle_arrivals {
            // One permutation over both parallel arrays — draws exactly
            // the words the old tuple shuffle drew.
            rand::seq::shuffle_paired(&mut eng.pending_tasks, &mut eng.pending_dests, rng);
        }
        // Arrival phase: stack in (possibly shuffled) order; acceptance is
        // implicit in the stack heights.
        let migrated = eng.pending_tasks.len() as u64;
        for (&t, &dest) in eng.pending_tasks.iter().zip(&eng.pending_dests) {
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
    pub fn into_outcome(self) -> ResourceControlledOutcome {
        self.eng.into_outcome()
    }
}

/// Run the resource-controlled protocol to completion (or the round cap).
///
/// # Panics
/// If the placement is invalid for `(m, n)` or the graph is empty.
pub fn run_resource_controlled<R: Rng + ?Sized>(
    g: &Graph,
    tasks: &TaskSet,
    placement: Placement,
    cfg: &ResourceControlledConfig,
    rng: &mut R,
) -> ResourceControlledOutcome {
    run_resource_controlled_with_stats(g, tasks, placement, cfg, rng).0
}

/// [`run_resource_controlled`] plus the engine's deterministic
/// observability counters — the sweep drivers aggregate these per sweep
/// without holding a stepper across the harness fan-out. Reading the
/// counters touches no RNG, so both entry points consume the identical
/// stream.
pub fn run_resource_controlled_with_stats<R: Rng + ?Sized>(
    g: &Graph,
    tasks: &TaskSet,
    placement: Placement,
    cfg: &ResourceControlledConfig,
    rng: &mut R,
) -> (ResourceControlledOutcome, EngineStats) {
    let mut stepper = ResourceControlledStepper::new(g, tasks, placement, cfg, rng);
    stepper.run(g, rng);
    let stats = stepper.obs_stats();
    (stepper.into_outcome(), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use tlb_graphs::generators::{complete, cycle, lollipop, torus2d};

    fn rng(seed: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed)
    }

    #[test]
    fn balanced_start_takes_zero_rounds() {
        let g = complete(4);
        let tasks = TaskSet::uniform(4);
        let out = run_resource_controlled(
            &g,
            &tasks,
            Placement::RoundRobin,
            &ResourceControlledConfig::default(),
            &mut rng(1),
        );
        assert_eq!(out.rounds, 0);
        assert!(out.balanced());
        assert_eq!(out.migrations, 0);
    }

    #[test]
    fn hotspot_on_complete_graph_balances_quickly() {
        let g = complete(50);
        let tasks = TaskSet::uniform(500);
        let out = run_resource_controlled(
            &g,
            &tasks,
            Placement::AllOnOne(0),
            &ResourceControlledConfig::default(),
            &mut rng(2),
        );
        assert!(out.balanced());
        // Theorem 3 on K_n: O(log m) rounds. Generous constant check.
        assert!(out.rounds <= 200, "took {} rounds", out.rounds);
        assert!(out.final_max_load <= out.threshold);
    }

    #[test]
    fn weighted_tasks_balance_on_complete_graph() {
        let g = complete(20);
        let mut w = vec![1.0; 200];
        for wi in w.iter_mut().take(10) {
            *wi = 25.0;
        }
        let tasks = TaskSet::new(w);
        let out = run_resource_controlled(
            &g,
            &tasks,
            Placement::AllOnOne(5),
            &ResourceControlledConfig::default(),
            &mut rng(3),
        );
        assert!(out.balanced());
        assert!(out.final_max_load <= out.threshold);
    }

    #[test]
    fn tight_threshold_on_lollipop_completes() {
        let g = lollipop(12, 2).unwrap();
        let tasks = TaskSet::uniform(60);
        let cfg = ResourceControlledConfig {
            threshold: ThresholdPolicy::TightResource,
            ..Default::default()
        };
        let out = run_resource_controlled(&g, &tasks, Placement::AllOnOne(0), &cfg, &mut rng(4));
        assert!(out.balanced());
        assert!(out.final_max_load <= out.threshold);
    }

    #[test]
    fn potential_series_is_monotone_nonincreasing() {
        // Observation 4: the resource-controlled potential never increases.
        let g = torus2d(5, 5);
        let tasks =
            TaskSet::new((0..120).map(|i| if i % 11 == 0 { 7.0 } else { 1.0 }).collect::<Vec<_>>());
        let cfg = ResourceControlledConfig { track_potential: true, ..Default::default() };
        let out = run_resource_controlled(&g, &tasks, Placement::AllOnOne(12), &cfg, &mut rng(5));
        assert!(out.balanced());
        for w in out.potential_series.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "potential increased: {} -> {}", w[0], w[1]);
        }
        assert_eq!(*out.potential_series.last().unwrap(), 0.0);
    }

    #[test]
    fn round_cap_reports_incomplete() {
        let g = cycle(64); // slow mixing; tiny cap
        let tasks = TaskSet::uniform(640);
        let cfg = ResourceControlledConfig { max_rounds: 2, ..Default::default() };
        let out = run_resource_controlled(&g, &tasks, Placement::AllOnOne(0), &cfg, &mut rng(6));
        assert!(!out.balanced());
        assert_eq!(out.rounds, 2);
    }

    #[test]
    fn shuffled_arrivals_still_balance() {
        let g = complete(16);
        let tasks = TaskSet::new((0..160).map(|i| 1.0 + (i % 5) as f64).collect::<Vec<_>>());
        let cfg = ResourceControlledConfig { shuffle_arrivals: true, ..Default::default() };
        let out = run_resource_controlled(&g, &tasks, Placement::AllOnOne(0), &cfg, &mut rng(7));
        assert!(out.balanced());
    }

    #[test]
    fn lazy_walk_balances_on_bipartite_graph() {
        // Even cycle is bipartite: the non-lazy walk is periodic, but the
        // protocol still terminates because acceptance absorbs tasks; the
        // lazy ablation must too.
        let g = cycle(16);
        let tasks = TaskSet::uniform(64);
        for walk in [WalkKind::MaxDegree, WalkKind::Lazy] {
            let cfg = ResourceControlledConfig { walk, ..Default::default() };
            let out =
                run_resource_controlled(&g, &tasks, Placement::AllOnOne(3), &cfg, &mut rng(8));
            assert!(out.balanced(), "walk {walk:?} failed");
        }
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let g = complete(10);
        let tasks = TaskSet::uniform(100);
        let cfg = ResourceControlledConfig::default();
        let a = run_resource_controlled(&g, &tasks, Placement::AllOnOne(0), &cfg, &mut rng(42));
        let b = run_resource_controlled(&g, &tasks, Placement::AllOnOne(0), &cfg, &mut rng(42));
        assert_eq!(a, b);
    }

    #[test]
    fn single_resource_graph_with_feasible_threshold() {
        // n = 1: everything is on the only node; threshold >= W + wmax, so
        // the system is balanced from the start.
        let g = complete(1);
        let tasks = TaskSet::uniform(5);
        let out = run_resource_controlled(
            &g,
            &tasks,
            Placement::AllOnOne(0),
            &ResourceControlledConfig::default(),
            &mut rng(9),
        );
        assert!(out.balanced());
        assert_eq!(out.rounds, 0);
    }

    #[test]
    fn manual_stepping_matches_one_shot_run() {
        // The wrapper is nothing but new → step* → into_outcome, so
        // driving the stepper by hand must reproduce it bit for bit.
        let g = torus2d(5, 5);
        let tasks = TaskSet::new((0..200).map(|i| 1.0 + (i % 3) as f64).collect::<Vec<_>>());
        let cfg = ResourceControlledConfig { track_potential: true, ..Default::default() };
        let one_shot =
            run_resource_controlled(&g, &tasks, Placement::AllOnOne(0), &cfg, &mut rng(77));

        let mut r = rng(77);
        let mut stepper =
            ResourceControlledStepper::new(&g, &tasks, Placement::AllOnOne(0), &cfg, &mut r);
        let mut manual_rounds = 0;
        while !stepper.step(&g, &mut r) {
            manual_rounds += 1;
        }
        assert_eq!(manual_rounds + 1, one_shot.rounds, "last step returns done");
        assert_eq!(stepper.into_outcome(), one_shot);
    }

    #[test]
    fn stepping_a_done_stepper_is_a_no_op() {
        let g = complete(4);
        let tasks = TaskSet::uniform(4);
        let cfg = ResourceControlledConfig::default();
        let mut r = rng(1);
        let mut s = ResourceControlledStepper::new(&g, &tasks, Placement::RoundRobin, &cfg, &mut r);
        assert!(s.is_done());
        assert!(s.step(&g, &mut r));
        assert!(s.step(&g, &mut r));
        assert_eq!(s.rounds(), 0);
        assert_eq!(s.migrations(), 0);
    }

    #[test]
    fn from_parts_resumes_mid_run() {
        // Split one run into two steppers (handing the stacks across) and
        // check the combined trajectory still balances with the same
        // total-weight invariant.
        let g = torus2d(4, 4);
        let tasks = TaskSet::uniform(160);
        let cfg = ResourceControlledConfig { max_rounds: 3, ..Default::default() };
        let mut r = rng(5);
        let mut first =
            ResourceControlledStepper::new(&g, &tasks, Placement::AllOnOne(0), &cfg, &mut r);
        first.run(&g, &mut r);
        assert!(!first.is_balanced());
        let threshold = first.threshold();
        let first_migrations = first.migrations();
        let (stacks, weights) = (first.stacks().to_vec(), first.weights().to_vec());

        let cfg2 = ResourceControlledConfig::default();
        let mut second = ResourceControlledStepper::from_parts(stacks, weights, threshold, cfg2);
        second.run(&g, &mut r);
        assert!(second.is_balanced());
        assert!(second.migrations() > 0 || first_migrations > 0);
        let out = second.into_outcome();
        let total: f64 = out.final_loads.iter().sum();
        assert!((total - tasks.total_weight()).abs() < 1e-6);
    }

    #[test]
    fn trace_recording_matches_outcome_aggregates() {
        let g = torus2d(5, 5);
        let tasks = TaskSet::new((0..150).map(|i| 1.0 + (i % 4) as f64).collect::<Vec<_>>());
        let cfg = ResourceControlledConfig {
            record_trace: true,
            track_potential: true,
            ..Default::default()
        };
        let out = run_resource_controlled(&g, &tasks, Placement::AllOnOne(0), &cfg, &mut rng(21));
        assert!(out.balanced());
        let trace = out.trace.as_ref().expect("record_trace must produce a trace");
        assert_eq!(trace.rounds() as u64, out.rounds);
        assert_eq!(trace.total_migrations(), out.migrations);
        assert_eq!(trace.potential_series(), out.potential_series);
        assert_eq!(trace.threshold, out.threshold);
        assert_eq!(trace.records.last().unwrap().max_load, out.final_max_load);
    }

    #[test]
    #[should_panic(expected = "undefined on isolated nodes")]
    fn simple_walk_on_graph_with_isolated_node_fails_at_construction() {
        // Node 3 of this graph has no edges: a simple walk from it is
        // undefined. The old behavior was an assert deep inside the round
        // loop, firing only when a task actually reached the node; the
        // invalid config must fail fast instead (tlb-sim already rejects
        // WalkKind::Simple the same way).
        let mut b = tlb_graphs::GraphBuilder::new(4);
        b.add_edge(0, 1).unwrap();
        b.add_edge(1, 2).unwrap();
        let g = b.build();
        let cfg = ResourceControlledConfig { walk: WalkKind::Simple, ..Default::default() };
        run_resource_controlled(
            &g,
            &TaskSet::uniform(12),
            Placement::AllOnOne(0),
            &cfg,
            &mut rng(1),
        );
    }

    #[test]
    #[should_panic(expected = "undefined on isolated nodes")]
    fn simple_walk_via_from_parts_fails_at_first_step() {
        // from_parts takes no graph, so the construction-time check can't
        // fire; the per-step check must catch it instead (same protection
        // for callers that swap in a churned graph mid-run).
        let mut b = tlb_graphs::GraphBuilder::new(3);
        b.add_edge(0, 1).unwrap();
        let g = b.build();
        let mut stacks = vec![crate::stack::ResourceStack::new(); 3];
        for i in 0..9 {
            stacks[0].push(i, 1.0);
        }
        let cfg = ResourceControlledConfig { walk: WalkKind::Simple, ..Default::default() };
        let mut s = ResourceControlledStepper::from_parts(stacks, vec![1.0; 9], 4.0, cfg);
        s.step(&g, &mut rng(1));
    }

    #[test]
    fn simple_walk_on_connected_graph_is_accepted() {
        let g = complete(8);
        let cfg = ResourceControlledConfig { walk: WalkKind::Simple, ..Default::default() };
        let out = run_resource_controlled(
            &g,
            &TaskSet::uniform(40),
            Placement::AllOnOne(0),
            &cfg,
            &mut rng(2),
        );
        assert!(out.balanced());
    }

    #[test]
    fn trace_recording_does_not_change_the_trajectory() {
        // Trace snapshots consume no randomness, so outcomes must agree.
        let g = torus2d(4, 4);
        let tasks = TaskSet::uniform(100);
        let base = ResourceControlledConfig::default();
        let traced = ResourceControlledConfig { record_trace: true, ..Default::default() };
        let a = run_resource_controlled(&g, &tasks, Placement::AllOnOne(0), &base, &mut rng(3));
        let b = run_resource_controlled(&g, &tasks, Placement::AllOnOne(0), &traced, &mut rng(3));
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.migrations, b.migrations);
        assert_eq!(a.final_loads, b.final_loads);
        assert!(b.trace.is_some() && a.trace.is_none());
    }
}
