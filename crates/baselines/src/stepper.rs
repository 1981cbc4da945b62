//! The related-work allocators as iterative threshold-rebalancing
//! protocols behind [`tlb_core::protocol::Protocol`].
//!
//! The one-shot allocators in this crate ([`crate::greedy`],
//! [`crate::one_plus_beta`], [`crate::sequential_threshold`],
//! [`crate::parallel_threshold`]) place a task stream once and stop — the
//! cited papers' setting. This module adapts each placement *rule* into a
//! round-based rebalancing protocol with the paper protocols' shape, so
//! the baselines run inside the same generic machinery (the experiment
//! harness's protocol sweeps and the `protocol_matrix` driver):
//!
//! * **departure** — Algorithm 5.1's rule: every overloaded resource
//!   ejects its cutting-and-above tasks (`I_a ∪ I_c`), consuming no RNG;
//! * **movement** — the baseline's placement rule re-places each ejected
//!   task among the *candidate bins*: the non-isolated nodes of the graph
//!   passed to `step`. Topology is otherwise ignored (these are
//!   global-view allocators); the candidate filter keeps isolated nodes
//!   (e.g. deactivated resources) from receiving tasks. If no node has an
//!   edge, the cohort returns to its sources unmoved (there is no
//!   eligible destination).
//!
//! Under the threshold-respecting rules ([`BaselineRule::
//! SequentialThreshold`], [`BaselineRule::ParallelThreshold`]) a task that
//! finds no accepting bin within its per-round budget also returns to its
//! source and retries next round — the `r`-round retry structure of Adler
//! et al. \[4\], with the round cap playing the "give up" bound.

use rand::{Rng, RngCore};
use serde::{Deserialize, Serialize};
use tlb_core::placement::Placement;
use tlb_core::protocol::{AnyStepper, Protocol, ProtocolOutcome, RoundEngine};
use tlb_core::stack::ResourceStack;
use tlb_core::task::{TaskId, TaskSet};
use tlb_core::threshold::ThresholdPolicy;
use tlb_graphs::{Graph, NodeId};

/// Which baseline placement rule moves the ejected cohort.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum BaselineRule {
    /// `Greedy[d]`: each task inspects `d` uniform candidate bins and
    /// joins the least loaded (ties: first sampled). Ignores the
    /// threshold when placing.
    Greedy {
        /// Choices per task (`d ≥ 1`; 1 = one-choice, 2 = two-choice).
        d: usize,
    },
    /// The `(1+β)`-process: one uniform choice with probability `β`, two
    /// choices (least loaded) otherwise. Ignores the threshold when
    /// placing.
    OnePlusBeta {
        /// Mixing parameter `β ∈ (0, 1]`.
        beta: f64,
    },
    /// Sequential threshold-retry: each task samples up to `retries`
    /// uniform bins and joins the first whose load stays at or below the
    /// threshold; on failure it returns to its source and retries next
    /// round.
    SequentialThreshold {
        /// Uniform samples per task per round (`≥ 1`).
        retries: usize,
    },
    /// Parallel threshold allocation: a synchronous wave — every task
    /// samples one uniform bin, then arrivals are processed in uniformly
    /// shuffled order (the cited model's collision tie-breaking),
    /// accepted while the bin stays at or below the threshold; rejected
    /// tasks return to their sources and retry next round.
    ParallelThreshold,
}

impl BaselineRule {
    /// Short stable name (report/CSV key).
    pub fn label(&self) -> String {
        match *self {
            BaselineRule::Greedy { d } => format!("greedy{d}"),
            BaselineRule::OnePlusBeta { .. } => "one_plus_beta".into(),
            BaselineRule::SequentialThreshold { .. } => "seq_threshold".into(),
            BaselineRule::ParallelThreshold => "par_threshold".into(),
        }
    }

    fn validate(&self) {
        match *self {
            BaselineRule::Greedy { d } => assert!(d >= 1, "Greedy needs at least one choice"),
            BaselineRule::OnePlusBeta { beta } => {
                assert!(beta > 0.0 && beta <= 1.0, "beta must be in (0, 1], got {beta}")
            }
            BaselineRule::SequentialThreshold { retries } => {
                assert!(retries >= 1, "need at least one retry per task")
            }
            BaselineRule::ParallelThreshold => {}
        }
    }
}

/// Configuration of a baseline rebalancing run (the baseline analog of
/// the core protocols' config structs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BaselineConfig {
    /// Threshold policy defining both balance (termination) and, for the
    /// threshold-respecting rules, acceptance.
    pub threshold: ThresholdPolicy,
    /// Placement rule.
    pub rule: BaselineRule,
    /// Safety cap on rounds; a run that hits it reports `completed = false`.
    pub max_rounds: u64,
    /// Record `Φ(t)` after every round.
    pub track_potential: bool,
    /// Record a full `RoundTrace` in the outcome.
    pub record_trace: bool,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        BaselineConfig {
            threshold: ThresholdPolicy::AboveAverage { epsilon: 0.2 },
            rule: BaselineRule::Greedy { d: 2 },
            max_rounds: 10_000_000,
            track_potential: false,
            record_trace: false,
        }
    }
}

impl BaselineConfig {
    /// Construct a boxed stepper over `(g, tasks, placement)` — the
    /// baseline counterpart of
    /// [`tlb_core::protocol::ProtocolKind::new_stepper`].
    pub fn new_stepper(
        &self,
        g: &Graph,
        tasks: &TaskSet,
        placement: Placement,
        rng: &mut dyn RngCore,
    ) -> AnyStepper {
        Box::new(BaselineStepper::new(g, tasks, placement, self, rng))
    }
}

/// Stepping engine running a [`BaselineRule`] as a rebalancing protocol:
/// one [`step`] call is one round (Algorithm-5.1 ejection, baseline
/// re-placement). Embeds the same shared [`RoundEngine`] as the core
/// steppers, so counters, potential series, and traces behave
/// identically.
///
/// [`step`]: BaselineStepper::step
#[derive(Debug, Clone)]
pub struct BaselineStepper {
    cfg: BaselineConfig,
    eng: RoundEngine,
    // Reused per-round candidate-bin list (non-isolated nodes of the
    // graph passed to `step`).
    candidates: Vec<NodeId>,
}

impl BaselineStepper {
    /// Set up a run: materialize the placement (consuming RNG exactly as
    /// the core steppers do) and take the initial snapshots.
    ///
    /// # Panics
    /// If the graph is empty, the placement is invalid, or the rule's
    /// parameters are out of range.
    pub fn new<R: Rng + ?Sized>(
        g: &Graph,
        tasks: &TaskSet,
        placement: Placement,
        cfg: &BaselineConfig,
        rng: &mut R,
    ) -> Self {
        let n = g.num_nodes();
        assert!(n > 0, "need at least one resource");
        let weights = tasks.weights().to_vec();
        let threshold = cfg.threshold.value(tasks.total_weight(), n, tasks.w_max());

        let mut stacks: Vec<ResourceStack> = vec![ResourceStack::new(); n];
        for (i, &loc) in placement.materialize(tasks.len(), n, rng).iter().enumerate() {
            stacks[loc as usize].push(i as TaskId, weights[i]);
        }

        Self::from_parts(stacks, weights, threshold, cfg.clone())
    }

    /// Build the engine over an existing stack configuration (consumes no
    /// RNG).
    ///
    /// # Panics
    /// If the stack vector is empty or the rule's parameters are out of
    /// range.
    fn from_parts(
        stacks: Vec<ResourceStack>,
        weights: Vec<f64>,
        threshold: f64,
        cfg: BaselineConfig,
    ) -> Self {
        cfg.rule.validate();
        let eng = RoundEngine::new(
            stacks,
            weights,
            threshold,
            cfg.max_rounds,
            cfg.track_potential,
            cfg.record_trace,
        );
        BaselineStepper { cfg, eng, candidates: Vec::new() }
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

    /// Execute one round (ejection, baseline re-placement) unless the run
    /// is already done. Returns [`is_done`](Self::is_done) after the
    /// round.
    pub fn step<R: Rng + ?Sized>(&mut self, g: &Graph, rng: &mut R) -> bool {
        if self.is_done() {
            return true;
        }
        self.eng.begin_round();
        let threshold = self.eng.threshold();
        // Candidate bins: the non-isolated nodes of this round's graph.
        self.candidates.clear();
        self.candidates.extend(g.nodes().filter(|&v| g.degree(v) > 0));
        let cands = &self.candidates;
        let eng = &mut self.eng;
        // Ejection phase (Algorithm-5.1 rule, no RNG): `cohort[i]` leaves
        // from `positions[i]`.
        for r in 0..eng.stacks.len() as NodeId {
            if eng.stacks[r as usize].is_overloaded(threshold) {
                eng.stacks[r as usize].remove_active_into(threshold, &eng.weights, &mut eng.cohort);
                eng.positions.resize(eng.cohort.len(), r);
            }
        }
        if cands.is_empty() {
            // No eligible destination (every node isolated): the cohort
            // returns to its sources unmoved.
            for (&t, &src) in eng.cohort.iter().zip(eng.positions.iter()) {
                eng.stacks[src as usize].push(t, eng.weights[t as usize]);
            }
            return eng.finish_round(0);
        }
        // Movement phase. The parallel rule is a synchronous wave (all
        // bins drawn before any acceptance, arrival order shuffled — the
        // cited model's collision tie-breaking, matching
        // `parallel_threshold::allocate`); the sequential rules place the
        // cohort in ejection order, reading bin loads live.
        if self.cfg.rule == BaselineRule::ParallelThreshold {
            let migrated = place_parallel_wave(eng, cands, rng);
            return eng.finish_round(migrated);
        }
        let mut migrated = 0u64;
        for i in 0..eng.cohort.len() {
            let t = eng.cohort[i];
            let w = eng.weights[t as usize];
            match self.cfg.rule {
                BaselineRule::Greedy { d } => {
                    let mut best = cands[rng.gen_range(0..cands.len())];
                    for _ in 1..d {
                        let c = cands[rng.gen_range(0..cands.len())];
                        if eng.stacks[c as usize].load() < eng.stacks[best as usize].load() {
                            best = c;
                        }
                    }
                    eng.stacks[best as usize].push(t, w);
                    migrated += 1;
                }
                BaselineRule::OnePlusBeta { beta } => {
                    let dest = if rng.gen_bool(beta) {
                        cands[rng.gen_range(0..cands.len())]
                    } else {
                        let a = cands[rng.gen_range(0..cands.len())];
                        let b = cands[rng.gen_range(0..cands.len())];
                        if eng.stacks[a as usize].load() <= eng.stacks[b as usize].load() {
                            a
                        } else {
                            b
                        }
                    };
                    eng.stacks[dest as usize].push(t, w);
                    migrated += 1;
                }
                BaselineRule::SequentialThreshold { retries } => {
                    migrated += place_under_threshold(eng, cands, i, retries, rng);
                }
                BaselineRule::ParallelThreshold => unreachable!("handled as a wave above"),
            }
        }
        eng.finish_round(migrated)
    }

    /// Step until balanced or the round cap.
    pub fn run<R: Rng + ?Sized>(&mut self, g: &Graph, rng: &mut R) {
        while !self.step(g, rng) {}
    }

    /// Finish: consume the engine into the unified outcome.
    pub fn into_outcome(self) -> ProtocolOutcome {
        self.eng.into_outcome()
    }
}

/// One synchronous parallel-threshold wave over the whole cohort: every
/// task draws its uniform bin **first**, then arrivals are processed in
/// uniformly shuffled order (the cited model's collision tie-breaking,
/// exactly as [`crate::parallel_threshold::allocate`] does), accepting
/// while the bin's load stays within the threshold; rejected tasks
/// return to their sources and retry next round. Returns the number of
/// accepted placements.
fn place_parallel_wave<R: Rng + ?Sized>(
    eng: &mut RoundEngine,
    cands: &[NodeId],
    rng: &mut R,
) -> u64 {
    let threshold = eng.threshold();
    // The pending arrays carry (cohort slot, drawn bin) pairs; the slot
    // index (not the task id) is stored so a rejected task can find its
    // source in `positions` after the shuffle. `shuffle_paired` applies
    // one permutation to both parallel arrays with exactly the words the
    // old tuple shuffle drew, so the SoA split moved no stream.
    eng.pending_tasks.clear();
    eng.pending_dests.clear();
    for slot in 0..eng.cohort.len() {
        eng.pending_tasks.push(slot as u32);
        eng.pending_dests.push(cands[rng.gen_range(0..cands.len())]);
    }
    rand::seq::shuffle_paired(&mut eng.pending_tasks, &mut eng.pending_dests, rng);
    let mut migrated = 0u64;
    for (&slot, &dest) in eng.pending_tasks.iter().zip(&eng.pending_dests) {
        let t = eng.cohort[slot as usize];
        let w = eng.weights[t as usize];
        if eng.stacks[dest as usize].load() + w <= threshold {
            eng.stacks[dest as usize].push(t, w);
            migrated += 1;
        } else {
            let src = eng.positions[slot as usize];
            eng.stacks[src as usize].push(t, w);
        }
    }
    migrated
}

/// Threshold-retry placement of cohort slot `i`: sample up to `retries`
/// uniform candidate bins and join the first that stays within the
/// threshold; return the task to its source (`positions[i]`) on failure.
/// Returns the number of migrations performed (1 or 0).
fn place_under_threshold<R: Rng + ?Sized>(
    eng: &mut RoundEngine,
    cands: &[NodeId],
    i: usize,
    retries: usize,
    rng: &mut R,
) -> u64 {
    let t = eng.cohort[i];
    let w = eng.weights[t as usize];
    let threshold = eng.threshold();
    for _ in 0..retries {
        let c = cands[rng.gen_range(0..cands.len())];
        if eng.stacks[c as usize].load() + w <= threshold {
            eng.stacks[c as usize].push(t, w);
            return 1;
        }
    }
    let src = eng.positions[i];
    eng.stacks[src as usize].push(t, w);
    0
}

impl Protocol for BaselineStepper {
    fn step(&mut self, g: &Graph, rng: &mut dyn RngCore) -> bool {
        BaselineStepper::step(self, g, rng)
    }

    fn is_done(&self) -> bool {
        BaselineStepper::is_done(self)
    }

    fn is_balanced(&self) -> bool {
        BaselineStepper::is_balanced(self)
    }

    fn rounds(&self) -> u64 {
        BaselineStepper::rounds(self)
    }

    fn migrations(&self) -> u64 {
        BaselineStepper::migrations(self)
    }

    fn threshold(&self) -> f64 {
        BaselineStepper::threshold(self)
    }

    fn stacks(&self) -> &[ResourceStack] {
        BaselineStepper::stacks(self)
    }

    fn weights(&self) -> &[f64] {
        BaselineStepper::weights(self)
    }

    fn into_outcome(self: Box<Self>) -> ProtocolOutcome {
        BaselineStepper::into_outcome(*self)
    }
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

    fn run_rule(rule: BaselineRule, seed: u64) -> ProtocolOutcome {
        let g = complete(20);
        let tasks = TaskSet::new((0..200).map(|i| 1.0 + (i % 4) as f64).collect::<Vec<_>>());
        let cfg = BaselineConfig { rule, ..Default::default() };
        let mut r = rng(seed);
        let mut s = BaselineStepper::new(&g, &tasks, Placement::AllOnOne(0), &cfg, &mut r);
        s.run(&g, &mut r);
        s.into_outcome()
    }

    #[test]
    fn every_rule_balances_a_hotspot() {
        for (rule, seed) in [
            (BaselineRule::Greedy { d: 1 }, 1),
            (BaselineRule::Greedy { d: 2 }, 2),
            (BaselineRule::OnePlusBeta { beta: 0.5 }, 3),
            (BaselineRule::SequentialThreshold { retries: 4 }, 4),
            (BaselineRule::ParallelThreshold, 5),
        ] {
            let out = run_rule(rule, seed);
            assert!(out.balanced(), "{} did not balance", rule.label());
            assert!(out.final_max_load <= out.threshold);
            let total: f64 = out.final_loads.iter().sum();
            assert!((total - 500.0).abs() < 1e-6, "{} lost weight", rule.label());
        }
    }

    #[test]
    fn two_choice_needs_no_more_rounds_than_one_choice() {
        // Statistical sanity over a few seeds: greedy[2]'s least-loaded
        // bias should not be slower than blind one-choice re-placement.
        let mean = |d: usize| -> f64 {
            (0..10)
                .map(|s| run_rule(BaselineRule::Greedy { d }, 100 + s).rounds as f64)
                .sum::<f64>()
                / 10.0
        };
        assert!(mean(2) <= mean(1) + 1.0, "greedy2 {} vs greedy1 {}", mean(2), mean(1));
    }

    #[test]
    fn threshold_rules_never_overfill_a_destination() {
        // Sequential/parallel threshold only accept under-threshold bins,
        // so any load above the threshold must be on a task's *source*
        // (ejection refills it), never freshly created past T + w. Verify
        // the accepted placements respect T mid-run.
        let g = complete(10);
        let tasks = TaskSet::uniform(120);
        let cfg = BaselineConfig {
            rule: BaselineRule::SequentialThreshold { retries: 3 },
            max_rounds: 4,
            ..Default::default()
        };
        let mut r = rng(9);
        let mut s = BaselineStepper::new(&g, &tasks, Placement::AllOnOne(0), &cfg, &mut r);
        let t = s.threshold();
        while !s.step(&g, &mut r) {}
        // Every bin except the hotspot source was only ever filled by
        // accepted (under-threshold) placements.
        for (i, stack) in s.stacks().iter().enumerate().skip(1) {
            assert!(stack.load() <= t + 1e-9, "bin {i} overfilled: {}", stack.load());
        }
    }

    #[test]
    fn isolated_nodes_are_never_destinations() {
        // Node 3 is isolated (a deactivated resource looks like this in a
        // churned graph): no baseline may place a task there.
        let mut b = tlb_graphs::GraphBuilder::new(4);
        b.add_edge(0, 1).unwrap();
        b.add_edge(1, 2).unwrap();
        b.add_edge(0, 2).unwrap();
        let g = b.build();
        let tasks = TaskSet::uniform(30);
        let cfg = BaselineConfig::default();
        let mut r = rng(11);
        let mut s = BaselineStepper::new(&g, &tasks, Placement::AllOnOne(0), &cfg, &mut r);
        s.run(&g, &mut r);
        assert!(s.is_balanced());
        assert!(s.stacks()[3].is_empty(), "isolated node received tasks");
    }

    #[test]
    fn fully_isolated_graph_moves_nothing() {
        let g = tlb_graphs::GraphBuilder::new(3).build(); // no edges at all
        let tasks = TaskSet::uniform(9);
        let cfg = BaselineConfig { max_rounds: 5, ..Default::default() };
        let mut r = rng(13);
        let mut s = BaselineStepper::new(&g, &tasks, Placement::AllOnOne(0), &cfg, &mut r);
        s.run(&g, &mut r);
        assert!(!s.is_balanced());
        assert_eq!(s.migrations(), 0);
        assert_eq!(s.rounds(), 5);
        assert_eq!(s.stacks()[0].num_tasks(), 9, "cohort must return to its source");
    }

    #[test]
    fn parallel_wave_breaks_collisions_uniformly() {
        // Two identical sources each eject one unit task; one bin has
        // room for exactly one more. Under the synchronous wave with
        // shuffled tie-breaking, either contestant wins a collision with
        // equal probability, so across seeds both tasks land on the spare
        // bin about equally often. (A sequential ejection-order pass
        // would make the lower-numbered source win every collision,
        // skewing the ratio to ~2/3.)
        let g = complete(3);
        let mut wins = [0u32; 2]; // [task 2 on r2, task 5 on r2]
        for seed in 0..3000u64 {
            let mut stacks = vec![ResourceStack::new(); 3];
            for id in 0..3 {
                stacks[0].push(id, 1.0);
            }
            for id in 3..6 {
                stacks[1].push(id, 1.0);
            }
            stacks[2].push(6, 1.0);
            let cfg = BaselineConfig {
                rule: BaselineRule::ParallelThreshold,
                max_rounds: 1,
                ..Default::default()
            };
            let mut s = BaselineStepper::from_parts(stacks, vec![1.0; 7], 2.0, cfg);
            s.step(&g, &mut rng(seed));
            if s.stacks()[2].tasks().contains(&2) {
                wins[0] += 1;
            }
            if s.stacks()[2].tasks().contains(&5) {
                wins[1] += 1;
            }
        }
        let ratio = wins[1] as f64 / wins[0] as f64;
        assert!(
            (0.85..=1.18).contains(&ratio),
            "collision tie-breaking is biased: task2 won {} times, task5 {} times",
            wins[0],
            wins[1]
        );
    }

    #[test]
    fn trait_dispatch_is_bit_identical_to_direct_calls() {
        let g = torus2d(4, 4);
        let tasks = TaskSet::new((0..150).map(|i| 1.0 + (i % 3) as f64).collect::<Vec<_>>());
        let cfg = BaselineConfig {
            rule: BaselineRule::OnePlusBeta { beta: 0.3 },
            track_potential: true,
            ..Default::default()
        };
        let mut r1 = rng(21);
        let mut direct = BaselineStepper::new(&g, &tasks, Placement::AllOnOne(0), &cfg, &mut r1);
        direct.run(&g, &mut r1);

        let mut r2 = rng(21);
        let mut boxed = cfg.new_stepper(&g, &tasks, Placement::AllOnOne(0), &mut r2);
        boxed.run(&g, &mut r2);
        assert_eq!(boxed.rounds(), direct.rounds());
        assert_eq!(boxed.into_outcome(), direct.into_outcome());
    }

    #[test]
    fn from_parts_resumes_and_round_trips() {
        let g = complete(20);
        let tasks = TaskSet::uniform(400);
        // One-choice re-placement scatters binomially, so one round from
        // a hotspot reliably leaves some bin above the threshold.
        let cfg = BaselineConfig {
            rule: BaselineRule::Greedy { d: 1 },
            max_rounds: 1,
            ..Default::default()
        };
        let mut r = rng(31);
        let mut first = BaselineStepper::new(&g, &tasks, Placement::AllOnOne(0), &cfg, &mut r);
        first.run(&g, &mut r);
        assert!(!first.is_balanced());
        let threshold = first.threshold();
        let (stacks, weights) = (first.stacks().to_vec(), first.weights().to_vec());

        let mut second =
            BaselineStepper::from_parts(stacks, weights, threshold, BaselineConfig::default());
        second.run(&g, &mut r);
        assert!(second.is_balanced());
        let out = second.into_outcome();
        let total: f64 = out.final_loads.iter().sum();
        assert!((total - tasks.total_weight()).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "beta must be in")]
    fn invalid_beta_rejected() {
        let cfg =
            BaselineConfig { rule: BaselineRule::OnePlusBeta { beta: 0.0 }, ..Default::default() };
        BaselineStepper::new(
            &complete(4),
            &TaskSet::uniform(8),
            Placement::AllOnOne(0),
            &cfg,
            &mut rng(0),
        );
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(BaselineRule::Greedy { d: 2 }.label(), "greedy2");
        assert_eq!(BaselineRule::OnePlusBeta { beta: 0.5 }.label(), "one_plus_beta");
        assert_eq!(BaselineRule::SequentialThreshold { retries: 3 }.label(), "seq_threshold");
        assert_eq!(BaselineRule::ParallelThreshold.label(), "par_threshold");
    }
}
