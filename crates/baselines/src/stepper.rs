//! The related-work allocators as iterative threshold-rebalancing
//! protocols: [`tlb_core::protocol::RoundRule`]s run by the shared
//! [`tlb_core::protocol::Stepper`].
//!
//! The one-shot allocators in this crate ([`crate::greedy`],
//! [`crate::one_plus_beta`], [`crate::sequential_threshold`],
//! [`crate::parallel_threshold`]) place a task stream once and stop — the
//! cited papers' setting. This module adapts each placement *rule* into a
//! round-based rebalancing protocol with the paper protocols' shape, so
//! the baselines run inside the same generic machinery (the experiment
//! harness's protocol sweeps and the `protocol_matrix` driver):
//!
//! * **departure** — Algorithm 5.1's rule, the engine's
//!   [`eject_active`](RoundEngine::eject_active): every overloaded
//!   resource ejects its cutting-and-above tasks (`I_a ∪ I_c`), consuming
//!   no RNG;
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

use rand::RngCore;
use serde::{Deserialize, Serialize};
use tlb_core::placement::Placement;
use tlb_core::protocol::{RoundEngine, RoundRule, Stepper};
use tlb_core::task::TaskSet;
use tlb_core::threshold::ThresholdPolicy;
use tlb_graphs::{Graph, NodeId};

use crate::rule;

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
    /// Construct a stepper over `(g, tasks, placement)`, set up like
    /// [`tlb_core::protocol::ProtocolKind::new_stepper`]: the threshold
    /// from the policy, the stacks from the placement (the only RNG this
    /// consumes), the initial snapshots.
    ///
    /// # Panics
    /// If the graph is empty, the placement is invalid, or the rule's
    /// parameters are out of range.
    pub fn new_stepper(
        &self,
        g: &Graph,
        tasks: &TaskSet,
        placement: Placement,
        rng: &mut dyn RngCore,
    ) -> Stepper {
        let n = g.num_nodes();
        let threshold = self.threshold.value(tasks.total_weight(), n, tasks.w_max());
        let stacks = placement.stacks(tasks, n, rng);
        let weights = tasks.weights().to_vec();
        let eng = RoundEngine::new(
            stacks,
            weights,
            threshold,
            self.max_rounds,
            self.track_potential,
            self.record_trace,
        );
        Stepper::new(eng, Rebalance::new(self.rule))
    }
}

/// A [`BaselineRule`] as a round rule: Algorithm-5.1 ejection, then the
/// baseline's re-placement. It runs on the same shared [`RoundEngine`] as
/// the core protocols, so counters, potential series, and traces behave
/// identically.
#[derive(Debug, Clone)]
struct Rebalance {
    rule: BaselineRule,
    /// Candidate bins: the non-isolated nodes of this round's graph.
    candidates: Vec<NodeId>,
    /// Parallel wave scratch: cohort slots in arrival order, and the
    /// candidate index each drew.
    slots: Vec<u32>,
    bins: Vec<u32>,
}

impl Rebalance {
    /// # Panics
    /// If the rule's parameters are out of range.
    fn new(rule: BaselineRule) -> Self {
        rule.validate();
        Rebalance { rule, candidates: Vec::new(), slots: Vec::new(), bins: Vec::new() }
    }
}

impl RoundRule for Rebalance {
    fn round(&mut self, eng: &mut RoundEngine, g: &Graph, rng: &mut dyn RngCore) -> u64 {
        self.candidates.clear();
        self.candidates.extend(g.nodes().filter(|&v| g.degree(v) > 0));
        let cands = &self.candidates;
        eng.eject_active();
        if cands.is_empty() {
            // No eligible destination (every node isolated): the cohort
            // returns to its sources unmoved.
            for i in 0..eng.cohort.len() {
                land(eng, i, None);
            }
            return 0;
        }
        // Movement phase: the rule picks an index into `cands` (see
        // `crate::rule`). The parallel rule is a synchronous wave (all bins
        // drawn before any acceptance, arrival order shuffled, exactly as
        // `parallel_threshold::allocate`); the other rules place the cohort
        // in ejection order, reading bin loads live. A task with no
        // accepting bin returns to its source.
        let (k, threshold) = (cands.len(), eng.threshold());
        let mut migrated = 0u64;
        if self.rule == BaselineRule::ParallelThreshold {
            // The wave shuffles cohort slots, not task ids, so a rejected
            // task can still find its source in `positions`.
            self.slots.clear();
            self.slots.extend(0..eng.cohort.len() as u32);
            rule::wave(k, &mut self.slots, &mut self.bins, rng);
            for (&i, &c) in self.slots.iter().zip(&self.bins) {
                let (i, c) = (i as usize, c as usize);
                let w = eng.weights()[eng.cohort[i] as usize];
                let fits = eng.stacks()[cands[c] as usize].load() + w <= threshold;
                migrated += land(eng, i, fits.then_some(cands[c]));
            }
            return migrated;
        }
        for i in 0..eng.cohort.len() {
            let w = eng.weights()[eng.cohort[i] as usize];
            let load = |c: usize| eng.stacks()[cands[c] as usize].load();
            let c = match self.rule {
                BaselineRule::Greedy { d } => Some(rule::greedy(k, d, load, rng)),
                BaselineRule::OnePlusBeta { beta } => {
                    Some(rule::one_plus_beta(k, beta, load, rng).0)
                }
                BaselineRule::SequentialThreshold { retries } => {
                    rule::first_fit(k, retries, w, threshold, load, rng).0
                }
                BaselineRule::ParallelThreshold => unreachable!("handled as a wave above"),
            };
            migrated += land(eng, i, c.map(|c| cands[c]));
        }
        migrated
    }
}

/// Push cohort slot `i` onto `dest`, or back onto its source
/// (`positions[i]`) if the rule found no bin. Returns the migrations made
/// (1 or 0).
fn land(eng: &mut RoundEngine, i: usize, dest: Option<NodeId>) -> u64 {
    eng.push(dest.unwrap_or(eng.positions[i]), eng.cohort[i]);
    dest.is_some() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use tlb_core::protocol::ProtocolOutcome;
    use tlb_core::stack::ResourceStack;
    use tlb_graphs::generators::complete;

    fn rng(seed: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed)
    }

    fn run_rule(rule: BaselineRule, seed: u64) -> ProtocolOutcome {
        let g = complete(20);
        let tasks = TaskSet::new((0..200).map(|i| 1.0 + (i % 4) as f64).collect::<Vec<_>>());
        let cfg = BaselineConfig { rule, ..Default::default() };
        let mut r = rng(seed);
        let mut s = cfg.new_stepper(&g, &tasks, Placement::AllOnOne(0), &mut r);
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
        let mut s = cfg.new_stepper(&g, &tasks, Placement::AllOnOne(0), &mut r);
        let t = s.engine().threshold();
        while !s.step(&g, &mut r) {}
        // Every bin except the hotspot source was only ever filled by
        // accepted (under-threshold) placements.
        for (i, stack) in s.engine().stacks().iter().enumerate().skip(1) {
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
        let mut s = cfg.new_stepper(&g, &tasks, Placement::AllOnOne(0), &mut r);
        s.run(&g, &mut r);
        assert!(s.engine().is_balanced());
        assert!(s.engine().stacks()[3].is_empty(), "isolated node received tasks");
    }

    #[test]
    fn fully_isolated_graph_moves_nothing() {
        let g = tlb_graphs::GraphBuilder::new(3).build(); // no edges at all
        let tasks = TaskSet::uniform(9);
        let cfg = BaselineConfig { max_rounds: 5, ..Default::default() };
        let mut r = rng(13);
        let mut s = cfg.new_stepper(&g, &tasks, Placement::AllOnOne(0), &mut r);
        s.run(&g, &mut r);
        let eng = s.engine();
        assert!(!eng.is_balanced());
        assert_eq!(eng.migrations(), 0);
        assert_eq!(eng.rounds(), 5);
        assert_eq!(eng.stacks()[0].num_tasks(), 9, "cohort must return to its source");
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
            let eng = RoundEngine::new(stacks, vec![1.0; 7], 2.0, 1, false, false);
            let mut s = Stepper::new(eng, Rebalance::new(BaselineRule::ParallelThreshold));
            s.step(&g, &mut rng(seed));
            let spare = &s.engine().stacks()[2];
            if spare.tasks().contains(&2) {
                wins[0] += 1;
            }
            if spare.tasks().contains(&5) {
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
        let mut first = cfg.new_stepper(&g, &tasks, Placement::AllOnOne(0), &mut r);
        first.run(&g, &mut r);
        let first = first.engine();
        assert!(!first.is_balanced());
        let (stacks, weights) = (first.stacks().to_vec(), first.weights().to_vec());

        let rule = Rebalance::new(BaselineConfig::default().rule);
        let eng = RoundEngine::new(stacks, weights, first.threshold(), 10_000_000, false, false);
        let mut second = Stepper::new(eng, rule);
        second.run(&g, &mut r);
        assert!(second.engine().is_balanced());
        let out = second.into_outcome();
        let total: f64 = out.final_loads.iter().sum();
        assert!((total - tasks.total_weight()).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "beta must be in")]
    fn invalid_beta_rejected() {
        let cfg =
            BaselineConfig { rule: BaselineRule::OnePlusBeta { beta: 0.0 }, ..Default::default() };
        cfg.new_stepper(&complete(4), &TaskSet::uniform(8), Placement::AllOnOne(0), &mut rng(0));
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(BaselineRule::Greedy { d: 2 }.label(), "greedy2");
        assert_eq!(BaselineRule::OnePlusBeta { beta: 0.5 }.label(), "one_plus_beta");
        assert_eq!(BaselineRule::SequentialThreshold { retries: 3 }.label(), "seq_threshold");
        assert_eq!(BaselineRule::ParallelThreshold.label(), "par_threshold");
    }
}
