//! The protocol abstraction: one round engine, one stepping contract.
//!
//! The three threshold-rebalancing variants ([`resource_protocol`],
//! [`user_protocol`], [`mixed_protocol`]) share everything about a round
//! except the departure rule and the movement rule: collect a cohort of
//! departing tasks off the overloaded stacks, move the cohort, stack the
//! arrivals, account (migration counter, potential series, trace), check
//! balance. This module owns that shared machinery and the contract the
//! rest of the system programs against:
//!
//! * [`RoundEngine`] — the shared round state every stepper embeds: the
//!   per-resource stacks, weight vector, threshold, cached batched walk
//!   kernel, reused round buffers, and the counters/series/trace. A
//!   variant's `step` is `begin_round → (its departure + movement phases,
//!   touching the engine's public buffers) → finish_round`.
//! * [`ProtocolOutcome`] — the one outcome shape every run reports (the
//!   per-variant outcome names are aliases of it).
//! * [`Protocol`] — the **object-safe** stepping surface
//!   (`step(&Graph, &mut dyn RngCore) -> bool`, `is_done`, `rounds`,
//!   `migrations`, `threshold`, `stacks`, `into_outcome`), implemented by
//!   all three steppers here and by the baseline adapters in
//!   `tlb-baselines`. Layers that dispatch over protocol variants (the
//!   experiment harness, the `protocol_matrix` driver) hold an
//!   [`AnyStepper`] instead of re-implementing a per-variant `match`.
//! * [`ProtocolKind`] — the serializable "which variant + its config"
//!   value that constructs an [`AnyStepper`].
//!
//! ## RNG-stream guarantee
//!
//! Trait dispatch adds **no draws and reorders none**: `Protocol::step`
//! delegates to the very same monomorphic round body the inherent
//! `step` runs, with the RNG behind a `&mut dyn RngCore` — the word
//! stream is identical, so an [`AnyStepper`]-driven run is bit-identical
//! to calling the concrete stepper directly (pinned per variant in
//! `tests/integration_protocol_trait.rs`).
//!
//! [`resource_protocol`]: crate::resource_protocol
//! [`user_protocol`]: crate::user_protocol
//! [`mixed_protocol`]: crate::mixed_protocol

use rand::RngCore;
use serde::{Deserialize, Serialize};
use tlb_graphs::{Graph, NodeId};
use tlb_walks::{BatchWalker, WalkKind};

use crate::mixed_protocol::{MixedConfig, MixedStepper};
use crate::placement::Placement;
use crate::potential::{is_balanced, max_load, total_potential};
use crate::resource_protocol::{ResourceControlledConfig, ResourceControlledStepper};
use crate::stack::ResourceStack;
use crate::task::{TaskId, TaskSet};
use crate::trace::RoundTrace;
use crate::user_protocol::{UserControlledConfig, UserControlledStepper};

/// Result of any protocol run. The per-variant outcome names
/// (`ResourceControlledOutcome`, `UserControlledOutcome`, `MixedOutcome`)
/// are aliases of this struct, so outcomes from different variants can be
/// aggregated side by side.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProtocolOutcome {
    /// Rounds executed until balance (or until the cap).
    pub rounds: u64,
    /// Whether balance was reached within the round cap.
    pub completed: bool,
    /// Total task migrations (one per task per round moved).
    pub migrations: u64,
    /// The threshold value used.
    pub threshold: f64,
    /// `Φ` after each round, if tracking was enabled (index 0 is the
    /// initial potential).
    pub potential_series: Vec<f64>,
    /// Maximum load at termination.
    pub final_max_load: f64,
    /// Per-resource loads at termination (index = resource id).
    pub final_loads: Vec<f64>,
    /// Full per-round trace, if `record_trace` was enabled.
    pub trace: Option<RoundTrace>,
}

impl ProtocolOutcome {
    /// Whether the run ended balanced.
    pub fn balanced(&self) -> bool {
        self.completed
    }
}

/// Deterministic per-pass observability counters, accumulated by the
/// round engine as a side effect of quantities every round computes
/// anyway (cohort lengths) — a handful of integer adds per *round*, so
/// tracking is unconditional and costs nothing measurable.
///
/// These are pure functions of the stack configuration, threshold, and
/// seed: none of them reads a clock or consumes an RNG word, so they are
/// bit-identical across thread counts and identical for a replayed
/// stream. They are *not* part of [`ProtocolOutcome`] (whose serialized
/// shape is pinned by goldens); the sweep drivers read them off through
/// the `run_*_with_stats` entry points.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Walk-kernel steps taken (one per cohort member per batched step).
    pub walk_steps: u64,
    /// Lazy-walk fused coin+neighbor words drawn (one per walker per
    /// step under [`WalkKind::Lazy`]).
    pub fused_word_draws: u64,
    /// Steps served by the kernel's regular fast path (affine CSR
    /// offsets; taken whenever the graph is regular with degree > 0).
    pub regular_fast_path_hits: u64,
    /// Uniform re-placement words drawn (user-style arrival phase).
    pub uniform_jump_draws: u64,
    /// Largest single-round migration cohort seen this pass.
    pub max_round_cohort: u64,
}

impl EngineStats {
    /// Fold another pass's counters into this one (sums; max for the
    /// cohort high-water mark).
    pub fn merge(&mut self, other: &EngineStats) {
        self.walk_steps += other.walk_steps;
        self.fused_word_draws += other.fused_word_draws;
        self.regular_fast_path_hits += other.regular_fast_path_hits;
        self.uniform_jump_draws += other.uniform_jump_draws;
        self.max_round_cohort = self.max_round_cohort.max(other.max_round_cohort);
    }
}

/// The shared round state every protocol stepper embeds (see the module
/// docs). Variant `step` implementations work directly on the public
/// buffers between [`begin_round`](Self::begin_round) and
/// [`finish_round`](Self::finish_round); the counters, potential series,
/// trace, and completion flag are private so the accounting cannot drift
/// between variants.
#[derive(Debug, Clone)]
pub struct RoundEngine {
    /// Per-resource stacks (index = resource id).
    pub stacks: Vec<ResourceStack>,
    /// Weight per task id.
    pub weights: Vec<f64>,
    /// Batched walk kernel, cached for the whole run (topology is re-read
    /// from the graph every step, so swapping graphs between rounds stays
    /// sound).
    pub walker: BatchWalker,
    /// Round buffer: the departing tasks of the current round, in
    /// ejection order. Cleared by [`begin_round`](Self::begin_round).
    pub cohort: Vec<TaskId>,
    /// Round buffer parallel to `cohort`: source positions going in, walk
    /// destinations after a batched step. Cleared by `begin_round`.
    pub positions: Vec<NodeId>,
    /// Round buffer: arrival task ids, parallel to
    /// [`pending_dests`](Self::pending_dests), for variants that
    /// materialize (and possibly shuffle) the arrival order. Stored as
    /// two flat parallel arrays rather than a `Vec<(TaskId, NodeId)>`:
    /// the arrival loop reads ids and destinations in separate streams,
    /// and the structure-of-arrays form keeps each stream dense (8 B per
    /// entry per array instead of one padded 8 B tuple holding both) —
    /// shuffling applies one permutation to both via
    /// [`rand::seq::shuffle_paired`], which draws the exact words the
    /// tuple shuffle drew.
    pub pending_tasks: Vec<TaskId>,
    /// Round buffer: arrival destinations, parallel to
    /// [`pending_tasks`](Self::pending_tasks).
    pub pending_dests: Vec<NodeId>,
    /// Round buffer: bulk-generated destination words (user-style uniform
    /// re-placement).
    pub dest_words: Vec<u64>,
    threshold: f64,
    max_rounds: u64,
    track_potential: bool,
    rounds: u64,
    migrations: u64,
    stats: EngineStats,
    potential_series: Vec<f64>,
    trace: Option<RoundTrace>,
    completed: bool,
    /// Counting-sort scratch for [`sort_cohort_by_degree`]
    /// (bucket cursors, then the sorted copies); reused across rounds so
    /// steady-state sorting allocates nothing.
    sort_counts: Vec<usize>,
    sort_tasks: Vec<TaskId>,
    sort_positions: Vec<NodeId>,
}

impl RoundEngine {
    /// Build the engine over an existing stack configuration (consumes no
    /// RNG) and take the initial potential/trace snapshots.
    ///
    /// # Panics
    /// If the stack vector is empty.
    pub fn new(
        stacks: Vec<ResourceStack>,
        weights: Vec<f64>,
        threshold: f64,
        max_rounds: u64,
        track_potential: bool,
        record_trace: bool,
    ) -> Self {
        assert!(!stacks.is_empty(), "need at least one resource");
        let completed = is_balanced(&stacks, threshold);
        let mut potential_series = Vec::new();
        if track_potential {
            potential_series.push(total_potential(&stacks, threshold, &weights));
        }
        let trace = record_trace.then(|| RoundTrace::start(&stacks, threshold, &weights));
        RoundEngine {
            stacks,
            weights,
            walker: BatchWalker::new(),
            cohort: Vec::new(),
            positions: Vec::new(),
            pending_tasks: Vec::new(),
            pending_dests: Vec::new(),
            dest_words: Vec::new(),
            threshold,
            max_rounds,
            track_potential,
            rounds: 0,
            migrations: 0,
            stats: EngineStats::default(),
            potential_series,
            trace,
            completed,
            sort_counts: Vec::new(),
            sort_tasks: Vec::new(),
            sort_positions: Vec::new(),
        }
    }

    /// Reorder the round cohort (and its parallel source positions) by
    /// ascending source degree — a stable counting sort, so entries
    /// within one degree bucket keep their ejection order. On irregular
    /// graphs this groups the batched kernel's work into
    /// near-regular runs: the `slot < deg(v)` self-loop test in the lazy
    /// path becomes predictable per bucket instead of per walker, and
    /// neighbour-list lengths stop alternating between cache lines.
    ///
    /// On a regular graph (one bucket) the sort is the identity, so the
    /// method returns without touching the buffers. Callers only invoke
    /// it for [`WalkKind::Lazy`]: the lazy stream assigns lane words by
    /// cohort *index*, so reordering moves which word each task gets —
    /// fine under the re-pinned lazy stream, but it would break the
    /// MaxDegree/Simple scalar-parity goldens, whose cohorts therefore
    /// stay in ejection order.
    pub fn sort_cohort_by_degree(&mut self, g: &Graph) {
        debug_assert_eq!(self.cohort.len(), self.positions.len());
        if g.is_regular() || self.cohort.len() <= 1 {
            return;
        }
        let buckets = g.max_degree() as usize + 1;
        self.sort_counts.clear();
        self.sort_counts.resize(buckets, 0);
        for &v in &self.positions {
            self.sort_counts[g.degree(v)] += 1;
        }
        // Prefix sums turn the histogram into per-bucket write cursors.
        let mut acc = 0usize;
        for c in self.sort_counts.iter_mut() {
            let n = *c;
            *c = acc;
            acc += n;
        }
        self.sort_tasks.resize(self.cohort.len(), 0);
        self.sort_positions.resize(self.positions.len(), 0);
        for i in 0..self.cohort.len() {
            let v = self.positions[i];
            let slot = self.sort_counts[g.degree(v)];
            self.sort_counts[g.degree(v)] += 1;
            self.sort_tasks[slot] = self.cohort[i];
            self.sort_positions[slot] = v;
        }
        std::mem::swap(&mut self.cohort, &mut self.sort_tasks);
        std::mem::swap(&mut self.positions, &mut self.sort_positions);
    }

    /// Whether every load is at most the threshold.
    pub fn is_balanced(&self) -> bool {
        self.completed
    }

    /// Whether the run is over: balanced, or the round cap was hit.
    pub fn is_done(&self) -> bool {
        self.completed || self.rounds >= self.max_rounds
    }

    /// Rounds executed so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Migrations performed so far.
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// The threshold this run balances against.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Deterministic observability counters accumulated so far.
    pub fn obs_stats(&self) -> EngineStats {
        self.stats
    }

    /// Account one batched walk step of the current cohort (call right
    /// after `walker.step_batch`): `positions.len()` steps, classified by
    /// walk kind and by whether the kernel's regular fast path applies.
    /// Reads only lengths and cached degree bounds — no RNG, no clock.
    pub fn note_walk_batch(&mut self, g: &Graph, kind: WalkKind) {
        let n = self.positions.len() as u64;
        self.stats.walk_steps += n;
        if kind == WalkKind::Lazy {
            self.stats.fused_word_draws += n;
        }
        if g.max_degree() > 0 && g.is_regular() {
            self.stats.regular_fast_path_hits += n;
        }
    }

    /// Account one bulk uniform re-placement (user-style arrival phase):
    /// one destination word per cohort member.
    pub fn note_uniform_batch(&mut self) {
        self.stats.uniform_jump_draws += self.cohort.len() as u64;
    }

    /// Open a round: bump the round counter and clear the cohort buffers.
    /// Callers must have checked [`is_done`](Self::is_done) first.
    pub fn begin_round(&mut self) {
        debug_assert!(!self.is_done(), "begin_round on a finished run");
        self.rounds += 1;
        self.cohort.clear();
        self.positions.clear();
    }

    /// Close a round after `migrated` tasks were re-stacked: update the
    /// migration counter, potential series, trace, and completion flag.
    /// Returns [`is_done`](Self::is_done) after the round.
    pub fn finish_round(&mut self, migrated: u64) -> bool {
        self.migrations += migrated;
        self.stats.max_round_cohort = self.stats.max_round_cohort.max(migrated);
        if self.track_potential {
            self.potential_series.push(total_potential(
                &self.stacks,
                self.threshold,
                &self.weights,
            ));
        }
        if let Some(trace) = &mut self.trace {
            trace.record(self.rounds, &self.stacks, &self.weights, migrated);
        }
        self.completed = is_balanced(&self.stacks, self.threshold);
        self.is_done()
    }

    /// Finish: consume the engine into the outcome every one-shot entry
    /// point reports.
    pub fn into_outcome(self) -> ProtocolOutcome {
        ProtocolOutcome {
            rounds: self.rounds,
            completed: self.completed,
            migrations: self.migrations,
            threshold: self.threshold,
            potential_series: self.potential_series,
            final_max_load: max_load(&self.stacks),
            final_loads: self.stacks.iter().map(ResourceStack::load).collect(),
            trace: self.trace,
        }
    }
}

/// The object-safe stepping surface every protocol engine exposes — the
/// three paper/extension steppers here and the baseline adapters in
/// `tlb-baselines`. One `step` call is one round; the graph is passed
/// into every step so callers may swap it between rounds (the user
/// protocol ignores it — Algorithm 6.1 jumps uniformly).
///
/// Dispatching through `dyn Protocol` consumes exactly the RNG stream
/// the concrete stepper would (see the module docs).
pub trait Protocol {
    /// Execute one round unless the run is already done; returns
    /// [`is_done`](Self::is_done) after the round.
    fn step(&mut self, g: &Graph, rng: &mut dyn RngCore) -> bool;

    /// Step until balanced or the round cap.
    fn run(&mut self, g: &Graph, rng: &mut dyn RngCore) {
        while !self.step(g, rng) {}
    }

    /// Whether the run is over: balanced, or the round cap was hit.
    fn is_done(&self) -> bool;

    /// Whether every load is at most the threshold.
    fn is_balanced(&self) -> bool;

    /// Rounds executed so far.
    fn rounds(&self) -> u64;

    /// Migrations performed so far.
    fn migrations(&self) -> u64;

    /// The threshold this run balances against.
    fn threshold(&self) -> f64;

    /// The per-resource stacks (index = resource id).
    fn stacks(&self) -> &[ResourceStack];

    /// Weight per task id (freed slots of dynamic callers included).
    fn weights(&self) -> &[f64];

    /// Consume the engine into its outcome.
    fn into_outcome(self: Box<Self>) -> ProtocolOutcome;
}

/// A boxed protocol engine — the dispatch type the experiment harness
/// drives.
pub type AnyStepper = Box<dyn Protocol + Send>;

/// Which protocol variant to run, with its configuration — the
/// serializable value config files and drivers hold, and the factory for
/// [`AnyStepper`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ProtocolKind {
    /// Resource-controlled (Algorithm 5.1) on arbitrary graphs.
    Resource(ResourceControlledConfig),
    /// User-controlled (Algorithm 6.1); ignores the graph (uniform
    /// jumps over all resources).
    User(UserControlledConfig),
    /// The Section-8 mixed protocol (user-style departures,
    /// resource-style walk movement).
    Mixed(MixedConfig),
}

impl ProtocolKind {
    /// Short stable name (report/CSV key).
    pub fn label(&self) -> &'static str {
        match self {
            ProtocolKind::Resource(_) => "resource",
            ProtocolKind::User(_) => "user",
            ProtocolKind::Mixed(_) => "mixed",
        }
    }

    /// Construct a fresh stepper over `(g, tasks, placement)`, consuming
    /// RNG exactly as the variant's one-shot entry point would.
    pub fn new_stepper(
        &self,
        g: &Graph,
        tasks: &TaskSet,
        placement: Placement,
        rng: &mut dyn RngCore,
    ) -> AnyStepper {
        match self {
            ProtocolKind::Resource(cfg) => {
                Box::new(ResourceControlledStepper::new(g, tasks, placement, cfg, rng))
            }
            ProtocolKind::User(cfg) => {
                Box::new(UserControlledStepper::new(g.num_nodes(), tasks, placement, cfg, rng))
            }
            ProtocolKind::Mixed(cfg) => Box::new(MixedStepper::new(g, tasks, placement, cfg, rng)),
        }
    }
}

macro_rules! impl_protocol_via_engine {
    ($stepper:ty) => {
        impl Protocol for $stepper {
            fn step(&mut self, g: &Graph, rng: &mut dyn RngCore) -> bool {
                <$stepper>::step(self, g, rng)
            }

            fn is_done(&self) -> bool {
                <$stepper>::is_done(self)
            }

            fn is_balanced(&self) -> bool {
                <$stepper>::is_balanced(self)
            }

            fn rounds(&self) -> u64 {
                <$stepper>::rounds(self)
            }

            fn migrations(&self) -> u64 {
                <$stepper>::migrations(self)
            }

            fn threshold(&self) -> f64 {
                <$stepper>::threshold(self)
            }

            fn stacks(&self) -> &[ResourceStack] {
                <$stepper>::stacks(self)
            }

            fn weights(&self) -> &[f64] {
                <$stepper>::weights(self)
            }

            fn into_outcome(self: Box<Self>) -> ProtocolOutcome {
                <$stepper>::into_outcome(*self)
            }
        }
    };
}

impl_protocol_via_engine!(ResourceControlledStepper);
impl_protocol_via_engine!(UserControlledStepper);
impl_protocol_via_engine!(MixedStepper);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource_protocol::run_resource_controlled;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use tlb_graphs::generators::{complete, torus2d};

    fn rng(seed: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed)
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(ProtocolKind::Resource(Default::default()).label(), "resource");
        assert_eq!(ProtocolKind::User(Default::default()).label(), "user");
        assert_eq!(ProtocolKind::Mixed(Default::default()).label(), "mixed");
    }

    #[test]
    fn any_stepper_matches_one_shot_resource_run() {
        let g = torus2d(5, 5);
        let tasks = TaskSet::new((0..200).map(|i| 1.0 + (i % 3) as f64).collect::<Vec<_>>());
        let cfg = ResourceControlledConfig { track_potential: true, ..Default::default() };
        let direct = run_resource_controlled(&g, &tasks, Placement::AllOnOne(0), &cfg, &mut rng(7));

        let kind = ProtocolKind::Resource(cfg);
        let mut r = rng(7);
        let mut s = kind.new_stepper(&g, &tasks, Placement::AllOnOne(0), &mut r);
        s.run(&g, &mut r);
        assert_eq!(s.rounds(), direct.rounds);
        assert_eq!(s.into_outcome(), direct);
    }

    #[test]
    fn any_stepper_user_ignores_topology() {
        // The user protocol on a cycle must behave exactly as on the
        // complete graph with the same node count: the trait threads a
        // graph through, but Algorithm 6.1 never reads it.
        let tasks = TaskSet::uniform(120);
        let kind = ProtocolKind::User(Default::default());
        let run_on = |g: &Graph| -> ProtocolOutcome {
            let mut r = rng(9);
            let mut s = kind.new_stepper(g, &tasks, Placement::AllOnOne(0), &mut r);
            s.run(g, &mut r);
            s.into_outcome()
        };
        let on_complete = run_on(&complete(12));
        let on_cycle = run_on(&tlb_graphs::generators::cycle(12));
        assert_eq!(on_complete, on_cycle);
        assert!(on_complete.balanced());
    }

    #[test]
    fn obs_stats_count_walks_and_cohorts_deterministically() {
        let g = torus2d(5, 5); // 4-regular: every step hits the fast path
        let tasks = TaskSet::new((0..200).map(|i| 1.0 + (i % 3) as f64).collect::<Vec<_>>());
        let run_once = |walk: WalkKind| {
            let cfg = ResourceControlledConfig { walk, ..Default::default() };
            let mut r = rng(11);
            let mut s =
                ResourceControlledStepper::new(&g, &tasks, Placement::AllOnOne(0), &cfg, &mut r);
            s.run(&g, &mut r);
            (s.obs_stats(), s.migrations())
        };
        let (stats, migrations) = run_once(WalkKind::MaxDegree);
        // The resource protocol moves exactly the walked cohort each
        // round, so steps == migrations; on a regular graph every step is
        // a fast-path hit; max-degree walks draw no fused words.
        assert_eq!(stats.walk_steps, migrations);
        assert_eq!(stats.regular_fast_path_hits, stats.walk_steps);
        assert_eq!(stats.fused_word_draws, 0);
        assert_eq!(stats.uniform_jump_draws, 0);
        assert!(stats.max_round_cohort > 0);
        assert!(stats.max_round_cohort <= migrations);
        // Counters are a pure function of the seed: identical on re-run.
        assert_eq!(run_once(WalkKind::MaxDegree).0, stats);
        // A lazy walk draws exactly one fused word per step.
        let (lazy_stats, _) = run_once(WalkKind::Lazy);
        assert_eq!(lazy_stats.fused_word_draws, lazy_stats.walk_steps);
        assert!(lazy_stats.fused_word_draws > 0);

        // The user protocol draws uniform words instead of walk steps.
        let ucfg = UserControlledConfig::default();
        let mut r = rng(11);
        let mut s = UserControlledStepper::new(25, &tasks, Placement::AllOnOne(0), &ucfg, &mut r);
        s.run(&g, &mut r);
        let ustats = s.obs_stats();
        assert_eq!(ustats.uniform_jump_draws, s.migrations());
        assert_eq!(ustats.walk_steps, 0);

        // Merging folds sums and maxes.
        let mut merged = stats;
        merged.merge(&ustats);
        assert_eq!(merged.walk_steps, stats.walk_steps);
        assert_eq!(merged.uniform_jump_draws, ustats.uniform_jump_draws);
        assert_eq!(merged.max_round_cohort, stats.max_round_cohort.max(ustats.max_round_cohort));
    }

    #[test]
    fn w_max_is_preserved_for_the_variants_that_read_it() {
        let g = complete(8);
        let mut weights: Vec<f64> = vec![1.0; 40];
        weights[17] = 9.5;
        let tasks = TaskSet::new(weights);
        let mixed =
            MixedStepper::new(&g, &tasks, Placement::AllOnOne(0), &Default::default(), &mut rng(2));
        assert_eq!(mixed.w_max(), 9.5);
        let user = UserControlledStepper::new(
            8,
            &tasks,
            Placement::AllOnOne(0),
            &Default::default(),
            &mut rng(2),
        );
        assert_eq!(user.w_max(), 9.5);
    }

    #[test]
    fn engine_accounting_matches_manual_bookkeeping() {
        // Drive a RoundEngine by hand (no variant logic) and check the
        // counters, series, and trace stay in lock-step.
        let mut stacks = vec![ResourceStack::new(); 2];
        let weights = vec![2.0, 2.0, 2.0];
        for id in 0..3 {
            stacks[0].push(id, 2.0);
        }
        let mut eng = RoundEngine::new(stacks, weights, 4.0, 100, true, true);
        assert!(!eng.is_balanced());
        assert_eq!(eng.rounds(), 0);

        eng.begin_round();
        // Move the top task across by hand.
        let moved = eng.stacks[0].remove_active(4.0, &eng.weights.clone());
        assert_eq!(moved.len(), 1);
        for t in moved {
            eng.stacks[1].push(t, eng.weights[t as usize]);
        }
        let done = eng.finish_round(1);
        assert!(done && eng.is_balanced());
        assert_eq!(eng.rounds(), 1);
        assert_eq!(eng.migrations(), 1);
        let out = eng.into_outcome();
        assert_eq!(out.potential_series.len(), 2);
        assert_eq!(out.potential_series[1], 0.0);
        let trace = out.trace.expect("trace was recorded");
        assert_eq!(trace.rounds(), 1);
        assert_eq!(trace.total_migrations(), 1);
    }

    #[test]
    #[should_panic(expected = "need at least one resource")]
    fn engine_rejects_empty_stacks() {
        RoundEngine::new(Vec::new(), Vec::new(), 1.0, 10, false, false);
    }
}
