//! The protocol abstraction: one round engine, one stepper.
//!
//! The threshold-rebalancing variants ([`resource_protocol`],
//! [`user_protocol`], [`mixed_protocol`] and the baselines in
//! `tlb-baselines`) share everything about a round except the departure
//! rule and the movement rule: collect a cohort of departing tasks off the
//! overloaded stacks, move the cohort, stack the arrivals, account
//! (migration counter, potential series, trace), check balance. This
//! module owns that shared machinery and the contract the rest of the
//! system programs against:
//!
//! * [`RoundEngine`] — the shared round state: the per-resource stacks,
//!   weight vector, threshold, cached batched walk kernel, reused round
//!   buffers, and the counters/series/trace. It also owns the round
//!   *phases* the rules are built from: Algorithm 5.1's departures
//!   ([`eject_active`](RoundEngine::eject_active), shared with the
//!   baselines), Algorithm 6.1's coin departures, one walk step, a
//!   uniform jump, the arrival shuffle and the arrivals.
//! * [`RoundRule`] — one protocol's round: the object-safe
//!   `round(&mut RoundEngine, &Graph, &mut dyn RngCore) -> u64` (tasks
//!   migrated). The three core protocols are one rule, a departure
//!   (active | coins) × a movement (walk | uniform jump) plus an arrival
//!   shuffle flag; the baselines implement the trait in `tlb-baselines`.
//! * [`Stepper`] — the engine plus a boxed rule. Its `step` is the one
//!   round frame every protocol runs: `is_done → begin_round →
//!   rule.round → finish_round`. The experiment harness, the
//!   `protocol_matrix` driver and the `run_*` entry points all drive it.
//! * [`ProtocolOutcome`] — the one outcome shape every run reports (the
//!   per-variant outcome names are aliases of it).
//! * [`ProtocolKind`] — the serializable "which variant + its config"
//!   value that constructs a [`Stepper`].
//!
//! ## Resumed ejection
//!
//! The engine keeps one *mark* `(len, height)` per resource: the accepted
//! prefix its last Algorithm 5.1 ejection left, with the scan's exact
//! fold as `height`. Between two ejections a one-shot run only pushes on
//! top of a stack (the threshold is fixed for the run), so
//! [`eject_active`](RoundEngine::eject_active) resumes each scan at the
//! mark and reads the tasks pushed since plus the first one it ejects —
//! not the whole accepted prefix again. The split and the load bits are
//! those of a scan from the bottom (why: [`crate::stack`]); debug builds
//! assert that on every ejection. A coin departure removes tasks from
//! anywhere in a stack, so it resets that resource's mark to `(0, 0.0)`.
//!
//! Marks stay valid only because nothing else can change a stack: the
//! stacks and weights are read-only outside the engine
//! ([`stacks`](RoundEngine::stacks), [`weights`](RoundEngine::weights)),
//! and a rule outside this crate lands its cohort with
//! [`push`](RoundEngine::push).
//!
//! ## RNG-stream guarantee
//!
//! There is one dispatch path: the stepper hands the rule the RNG as a
//! `&mut dyn RngCore`, and the `run_*` entry points go through the same
//! stepper as [`ProtocolKind::new_stepper`]. Each phase draws the words the
//! per-protocol round loops it replaced drew, in the same order (bulk
//! fills where those drew word by word), so the goldens in
//! `tests/integration_online.rs` and the fixed-seed pins in
//! `tests/integration_protocol_trait.rs` hold unchanged.
//!
//! [`resource_protocol`]: crate::resource_protocol
//! [`user_protocol`]: crate::user_protocol
//! [`mixed_protocol`]: crate::mixed_protocol

use rand::seq::shuffle_paired;
use rand::{lemire_u64, RngCore};
use serde::{Deserialize, Serialize};
use tlb_graphs::{Graph, NodeId};
use tlb_walks::{BatchWalker, WalkKind};

use crate::mixed_protocol::{Departure, MixedConfig};
use crate::placement::Placement;
use crate::potential::{is_balanced, max_load, total_potential};
use crate::resource_protocol::ResourceControlledConfig;
use crate::stack::ResourceStack;
use crate::task::{TaskId, TaskSet};
use crate::trace::RoundTrace;
use crate::user_protocol::UserControlledConfig;

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
/// anyway (cohort lengths, ejection splits) — a handful of integer adds
/// per *round* plus one per ejected stack, so tracking is unconditional
/// and costs nothing measurable.
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
    /// Uniform re-placement words drawn (user-style arrival phase).
    pub uniform_jump_draws: u64,
    /// Largest single-round migration cohort seen this pass.
    pub max_round_cohort: u64,
    /// Stack entries whose weight Algorithm 5.1's ejection scan read:
    /// per overloaded stack, the tasks from its mark up to and including
    /// the first one ejected.
    pub eject_weight_reads: u64,
}

impl EngineStats {
    /// Fold another pass's counters into this one (sums; max for the
    /// cohort high-water mark).
    pub fn merge(&mut self, other: &EngineStats) {
        self.walk_steps += other.walk_steps;
        self.uniform_jump_draws += other.uniform_jump_draws;
        self.eject_weight_reads += other.eject_weight_reads;
        self.max_round_cohort = self.max_round_cohort.max(other.max_round_cohort);
    }
}

/// The shared round state of every protocol run (see the module docs).
/// A [`RoundRule`] works on the public buffers and the phase methods
/// between [`begin_round`](Self::begin_round) and
/// [`finish_round`](Self::finish_round); the counters, potential series,
/// trace, and completion flag are private so the accounting cannot drift
/// between protocols.
#[derive(Debug, Clone)]
pub struct RoundEngine {
    /// Per-resource stacks (index = resource id). Read-only outside the
    /// engine ([`stacks`](Self::stacks)); [`push`](Self::push) is the one
    /// outside mutation, so no caller can invalidate a `marks` entry.
    stacks: Vec<ResourceStack>,
    /// Weight per task id ([`weights`](Self::weights)).
    weights: Vec<f64>,
    /// Per resource: the accepted prefix `(len, height)` its last
    /// Algorithm 5.1 ejection left, `height` being the scan's exact fold
    /// over those `len` tasks; `(0, 0.0)` before the first ejection and
    /// after a coin departure drains the stack. Only pushes on top
    /// happen in between, so [`eject_active`](Self::eject_active) resumes
    /// the scan there (see [`ResourceStack::remove_active_from`]).
    marks: Vec<(usize, f64)>,
    /// Round buffer: the departing tasks of the current round, in
    /// departure order. Cleared by [`begin_round`](Self::begin_round).
    pub cohort: Vec<TaskId>,
    /// Round buffer parallel to `cohort`: source positions going in, walk
    /// destinations after the walk phase. Cleared by `begin_round`.
    pub positions: Vec<NodeId>,
    /// Batched walk kernel, cached for the whole run (topology is re-read
    /// from the graph every step, so swapping graphs between rounds stays
    /// sound).
    walker: BatchWalker,
    /// Round buffer: bulk-drawn words — one stack's departure coins, then
    /// the cohort's uniform destinations.
    words: Vec<u64>,
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
    ///
    /// [`sort_cohort_by_degree`]: Self::sort_cohort_by_degree
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
            marks: vec![(0, 0.0); stacks.len()],
            stacks,
            weights,
            cohort: Vec::new(),
            positions: Vec::new(),
            walker: BatchWalker::new(),
            words: Vec::new(),
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

    /// The per-resource stacks (index = resource id).
    pub fn stacks(&self) -> &[ResourceStack] {
        &self.stacks
    }

    /// The weight of each task id.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Push `task` on top of resource `dest`'s stack: the arrival step a
    /// [`RoundRule`] outside this crate uses to land its cohort.
    pub fn push(&mut self, dest: NodeId, task: TaskId) {
        self.stacks[dest as usize].push(task, self.weights[task as usize]);
    }

    /// Algorithm 5.1's departures: every overloaded resource, in node
    /// order, ejects its cutting and above tasks (`I_a ∪ I_c`) into the
    /// cohort, and `positions[i]` records `cohort[i]`'s source. Draws no
    /// RNG.
    ///
    /// Each scan resumes from the resource's mark (see `marks`), so it
    /// reads the tasks pushed since that resource's last ejection plus
    /// the first one it ejects, not the whole stack. Debug builds check
    /// every resumed split against a scan from the bottom.
    pub fn eject_active(&mut self) {
        for r in 0..self.stacks.len() as NodeId {
            let stack = &mut self.stacks[r as usize];
            if !stack.is_overloaded(self.threshold) {
                continue;
            }
            let fresh = cfg!(debug_assertions)
                .then(|| stack.accepted_prefix_from(0, 0.0, self.threshold, &self.weights));
            let mark = &mut self.marks[r as usize];
            let removed = stack.remove_active_from(
                mark.0,
                mark.1,
                self.threshold,
                &self.weights,
                &mut self.cohort,
            );
            let split = stack.num_tasks();
            self.stats.eject_weight_reads += (split - mark.0 + usize::from(removed > 0)) as u64;
            *mark = (split, stack.load());
            // Both scans split the same stack, so equal splits eject the
            // same tasks.
            if let Some((len, height)) = fresh {
                assert!(
                    (len, height.to_bits()) == (split, stack.load().to_bits()),
                    "resource {r}: the resumed ejection split differs from a scan from the bottom"
                );
            }
            self.positions.resize(self.cohort.len(), r);
        }
    }

    /// Algorithm 6.1's departures: every task on an overloaded resource
    /// `r` leaves with probability `p_r = min(α·⌈φ_r/w_max⌉/b_r, 1)`,
    /// resources in node order, tasks bottom to top; `positions[i]`
    /// records `cohort[i]`'s source. Each resource's coins are one bulk
    /// fill of `b_r` words (the words a `gen_bool` per task drew); a
    /// resource with `p_r ≤ 0` draws none.
    pub(crate) fn depart_bernoulli(&mut self, alpha: f64, w_max: f64, rng: &mut dyn RngCore) {
        for r in 0..self.stacks.len() as NodeId {
            let stack = &mut self.stacks[r as usize];
            if !stack.is_overloaded(self.threshold) {
                continue;
            }
            let psi = stack.psi(self.threshold, &self.weights, w_max);
            debug_assert!(psi >= 1, "overloaded resource must have psi >= 1");
            let p = (alpha * psi as f64 / stack.num_tasks() as f64).min(1.0);
            if p > 0.0 {
                self.words.resize(stack.num_tasks(), 0);
                rng.fill_u64(&mut self.words);
                stack.drain_bernoulli_into(p, &self.words, &self.weights, &mut self.cohort);
                self.marks[r as usize] = (0, 0.0);
            }
            self.positions.resize(self.cohort.len(), r);
        }
    }

    /// Move the whole cohort one step of `kind`'s walk in one batched
    /// kernel call: `positions` turn from sources into destinations.
    /// Lazy walks first group the cohort by source degree
    /// ([`sort_cohort_by_degree`](Self::sort_cohort_by_degree)).
    ///
    /// # Panics
    /// If `kind` is [`WalkKind::Simple`] and `g` has an isolated node.
    /// The check is O(1) (the minimum degree is cached) and runs every
    /// step, since a caller may swap graphs between rounds.
    pub(crate) fn walk_cohort(&mut self, g: &Graph, kind: WalkKind, rng: &mut dyn RngCore) {
        check_walk(kind, g);
        if kind == WalkKind::Lazy {
            self.sort_cohort_by_degree(g);
        }
        self.walker.step_batch(g, kind, &mut self.positions, rng);
        self.stats.walk_steps += self.positions.len() as u64;
    }

    /// Shuffle the arrival order: one permutation over the cohort and its
    /// parallel positions (one `gen_range(0..=i)` per descending index,
    /// the words a shuffle of either array alone draws).
    pub(crate) fn shuffle_cohort(&mut self, rng: &mut dyn RngCore) {
        shuffle_paired(&mut self.cohort, &mut self.positions, rng);
    }

    /// The arrivals: push `cohort[i]` onto `positions[i]`, in cohort
    /// order (acceptance is implicit in the stack heights). Returns the
    /// tasks moved.
    pub(crate) fn push_cohort(&mut self) -> u64 {
        for (&t, &dest) in self.cohort.iter().zip(&self.positions) {
            self.stacks[dest as usize].push(t, self.weights[t as usize]);
        }
        self.cohort.len() as u64
    }

    /// Algorithm 6.1's movement: every cohort task, in cohort order,
    /// lands on a uniformly random resource. The destinations are one
    /// bulk fill of words mapped with the Lemire multiply `gen_range`
    /// uses, so the draws are those of a `gen_range` per task. Returns
    /// the tasks moved.
    pub(crate) fn jump_uniform(&mut self, rng: &mut dyn RngCore) -> u64 {
        let n = self.stacks.len() as u64;
        // Resize only (no clear): the fill overwrites every live slot.
        self.words.resize(self.cohort.len(), 0);
        rng.fill_u64(&mut self.words);
        self.stats.uniform_jump_draws += self.cohort.len() as u64;
        for (&t, &word) in self.cohort.iter().zip(&self.words) {
            self.stacks[lemire_u64(word, n) as usize].push(t, self.weights[t as usize]);
        }
        self.cohort.len() as u64
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

/// Panic unless `kind` is defined on every node of `g`: the simple walk
/// has no step out of an isolated node.
fn check_walk(kind: WalkKind, g: &Graph) {
    assert!(
        kind != WalkKind::Simple || g.min_degree() > 0,
        "WalkKind::Simple is undefined on isolated nodes; this graph has one"
    );
}

/// One protocol's round: its departure and movement rules, run on the
/// engine's phases. Object-safe, so a [`Stepper`] drives any protocol
/// through one `Box<dyn RoundRule>`.
pub trait RoundRule: std::fmt::Debug + Send {
    /// Run one round's departures and moves on `eng` — the round is open
    /// and the cohort buffers are empty — and return the tasks migrated.
    /// [`Stepper::step`] closes the round with that count.
    fn round(&mut self, eng: &mut RoundEngine, g: &Graph, rng: &mut dyn RngCore) -> u64;
}

/// A protocol run: the shared [`RoundEngine`] plus one [`RoundRule`]. One
/// [`step`](Self::step) call is one round; the graph is passed into every
/// step, so callers may swap it between rounds (the user protocol never
/// reads it — Algorithm 6.1 jumps uniformly).
#[derive(Debug)]
pub struct Stepper {
    eng: RoundEngine,
    rule: Box<dyn RoundRule>,
}

impl Stepper {
    /// Drive `rule` over an existing engine (consumes no RNG).
    pub fn new(eng: RoundEngine, rule: impl RoundRule + 'static) -> Self {
        Stepper { eng, rule: Box::new(rule) }
    }

    /// Execute one round unless the run is already done; returns
    /// [`RoundEngine::is_done`] after the round.
    pub fn step(&mut self, g: &Graph, rng: &mut dyn RngCore) -> bool {
        if self.eng.is_done() {
            return true;
        }
        self.eng.begin_round();
        let migrated = self.rule.round(&mut self.eng, g, rng);
        self.eng.finish_round(migrated)
    }

    /// Step until balanced or the round cap.
    pub fn run(&mut self, g: &Graph, rng: &mut dyn RngCore) {
        while !self.step(g, rng) {}
    }

    /// The run's state: stacks, weights, threshold, counters.
    pub fn engine(&self) -> &RoundEngine {
        &self.eng
    }

    /// Finish: consume the run into its outcome.
    pub fn into_outcome(self) -> ProtocolOutcome {
        self.eng.into_outcome()
    }
}

/// Which tasks leave in a core protocol round.
#[derive(Debug, Clone, Copy)]
enum Leave {
    /// Algorithm 5.1: every cutting and above task.
    Active,
    /// Algorithm 6.1: independent coins.
    Coins {
        /// Migration damping `α`.
        alpha: f64,
        /// Heaviest task weight, the unit of `ψ_r`.
        w_max: f64,
    },
}

/// How a leaving task moves in a core protocol round.
#[derive(Debug, Clone, Copy)]
enum Movement {
    /// One step of a random walk on the graph.
    Walk(WalkKind),
    /// A uniform jump over all resources.
    Uniform,
}

/// The round rule of the three core protocols: resource-controlled is
/// `Active × Walk`, user-controlled `Coins × Uniform`, mixed `Active |
/// Coins × Walk`. With `shuffle`, arrivals stack in a random order: after
/// the walk (the walk draws first), before the uniform jump.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CoreRule {
    leave: Leave,
    movement: Movement,
    shuffle: bool,
}

impl RoundRule for CoreRule {
    fn round(&mut self, eng: &mut RoundEngine, g: &Graph, rng: &mut dyn RngCore) -> u64 {
        match self.leave {
            Leave::Active => eng.eject_active(),
            Leave::Coins { alpha, w_max } => eng.depart_bernoulli(alpha, w_max, rng),
        }
        match self.movement {
            Movement::Walk(kind) => {
                eng.walk_cohort(g, kind, rng);
                if self.shuffle {
                    eng.shuffle_cohort(rng);
                }
                eng.push_cohort()
            }
            Movement::Uniform => {
                if self.shuffle {
                    eng.shuffle_cohort(rng);
                }
                eng.jump_uniform(rng)
            }
        }
    }
}

/// Which protocol variant to run, with its configuration — the
/// serializable value config files and drivers hold, and the factory for
/// its [`Stepper`].
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

    /// Construct a fresh stepper over `(g, tasks, placement)`: the
    /// threshold from the config's policy, the stacks from the placement
    /// (the only RNG this consumes), the initial snapshots.
    ///
    /// # Panics
    /// If the graph is empty, the placement is invalid, `alpha <= 0`
    /// where coins are flipped, or the walk is [`WalkKind::Simple`] on a
    /// graph with an isolated node (rejected here, at construction, not
    /// mid-trial).
    pub fn new_stepper(
        &self,
        g: &Graph,
        tasks: &TaskSet,
        placement: Placement,
        rng: &mut dyn RngCore,
    ) -> Stepper {
        let (policy, max_rounds, track_potential, record_trace) = match self {
            ProtocolKind::Resource(c) => {
                (c.threshold, c.max_rounds, c.track_potential, c.record_trace)
            }
            ProtocolKind::User(c) => (c.threshold, c.max_rounds, c.track_potential, c.record_trace),
            ProtocolKind::Mixed(c) => {
                (c.threshold, c.max_rounds, c.track_potential, c.record_trace)
            }
        };
        let n = g.num_nodes();
        let threshold = policy.value(tasks.total_weight(), n, tasks.w_max());
        let rule = self.rule(tasks.w_max());
        if let Movement::Walk(kind) = rule.movement {
            check_walk(kind, g);
        }
        let stacks = placement.stacks(tasks, n, rng);
        let weights = tasks.weights().to_vec();
        let eng =
            RoundEngine::new(stacks, weights, threshold, max_rounds, track_potential, record_trace);
        Stepper::new(eng, rule)
    }

    /// The variant's round rule; `w_max` is the unit of its departure
    /// coins.
    ///
    /// # Panics
    /// If `alpha <= 0` where coins are flipped.
    pub(crate) fn rule(&self, w_max: f64) -> CoreRule {
        let coins = |alpha: f64| {
            assert!(alpha > 0.0, "alpha must be positive, got {alpha}");
            Leave::Coins { alpha, w_max }
        };
        match self {
            ProtocolKind::Resource(c) => CoreRule {
                leave: Leave::Active,
                movement: Movement::Walk(c.walk),
                shuffle: c.shuffle_arrivals,
            },
            ProtocolKind::User(c) => CoreRule {
                leave: coins(c.alpha),
                movement: Movement::Uniform,
                shuffle: c.shuffle_arrivals,
            },
            ProtocolKind::Mixed(c) => CoreRule {
                leave: match c.departure {
                    Departure::AllActive => Leave::Active,
                    Departure::Bernoulli => coins(c.alpha),
                },
                movement: Movement::Walk(c.walk),
                shuffle: false,
            },
        }
    }

    /// Run one trial to the end: its outcome and the engine's counters.
    /// The `run_*` entry points are this on their own config.
    pub(crate) fn run_with_stats(
        &self,
        g: &Graph,
        tasks: &TaskSet,
        placement: Placement,
        rng: &mut dyn RngCore,
    ) -> (ProtocolOutcome, EngineStats) {
        let mut stepper = self.new_stepper(g, tasks, placement, rng);
        stepper.run(g, rng);
        let stats = stepper.engine().obs_stats();
        (stepper.into_outcome(), stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource_protocol::{run_resource_controlled, run_resource_controlled_with_stats};
    use crate::user_protocol::run_user_controlled_with_stats;
    use crate::weights::WeightSpec;
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
        assert_eq!(s.engine().rounds(), direct.rounds);
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
        let g = torus2d(5, 5);
        let tasks = TaskSet::new((0..200).map(|i| 1.0 + (i % 3) as f64).collect::<Vec<_>>());
        let run_once = |walk: WalkKind| {
            let cfg = ResourceControlledConfig { walk, ..Default::default() };
            let place = Placement::AllOnOne(0);
            let (out, stats) =
                run_resource_controlled_with_stats(&g, &tasks, place, &cfg, &mut rng(11));
            (stats, out.migrations)
        };
        let (stats, migrations) = run_once(WalkKind::MaxDegree);
        // The resource protocol moves exactly the walked cohort each
        // round, so steps == migrations.
        assert_eq!(stats.walk_steps, migrations);
        assert_eq!(stats.uniform_jump_draws, 0);
        assert!(stats.max_round_cohort > 0);
        assert!(stats.max_round_cohort <= migrations);
        // Counters are a pure function of the seed: identical on re-run.
        assert_eq!(run_once(WalkKind::MaxDegree).0, stats);
        let (lazy_stats, lazy_migrations) = run_once(WalkKind::Lazy);
        assert_eq!(lazy_stats.walk_steps, lazy_migrations);
        assert!(lazy_stats.walk_steps > 0);

        // The user protocol draws uniform words instead of walk steps.
        let ucfg = UserControlledConfig::default();
        let (uout, ustats) =
            run_user_controlled_with_stats(25, &tasks, Placement::AllOnOne(0), &ucfg, &mut rng(11));
        assert_eq!(ustats.uniform_jump_draws, uout.migrations);
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
        // The variants whose departure probabilities divide by w_max keep
        // the whole weight table, so the heaviest task stays visible, and
        // their threshold is built from it.
        let g = complete(8);
        let mut weights: Vec<f64> = vec![1.0; 40];
        weights[17] = 9.5;
        let tasks = TaskSet::new(weights);
        let heaviest = |w: &[f64]| w.iter().copied().fold(0.0, f64::max);
        let mcfg = MixedConfig::default();
        let kind = ProtocolKind::Mixed(mcfg.clone());
        let mixed = kind.new_stepper(&g, &tasks, Placement::AllOnOne(0), &mut rng(2));
        assert_eq!(heaviest(mixed.engine().weights()), 9.5);
        assert_eq!(mixed.engine().threshold(), mcfg.threshold.value(tasks.total_weight(), 8, 9.5));
        let ucfg = UserControlledConfig::default();
        let kind = ProtocolKind::User(ucfg.clone());
        let user = kind.new_stepper(&g, &tasks, Placement::AllOnOne(0), &mut rng(2));
        assert_eq!(heaviest(user.engine().weights()), 9.5);
        assert_eq!(user.engine().threshold(), ucfg.threshold.value(tasks.total_weight(), 8, 9.5));
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
        // Eject the top task and land it on the other resource by hand.
        eng.eject_active();
        assert_eq!(eng.cohort, [2]);
        for t in std::mem::take(&mut eng.cohort) {
            eng.push(1, t);
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
    fn eject_weight_reads_count_the_resumed_scans() {
        // Unit weights, T = 3. Resource 0 holds tasks 0..5, resource 1
        // tasks 5 and 6.
        let mut stacks = vec![ResourceStack::new(); 2];
        for id in 0..7 {
            stacks[usize::from(id >= 5)].push(id, 1.0);
        }
        let mut eng = RoundEngine::new(stacks, vec![1.0; 7], 3.0, 100, false, false);
        let reads = |eng: &RoundEngine| eng.obs_stats().eject_weight_reads;

        // Round 1: resource 0 scans from the bottom: three accepted
        // tasks and the cut at position 3, four reads; resource 1 is not
        // overloaded and reads nothing.
        eng.begin_round();
        eng.eject_active();
        assert_eq!((eng.cohort.as_slice(), reads(&eng)), ([3, 4].as_slice(), 4));
        eng.push(1, 3);
        eng.push(0, 4);
        eng.finish_round(2);

        // Round 2: resource 0 resumes at its mark (3, 3.0) and reads only
        // the task pushed since, which it ejects; a scan from the bottom
        // would have read four entries again.
        eng.begin_round();
        eng.eject_active();
        assert_eq!((eng.cohort.as_slice(), reads(&eng)), ([4].as_slice(), 5));
        assert_eq!(eng.stacks()[0].tasks(), [0, 1, 2]);
        assert_eq!(eng.stacks()[1].tasks(), [5, 6, 3]);

        // Round 3: landing task 4 overloads resource 1, which has no mark
        // yet, so it scans from the bottom: tasks 5, 6, 3 accepted and
        // task 4 cut, four reads.
        eng.push(1, 4);
        eng.finish_round(1);
        eng.begin_round();
        eng.eject_active();
        assert_eq!((eng.cohort.as_slice(), reads(&eng)), ([4].as_slice(), 9));
    }

    /// Every mark is an accepted prefix of its stack: `len` within the
    /// stack, `height` the exact bottom-up fold over those tasks, and at
    /// most the threshold.
    fn assert_marks_are_accepted_prefixes(eng: &RoundEngine) {
        for (r, (s, &(len, height))) in eng.stacks.iter().zip(&eng.marks).enumerate() {
            let prefix = s.tasks().get(..len).unwrap_or_else(|| {
                panic!("resource {r}: mark {len} past a {}-task stack", s.num_tasks())
            });
            let fold = prefix.iter().fold(0.0, |h, &t| h + eng.weights[t as usize]);
            assert_eq!(fold.to_bits(), height.to_bits(), "resource {r}: mark height");
            assert!(height <= eng.threshold, "resource {r}: mark above the threshold");
        }
    }

    #[test]
    fn marks_stay_accepted_prefixes_when_coin_departures_drain_stacks() {
        // No protocol mixes the two departure rules, so one engine runs
        // the mixed protocol's all-active and Bernoulli rules on
        // alternate rounds: ejections set marks, and coin departures
        // drain stacks under them.
        let g = torus2d(4, 4);
        for seed in 0..16 {
            let mut r = rng(seed);
            let tasks =
                WeightSpec::ParetoTruncated { m: 300, alpha: 1.1, cap: 30.0 }.generate(&mut r);
            let mixed =
                |departure| ProtocolKind::Mixed(MixedConfig { departure, ..Default::default() });
            let (active, coins) = (mixed(Departure::AllActive), mixed(Departure::Bernoulli));
            let mut rules = [active.rule(tasks.w_max()), coins.rule(tasks.w_max())];
            let mut stepper = active.new_stepper(&g, &tasks, Placement::AllOnOne(0), &mut r);
            let eng = &mut stepper.eng;
            for round in 0..60 {
                if eng.is_done() {
                    break;
                }
                eng.begin_round();
                let migrated = rules[round % 2].round(eng, &g, &mut r);
                eng.finish_round(migrated);
                assert_marks_are_accepted_prefixes(eng);
            }
        }
    }

    #[test]
    #[should_panic(expected = "need at least one resource")]
    fn engine_rejects_empty_stacks() {
        RoundEngine::new(Vec::new(), Vec::new(), 1.0, 10, false, false);
    }
}
