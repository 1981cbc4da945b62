//! The sharded rebalancing engine: Algorithm 5.1 rounds over the online
//! engine's stacks, rebalanced in place and stepped in parallel on the
//! rayon pool.
//!
//! ## Shard model
//!
//! The node id space is split into contiguous ranges by a
//! [`Partition`]. [`ShardedEngine::run`] borrows the flat stack slice and
//! splits it once per pass with `split_at_mut`, so each shard holds the
//! `&mut` stacks of its range; nothing is moved or copied. One protocol
//! round runs in three phases:
//!
//! 1. **eject + walk** (parallel, one task per shard): every overloaded
//!    resource in the shard ejects its cutting/above tasks in ascending
//!    node order, and each ejected task takes one walk step, producing
//!    the shard's *outbox* of `(task, destination)` handoffs;
//! 2. **route** (sequential barrier): outboxes are concatenated in shard
//!    order — which by contiguity *is* the global ascending-node-order
//!    cohort of the sequential stepper — and routed into per-destination
//!    shard inboxes, preserving that order;
//! 3. **apply** (parallel): each shard pushes its inbox in routed order
//!    and reports whether its range is balanced; the round is globally
//!    balanced iff every shard is.
//!
//! ## Determinism: counter-based walk words
//!
//! Parallel shards cannot share a sequential RNG without making the
//! stream depend on scheduling. Instead, the walk word of the ejected
//! task with per-source slot `s` on node `v` in round `r` is the
//! *counter-based* draw `mix(mix(stream_seed, r), v · 2³² + s)` where
//! `mix` is the engine's splitmix64 [`epoch_seed`] finalizer — a pure
//! function of `(stream_seed, r, v, s)`, independent of shard count,
//! thread count, and scheduling order. The word is mapped to a
//! destination by [`walk_dest`], which reproduces the batched kernel's
//! one-word-per-walker law (`tlb_walks::BatchWalker`) bit for bit: the
//! same Lemire widening multiply for the slot, the same top-bit fused
//! stay-coin for the lazy walk. Distribution equivalence against the
//! exact transition matrix is chi-square-pinned in this module's tests —
//! the justification, per the repo's RNG stream policy, for the one-time
//! golden re-pin that moving the online resource-policy path onto this
//! engine required.
//!
//! Because every phase is a pure function of the phase inputs and the
//! rayon shim's `collect` preserves input order, a run is bit-identical
//! across `RAYON_NUM_THREADS` *and* across shard counts; the engine at
//! `shards = 1` is the reference sequential semantics.

use std::time::Instant;

use rayon::prelude::*;
use tlb_core::potential::is_balanced;
use tlb_core::stack::ResourceStack;
use tlb_core::task::TaskId;
use tlb_graphs::{Graph, NodeId, Partition};
use tlb_walks::WalkKind;

use crate::engine::epoch_seed;

/// Domain-separation tag deriving the rebalance stream from an epoch
/// seed (see [`rebalance_seed`]).
const REBALANCE_STREAM_TAG: u64 = 0x5AAD_ED00_31C7_B21F;

/// Seed of the counter-based rebalance stream for `epoch`: a splitmix
/// chain off the engine's base seed, domain-separated from the epoch's
/// sequential churn/arrival RNG so neither stream can alias the other.
#[inline]
pub fn rebalance_seed(base_seed: u64, epoch: u64) -> u64 {
    epoch_seed(epoch_seed(base_seed, epoch), REBALANCE_STREAM_TAG)
}

/// The counter-based walk word for the ejected task with per-source slot
/// index `slot` on node `v` under `round_seed` (see the module docs).
/// Slot indices count a node's ejections within one round bottom-to-top.
#[inline]
pub fn walk_word(round_seed: u64, v: NodeId, slot: u64) -> u64 {
    debug_assert!(slot < u32::MAX as u64, "per-node ejection slot overflowed u32");
    epoch_seed(round_seed, ((v as u64) << 32) | slot)
}

/// Map one walk word to a destination — the batched kernel's per-word
/// law (`tlb_walks::BatchWalker::step_batch`), bit for bit:
///
/// * **max-degree**: `slot = lemire(word, Δ)`; move to `neighbors(v)[slot]`
///   if in range, else the `(Δ − deg v)/Δ` self-loop mass stays;
/// * **lazy**: top bit is the stay-coin; the remaining bits, re-aligned,
///   drive the max-degree slot.
///
/// An edgeless graph (`Δ = 0`) always stays.
///
/// # Panics
/// For [`WalkKind::Simple`] — undefined on the isolated nodes churn
/// creates; the engine rejects it at config validation.
#[inline]
pub fn walk_dest(g: &Graph, kind: WalkKind, v: NodeId, word: u64) -> NodeId {
    let d = g.max_degree() as u64;
    if d == 0 {
        return v;
    }
    let slot_word = match kind {
        WalkKind::MaxDegree => word,
        WalkKind::Lazy if word >> 63 != 0 => return v,
        WalkKind::Lazy => word << 1,
        WalkKind::Simple => panic!("the simple walk cannot drive the sharded engine"),
    };
    let slot = rand::lemire_u64(slot_word, d) as usize;
    g.neighbors(v).get(slot).copied().unwrap_or(v)
}

/// Per-pass observability for the sharded engine, collected only when
/// [`ShardedEngine::enable_obs`] was called (a pass with obs off never
/// reads a clock).
///
/// The split follows the obs contract (`tlb-obs` crate docs):
///
/// * `max_round_cohort` is **deterministic and shard-count-invariant** —
///   a pure function of the pass inputs, tallied at the round's
///   sequential route barrier (the ejected total is
///   [`ShardedEngine::migrations`]);
/// * `cross_shard_handoffs` is deterministic **for a fixed shard
///   layout** (one shard has none by construction) — an execution-layout
///   diagnostic;
/// * the `*_ns` fields are wall clock: time inside each of the three
///   round phases, the parallel ones summed over shards.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardPassStats {
    /// Largest single-round global cohort.
    pub max_round_cohort: u64,
    /// Handoffs whose destination lay on a different shard than their
    /// source.
    pub cross_shard_handoffs: u64,
    /// Wall time inside the parallel eject+walk phase, summed over
    /// shards.
    pub eject_walk_ns: u64,
    /// Wall time of the sequential route barrier.
    pub route_ns: u64,
    /// Wall time inside the parallel apply+balance phase, summed over
    /// shards.
    pub apply_ns: u64,
}

/// A sharded rebalancing pass: the resource-controlled protocol's round
/// loop over stacks it borrows. Configure with [`ShardedEngine::new`] and
/// drive with [`ShardedEngine::run`], which splits the caller's stacks by
/// the partition's node ranges and rebalances them in place. The engine
/// owns no stacks and holds no RNG: it draws its counter-based stream
/// from the seed passed to `run`.
#[derive(Debug, Clone)]
pub struct ShardedEngine {
    partition: Partition,
    threshold: f64,
    walk: WalkKind,
    max_rounds: u64,
    rounds: u64,
    migrations: u64,
    balanced: bool,
    obs: Option<Box<ShardPassStats>>,
}

impl ShardedEngine {
    /// Set up a pass over `partition`'s shards enforcing `threshold` with
    /// up to `max_rounds` rounds of `walk` steps.
    pub fn new(partition: Partition, threshold: f64, walk: WalkKind, max_rounds: u64) -> Self {
        ShardedEngine {
            partition,
            threshold,
            walk,
            max_rounds,
            rounds: 0,
            migrations: 0,
            balanced: false,
            obs: None,
        }
    }

    /// Turn on per-pass observability (idempotent). Off by default: a
    /// pass without it takes no timestamps.
    pub fn enable_obs(&mut self) {
        if self.obs.is_none() {
            self.obs = Some(Box::default());
        }
    }

    /// The pass statistics, if [`enable_obs`](Self::enable_obs) was
    /// called.
    pub fn obs(&self) -> Option<&ShardPassStats> {
        self.obs.as_deref()
    }

    /// Rebalance `stacks` (index = node id) in place: scan them once for
    /// balance, then run rounds until balanced or the round budget is
    /// spent. `weights` is the global task-weight table; `stream_seed`
    /// roots the counter-based walk stream (see [`rebalance_seed`]).
    ///
    /// # Panics
    /// If the partition does not cover exactly `stacks.len()` nodes.
    pub fn run(
        &mut self,
        stacks: &mut [ResourceStack],
        g: &Graph,
        weights: &[f64],
        stream_seed: u64,
    ) {
        let n = stacks.len();
        assert_eq!(self.partition.num_nodes(), n, "the partition must cover the {n} stacks");
        self.balanced = is_balanced(stacks, self.threshold);
        // One `&mut` slice per shard, split once for the whole pass.
        let mut shards: Vec<(NodeId, &mut [ResourceStack])> =
            Vec::with_capacity(self.partition.num_shards());
        let mut rest = stacks;
        for r in self.partition.ranges() {
            let (shard, tail) = rest.split_at_mut(r.len());
            shards.push((r.start, shard));
            rest = tail;
        }
        while !self.balanced && self.rounds < self.max_rounds {
            let round_seed = epoch_seed(stream_seed, self.rounds);
            self.round(&mut shards, g, weights, round_seed);
        }
    }

    /// One three-phase round (see the module docs).
    fn round(
        &mut self,
        shards: &mut [(NodeId, &mut [ResourceStack])],
        g: &Graph,
        weights: &[f64],
        round_seed: u64,
    ) {
        let threshold = self.threshold;
        let walk = self.walk;
        let timed = self.obs.is_some();
        // Phase 1: eject + walk, one pool task per shard. Each outbox of
        // `(task, destination)` handoffs is in ascending (node, slot)
        // order within its shard; the ns are 0 when obs is off.
        let ejected: Vec<(Vec<(TaskId, NodeId)>, u64)> = shards
            .iter_mut()
            .map(|(start, shard)| (*start, &mut **shard))
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|(start, shard)| {
                let t0 = timed.then(Instant::now);
                let mut outbox = Vec::new();
                let mut cohort: Vec<TaskId> = Vec::new();
                for (i, stack) in shard.iter_mut().enumerate() {
                    if stack.is_overloaded(threshold) {
                        let v = start + i as NodeId;
                        cohort.clear();
                        stack.remove_active_into(threshold, weights, &mut cohort);
                        outbox.extend(cohort.iter().enumerate().map(|(slot, &t)| {
                            (t, walk_dest(g, walk, v, walk_word(round_seed, v, slot as u64)))
                        }));
                    }
                }
                (outbox, t0.map_or(0, |t| t.elapsed().as_nanos() as u64))
            })
            .collect();
        // Phase 2: route handoffs. Iterating shards in order keeps each
        // inbox in canonical global cohort order, so the apply phase
        // stacks arrivals exactly as the sequential stepper would.
        let t_route = timed.then(Instant::now);
        let mut inboxes: Vec<Vec<(TaskId, NodeId)>> = vec![Vec::new(); shards.len()];
        let (mut cohort, mut handoffs) = (0u64, 0u64);
        for (shard, (outbox, _)) in ejected.iter().enumerate() {
            cohort += outbox.len() as u64;
            for &(t, dest) in outbox {
                let to = self.partition.shard_of(dest);
                handoffs += u64::from(to != shard);
                inboxes[to].push((t, dest));
            }
        }
        self.migrations += cohort;
        if let Some(obs) = self.obs.as_deref_mut() {
            obs.max_round_cohort = obs.max_round_cohort.max(cohort);
            obs.cross_shard_handoffs += handoffs;
            obs.eject_walk_ns += ejected.iter().map(|&(_, ns)| ns).sum::<u64>();
            obs.route_ns += t_route.map_or(0, |t| t.elapsed().as_nanos() as u64);
        }
        // Phase 3: apply inboxes and check balance per shard.
        let applied: Vec<(bool, u64)> = shards
            .iter_mut()
            .zip(inboxes)
            .map(|((start, shard), inbox)| (*start, &mut **shard, inbox))
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|(start, shard, inbox)| {
                let t0 = timed.then(Instant::now);
                for (t, dest) in inbox {
                    shard[(dest - start) as usize].push(t, weights[t as usize]);
                }
                let balanced = is_balanced(shard, threshold);
                (balanced, t0.map_or(0, |t| t.elapsed().as_nanos() as u64))
            })
            .collect();
        if let Some(obs) = self.obs.as_deref_mut() {
            obs.apply_ns += applied.iter().map(|&(_, ns)| ns).sum::<u64>();
        }
        self.balanced = applied.iter().all(|&(ok, _)| ok);
        self.rounds += 1;
    }

    /// Rounds executed so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Total walk steps taken (every ejected task counts, stays included
    /// — the sequential steppers' convention).
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// Whether no resource exceeded the threshold after the last
    /// [`run`](Self::run) (`false` before the first).
    pub fn is_balanced(&self) -> bool {
        self.balanced
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngCore, SeedableRng};
    use tlb_graphs::generators::{complete, star, torus2d};
    use tlb_walks::{BatchWalker, TransitionMatrix};

    /// An `RngCore` replaying a fixed word list — drives the real batched
    /// kernel with chosen words to pin `walk_dest` to its per-word law.
    struct FixedWords(Vec<u64>, usize);
    impl RngCore for FixedWords {
        fn next_u64(&mut self) -> u64 {
            let w = self.0[self.1];
            self.1 += 1;
            w
        }
    }

    #[test]
    fn walk_dest_matches_the_batched_kernel_per_word() {
        // Irregular (star: hub 24, leaves 1) and regular (torus) graphs
        // cover both kernel paths; a word sweep covers both coin halves.
        //
        // The max-degree kernel applies one caller word per walker, so
        // `word` feeds `walk_dest` directly. The lazy kernel draws one
        // *parent* word and fans it out through the lane-striped
        // [`WideRng`] block; the word its mapping actually applies to
        // walker 0 is the first word of that expansion, so the law is
        // pinned against exactly that word.
        for g in [star(25), torus2d(5, 5)] {
            for kind in [WalkKind::MaxDegree, WalkKind::Lazy] {
                for (i, v) in (0..g.num_nodes() as NodeId).enumerate() {
                    let word = epoch_seed(0xD15EA5E, i as u64);
                    let mut pos = vec![v];
                    let mut rng = FixedWords(vec![word], 0);
                    BatchWalker::new().step_batch(&g, kind, &mut pos, &mut rng);
                    let applied = match kind {
                        WalkKind::Lazy => {
                            let mut lane0 = [0u64; 1];
                            rand::rngs::WideRng::seed_from_u64(word).fill_u64(&mut lane0);
                            lane0[0]
                        }
                        _ => word,
                    };
                    assert_eq!(
                        walk_dest(&g, kind, v, applied),
                        pos[0],
                        "{kind:?} diverged from the kernel at {v} word {applied:#x}"
                    );
                }
            }
        }
    }

    /// Chi-square pin (the re-pin justification per the stream policy):
    /// counter-based words drive `walk_dest` to the exact one-step
    /// transition law, just as the sequential stream does.
    #[test]
    fn counter_words_reproduce_the_transition_row() {
        let graphs: Vec<(&str, Graph, NodeId)> = vec![
            ("star_hub", star(8), 0),
            ("torus", torus2d(4, 4), 5),
            ("complete", complete(6), 2),
        ];
        let total = 120_000u64;
        for (name, g, start) in &graphs {
            for kind in [WalkKind::MaxDegree, WalkKind::Lazy] {
                let probs = TransitionMatrix::build(g, kind);
                let probs = probs.matrix().row(*start as usize);
                let mut counts = vec![0u64; g.num_nodes()];
                for i in 0..total {
                    // Vary both the round seed and the slot, as the
                    // engine does across rounds and stack positions.
                    let word = walk_word(epoch_seed(7, i / 97), *start, i % 97);
                    counts[walk_dest(g, kind, *start, word) as usize] += 1;
                }
                let (mut stat, mut df) = (0.0f64, 0usize);
                for (&c, &p) in counts.iter().zip(probs) {
                    if p <= 0.0 {
                        assert_eq!(c, 0, "mass on a zero-probability destination");
                        continue;
                    }
                    let e = p * total as f64;
                    stat += (c as f64 - e) * (c as f64 - e) / e;
                    df += 1;
                }
                let df = df.saturating_sub(1);
                // χ²(df, 0.999) upper bound, as in tlb_walks::batch.
                let crit = df as f64 + 4.0 * (2.0 * df as f64).sqrt() + 10.0;
                assert!(
                    if df == 0 { stat == 0.0 } else { stat < crit },
                    "{name}/{kind:?}: chi2 {stat:.2} >= {crit:.2} (df {df})"
                );
            }
        }
    }

    fn loaded_stacks(n: usize, tasks_on: &[(NodeId, usize)]) -> (Vec<ResourceStack>, Vec<f64>) {
        let mut stacks = vec![ResourceStack::new(); n];
        let mut weights = Vec::new();
        for &(v, k) in tasks_on {
            for i in 0..k {
                let id = weights.len() as TaskId;
                weights.push(1.0 + (i % 3) as f64);
                stacks[v as usize].push(id, weights[id as usize]);
            }
        }
        (stacks, weights)
    }

    #[test]
    fn output_is_invariant_to_shard_count() {
        let g = torus2d(6, 6);
        let (stacks, weights) = loaded_stacks(36, &[(0, 40), (17, 25), (35, 10)]);
        let run_at = |k: usize| {
            let mut stacks = stacks.clone();
            let p = Partition::contiguous(36, k);
            let mut eng = ShardedEngine::new(p, 5.0, WalkKind::MaxDegree, 64);
            eng.run(&mut stacks, &g, &weights, 0xFEED);
            (eng.rounds(), eng.migrations(), eng.is_balanced(), stacks)
        };
        let reference = run_at(1);
        for k in [2usize, 3, 5, 8, 36] {
            assert_eq!(run_at(k), reference, "shard count {k} diverged");
        }
        assert!(reference.2, "reference run should balance on the torus");
    }

    #[test]
    fn obs_counters_are_shard_count_invariant_and_off_by_default() {
        let g = torus2d(6, 6);
        let (stacks, weights) = loaded_stacks(36, &[(0, 40), (17, 25), (35, 10)]);
        let run_at = |k: usize, obs: bool| {
            let mut stacks = stacks.clone();
            let p = Partition::contiguous(36, k);
            let mut eng = ShardedEngine::new(p, 5.0, WalkKind::MaxDegree, 64);
            if obs {
                eng.enable_obs();
            }
            eng.run(&mut stacks, &g, &weights, 0xFEED);
            let stats = eng.obs().cloned();
            (eng.rounds(), eng.migrations(), stacks, stats)
        };
        // Obs off: no stats, and the pass output matches the obs-on runs.
        let (rounds, migrations, parts, none) = run_at(1, false);
        assert_eq!(none, None, "obs must be opt-in");
        let reference = run_at(1, true);
        assert_eq!((reference.0, reference.1, &reference.2), (rounds, migrations, &parts));
        let ref_stats = reference.3.expect("obs was enabled");
        assert!(ref_stats.max_round_cohort > 0);
        assert!(ref_stats.max_round_cohort <= migrations);
        assert_eq!(ref_stats.cross_shard_handoffs, 0, "one shard has no handoffs");
        for k in [2usize, 3, 8] {
            let run = run_at(k, true);
            assert_eq!((run.0, run.1, &run.2), (rounds, migrations, &parts));
            let stats = run.3.expect("obs was enabled");
            assert_eq!(stats.max_round_cohort, ref_stats.max_round_cohort, "shard count {k}");
            assert!(stats.cross_shard_handoffs <= migrations);
        }
    }

    #[test]
    fn balanced_input_runs_no_rounds_and_leaves_stacks_unchanged() {
        let g = complete(10);
        let (stacks, weights) = loaded_stacks(10, &[(2, 5), (7, 3)]);
        for k in [1usize, 2, 4, 10] {
            let mut after = stacks.clone();
            let p = Partition::contiguous(10, k);
            let mut eng = ShardedEngine::new(p, f64::INFINITY, WalkKind::Lazy, 8);
            eng.run(&mut after, &g, &weights, 3);
            assert!(eng.is_balanced());
            assert_eq!((eng.rounds(), eng.migrations()), (0, 0));
            assert_eq!(after, stacks);
        }
    }

    #[test]
    fn round_budget_is_respected() {
        let g = complete(4);
        // All load on one node, threshold so tight it cannot balance.
        let (mut stacks, weights) = loaded_stacks(4, &[(0, 50)]);
        let p = Partition::contiguous(4, 2);
        let mut eng = ShardedEngine::new(p, 0.5, WalkKind::MaxDegree, 6);
        eng.run(&mut stacks, &g, &weights, 9);
        assert_eq!(eng.rounds(), 6);
        assert!(!eng.is_balanced());
        assert!(eng.migrations() > 0);
    }
}
