//! The sharded rebalancing engine: Algorithm 5.1 rounds over the online
//! engine's stacks, rebalanced in place and stepped in parallel on the
//! rayon pool.
//!
//! ## Shard model
//!
//! The node id space is split into contiguous ranges by a
//! [`Partition`]. [`ShardedEngine::run`] borrows the flat stack slice and
//! splits it once per pass with `split_at_mut`, so each shard holds the
//! `&mut` stacks of its range; nothing is moved or copied. The pass's one
//! O(n) scan gives each shard its *frontier*: the sorted local indices of
//! its overloaded stacks. One protocol round runs in two parallel phases,
//! one pool task per shard each:
//!
//! 1. **eject + walk**: each frontier stack, in ascending node order,
//!    ejects its cutting/above tasks and keeps its accepted prefix
//!    (load ≤ T); each ejected task takes one walk step and goes straight
//!    into the source shard's bucket for its destination's shard, in
//!    ascending (node, slot) order;
//! 2. **apply**: each shard pushes its bucket from every source shard,
//!    in source-shard order. By contiguity that *is* the global
//!    ascending-node-order cohort of the sequential stepper, restricted to
//!    the shard's own nodes. Only a stack that received a task can now be
//!    overloaded, so the next frontier is the received tasks' distinct
//!    destinations (a per-shard mark dedups them), filtered to the
//!    overloaded ones and sorted; the round is balanced iff every
//!    frontier is empty. O(cohort), not O(n).
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
//! stay-coin for the lazy walk. This module's tests chi-square-pin the
//! law against the exact transition matrix (the stream policy's re-pin
//! justification).
//!
//! Because both phases are pure functions of the phase inputs and the
//! rayon shim's `collect` preserves input order, a run is bit-identical
//! across `RAYON_NUM_THREADS` *and* across shard counts; the engine at
//! `shards = 1` is the reference sequential semantics.

use std::time::Instant;

use rayon::prelude::*;
use tlb_core::stack::ResourceStack;
use tlb_core::task::TaskId;
use tlb_graphs::{Graph, NodeId, Partition};
use tlb_walks::WalkKind;

use crate::engine::epoch_seed;

/// Domain-separation tag of the rebalance stream (see [`rebalance_seed`]).
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

/// What one rebalancing pass did, returned by [`ShardedEngine::run`].
///
/// The split follows the obs contract (`tlb-obs` crate docs):
///
/// * `rounds`, `migrations`, `balanced`, `max_round_cohort` and
///   `stacks_scanned` are **deterministic and shard-count-invariant** —
///   pure functions of the pass inputs;
/// * `cross_shard_handoffs` is deterministic **for a fixed shard layout**
///   (one shard has none) — an execution-layout diagnostic;
/// * `timings` is wall clock, present only for a timed pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PassOutcome {
    /// Rounds executed.
    pub rounds: u64,
    /// Walk steps taken: every ejected task, stays included.
    pub migrations: u64,
    /// Whether no resource exceeds the threshold after the pass.
    pub balanced: bool,
    /// Largest single-round global cohort.
    pub max_round_cohort: u64,
    /// Stacks whose balance was checked: n for the initial scan, then
    /// each round's distinct destinations.
    pub stacks_scanned: u64,
    /// Handoffs whose destination lay on another shard than their source.
    pub cross_shard_handoffs: u64,
    /// Phase wall times; `None` unless the pass was timed.
    pub timings: Option<PassTimings>,
}

/// Wall time inside each of a timed pass's two round phases, summed over
/// shards and rounds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PassTimings {
    /// The parallel eject+walk phase.
    pub eject_walk_ns: u64,
    /// The parallel apply+frontier phase.
    pub apply_ns: u64,
}

/// One shard of a pass: its first node, its stacks (split once per pass),
/// its frontier (from the pass's one scan) and apply's dedup marks.
type Shard<'a> = (NodeId, &'a mut [ResourceStack], Vec<NodeId>, Vec<bool>);

/// One source shard's handoffs of a round, bucketed by destination shard.
type Outbox = Vec<Vec<(TaskId, NodeId)>>;

/// A sharded rebalancing pass: the resource-controlled protocol's round
/// loop over stacks it borrows. Configure with [`ShardedEngine::new`] and
/// drive with [`ShardedEngine::run`], which splits the caller's stacks by
/// the partition's node ranges, rebalances them in place and returns the
/// [`PassOutcome`]. The engine owns no stacks, holds no RNG and keeps no
/// counters: it draws its counter-based stream from the seed passed to
/// `run`.
#[derive(Debug, Clone)]
pub struct ShardedEngine {
    partition: Partition,
    threshold: f64,
    walk: WalkKind,
    max_rounds: u64,
}

/// Nanoseconds since `t0`, or 0 for an untimed phase.
fn elapsed_ns(t0: Option<Instant>) -> u64 {
    t0.map_or(0, |t| t.elapsed().as_nanos() as u64)
}

impl ShardedEngine {
    /// Set up a pass over `partition`'s shards enforcing `threshold` with
    /// up to `max_rounds` rounds of `walk` steps.
    pub fn new(partition: Partition, threshold: f64, walk: WalkKind, max_rounds: u64) -> Self {
        ShardedEngine { partition, threshold, walk, max_rounds }
    }

    /// Rebalance `stacks` (index = node id) in place: scan them once for
    /// the overloaded frontier, then run rounds until balanced or the
    /// round budget is spent. `weights` is the global task-weight table;
    /// `stream_seed` roots the counter-based walk stream (see
    /// [`rebalance_seed`]). With `timed`, the outcome carries the phase
    /// wall times; without it the pass reads no clock.
    ///
    /// # Panics
    /// If the partition does not cover exactly `stacks.len()` nodes.
    pub fn run(
        &self,
        stacks: &mut [ResourceStack],
        g: &Graph,
        weights: &[f64],
        stream_seed: u64,
        timed: bool,
    ) -> PassOutcome {
        let n = stacks.len();
        assert_eq!(self.partition.num_nodes(), n, "the partition must cover the {n} stacks");
        let mut shards: Vec<Shard> = Vec::with_capacity(self.partition.num_shards());
        let mut rest = stacks;
        for r in self.partition.ranges() {
            let (shard, tail) = rest.split_at_mut(r.len());
            let frontier = (0..).zip(&*shard).filter(|(_, s)| s.is_overloaded(self.threshold));
            let frontier = frontier.map(|(i, _)| i).collect();
            shards.push((r.start, shard, frontier, vec![false; r.len()]));
            rest = tail;
        }
        let mut pass = PassOutcome {
            balanced: shards.iter().all(|s| s.2.is_empty()),
            stacks_scanned: n as u64,
            timings: timed.then(PassTimings::default),
            ..PassOutcome::default()
        };
        while !pass.balanced && pass.rounds < self.max_rounds {
            let round_seed = epoch_seed(stream_seed, pass.rounds);
            self.round(&mut shards, g, weights, round_seed, &mut pass);
        }
        pass
    }

    /// One two-phase round (see the module docs), folded into `pass`.
    fn round(
        &self,
        shards: &mut [Shard],
        g: &Graph,
        weights: &[f64],
        round_seed: u64,
        pass: &mut PassOutcome,
    ) {
        let (threshold, walk, partition) = (self.threshold, self.walk, &self.partition);
        let (timed, k) = (pass.timings.is_some(), shards.len());
        // Phase 1: eject + walk, one pool task per source shard. Each
        // handoff goes straight into the bucket of its destination shard,
        // so every bucket is in ascending (node, slot) order. The buckets
        // are fresh each round: kept across a pass, they fragmented the
        // heap the stacks grow in and raised peak RSS by several MB.
        let ejected: Vec<(Outbox, u64, u64, u64)> = shards
            .iter_mut()
            .enumerate()
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|(from, (start, shard, frontier, _))| {
                let t0 = timed.then(Instant::now);
                let mut outbox: Outbox = vec![Vec::new(); k];
                let (mut ejected, mut handoffs) = (0u64, 0u64);
                let mut cohort: Vec<TaskId> = Vec::new();
                for &i in &*frontier {
                    let v = *start + i;
                    cohort.clear();
                    shard[i as usize].remove_active_into(threshold, weights, &mut cohort);
                    for (slot, &t) in cohort.iter().enumerate() {
                        let dest = walk_dest(g, walk, v, walk_word(round_seed, v, slot as u64));
                        let to = partition.shard_of(dest);
                        handoffs += u64::from(to != from);
                        outbox[to].push((t, dest));
                    }
                    ejected += cohort.len() as u64;
                }
                (outbox, ejected, handoffs, elapsed_ns(t0))
            })
            .collect();
        // Phase 2: each shard applies bucket `to` of every source shard in
        // shard order — the canonical global cohort order the sequential
        // stepper stacks. The overloaded destinations are the next frontier.
        let applied: Vec<(u64, u64)> = shards
            .iter_mut()
            .enumerate()
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|(to, (start, shard, frontier, seen))| {
                let t0 = timed.then(Instant::now);
                frontier.clear();
                for &(t, dest) in ejected.iter().flat_map(|(outbox, ..)| &outbox[to]) {
                    let i = dest - *start;
                    shard[i as usize].push(t, weights[t as usize]);
                    if !std::mem::replace(&mut seen[i as usize], true) {
                        frontier.push(i);
                    }
                }
                let scanned = frontier.len() as u64;
                frontier.iter().for_each(|&i| seen[i as usize] = false);
                frontier.retain(|&i| shard[i as usize].is_overloaded(threshold));
                frontier.sort_unstable();
                (scanned, elapsed_ns(t0))
            })
            .collect();
        let cohort: u64 = ejected.iter().map(|e| e.1).sum();
        pass.migrations += cohort;
        pass.max_round_cohort = pass.max_round_cohort.max(cohort);
        pass.cross_shard_handoffs += ejected.iter().map(|e| e.2).sum::<u64>();
        pass.stacks_scanned += applied.iter().map(|a| a.0).sum::<u64>();
        if let Some(t) = pass.timings.as_mut() {
            t.eject_walk_ns += ejected.iter().map(|e| e.3).sum::<u64>();
            t.apply_ns += applied.iter().map(|a| a.1).sum::<u64>();
        }
        pass.balanced = shards.iter().all(|s| s.2.is_empty());
        pass.rounds += 1;
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
            let pass = ShardedEngine::new(p, 5.0, WalkKind::MaxDegree, 64).run(
                &mut stacks,
                &g,
                &weights,
                0xFEED,
                false,
            );
            (pass.rounds, pass.migrations, pass.balanced, stacks)
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
        let run_at = |k: usize, timed: bool| {
            let mut stacks = stacks.clone();
            let p = Partition::contiguous(36, k);
            let pass = ShardedEngine::new(p, 5.0, WalkKind::MaxDegree, 64).run(
                &mut stacks,
                &g,
                &weights,
                0xFEED,
                timed,
            );
            (pass, stacks)
        };
        // Untimed: no timings, and the pass output matches the timed runs.
        let (reference, parts) = run_at(1, false);
        assert_eq!(reference.timings, None, "timings must be opt-in");
        let (timed, timed_parts) = run_at(1, true);
        assert!(timed.timings.is_some());
        assert_eq!(
            (PassOutcome { timings: None, ..timed }, timed_parts),
            (reference.clone(), parts.clone())
        );
        assert!(reference.max_round_cohort > 0);
        assert!(reference.max_round_cohort <= reference.migrations);
        assert_eq!(reference.cross_shard_handoffs, 0, "one shard has no handoffs");
        for k in [2usize, 3, 4, 8] {
            let (pass, after) = run_at(k, true);
            assert_eq!(after, parts, "shard count {k}");
            assert!(pass.cross_shard_handoffs <= pass.migrations);
            let layout_free = PassOutcome { cross_shard_handoffs: 0, timings: None, ..pass };
            assert_eq!(layout_free, reference, "shard count {k}");
        }
    }

    #[test]
    fn balanced_input_runs_no_rounds_and_leaves_stacks_unchanged() {
        let g = complete(10);
        let (stacks, weights) = loaded_stacks(10, &[(2, 5), (7, 3)]);
        for k in [1usize, 2, 4, 10] {
            let mut after = stacks.clone();
            let p = Partition::contiguous(10, k);
            let pass = ShardedEngine::new(p, f64::INFINITY, WalkKind::Lazy, 8)
                .run(&mut after, &g, &weights, 3, false);
            assert!(pass.balanced);
            assert_eq!((pass.rounds, pass.migrations), (0, 0));
            assert_eq!(after, stacks);
        }
    }

    #[test]
    fn round_budget_is_respected() {
        let g = complete(4);
        // All load on one node, threshold so tight it cannot balance.
        let (mut stacks, weights) = loaded_stacks(4, &[(0, 50)]);
        let p = Partition::contiguous(4, 2);
        let pass = ShardedEngine::new(p, 0.5, WalkKind::MaxDegree, 6).run(
            &mut stacks,
            &g,
            &weights,
            9,
            false,
        );
        assert_eq!(pass.rounds, 6);
        assert!(!pass.balanced);
        assert!(pass.migrations > 0);
    }
}
