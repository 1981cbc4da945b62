//! Stepper state as shard-sized fragments.
//!
//! The online engine keeps its per-resource state as a flat
//! `Vec<ResourceStack>` indexed by node id. A [`StackFragment`] is a
//! contiguous slice of that state — the stacks of one shard of a
//! `tlb_graphs::Partition` — that a worker thread can own exclusively
//! while the sharded engine steps all shards in parallel.
//! [`StackFragment::split`] and [`StackFragment::join`] convert between
//! the flat representation and the fragment list in `O(k)` pointer moves
//! (the per-stack `Vec`s are moved, never copied), so fragmenting is free
//! on the per-epoch hot path and `split ∘ join` is the identity.
//!
//! The fragment offers exactly the per-round operations of the
//! resource-controlled protocol (Algorithm 5.1), restricted to its node
//! range: eject every cutting/above task in ascending node order
//! ([`StackFragment::eject_overloaded`], the sharded counterpart of
//! [`ResourceStack::remove_active_into`] over a whole range) and accept
//! routed arrivals ([`StackFragment::push`]). Concatenating all
//! fragments' ejections in shard order therefore reproduces the global
//! ascending-node-order cohort of the one-shot resource stepper exactly.

use tlb_graphs::{NodeId, Partition};

use crate::stack::ResourceStack;
use crate::task::TaskId;

/// The per-resource stacks of one contiguous node range, owned
/// exclusively by one shard of the sharded engine.
#[derive(Debug, Clone, PartialEq)]
pub struct StackFragment {
    /// Global node id of `stacks[0]`.
    start: NodeId,
    /// Stacks of nodes `start .. start + stacks.len()`.
    stacks: Vec<ResourceStack>,
}

impl StackFragment {
    /// Split a flat stack array into one fragment per shard of
    /// `partition`.
    ///
    /// # Panics
    /// If the partition does not cover exactly `stacks.len()` nodes.
    pub fn split(stacks: Vec<ResourceStack>, partition: &Partition) -> Vec<StackFragment> {
        assert_eq!(
            partition.num_nodes(),
            stacks.len(),
            "partition covers {} nodes but there are {} stacks",
            partition.num_nodes(),
            stacks.len()
        );
        let mut rest = stacks.into_iter();
        partition
            .ranges()
            .map(|r| StackFragment {
                start: r.start,
                stacks: rest.by_ref().take(r.len()).collect(),
            })
            .collect()
    }

    /// Reassemble fragments (in shard order) into the flat stack array.
    /// Inverse of [`split`](Self::split).
    ///
    /// # Panics
    /// If the fragments are not contiguous from node 0.
    pub fn join(fragments: Vec<StackFragment>) -> Vec<ResourceStack> {
        let mut out = Vec::with_capacity(fragments.iter().map(|f| f.stacks.len()).sum());
        for frag in fragments {
            assert_eq!(
                frag.start as usize,
                out.len(),
                "fragment starting at node {} joined out of order",
                frag.start
            );
            out.extend(frag.stacks);
        }
        out
    }

    /// Global node id of the first resource in this fragment.
    #[inline]
    pub fn start(&self) -> NodeId {
        self.start
    }

    /// Number of resources in this fragment.
    #[inline]
    pub fn len(&self) -> usize {
        self.stacks.len()
    }

    /// Whether the fragment holds no resources.
    pub fn is_empty(&self) -> bool {
        self.stacks.is_empty()
    }

    /// The fragment's stacks (index 0 = global node [`start`](Self::start)).
    pub fn stacks(&self) -> &[ResourceStack] {
        &self.stacks
    }

    /// Eject every cutting/above task from every overloaded resource in
    /// this fragment, scanning nodes in ascending id order — the removal
    /// step of Algorithm 5.1 restricted to this shard. Appends ejected
    /// task ids to `cohort` (bottom-to-top within a stack) and each
    /// task's *global* source node to `sources` (parallel arrays);
    /// returns how many tasks were ejected.
    pub fn eject_overloaded(
        &mut self,
        threshold: f64,
        weights: &[f64],
        cohort: &mut Vec<TaskId>,
        sources: &mut Vec<NodeId>,
    ) -> usize {
        let before = cohort.len();
        for (i, stack) in self.stacks.iter_mut().enumerate() {
            if stack.is_overloaded(threshold) {
                let removed = stack.remove_active_into(threshold, weights, cohort);
                let v = self.start + i as NodeId;
                sources.extend(std::iter::repeat_n(v, removed));
            }
        }
        cohort.len() - before
    }

    /// Push a task onto the stack of global node `v`.
    ///
    /// # Panics
    /// If `v` is outside this fragment's range.
    #[inline]
    pub fn push(&mut self, v: NodeId, id: TaskId, weight: f64) {
        let local = (v - self.start) as usize;
        self.stacks[local].push(id, weight);
    }

    /// Maximum load over this fragment's resources (0 when empty).
    pub fn max_load(&self) -> f64 {
        self.stacks.iter().map(ResourceStack::load).fold(0.0, f64::max)
    }

    /// Whether no resource in this fragment exceeds `threshold`.
    pub fn is_balanced(&self, threshold: f64) -> bool {
        self.stacks.iter().all(|s| !s.is_overloaded(threshold))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stacks_with_loads(loads: &[&[f64]]) -> (Vec<ResourceStack>, Vec<f64>) {
        let mut weights = Vec::new();
        let mut stacks = Vec::new();
        for node_loads in loads {
            let mut s = ResourceStack::new();
            for &w in *node_loads {
                let id = weights.len() as TaskId;
                weights.push(w);
                s.push(id, w);
            }
            stacks.push(s);
        }
        (stacks, weights)
    }

    #[test]
    fn split_join_is_identity() {
        let (stacks, _) = stacks_with_loads(&[&[1.0], &[2.0, 3.0], &[], &[4.0], &[5.0]]);
        for k in 1..=5 {
            let p = Partition::contiguous(stacks.len(), k);
            let frags = StackFragment::split(stacks.clone(), &p);
            assert_eq!(frags.len(), p.num_shards());
            for (s, frag) in frags.iter().enumerate() {
                assert_eq!(frag.start(), p.range(s).start);
                assert_eq!(frag.len(), p.range(s).len());
            }
            assert_eq!(StackFragment::join(frags), stacks);
        }
    }

    #[test]
    fn sharded_ejection_concatenates_to_the_global_cohort() {
        // Global reference: remove_active_into over all stacks in node
        // order must equal the concatenation of per-fragment ejections.
        let (stacks, weights) =
            stacks_with_loads(&[&[3.0, 3.0], &[1.0], &[2.0, 2.0, 2.0], &[], &[5.0, 1.0]]);
        let threshold = 3.5;
        let mut global = stacks.clone();
        let mut want = Vec::new();
        for s in global.iter_mut() {
            if s.is_overloaded(threshold) {
                s.remove_active_into(threshold, &weights, &mut want);
            }
        }
        for k in [1usize, 2, 3, 5] {
            let p = Partition::contiguous(stacks.len(), k);
            let mut frags = StackFragment::split(stacks.clone(), &p);
            let mut cohort = Vec::new();
            let mut sources = Vec::new();
            for frag in frags.iter_mut() {
                frag.eject_overloaded(threshold, &weights, &mut cohort, &mut sources);
            }
            assert_eq!(cohort, want, "cohort diverged at k={k}");
            assert_eq!(cohort.len(), sources.len());
            // Sources are the ascending global owners of the ejections.
            assert!(sources.windows(2).all(|w| w[0] <= w[1]));
            assert_eq!(StackFragment::join(frags), global);
        }
    }

    #[test]
    fn push_routes_to_global_ids_and_balance_is_local() {
        let (stacks, weights) = stacks_with_loads(&[&[1.0], &[1.0], &[1.0], &[1.0]]);
        let p = Partition::contiguous(4, 2);
        let mut frags = StackFragment::split(stacks, &p);
        frags[1].push(3, 99, 4.0);
        assert_eq!(frags[1].stacks()[1].tasks().last(), Some(&99));
        assert_eq!(frags[1].max_load(), 5.0);
        assert!(frags[0].is_balanced(2.0));
        assert!(!frags[1].is_balanced(2.0));
        let joined = StackFragment::join(frags);
        assert_eq!(joined[3].load(), 5.0);
        let _ = weights;
    }

    #[test]
    #[should_panic(expected = "joined out of order")]
    fn join_rejects_out_of_order_fragments() {
        let (stacks, _) = stacks_with_loads(&[&[1.0], &[2.0]]);
        let p = Partition::contiguous(2, 2);
        let mut frags = StackFragment::split(stacks, &p);
        frags.swap(0, 1);
        StackFragment::join(frags);
    }
}
