//! Initial task placements.
//!
//! The paper's model allows an arbitrary initial distribution; its
//! simulations (Section 7) start with *all tasks on one resource* — the
//! adversarial single-hotspot start. The harness also supports uniform
//! random and explicit placements.

use rand::Rng;
use serde::{Deserialize, Serialize};
use tlb_graphs::NodeId;

use crate::stack::ResourceStack;
use crate::task::{TaskId, TaskSet};

/// How tasks are initially assigned to resources.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Placement {
    /// Every task starts on the given resource (the paper's simulation
    /// setting and the natural worst case).
    AllOnOne(
        /// The hotspot resource.
        NodeId,
    ),
    /// Each task starts on an independently uniform resource.
    UniformRandom,
    /// Tasks spread round-robin over resources `0..n` (an almost-balanced
    /// start; useful as a best-case control).
    RoundRobin,
    /// Explicit per-task locations.
    Explicit(
        /// `locations[i]` is task `i`'s starting resource.
        Vec<NodeId>,
    ),
}

impl Placement {
    /// Materialize per-task starting locations.
    ///
    /// # Panics
    /// If a location is out of range or an explicit vector has the wrong
    /// length.
    pub fn materialize<R: Rng + ?Sized>(&self, m: usize, n: usize, rng: &mut R) -> Vec<NodeId> {
        assert!(n > 0, "need at least one resource");
        match self {
            Placement::AllOnOne(r) => {
                assert!((*r as usize) < n, "hotspot {r} out of range (n = {n})");
                vec![*r; m]
            }
            Placement::UniformRandom => (0..m).map(|_| rng.gen_range(0..n) as NodeId).collect(),
            Placement::RoundRobin => (0..m).map(|i| (i % n) as NodeId).collect(),
            Placement::Explicit(locs) => {
                assert_eq!(locs.len(), m, "explicit placement length mismatch");
                for &r in locs {
                    assert!((r as usize) < n, "placement {r} out of range (n = {n})");
                }
                locs.clone()
            }
        }
    }

    /// The per-resource stacks holding `tasks` where this placement puts
    /// them on `n` resources, each stack in task-id order — the setup of
    /// every protocol run. Consumes RNG exactly as
    /// [`materialize`](Self::materialize).
    ///
    /// # Panics
    /// As [`materialize`](Self::materialize).
    pub fn stacks<R: Rng + ?Sized>(
        &self,
        tasks: &TaskSet,
        n: usize,
        rng: &mut R,
    ) -> Vec<ResourceStack> {
        let weights = tasks.weights();
        let mut stacks = vec![ResourceStack::new(); n];
        for (i, &loc) in self.materialize(tasks.len(), n, rng).iter().enumerate() {
            stacks[loc as usize].push(i as TaskId, weights[i]);
        }
        stacks
    }

    /// Short stable label for CSV output.
    pub fn label(&self) -> String {
        match self {
            Placement::AllOnOne(r) => format!("all-on-{r}"),
            Placement::UniformRandom => "uniform".into(),
            Placement::RoundRobin => "round-robin".into(),
            Placement::Explicit(_) => "explicit".into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn all_on_one_puts_everything_on_hotspot() {
        let mut rng = SmallRng::seed_from_u64(0);
        let locs = Placement::AllOnOne(3).materialize(10, 5, &mut rng);
        assert_eq!(locs, vec![3; 10]);
    }

    #[test]
    fn round_robin_is_balanced() {
        let mut rng = SmallRng::seed_from_u64(0);
        let locs = Placement::RoundRobin.materialize(10, 4, &mut rng);
        let mut counts = [0; 4];
        for &l in &locs {
            counts[l as usize] += 1;
        }
        assert_eq!(counts, [3, 3, 2, 2]);
    }

    #[test]
    fn uniform_random_in_range_and_seeded() {
        let a = Placement::UniformRandom.materialize(100, 7, &mut SmallRng::seed_from_u64(9));
        let b = Placement::UniformRandom.materialize(100, 7, &mut SmallRng::seed_from_u64(9));
        assert_eq!(a, b);
        assert!(a.iter().all(|&r| (r as usize) < 7));
    }

    #[test]
    fn explicit_roundtrips() {
        let mut rng = SmallRng::seed_from_u64(0);
        let locs = vec![0, 2, 1];
        assert_eq!(Placement::Explicit(locs.clone()).materialize(3, 3, &mut rng), locs);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn hotspot_out_of_range_panics() {
        let mut rng = SmallRng::seed_from_u64(0);
        Placement::AllOnOne(5).materialize(3, 5, &mut rng);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn explicit_length_mismatch_panics() {
        let mut rng = SmallRng::seed_from_u64(0);
        Placement::Explicit(vec![0, 1]).materialize(3, 5, &mut rng);
    }
}
