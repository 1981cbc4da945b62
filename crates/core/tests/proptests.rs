//! Property-based tests for the protocol crate: conservation, feasibility
//! and termination invariants that must hold for *every* workload.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tlb_core::assignment;
use tlb_core::mixed_protocol::{Departure, MixedConfig};
use tlb_core::placement::Placement;
use tlb_core::protocol::ProtocolKind;
use tlb_core::resource_protocol::{run_resource_controlled, ResourceControlledConfig};
use tlb_core::stack::ResourceStack;
use tlb_core::task::{TaskId, TaskSet};
use tlb_core::threshold::ThresholdPolicy;
use tlb_core::user_protocol::{run_user_controlled, UserControlledConfig};
use tlb_core::weights::WeightSpec;
use tlb_graphs::generators;
use tlb_walks::WalkKind;

fn arb_weights() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(1u32..40, 1..120)
        .prop_map(|v| v.into_iter().map(|w| w as f64).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// User-controlled runs conserve total weight and finish under the
    /// threshold for every workload and seed.
    #[test]
    fn user_protocol_conserves_weight_and_balances(
        weights in arb_weights(),
        n in 2usize..20,
        seed in any::<u64>(),
        eps in prop_oneof![Just(0.0f64), Just(0.2), Just(1.0)],
    ) {
        let tasks = TaskSet::new(weights);
        let cfg = UserControlledConfig {
            threshold: if eps == 0.0 {
                ThresholdPolicy::Tight
            } else {
                ThresholdPolicy::AboveAverage { epsilon: eps }
            },
            max_rounds: 2_000_000,
            ..Default::default()
        };
        let mut rng = SmallRng::seed_from_u64(seed);
        let out = run_user_controlled(n, &tasks, Placement::AllOnOne(0), &cfg, &mut rng);
        prop_assert!(out.balanced(), "did not balance in {} rounds", out.rounds);
        let total: f64 = out.final_loads.iter().sum();
        prop_assert!((total - tasks.total_weight()).abs() < 1e-6,
            "weight not conserved: {total} vs {}", tasks.total_weight());
        prop_assert!(out.final_max_load <= out.threshold + 1e-9);
        prop_assert_eq!(out.final_loads.len(), n);
    }

    /// Resource-controlled runs conserve weight and balance on connected
    /// random regular graphs.
    #[test]
    fn resource_protocol_conserves_weight_and_balances(
        weights in arb_weights(),
        n in 4usize..24,
        seed in any::<u64>(),
    ) {
        let d = 3usize;
        prop_assume!((n * d).is_multiple_of(2));
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = generators::random_regular(n, d, &mut rng).unwrap();
        let tasks = TaskSet::new(weights);
        let cfg = ResourceControlledConfig { max_rounds: 2_000_000, ..Default::default() };
        let out = run_resource_controlled(&g, &tasks, Placement::AllOnOne(0), &cfg, &mut rng);
        prop_assert!(out.balanced(), "did not balance in {} rounds", out.rounds);
        let total: f64 = out.final_loads.iter().sum();
        prop_assert!((total - tasks.total_weight()).abs() < 1e-6);
        prop_assert!(out.final_max_load <= out.threshold + 1e-9);
    }

    /// Observation 4: the resource-controlled potential never increases,
    /// on any graph, for any workload.
    #[test]
    fn resource_potential_monotone(
        weights in arb_weights(),
        rows in 2usize..5,
        cols in 2usize..5,
        seed in any::<u64>(),
    ) {
        let g = generators::torus2d(rows, cols);
        let tasks = TaskSet::new(weights);
        let cfg = ResourceControlledConfig {
            track_potential: true,
            max_rounds: 2_000_000,
            ..Default::default()
        };
        let mut rng = SmallRng::seed_from_u64(seed);
        let out = run_resource_controlled(&g, &tasks, Placement::AllOnOne(0), &cfg, &mut rng);
        prop_assert!(out.balanced());
        for w in out.potential_series.windows(2) {
            prop_assert!(w[1] <= w[0] + 1e-9, "potential increased: {} -> {}", w[0], w[1]);
        }
    }

    /// First-fit assignments are proper for every weight vector and n.
    #[test]
    fn first_fit_always_proper(weights in arb_weights(), n in 1usize..30) {
        let tasks = TaskSet::new(weights);
        let a = assignment::first_fit(&tasks, n);
        prop_assert!(assignment::is_proper(&tasks, &a, n));
        // every task assigned to a valid resource
        prop_assert!(a.iter().all(|&r| (r as usize) < n));
        prop_assert_eq!(a.len(), tasks.len());
    }

    /// Weight specs produce sets consistent with their declared size and
    /// the w_min >= 1 normalization.
    #[test]
    fn weight_specs_well_formed(
        m in 1usize..400,
        hi in 1.0f64..64.0,
        seed in any::<u64>(),
        which in 0usize..4,
    ) {
        let spec = match which {
            0 => WeightSpec::Uniform { m },
            1 => WeightSpec::SingleHeavy { m, heavy: hi.max(1.0) },
            2 => WeightSpec::UniformRange { m, hi: hi.max(1.0) },
            _ => WeightSpec::ParetoTruncated { m, alpha: 1.5, cap: hi.max(1.0) },
        };
        let mut rng = SmallRng::seed_from_u64(seed);
        let tasks = spec.generate(&mut rng);
        prop_assert_eq!(tasks.len(), m);
        prop_assert_eq!(spec.num_tasks(), m);
        prop_assert!(tasks.w_min() >= 1.0 - 1e-12);
        prop_assert!(tasks.w_max() <= hi.max(1.0) + 1e-9);
        prop_assert!((tasks.weights().iter().sum::<f64>() - tasks.total_weight()).abs() < 1e-9);
    }

    /// The balancing time never exceeds the Theorem-11 style bound scaled
    /// by a safety factor (empirically the bound is loose by orders of
    /// magnitude — here we only assert the direction).
    #[test]
    fn user_rounds_within_theorem11_envelope(
        m in 50usize..300,
        heavy in 2.0f64..32.0,
        seed in any::<u64>(),
    ) {
        let tasks = WeightSpec::SingleHeavy { m, heavy }.generate(
            &mut SmallRng::seed_from_u64(seed ^ 1),
        );
        let n = 20usize;
        let cfg = UserControlledConfig::default();
        let mut rng = SmallRng::seed_from_u64(seed);
        let out = run_user_controlled(n, &tasks, Placement::AllOnOne(0), &cfg, &mut rng);
        prop_assert!(out.balanced());
        let bound = tlb_core::drift::theorem11_bound(0.2, 1.0, heavy, 1.0, m);
        // At alpha = 1 the measured time sits far below the analytic bound.
        prop_assert!(
            (out.rounds as f64) <= bound,
            "rounds {} above Theorem-11 bound {bound}",
            out.rounds
        );
    }
}

// ---------------------------------------------------------------------
// Wide-lane kernel layout properties: degree-bucketed cohort sorting.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Degree-bucketed cohort sorting is a pure permutation of the
    /// (task, source) pairs — stable within each degree bucket, ordered
    /// by ascending source degree — and it does not change the *set* of
    /// moves the lazy word law produces when each task keeps its own
    /// word: sorted and unsorted cohorts yield the same multiset of
    /// (task, destination) pairs on irregular graphs.
    #[test]
    fn cohort_degree_sort_is_a_stable_permutation(
        n in 4usize..32,
        cohort_len in 1usize..200,
        p in 0.1f64..0.9,
        seed in any::<u64>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = generators::erdos_renyi(n, p, &mut rng).unwrap();
        prop_assume!(g.max_degree() > 0);

        // A cohort with repeated sources and arbitrary task ids.
        let positions: Vec<u32> =
            (0..cohort_len).map(|_| rng.gen_range(0..n as u32)).collect();
        let cohort: Vec<u32> = (0..cohort_len as u32).collect();

        let mut eng = tlb_core::protocol::RoundEngine::new(
            vec![tlb_core::stack::ResourceStack::new()],
            vec![],
            1.0,
            1,
            false,
            false,
        );
        eng.cohort = cohort.clone();
        eng.positions = positions.clone();
        eng.sort_cohort_by_degree(&g);

        // Permutation: same multiset of (task, source) pairs.
        let mut before: Vec<(u32, u32)> =
            cohort.iter().copied().zip(positions.iter().copied()).collect();
        let mut after: Vec<(u32, u32)> =
            eng.cohort.iter().copied().zip(eng.positions.iter().copied()).collect();
        before.sort_unstable();
        after.sort_unstable();
        prop_assert_eq!(&before, &after, "sorting must permute, not rewrite");

        // Ordered by ascending degree, stable within a bucket (task ids
        // were assigned in cohort order, so within equal degree they must
        // stay increasing).
        for w in eng.positions.windows(2) {
            prop_assert!(g.degree(w[0]) <= g.degree(w[1]), "not degree-sorted");
        }
        for i in 1..eng.positions.len() {
            if g.degree(eng.positions[i - 1]) == g.degree(eng.positions[i]) {
                prop_assert!(
                    eng.cohort[i - 1] < eng.cohort[i],
                    "counting sort must be stable within a degree bucket"
                );
            }
        }

        // Same moves: give every task a fixed word of its own (keyed by
        // task id, not cohort index) and apply the lazy word law to the
        // sorted and unsorted orders — the multiset of (task,
        // destination) moves must coincide.
        let word_of = |t: u32| -> u64 {
            (t as u64).wrapping_mul(0x9E3779B97F4A7C15) ^ seed
        };
        let mut dest_unsorted = positions.clone();
        let words: Vec<u64> = cohort.iter().map(|&t| word_of(t)).collect();
        tlb_walks::step_lazy_with_words(&g, &mut dest_unsorted, &words);
        let mut dest_sorted = eng.positions.clone();
        let words: Vec<u64> = eng.cohort.iter().map(|&t| word_of(t)).collect();
        tlb_walks::step_lazy_with_words(&g, &mut dest_sorted, &words);
        let mut moves_unsorted: Vec<(u32, u32)> =
            cohort.iter().copied().zip(dest_unsorted).collect();
        let mut moves_sorted: Vec<(u32, u32)> =
            eng.cohort.iter().copied().zip(dest_sorted).collect();
        moves_unsorted.sort_unstable();
        moves_sorted.sort_unstable();
        prop_assert_eq!(moves_unsorted, moves_sorted);
    }
}

// ---------------------------------------------------------------------
// Resumed Algorithm 5.1 ejection against a scan from the bottom.

/// Check one Algorithm 5.1 round (`before` → `after`, moving `cohort`)
/// against a scan from the bottom: every stack keeps exactly the prefix
/// that scan accepts, what lies above it in `after` was pushed on top
/// (the load is the fold of those pushes onto the prefix's load, bit for
/// bit), and the tasks the scan ejects are the cohort and the pushes.
fn check_round_against_fresh_scan(
    before: &[ResourceStack],
    after: &[ResourceStack],
    weights: &[f64],
    threshold: f64,
    cohort: &[TaskId],
) {
    let (mut ejected, mut landed) = (Vec::new(), Vec::new());
    for (r, (b, a)) in before.iter().zip(after).enumerate() {
        let mut kept = b.clone();
        if kept.is_overloaded(threshold) {
            kept.remove_active_into(threshold, weights, &mut ejected);
        }
        let k = kept.num_tasks();
        assert_eq!(a.tasks().get(..k), Some(kept.tasks()), "resource {r} prefix");
        let pushed = &a.tasks()[k..];
        let load = pushed.iter().fold(kept.load(), |h, &t| h + weights[t as usize]);
        assert_eq!(a.load().to_bits(), load.to_bits(), "resource {r} load");
        landed.extend_from_slice(pushed);
    }
    let mut moved = cohort.to_vec();
    for ids in [&mut ejected, &mut landed, &mut moved] {
        ids.sort_unstable();
    }
    assert_eq!(moved, ejected, "the cohort is not the ejected tasks");
    assert_eq!(landed, ejected, "the pushes are not the ejected tasks");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The round engine resumes each ejection scan where the resource's
    /// last ejection stopped. After every round of the resource protocol
    /// and of the mixed protocol's all-active rule — random regular and
    /// Erdős–Rényi graphs (isolated nodes included), MaxDegree and Lazy
    /// walks, integral two-point and non-integral truncated-Pareto
    /// weights — the stacks and the cohort are those a scan from the
    /// bottom gives.
    #[test]
    fn resumed_ejection_matches_a_fresh_scan_after_every_round(
        n in 6usize..28,
        regular in any::<bool>(),
        lazy in any::<bool>(),
        pareto in any::<bool>(),
        mixed in any::<bool>(),
        shuffle in any::<bool>(),
        heavy in 0usize..5,
        alpha in 0.8f64..2.5,
        seed in any::<u64>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = if regular {
            generators::random_regular(n & !1, 4, &mut rng)
        } else {
            generators::erdos_renyi(n, 0.3, &mut rng)
        }
        .unwrap();
        let spec = if pareto {
            WeightSpec::ParetoTruncated { m: 8 * n, alpha, cap: 20.0 }
        } else {
            WeightSpec::TwoPoint { total: 10.0 * n as f64, k: heavy, heavy: 7.0 }
        };
        let tasks = spec.generate(&mut rng);
        let walk = if lazy { WalkKind::Lazy } else { WalkKind::MaxDegree };
        let threshold = ThresholdPolicy::AboveAverage { epsilon: 0.1 };
        let kind = if mixed {
            ProtocolKind::Mixed(MixedConfig {
                threshold,
                departure: Departure::AllActive,
                walk,
                max_rounds: 300,
                ..Default::default()
            })
        } else {
            ProtocolKind::Resource(ResourceControlledConfig {
                threshold,
                walk,
                shuffle_arrivals: shuffle,
                max_rounds: 300,
                ..Default::default()
            })
        };
        let mut stepper = kind.new_stepper(&g, &tasks, Placement::AllOnOne(0), &mut rng);
        loop {
            let before = stepper.engine().stacks().to_vec();
            let done = stepper.step(&g, &mut rng);
            let eng = stepper.engine();
            check_round_against_fresh_scan(
                &before,
                eng.stacks(),
                eng.weights(),
                eng.threshold(),
                &eng.cohort,
            );
            if done {
                break;
            }
        }
    }
}
