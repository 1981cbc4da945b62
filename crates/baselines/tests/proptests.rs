//! Property-based tests for the baseline allocators: weight conservation
//! and threshold respect hold for every workload and parameterization.
//! One plain test pins every baseline's exact outputs at fixed seeds.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use tlb_baselines::{greedy, one_plus_beta, parallel_threshold, sequential_threshold};
use tlb_core::stack::ResourceStack;
use tlb_core::task::{TaskId, TaskSet};

fn arb_weights() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(1u32..30, 1..200)
        .prop_map(|v| v.into_iter().map(|w| w as f64).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn greedy_conserves_weight(
        weights in arb_weights(),
        n in 1usize..50,
        d in 1usize..4,
        seed in any::<u64>(),
    ) {
        let tasks = TaskSet::new(weights);
        let mut rng = SmallRng::seed_from_u64(seed);
        let a = greedy::allocate(&tasks, n, d, &mut rng);
        prop_assert_eq!(a.loads.len(), n);
        prop_assert!((a.loads.iter().sum::<f64>() - tasks.total_weight()).abs() < 1e-6);
        prop_assert_eq!(a.choices, (tasks.len() * d) as u64);
        prop_assert!(a.gap() >= -1e-9);
    }

    #[test]
    fn one_plus_beta_conserves_weight(
        weights in arb_weights(),
        n in 1usize..50,
        beta in 0.01f64..1.0,
        seed in any::<u64>(),
    ) {
        let tasks = TaskSet::new(weights);
        let mut rng = SmallRng::seed_from_u64(seed);
        let a = one_plus_beta::allocate(&tasks, n, beta, &mut rng);
        prop_assert!((a.loads.iter().sum::<f64>() - tasks.total_weight()).abs() < 1e-6);
        // Between 1 and 2 choices per ball.
        prop_assert!(a.choices >= tasks.len() as u64);
        prop_assert!(a.choices <= 2 * tasks.len() as u64);
    }

    #[test]
    fn sequential_threshold_respects_final_threshold(
        weights in arb_weights(),
        n in 1usize..40,
        slack in 0.0f64..3.0,
        seed in any::<u64>(),
    ) {
        let tasks = TaskSet::new(weights);
        let mut rng = SmallRng::seed_from_u64(seed);
        let out = sequential_threshold::allocate(&tasks, n, slack, 8, &mut rng);
        prop_assert!((out.loads.iter().sum::<f64>() - tasks.total_weight()).abs() < 1e-6);
        prop_assert!(out.allocation().max_load() <= out.final_threshold + 1e-9);
        // Escalations move the threshold by w_max each.
        let start = tasks.total_weight() / n as f64 + slack * tasks.w_max();
        let expected = start + out.escalations as f64 * tasks.w_max();
        prop_assert!((out.final_threshold - expected).abs() < 1e-9);
    }

    #[test]
    fn parallel_threshold_accounts_for_every_ball(
        weights in arb_weights(),
        n in 1usize..40,
        rounds in 1usize..6,
        slack in 0.5f64..3.0,
        seed in any::<u64>(),
    ) {
        let tasks = TaskSet::new(weights);
        let mut rng = SmallRng::seed_from_u64(seed);
        let out = parallel_threshold::allocate_uniform_threshold(&tasks, n, rounds, slack, &mut rng);
        prop_assert!((out.loads.iter().sum::<f64>() - tasks.total_weight()).abs() < 1e-6);
        prop_assert_eq!(out.survivors_per_round.len(), rounds);
        // Survivors are monotone non-increasing and end at `forced`.
        for w in out.survivors_per_round.windows(2) {
            prop_assert!(w[1] <= w[0]);
        }
        prop_assert_eq!(*out.survivors_per_round.last().unwrap(), out.forced);
    }
}

/// Check one round of Algorithm 5.1 ejection plus re-placement (`before`
/// → `after`, moving `cohort`) against a scan from the bottom: every
/// stack keeps exactly the prefix that scan accepts, what lies above it
/// in `after` was pushed on top (the load is the fold of those pushes
/// onto the prefix's load, bit for bit), and the tasks the scan ejects
/// are the cohort and the pushes.
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

    /// The baselines eject through the round engine, which resumes each
    /// scan where the resource's last ejection stopped. After every round
    /// of every rule — Erdős–Rényi graphs (isolated nodes included),
    /// integral two-point and non-integral truncated-Pareto weights — the
    /// stacks and the cohort are those a scan from the bottom gives,
    /// including the tasks a threshold rule sends back to their source.
    #[test]
    fn resumed_ejection_matches_a_fresh_scan_after_every_round(
        n in 4usize..24,
        rule in 0usize..5,
        pareto in any::<bool>(),
        seed in any::<u64>(),
    ) {
        use tlb_baselines::{BaselineConfig, BaselineRule};
        use tlb_core::placement::Placement;
        use tlb_core::weights::WeightSpec;

        let mut rng = SmallRng::seed_from_u64(seed);
        let g = tlb_graphs::generators::erdos_renyi(n, 0.4, &mut rng).unwrap();
        let spec = if pareto {
            WeightSpec::ParetoTruncated { m: 8 * n, alpha: 1.3, cap: 20.0 }
        } else {
            WeightSpec::TwoPoint { total: 10.0 * n as f64, k: 2, heavy: 7.0 }
        };
        let tasks = spec.generate(&mut rng);
        let rule = [
            BaselineRule::Greedy { d: 1 },
            BaselineRule::Greedy { d: 2 },
            BaselineRule::OnePlusBeta { beta: 0.5 },
            BaselineRule::SequentialThreshold { retries: 2 },
            BaselineRule::ParallelThreshold,
        ][rule];
        let cfg = BaselineConfig { rule, max_rounds: 200, ..Default::default() };
        let mut stepper = cfg.new_stepper(&g, &tasks, Placement::AllOnOne(0), &mut rng);
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

/// Exact outputs of every baseline at fixed seeds. A refactor that keeps
/// the placement rules must keep these numbers; a change that moves a
/// stream on purpose re-pins them once under the stream policy.
#[test]
fn baseline_streams_are_pinned_at_fixed_seeds() {
    use tlb_baselines::{BaselineConfig, BaselineRule};
    use tlb_core::placement::Placement;
    use tlb_core::weights::WeightSpec;

    let rng = SmallRng::seed_from_u64;
    let tasks =
        WeightSpec::ParetoTruncated { m: 2_000, alpha: 1.5, cap: 16.0 }.generate(&mut rng(7));
    let n = 100;

    let a = greedy::allocate(&tasks, n, 2, &mut rng(1));
    assert_eq!((a.choices, a.max_load().to_bits()), (4000, 0x404b6e381c7a83bf));
    let a = one_plus_beta::allocate(&tasks, n, 0.5, &mut rng(2));
    assert_eq!((a.choices, a.max_load().to_bits()), (2983, 0x4050ff044aadb10b));
    let s = sequential_threshold::allocate(&tasks, n, 0.0, 3, &mut rng(3));
    assert_eq!(
        (s.choices, s.escalations, s.allocation().max_load().to_bits()),
        (2046, 2, 0x404fb6c6d71f1fa9)
    );
    let p = parallel_threshold::allocate_uniform_threshold(&tasks, n, 3, 0.5, &mut rng(4));
    assert_eq!(
        (p.choices, p.forced, p.survivors_per_round.clone(), p.allocation().max_load().to_bits()),
        (2130, 13, vec![92, 25, 13], 0x4050ebdb87f05d3e)
    );

    // The steppers: (rounds, migrations, final max load, a fold of every
    // final load's bits).
    let g = tlb_graphs::generators::complete(20);
    let tasks = TaskSet::new((0..200).map(|i| 1.0 + (i % 4) as f64).collect::<Vec<_>>());
    for (rule, seed, pinned) in [
        (BaselineRule::Greedy { d: 1 }, 11, (3, 204, 0x4041000000000000, 0xae1db736bb064aa7)),
        (BaselineRule::Greedy { d: 2 }, 12, (2, 187, 0x4040800000000000, 0x8919e24d992625a2)),
        (
            BaselineRule::OnePlusBeta { beta: 0.5 },
            13,
            (2, 189, 0x4041000000000000, 0x6f56394481360482),
        ),
        (
            BaselineRule::SequentialThreshold { retries: 1 },
            14,
            (5, 186, 0x4041000000000000, 0xe91060507b6a0492),
        ),
        (BaselineRule::ParallelThreshold, 15, (3, 186, 0x4040800000000000, 0xcb1321ea9f717e5b)),
    ] {
        let cfg = BaselineConfig { rule, ..Default::default() };
        let mut r = rng(seed);
        let mut s = cfg.new_stepper(&g, &tasks, Placement::AllOnOne(0), &mut r);
        s.run(&g, &mut r);
        let out = s.into_outcome();
        let loads = out.final_loads.iter().fold(0u64, |h, l| h.rotate_left(7) ^ l.to_bits());
        let got = (out.rounds, out.migrations, out.final_max_load.to_bits(), loads);
        assert_eq!(got, pinned, "{}", rule.label());
    }
}
