//! Golden equivalence suite for the protocol abstraction: dispatching a
//! run through [`tlb_core::protocol::AnyStepper`] must be **bit-identical**
//! to calling the concrete stepper's one-shot entry point — same RNG
//! draws, same order, same outcome — for every protocol variant and walk
//! kind.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use tlb_baselines::{BaselineConfig, BaselineRule, BaselineStepper};
use tlb_core::mixed_protocol::{run_mixed, MixedConfig};
use tlb_core::prelude::*;
use tlb_graphs::generators::{complete, torus2d};
use tlb_graphs::Graph;
use tlb_walks::WalkKind;

fn rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed)
}

fn tasks() -> TaskSet {
    TaskSet::new((0..300).map(|i| 1.0 + (i % 5) as f64).collect::<Vec<_>>())
}

/// Drive a kind through the trait object with the same seed as a direct
/// run and return its outcome.
fn trait_run(kind: &ProtocolKind, g: &Graph, tasks: &TaskSet, seed: u64) -> ProtocolOutcome {
    let mut r = rng(seed);
    let mut stepper = kind.new_stepper(g, tasks, Placement::AllOnOne(0), &mut r);
    stepper.run(g, &mut r);
    stepper.into_outcome()
}

#[test]
fn resource_trait_dispatch_is_bit_identical_for_both_walks() {
    let g = torus2d(6, 6);
    let tasks = tasks();
    for (walk, seed) in [(WalkKind::MaxDegree, 101), (WalkKind::Lazy, 102)] {
        let cfg = ResourceControlledConfig { walk, track_potential: true, ..Default::default() };
        let direct =
            run_resource_controlled(&g, &tasks, Placement::AllOnOne(0), &cfg, &mut rng(seed));
        let via_trait = trait_run(&ProtocolKind::Resource(cfg), &g, &tasks, seed);
        assert_eq!(via_trait, direct, "resource/{walk:?} diverged under trait dispatch");
        assert!(direct.balanced());
    }
}

#[test]
fn user_trait_dispatch_is_bit_identical() {
    let g = complete(40);
    let tasks = tasks();
    let cfg = UserControlledConfig { track_potential: true, ..Default::default() };
    let direct = run_user_controlled(40, &tasks, Placement::AllOnOne(0), &cfg, &mut rng(103));
    let via_trait = trait_run(&ProtocolKind::User(cfg), &g, &tasks, 103);
    assert_eq!(via_trait, direct, "user protocol diverged under trait dispatch");
    assert!(direct.balanced());
}

#[test]
fn mixed_trait_dispatch_is_bit_identical_for_both_walks() {
    let g = torus2d(6, 6);
    let tasks = tasks();
    for (walk, seed) in [(WalkKind::MaxDegree, 104), (WalkKind::Lazy, 105)] {
        let cfg = MixedConfig { walk, track_potential: true, ..Default::default() };
        let direct = run_mixed(&g, &tasks, Placement::AllOnOne(0), &cfg, &mut rng(seed));
        let via_trait = trait_run(&ProtocolKind::Mixed(cfg), &g, &tasks, seed);
        assert_eq!(via_trait, direct, "mixed/{walk:?} diverged under trait dispatch");
        assert!(direct.balanced());
    }
}

#[test]
fn baseline_trait_dispatch_is_bit_identical() {
    let g = complete(16);
    let tasks = tasks();
    for (rule, seed) in [
        (BaselineRule::Greedy { d: 2 }, 106),
        (BaselineRule::SequentialThreshold { retries: 3 }, 107),
    ] {
        let cfg = BaselineConfig { rule, ..Default::default() };
        let mut r = rng(seed);
        let mut direct = BaselineStepper::new(&g, &tasks, Placement::AllOnOne(0), &cfg, &mut r);
        direct.run(&g, &mut r);
        let mut r2 = rng(seed);
        let mut boxed = cfg.new_stepper(&g, &tasks, Placement::AllOnOne(0), &mut r2);
        boxed.run(&g, &mut r2);
        assert_eq!(
            boxed.into_outcome(),
            direct.into_outcome(),
            "{} diverged under trait dispatch",
            rule.label()
        );
    }
}

#[test]
fn mixed_trace_has_the_shared_engine_shape() {
    // Satellite contract of this PR: the mixed protocol records traces
    // through the shared round engine exactly like its siblings.
    let g = torus2d(5, 5);
    let tasks = tasks();
    let cfg = MixedConfig { record_trace: true, track_potential: true, ..MixedConfig::default() };
    let out = run_mixed(&g, &tasks, Placement::AllOnOne(0), &cfg, &mut rng(42));
    let trace = out.trace.as_ref().expect("mixed must record a trace now");
    assert_eq!(trace.rounds() as u64, out.rounds);
    assert_eq!(trace.total_migrations(), out.migrations);
    assert_eq!(trace.potential_series(), out.potential_series);
    assert_eq!(trace.records[0].round, 0, "trace starts with the initial snapshot");
    assert_eq!(trace.records.last().unwrap().max_load, out.final_max_load);
}
