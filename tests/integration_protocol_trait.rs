//! Fixed-seed pins of the shared protocol stepper: every protocol runs
//! through one round frame (`tlb_core::protocol::Stepper`) and the round
//! engine's phases, so these values, together with the goldens in
//! `tests/integration_online.rs` and the baseline pins, must not move
//! unless a change moves a stream on purpose. Driving a run through
//! `ProtocolKind::new_stepper` and `Stepper::run` by hand must also be
//! **bit-identical** to the one-shot entry point: same RNG draws, same
//! order, same outcome, for every protocol variant and walk kind.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use tlb_core::mixed_protocol::{run_mixed, Departure, MixedConfig};
use tlb_core::prelude::*;
use tlb_core::protocol::EngineStats;
use tlb_graphs::generators::{complete, star, torus2d};
use tlb_graphs::Graph;
use tlb_walks::WalkKind;

fn rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed)
}

fn tasks() -> TaskSet {
    TaskSet::new((0..300).map(|i| 1.0 + (i % 5) as f64).collect::<Vec<_>>())
}

/// Drive a kind through its stepper with the same seed as a one-shot run
/// and return its outcome.
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
        assert_eq!(via_trait, direct, "resource/{walk:?} diverged under stepper dispatch");
        assert!(direct.balanced());
    }
}

#[test]
fn user_trait_dispatch_is_bit_identical() {
    // The entry point runs on an edgeless graph; the stepper here gets a
    // complete one. Algorithm 6.1 never reads the graph, so they agree.
    let g = complete(40);
    let tasks = tasks();
    let cfg = UserControlledConfig { track_potential: true, ..Default::default() };
    let direct = run_user_controlled(40, &tasks, Placement::AllOnOne(0), &cfg, &mut rng(103));
    let via_trait = trait_run(&ProtocolKind::User(cfg), &g, &tasks, 103);
    assert_eq!(via_trait, direct, "user protocol diverged under stepper dispatch");
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
        assert_eq!(via_trait, direct, "mixed/{walk:?} diverged under stepper dispatch");
        assert!(direct.balanced());
    }
}

#[test]
fn mixed_trace_has_the_shared_engine_shape() {
    // The mixed protocol records traces through the shared round engine
    // exactly like its siblings.
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

/// FNV-1a over the bit patterns of `xs`: one number that changes if any
/// value changes by a single ulp.
fn digest(xs: impl IntoIterator<Item = f64>) -> u64 {
    xs.into_iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, x| (h ^ x.to_bits()).wrapping_mul(0x0000_0100_0000_01b3))
}

/// `(rounds, migrations, digest of the final loads, digest of Φ(t))`.
fn pin(out: &ProtocolOutcome) -> (u64, u64, u64, u64) {
    assert!(out.balanced());
    (
        out.rounds,
        out.migrations,
        digest(out.final_loads.iter().copied()),
        digest(out.potential_series.iter().copied()),
    )
}

/// The stream paths the legacy and lazy goldens leave out, pinned at
/// fixed seeds: the user protocol's arrival shuffle, the mixed protocol
/// on an irregular graph under both departure rules (the lazy runs go
/// through the degree sort), the simple walk off the regular fast path,
/// and the resource protocol's arrival shuffle with its per-round trace.
/// A change to any draw, its order or its mapping moves these values.
#[test]
fn one_shot_streams_are_pinned_at_fixed_seeds() {
    let tasks = tasks();
    let g = star(40);

    let cfg = UserControlledConfig {
        shuffle_arrivals: true,
        track_potential: true,
        ..Default::default()
    };
    let (out, stats) =
        run_user_controlled_with_stats(40, &tasks, Placement::AllOnOne(0), &cfg, &mut rng(201));
    assert_eq!(pin(&out), (11, 316, 8529709997682482245, 2149651722208830613));
    let jumps =
        EngineStats { uniform_jump_draws: 316, max_round_cohort: 192, ..Default::default() };
    assert_eq!(stats, jumps);

    for (departure, walk, seed, expected) in [
        (
            Departure::AllActive,
            WalkKind::MaxDegree,
            202,
            (171, 642, 15969656582098541637, 5379261133089708309),
        ),
        (
            Departure::AllActive,
            WalkKind::Lazy,
            203,
            (416, 2155, 1427533385319210053, 16507491879307190623),
        ),
        (
            Departure::Bernoulli,
            WalkKind::Lazy,
            204,
            (247, 1403, 524280185054714949, 7498264738122151045),
        ),
    ] {
        let cfg = MixedConfig { departure, walk, track_potential: true, ..Default::default() };
        let out = run_mixed(&g, &tasks, Placement::AllOnOne(0), &cfg, &mut rng(seed));
        assert_eq!(pin(&out), expected, "mixed {departure:?}/{walk:?}");
    }

    let cfg = ResourceControlledConfig {
        walk: WalkKind::Simple,
        track_potential: true,
        ..Default::default()
    };
    let (out, stats) =
        run_resource_controlled_with_stats(&g, &tasks, Placement::AllOnOne(0), &cfg, &mut rng(205));
    assert_eq!(pin(&out), (7, 345, 10605306475946859589, 9975209507256154565));
    let walked = EngineStats {
        walk_steps: 345,
        max_round_cohort: 289,
        eject_weight_reads: 123,
        ..Default::default()
    };
    assert_eq!(stats, walked);

    let cfg = ResourceControlledConfig {
        shuffle_arrivals: true,
        record_trace: true,
        ..Default::default()
    };
    let (out, stats) =
        run_resource_controlled_with_stats(&g, &tasks, Placement::AllOnOne(0), &cfg, &mut rng(206));
    assert_eq!(pin(&out), (78, 640, 7374818168238660677, digest([])));
    let walked = EngineStats {
        walk_steps: 640,
        max_round_cohort: 289,
        eject_weight_reads: 308,
        ..Default::default()
    };
    assert_eq!(stats, walked);
    let rows = &out.trace.as_ref().expect("record_trace must produce a trace").records;
    assert_eq!(rows.len(), 79);
    assert_eq!(digest(rows.iter().map(|r| r.potential)), 5310607852565482631);
    assert_eq!(digest(rows.iter().map(|r| r.max_load)), 4511737888195529863);
}
