//! Cross-crate integration of the online simulation stack: the `tlb-sim`
//! engine driving the `tlb-core` steppers over a churned `tlb-graphs`
//! overlay, plus the refactor contract — the legacy one-shot entry points
//! must be bit-identical to their pre-stepper implementations.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use tlb_core::mixed_protocol::{run_mixed, MixedConfig};
use tlb_core::prelude::*;
use tlb_core::threshold::ThresholdPolicy;
use tlb_graphs::generators::{complete, torus2d};
use tlb_sim::{ArrivalProcess, ChurnEvent, ChurnProcess, OnlineSim, SimConfig, TenantSpec};

/// The tentpole acceptance scenario: tasks stream in *while* resources
/// leave; once arrivals stop, the protocol must pull the system back
/// under the threshold and keep it there.
#[test]
fn churn_plus_arrivals_converges_after_arrivals_stop() {
    let total = 240;
    let cfg = SimConfig {
        name: "acceptance".into(),
        epochs: total,
        seed: 99,
        arrivals: ArrivalProcess::Poisson { rate: 15.0 },
        arrival_window: Some(150),
        departure_prob: 0.01,
        churn: ChurnProcess {
            scripted: vec![
                // Resources leave while arrivals are still streaming.
                (40, ChurnEvent::DeactivateRange { from: 0, to: 12 }),
                (90, ChurnEvent::Deactivate(20)),
                (200, ChurnEvent::ActivateRange { from: 0, to: 12 }),
            ],
            random_down: 0.03,
            random_up: 0.05,
            ..Default::default()
        },
        rounds_per_epoch: 32,
        ..Default::default()
    };
    let mut sim = OnlineSim::new(torus2d(7, 7), cfg);
    let report = sim.run();

    // Arrivals really did overlap the drains: some epoch inside the
    // arrival window both drained a resource and admitted tasks.
    let drained_while_arriving =
        report.records.iter().take(150).any(|r| r.drained > 0 && r.arrivals > 0);
    assert!(drained_while_arriving, "scenario must drain resources during the arrival window");

    // Convergence: the final stretch (well past the window) is balanced.
    let tail = &report.records[total as usize - 10..];
    for r in tail {
        assert_eq!(r.arrivals, 0, "tail must be arrival-free");
        assert!(
            r.balanced,
            "epoch {} not balanced after arrivals stopped: max {:.2} > threshold {:.2}",
            r.epoch, r.max_load, r.threshold
        );
        assert!(r.max_load <= r.threshold);
    }

    // Task conservation: live count equals arrivals minus departures.
    let last = report.last().unwrap();
    assert_eq!(
        last.live_tasks as u64,
        report.total_arrivals - report.total_departures,
        "tasks must never be lost or duplicated by churn"
    );
}

/// Bit-reproducibility: the whole report (and its JSON serialization) is
/// a pure function of the seed. The resource policy's rebalancing pass
/// runs on the rayon pool, but its walk words are counter-based (a pure
/// function of seed/epoch/round/node/slot — see `tlb_sim::shard`), so
/// this holds for any `RAYON_NUM_THREADS` and shard count (CI diffs the
/// `scale_sweep` deterministic output across 1/4 threads × 1/4 shards
/// as well).
#[test]
fn online_runs_are_bit_identical_across_runs() {
    let cfg = SimConfig {
        name: "repro".into(),
        epochs: 100,
        seed: 31337,
        arrivals: ArrivalProcess::Bursty { base: 5.0, burst: 60.0, period: 25, burst_len: 4 },
        departure_prob: 0.05,
        churn: ChurnProcess {
            scripted: vec![],
            random_down: 0.05,
            random_up: 0.08,
            ..Default::default()
        },
        tenants: vec![
            TenantSpec::new("a", ThresholdPolicy::Tight, 0.5),
            TenantSpec::new("b", ThresholdPolicy::AboveAverage { epsilon: 0.5 }, 0.5),
        ],
        ..Default::default()
    };
    let a = OnlineSim::new(torus2d(6, 6), cfg.clone()).run();
    let b = OnlineSim::new(torus2d(6, 6), cfg).run();
    assert_eq!(a, b);
    assert_eq!(a.to_json().unwrap(), b.to_json().unwrap());
}

/// Golden trajectory pin for the resource policy's online stream.
///
/// Golden pin (once, sharded-engine PR): the resource policy's
/// rebalancing pass moved off the epoch's sequential `SmallRng` onto the
/// counter-based stream of `tlb_sim::shard` (`rebalance_seed` /
/// `walk_word`) — that is what makes runs bit-identical across thread
/// *and shard* counts. Same per-step law (the words drive the identical
/// Lemire mapping, chi-square-pinned in `tlb_sim::shard::tests`),
/// different stream, so the trajectory below is pinned fresh here; no
/// earlier OnlineSim trajectory golden existed (the one-shot goldens in
/// this file are untouched — their entry points never go through the
/// online engine). Any future change to these values needs its own
/// justified re-pin per the policy in `vendor/README.md`.
#[test]
fn resource_policy_online_trajectory_is_pinned() {
    let cfg = SimConfig {
        name: "golden".into(),
        epochs: 40,
        seed: 4242,
        arrivals: ArrivalProcess::Poisson { rate: 12.0 },
        departure_prob: 0.05,
        churn: ChurnProcess {
            scripted: vec![],
            random_down: 0.04,
            random_up: 0.06,
            ..Default::default()
        },
        rounds_per_epoch: 32,
        ..Default::default()
    };
    let report = OnlineSim::new(torus2d(6, 6), cfg.clone()).run();
    assert_eq!(report.total_arrivals, 434);
    assert_eq!(report.total_departures, 244);
    assert_eq!(report.total_migrations, 221);
    assert_eq!(
        report.records.iter().map(|r| r.rebalance_rounds).sum::<u64>(),
        113,
        "total protocol rounds moved — the rebalance stream changed"
    );
    let last = report.last().unwrap();
    assert_eq!(last.max_load.to_bits(), 4619567317775286272);

    // The sharded engine at any shard count reproduces the pinned
    // shards=1 trajectory bit-for-bit.
    for shards in [2, 5, 36] {
        let sharded = OnlineSim::new(torus2d(6, 6), SimConfig { shards, ..cfg.clone() }).run();
        assert_eq!(report, sharded, "shards={shards} diverged from the pinned trajectory");
    }
}

/// Refactor contract (pinned before the stepper refactor, from commit
/// 606753b): the one-shot entry points must reproduce these exact values
/// — rounds, migrations, and bit-exact loads — proving the steppers are a
/// pure refactor underneath them.
///
/// Golden re-pin (once, batched-RNG walk kernel PR): the **mixed**
/// values below moved because the batched kernel draws all of a round's
/// Bernoulli departure coins before any walk word, where the old loop
/// interleaved coins and walk steps per resource — same per-step law
/// (chi-square-pinned in `tlb_walks::batch`), different stream. Old
/// values: rounds 9, migrations 358, max_load bits 4631952216750555136,
/// loads[0..3] bits 4630685579355357184 / 4629981891913580544 /
/// 4630826316843712512. The resource- and user-controlled values are
/// **unchanged**: their batched paths consume the identical RNG stream
/// (bulk words + the same Lemire mapping, in the same order).
#[test]
fn legacy_one_shot_outcomes_are_bit_identical_to_pre_stepper_runs() {
    let g = torus2d(6, 6);
    let tasks = TaskSet::new((0..360).map(|i| 1.0 + (i % 5) as f64).collect::<Vec<_>>());

    let cfg = ResourceControlledConfig::default();
    let mut rng = SmallRng::seed_from_u64(12345);
    let out = run_resource_controlled(&g, &tasks, Placement::AllOnOne(7), &cfg, &mut rng);
    assert_eq!(out.rounds, 41);
    assert_eq!(out.migrations, 1664);
    assert_eq!(out.final_max_load.to_bits(), 4630967054332067840);

    let ucfg = UserControlledConfig::default();
    let mut rng = SmallRng::seed_from_u64(777);
    let uout = run_user_controlled(40, &tasks, Placement::AllOnOne(0), &ucfg, &mut rng);
    assert_eq!(uout.rounds, 13);
    assert_eq!(uout.migrations, 397);
    assert_eq!(uout.final_max_load.to_bits(), 4630404104378646528);
    assert_eq!(uout.final_loads[0].to_bits(), 4630263366890291200);
    assert_eq!(uout.final_loads[1].to_bits(), 4630404104378646528);
    assert_eq!(uout.final_loads[2].to_bits(), 4629841154425225216);

    let mcfg = MixedConfig::default();
    let g2 = complete(30);
    let mut rng = SmallRng::seed_from_u64(4242);
    let mout = run_mixed(&g2, &tasks, Placement::AllOnOne(3), &mcfg, &mut rng);
    assert_eq!(mout.rounds, 7);
    assert_eq!(mout.migrations, 369);
    assert_eq!(mout.final_max_load.to_bits(), 4631670741773844480);
    assert_eq!(mout.final_loads[0].to_bits(), 4630967054332067840);
    assert_eq!(mout.final_loads[1].to_bits(), 4631248529308778496);
    assert_eq!(mout.final_loads[2].to_bits(), 4630122629401935872);

    // The shuffle + potential-tracking path exercises every RNG call site.
    let cfg2 = ResourceControlledConfig {
        shuffle_arrivals: true,
        track_potential: true,
        ..Default::default()
    };
    let mut rng = SmallRng::seed_from_u64(999);
    let out2 = run_resource_controlled(&g, &tasks, Placement::UniformRandom, &cfg2, &mut rng);
    assert_eq!(out2.rounds, 9);
    assert_eq!(out2.migrations, 49);
    assert_eq!(out2.potential_series.len(), 10);
    assert_eq!(out2.potential_series[1].to_bits(), 4629418941960159232);
}

/// A paused-and-resumed stepper (the sim's per-epoch drive pattern)
/// reaches the same fixed point as letting the one-shot entry run free:
/// balance against the same threshold with conserved total weight.
#[test]
fn incremental_stepping_reaches_the_one_shot_fixed_point() {
    use tlb_core::resource_protocol::ResourceControlledStepper;
    let g = torus2d(6, 6);
    let tasks = TaskSet::new((0..300).map(|i| 1.0 + (i % 4) as f64).collect::<Vec<_>>());
    let cfg = ResourceControlledConfig::default();

    let mut rng = SmallRng::seed_from_u64(8);
    let mut stepper =
        ResourceControlledStepper::new(&g, &tasks, Placement::AllOnOne(0), &cfg, &mut rng);
    // Drive in bursts of 4 rounds with pauses in between, as the online
    // engine does between event batches.
    while !stepper.is_done() {
        for _ in 0..4 {
            if stepper.step(&g, &mut rng) {
                break;
            }
        }
    }
    assert!(stepper.is_balanced());
    let threshold = stepper.threshold();
    let stacks = stepper.stacks();
    let total: f64 = stacks.iter().map(|s| s.load()).sum();
    assert!((total - tasks.total_weight()).abs() < 1e-6);
    assert!(stacks.iter().all(|s| s.load() <= threshold));
}

/// The multi-tenant report orders tenants as configured and the tight
/// tenant degrades at least as often as the relaxed one.
#[test]
fn tenant_slo_ordering_is_stable_under_streaming_load() {
    let cfg = SimConfig {
        name: "tenant-order".into(),
        epochs: 150,
        seed: 5,
        arrivals: ArrivalProcess::Poisson { rate: 25.0 },
        departure_prob: 0.06,
        tenants: vec![
            TenantSpec::new("gold-tight", ThresholdPolicy::Tight, 0.2),
            TenantSpec::new("silver", ThresholdPolicy::AboveAverage { epsilon: 0.5 }, 0.3),
            TenantSpec::new("bronze-loose", ThresholdPolicy::AboveAverage { epsilon: 2.0 }, 0.5),
        ],
        ..Default::default()
    };
    let report = OnlineSim::new(complete(20), cfg).run();
    assert_eq!(report.tenants, vec!["gold-tight", "silver", "bronze-loose"]);
    let rates = &report.tenant_violation_rates;
    assert!(
        rates[0] >= rates[1] && rates[1] >= rates[2],
        "rates must order by strictness: {rates:?}"
    );
}

/// Golden pin for the **lazy** walk stream (once, wide-lane kernel PR).
///
/// Golden re-pin (once, wide-lane RNG kernel PR): the lazy batched
/// kernel moved from one fused word per walker off the caller's stream
/// to **one parent word per batch** expanded through the lane-striped
/// `rand::rngs::WideRng` (fixed `WIDE_LANES` stream constant), and lazy
/// cohorts are now degree-bucket sorted before the walk phase
/// (`RoundEngine::sort_cohort_by_degree`) — same per-step law
/// (chi-square-pinned per `WalkKind` in `tlb_walks::batch`, and the
/// word-law stub tests there pin the mapping bit-exactly), different
/// stream. No earlier golden pinned a lazy one-shot trajectory (every
/// checked-in pin uses MaxDegree walks or the counter-based online
/// stream, all byte-identical to before this PR), so these values are
/// pinned fresh here: a regular graph (torus — wide-lane gather fast
/// path, sorting is the identity) and an irregular one (star — general
/// path plus a real degree-bucket sort each round). Any future change
/// to these values needs its own justified re-pin per the policy in
/// `vendor/README.md`.
#[test]
fn lazy_one_shot_outcomes_are_pinned() {
    let tasks = TaskSet::new((0..360).map(|i| 1.0 + (i % 5) as f64).collect::<Vec<_>>());
    let cfg = ResourceControlledConfig { walk: tlb_walks::WalkKind::Lazy, ..Default::default() };

    let g = torus2d(6, 6);
    let mut rng = SmallRng::seed_from_u64(12345);
    let out = run_resource_controlled(&g, &tasks, Placement::AllOnOne(7), &cfg, &mut rng);
    assert_eq!(out.rounds, 53);
    assert_eq!(out.migrations, 3284);
    assert_eq!(out.final_max_load.to_bits(), 4630967054332067840);

    let star = tlb_graphs::generators::star(40);
    let mut rng = SmallRng::seed_from_u64(777);
    let out2 = run_resource_controlled(&star, &tasks, Placement::AllOnOne(0), &cfg, &mut rng);
    assert_eq!(out2.rounds, 155);
    assert_eq!(out2.migrations, 900);
    assert_eq!(out2.final_max_load.to_bits(), 4630404104378646528);
}
