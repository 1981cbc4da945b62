//! Property-based tests for the sharded online engine: the sharded pass
//! against a naive sequential Algorithm 5.1 oracle, shard-count
//! invariance of whole churned runs, and the service-mode
//! checkpoint/restore contract.
//!
//! The unit tests in `tlb_sim::shard` pin the walk-word law against the
//! batched kernel and chi-square the transition row; these properties
//! check the *system-level* contract — `ShardedEngine::run` equals the
//! oracle at every shard count on churned graphs, a full `OnlineSim` run
//! (arrivals, departures, scripted + stochastic churn) produces the
//! identical report at every shard count, and a run segmented by
//! `checkpoint()`/serde/`restore()` at *any* epoch is bit-identical to the
//! uninterrupted run at every shard count (CI additionally crosses
//! `RAYON_NUM_THREADS` 1 vs 4 over this file and byte-diffs segmented
//! NDJSON streams across thread counts in the `soak` job).

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::Rng;
use rand::SeedableRng;
use tlb_core::potential::is_balanced;
use tlb_core::stack::ResourceStack;
use tlb_core::threshold::ThresholdPolicy;
use tlb_core::weights::sample_pareto_truncated;
use tlb_graphs::generators::{complete, random_regular};
use tlb_graphs::{DynamicGraph, Graph, GraphBuilder, NodeId, Partition};
use tlb_sim::shard::{walk_dest, walk_word};
use tlb_sim::{
    epoch_seed, AdmissionPolicy, ArrivalProcess, ArrivalWeights, ChurnEvent, ChurnProcess,
    DomainSpec, MemorySink, OnlineSim, RebalancePolicy, ShardedEngine, SimConfig, SimSnapshot,
    TenantSpec,
};
use tlb_walks::WalkKind;

/// A churned open-system scenario on whatever graph the test supplies:
/// streaming arrivals, Bernoulli departures, a scripted rack drain with
/// later recovery, plus stochastic resource flapping.
fn churned_cfg(walk: WalkKind, seed: u64, epochs: u64, shards: usize) -> SimConfig {
    SimConfig {
        name: "prop".into(),
        epochs,
        seed,
        arrivals: ArrivalProcess::Poisson { rate: 30.0 },
        departure_prob: 0.04,
        churn: ChurnProcess {
            scripted: vec![
                (1, ChurnEvent::DeactivateRange { from: 3, to: 9 }),
                (3, ChurnEvent::ActivateRange { from: 3, to: 9 }),
            ],
            random_down: 0.3,
            random_up: 0.4,
            ..Default::default()
        },
        rebalance: RebalancePolicy::Resource { walk },
        rounds_per_epoch: 24,
        shards,
        ..Default::default()
    }
}

/// The churned scenario with the robustness layer switched on: the node
/// set split into two failure domains, stochastic domain outages on top
/// of the per-node flap, a scripted whole-domain outage mid-run, and an
/// admission policy in front of the arrivals.
fn robust_cfg(
    n: usize,
    admission: AdmissionPolicy,
    seed: u64,
    epochs: u64,
    shards: usize,
) -> SimConfig {
    let mut cfg = churned_cfg(WalkKind::MaxDegree, seed, epochs, shards);
    cfg.churn.domains = vec![
        DomainSpec::new("left", 0, (n / 2) as u32),
        DomainSpec::new("right", (n / 2) as u32, n as u32),
    ];
    cfg.churn.domain_outage = 0.15;
    // The left half goes down at epoch 2 for 6 epochs, so epochs 2..8
    // run degraded — pause points in that span checkpoint mid-outage.
    cfg.churn
        .scripted
        .push((2, ChurnEvent::DomainOutage { domain: 0, duration: 6 }));
    cfg.admission = admission;
    cfg
}

/// Arbitrary per-node stacks (task ids are globally unique; weights in
/// `1..=4`), returned with the flat weight table indexed by task id.
fn arb_stacks() -> impl Strategy<Value = (Vec<ResourceStack>, Vec<f64>)> {
    proptest::collection::vec(proptest::collection::vec(1u32..5, 0..6), 4..40).prop_map(
        |per_node| {
            let mut stacks = Vec::with_capacity(per_node.len());
            let mut weights = Vec::new();
            for tasks in per_node {
                let mut stack = ResourceStack::new();
                for w in tasks {
                    let id = weights.len() as u32;
                    weights.push(w as f64);
                    stack.push(id, w as f64);
                }
                stacks.push(stack);
            }
            (stacks, weights)
        },
    )
}

/// Algorithm 5.1 written as plainly as possible, the reference for the
/// sharded pass: each round scans the nodes in ascending order, ejects
/// every overloaded stack's cutting/above tasks, walks each ejected task
/// one step on the counter-based word of its (node, slot), then stacks
/// all moves in cohort order. Returns `(rounds, migrations, balanced)`.
fn naive_rebalance(
    stacks: &mut [ResourceStack],
    g: &Graph,
    walk: WalkKind,
    weights: &[f64],
    threshold: f64,
    max_rounds: u64,
    stream_seed: u64,
) -> (u64, u64, bool) {
    let (mut rounds, mut migrations) = (0u64, 0u64);
    loop {
        let balanced = stacks.iter().all(|s| !s.is_overloaded(threshold));
        if balanced || rounds == max_rounds {
            return (rounds, migrations, balanced);
        }
        let round_seed = epoch_seed(stream_seed, rounds);
        let mut moves = Vec::new();
        for (v, stack) in (0 as NodeId..).zip(stacks.iter_mut()) {
            if stack.is_overloaded(threshold) {
                let mut ejected = Vec::new();
                stack.remove_active_into(threshold, weights, &mut ejected);
                for (slot, t) in ejected.into_iter().enumerate() {
                    moves.push((t, walk_dest(g, walk, v, walk_word(round_seed, v, slot as u64))));
                }
            }
        }
        migrations += moves.len() as u64;
        for (t, dest) in moves {
            stacks[dest as usize].push(t, weights[t as usize]);
        }
        rounds += 1;
    }
}

/// Each stack's task ids in order with its exact load bits.
fn stack_bits(stacks: &[ResourceStack]) -> Vec<(Vec<u32>, u64)> {
    stacks.iter().map(|s| (s.tasks().to_vec(), s.load().to_bits())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A full churned run of the resource policy reports identically at
    /// every shard count, for both walk kinds, on a random expander.
    #[test]
    fn sharded_report_is_invariant_to_shard_count(
        walk in prop_oneof![Just(WalkKind::MaxDegree), Just(WalkKind::Lazy)],
        n in 16usize..48,
        shards in 2usize..12,
        seed in any::<u64>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = random_regular(n, 4, &mut rng).unwrap();
        let reference = OnlineSim::new(g.clone(), churned_cfg(walk, seed, 6, 1)).run();
        let sharded = OnlineSim::new(g, churned_cfg(walk, seed, 6, shards)).run();
        prop_assert_eq!(reference, sharded);
    }

    /// The sharded pass equals the naive sequential oracle — stacks
    /// (bitwise loads), rounds, migrations and the balanced flag — on
    /// churned random expanders with weighted tasks, for both walks and
    /// every shard count from 1 to past the node count (the partition
    /// clamps). Concatenating the shards' ejections therefore reproduces
    /// the global ascending-node cohort.
    #[test]
    fn sharded_pass_matches_the_naive_oracle(
        walk in prop_oneof![Just(WalkKind::MaxDegree), Just(WalkKind::Lazy)],
        n in 8usize..40,
        tasks in 0usize..240,
        slack in 0.0f64..1.5,
        seed in any::<u64>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut dg = DynamicGraph::new(random_regular(n, 4, &mut rng).unwrap());
        for _ in 0..n / 4 {
            dg.deactivate(rng.gen_range(0..n as NodeId));
        }
        let g = dg.snapshot();
        let active: Vec<NodeId> = (0..n as NodeId).filter(|&v| dg.is_active(v)).collect();
        let mut stacks = vec![ResourceStack::new(); n];
        let mut weights = Vec::new();
        for t in 0..tasks as u32 {
            // Mostly light tasks with a heavy tail; one hot node takes
            // half of them, so the early rounds eject large cohorts.
            let w = 0.25 + rng.gen_range(0u32..32) as f64 / 8.0;
            let w = if rng.gen_bool(0.1) { w * 6.0 } else { w };
            let hot = rng.gen_bool(0.5);
            let v = if hot { active[0] } else { active[rng.gen_range(0..active.len())] };
            weights.push(w);
            stacks[v as usize].push(t, w);
        }
        let total: f64 = weights.iter().sum();
        let w_max = weights.iter().copied().fold(0.0, f64::max);
        let threshold = total / active.len() as f64 * (1.0 + slack) + w_max * slack;
        let mut want = stacks.clone();
        let (rounds, migrations, balanced) =
            naive_rebalance(&mut want, &g, walk, &weights, threshold, 32, seed);
        for shards in 1..=n + 2 {
            let mut got = stacks.clone();
            let pass = ShardedEngine::new(Partition::contiguous(n, shards), threshold, walk, 32)
                .run(&mut got, &g, &weights, seed, false);
            prop_assert_eq!(stack_bits(&got), stack_bits(&want), "shards {}", shards);
            prop_assert_eq!(
                (pass.rounds, pass.migrations, pass.balanced),
                (rounds, migrations, balanced),
                "shards {}", shards
            );
        }
    }

    /// Round by round, the frontier engine is the full-scan oracle: for
    /// every round budget `r`, a pass capped at `r` rounds leaves the
    /// stacks (bitwise loads) the naive oracle leaves after `r` rounds,
    /// and its balanced flag equals a full `is_balanced` scan of them. So
    /// after every round the frontier the engine checks is exactly the
    /// full scan's overloaded set. Churned random expanders, truncated
    /// Pareto weights, shard counts 1, 3, 4 and n + 2 (clamped to n).
    #[test]
    fn frontier_matches_a_full_scan_after_every_round(
        walk in prop_oneof![Just(WalkKind::MaxDegree), Just(WalkKind::Lazy)],
        n in 8usize..40,
        tasks in 0usize..200,
        slack in 0.0f64..0.8,
        seed in any::<u64>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut dg = DynamicGraph::new(random_regular(n, 4, &mut rng).unwrap());
        for _ in 0..n / 4 {
            dg.deactivate(rng.gen_range(0..n as NodeId));
        }
        let g = dg.snapshot();
        let active: Vec<NodeId> = (0..n as NodeId).filter(|&v| dg.is_active(v)).collect();
        let mut stacks = vec![ResourceStack::new(); n];
        let mut weights = Vec::new();
        for t in 0..tasks as u32 {
            let w = sample_pareto_truncated(1.2, 24.0, &mut rng);
            let v = if rng.gen_bool(0.5) { active[0] } else { active[rng.gen_range(0..active.len())] };
            weights.push(w);
            stacks[v as usize].push(t, w);
        }
        let total: f64 = weights.iter().sum();
        let w_max = weights.iter().copied().fold(0.0, f64::max);
        let threshold = total / active.len() as f64 * (1.0 + slack) + w_max * slack;
        for r in 1..=12u64 {
            let mut want = stacks.clone();
            let (rounds, migrations, balanced) =
                naive_rebalance(&mut want, &g, walk, &weights, threshold, r, seed);
            for shards in [1usize, 3, 4, n + 2] {
                let mut got = stacks.clone();
                let pass = ShardedEngine::new(Partition::contiguous(n, shards), threshold, walk, r)
                    .run(&mut got, &g, &weights, seed, false);
                prop_assert_eq!(stack_bits(&got), stack_bits(&want), "r {} shards {}", r, shards);
                prop_assert_eq!(
                    (pass.rounds, pass.migrations, pass.balanced),
                    (rounds, migrations, balanced),
                    "r {} shards {}", r, shards
                );
                prop_assert_eq!(pass.balanced, is_balanced(&got, threshold));
            }
        }
    }

    /// A balanced input runs no round and leaves the stacks bitwise
    /// unchanged at every shard count (including more shards than nodes,
    /// which the partition clamps).
    #[test]
    fn balanced_stacks_pass_through_unchanged_at_every_shard_count(
        workload in arb_stacks(),
        shards in 1usize..64,
    ) {
        let (stacks, weights) = workload;
        let mut after = stacks.clone();
        let partition = Partition::contiguous(stacks.len(), shards);
        let pass = ShardedEngine::new(partition, 1e18, WalkKind::MaxDegree, 8)
            .run(&mut after, &complete(stacks.len()), &weights, 7, false);
        prop_assert!(pass.balanced);
        prop_assert_eq!((pass.rounds, pass.migrations), (0, 0));
        prop_assert_eq!(stack_bits(&after), stack_bits(&stacks));
    }

    /// The tentpole acceptance property: a run paused by `checkpoint()`
    /// at a random epoch, round-tripped through snapshot JSON, and
    /// resumed with `restore()` is bit-identical to the uninterrupted
    /// run — records and summary aggregates — at shard counts 1 and 4.
    /// The scenario keeps churn flapping so the snapshot's graph delta
    /// is usually non-trivial at the pause point.
    #[test]
    fn checkpoint_restore_is_bit_identical_at_any_epoch(
        walk in prop_oneof![Just(WalkKind::MaxDegree), Just(WalkKind::Lazy)],
        n in 16usize..40,
        shards in prop_oneof![Just(1usize), Just(4usize)],
        pause in 1u64..9,
        seed in any::<u64>(),
    ) {
        let epochs = 10u64;
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = random_regular(n, 4, &mut rng).unwrap();
        let cfg = churned_cfg(walk, seed, epochs, shards);

        let full = OnlineSim::new(g.clone(), cfg.clone()).run();

        let mut first = OnlineSim::new(g.clone(), cfg.clone());
        for _ in 0..pause {
            first.run_epoch();
        }
        let snap = first.checkpoint().unwrap();
        let json = snap.to_json().unwrap();
        let parsed = SimSnapshot::from_json(&json).unwrap();
        prop_assert_eq!(&parsed, &snap, "snapshot must survive serde");

        let mut resumed = OnlineSim::restore(parsed, g).unwrap();
        prop_assert_eq!(resumed.epoch(), pause);
        while resumed.epoch() < epochs {
            resumed.run_epoch();
        }
        prop_assert_eq!(resumed.records(), &full.records[pause as usize..]);
        let report = resumed.summary().to_report("prop", seed, full.tenants.clone());
        prop_assert_eq!(report.total_arrivals, full.total_arrivals);
        prop_assert_eq!(report.total_migrations, full.total_migrations);
        prop_assert_eq!(report.peak_load.to_bits(), full.peak_load.to_bits());
        prop_assert_eq!(report.balanced_fraction.to_bits(), full.balanced_fraction.to_bits());
    }

    /// Snapshot serde round-trips for the rebalance policy over both
    /// walks the online engine accepts, and restore resumes each one
    /// bit-identically.
    #[test]
    fn snapshots_round_trip_for_every_policy(
        walk in prop_oneof![Just(WalkKind::MaxDegree), Just(WalkKind::Lazy)],
        pause in 1u64..6,
        seed in any::<u64>(),
    ) {
        let epochs = 7u64;
        let cfg = churned_cfg(walk, seed, epochs, 1);
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = random_regular(24, 4, &mut rng).unwrap();

        let full = OnlineSim::new(g.clone(), cfg.clone()).run();

        let mut first = OnlineSim::new(g.clone(), cfg.clone());
        for _ in 0..pause {
            first.run_epoch();
        }
        let json = first.checkpoint().unwrap().to_json().unwrap();
        let mut resumed =
            OnlineSim::restore(SimSnapshot::from_json(&json).unwrap(), g).unwrap();
        while resumed.epoch() < epochs {
            resumed.run_epoch();
        }
        prop_assert_eq!(resumed.records(), &full.records[pause as usize..]);
    }

    /// Service mode never grows the record buffer: with buffering off and
    /// a bounded sink attached, the engine's buffered series stays empty
    /// over the whole run while the streaming summary still counts every
    /// epoch.
    #[test]
    fn service_mode_keeps_the_record_buffer_empty(
        epochs in 5u64..40,
        seed in any::<u64>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = random_regular(16, 4, &mut rng).unwrap();
        let mut sim = OnlineSim::new(g, churned_cfg(WalkKind::MaxDegree, seed, epochs, 1));
        sim.set_record_buffering(false);
        sim.set_sink(Some(Box::new(MemorySink::new(2))));
        let report = sim.try_run().unwrap();
        prop_assert_eq!(sim.records().len(), 0);
        prop_assert!(report.records.is_empty());
        prop_assert_eq!(report.epochs, epochs);
        prop_assert_eq!(sim.summary().epochs, epochs);
    }

    /// The obs determinism contract, part 1: the `counters` subtree of
    /// the observability report is byte-identical across shard counts on
    /// a churned expander (CI crosses the same property over
    /// `RAYON_NUM_THREADS` 1 vs 4 via `scale_sweep --obs-det-out`).
    #[test]
    fn obs_counters_are_byte_identical_across_shard_counts(
        walk in prop_oneof![Just(WalkKind::MaxDegree), Just(WalkKind::Lazy)],
        n in 16usize..40,
        shards in prop_oneof![Just(4usize), 2usize..12],
        seed in any::<u64>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = random_regular(n, 4, &mut rng).unwrap();
        let run = |k: usize| {
            let mut sim = OnlineSim::new(g.clone(), churned_cfg(walk, seed, 6, k));
            sim.enable_obs();
            sim.run();
            sim.obs_report().expect("obs was enabled")
        };
        let reference = run(1);
        let sharded = run(shards);
        prop_assert_eq!(sharded.counters_json(), reference.counters_json());
        // Sanity: the subtree is not trivially empty.
        prop_assert!(reference.counters["sim.epochs"] == 6);
    }

    /// The obs determinism contract, part 2: turning obs on changes no
    /// observable output — the `EpochRecord` stream and the snapshot a
    /// `checkpoint()` writes are byte-identical to the obs-off run's.
    #[test]
    fn obs_leaves_records_and_snapshots_byte_identical(
        n in 16usize..40,
        shards in prop_oneof![Just(1usize), Just(4usize)],
        seed in any::<u64>(),
    ) {
        let epochs = 6u64;
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = random_regular(n, 4, &mut rng).unwrap();
        let cfg = churned_cfg(WalkKind::MaxDegree, seed, epochs, shards);

        let run = |obs: bool| {
            let mut sim = OnlineSim::new(g.clone(), cfg.clone());
            if obs {
                sim.enable_obs();
            }
            sim.run();
            let snapshot = sim.checkpoint().unwrap().to_json().unwrap();
            let records: Vec<String> =
                sim.records().iter().map(|r| serde_json::to_string(r).unwrap()).collect();
            (records, snapshot)
        };
        let (plain_records, plain_snapshot) = run(false);
        let (obs_records, obs_snapshot) = run(true);
        prop_assert_eq!(obs_records, plain_records);
        prop_assert_eq!(obs_snapshot, plain_snapshot);
    }

    /// Task conservation through the admission gate: under domain
    /// outages and any admission policy, every epoch's offered arrivals
    /// split exactly into admitted + rejected, the per-tenant ledgers
    /// sum to the global ones, and the run-level totals agree with the
    /// per-epoch series.
    #[test]
    fn admission_conserves_offered_arrivals_under_outages(
        n in 16usize..40,
        admission_ix in 0usize..4,
        seed in any::<u64>(),
    ) {
        let admission = [
            AdmissionPolicy::None,
            AdmissionPolicy::StaticCap { max_live: 40 },
            AdmissionPolicy::TokenBucket { rate: 8.0, burst: 16.0 },
            AdmissionPolicy::LoadShed { max_mean_load: 3.0 },
        ][admission_ix];
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = random_regular(n, 4, &mut rng).unwrap();
        let report = OnlineSim::new(g, robust_cfg(n, admission, seed, 12, 1)).run();
        let (mut arrivals, mut admitted, mut rejected) = (0u64, 0u64, 0u64);
        for r in &report.records {
            prop_assert_eq!(r.arrivals, r.admitted + r.rejected, "epoch {}", r.epoch);
            prop_assert_eq!(r.admitted, r.tenant_admitted.iter().sum::<u64>());
            prop_assert_eq!(r.rejected, r.tenant_rejected.iter().sum::<u64>());
            arrivals += r.arrivals;
            admitted += r.admitted;
            rejected += r.rejected;
        }
        prop_assert_eq!(report.total_arrivals, arrivals);
        prop_assert_eq!(report.total_admitted, admitted);
        prop_assert_eq!(report.total_rejected, rejected);
        if admission == AdmissionPolicy::None {
            prop_assert_eq!(report.total_rejected, 0);
        }
    }

    /// The robustness acceptance property: with failure domains,
    /// stochastic + scripted domain outages, and admission all live, a
    /// run paused at a random epoch *during* the scripted whole-domain
    /// outage and resumed from snapshot JSON is bit-identical to the
    /// uninterrupted run at shard counts 1 and 4.
    #[test]
    fn checkpoint_restore_is_bit_identical_mid_outage(
        n in 16usize..40,
        shards in prop_oneof![Just(1usize), Just(4usize)],
        pause in 3u64..8,
        admission_ix in 0usize..3,
        seed in any::<u64>(),
    ) {
        let admission = [
            AdmissionPolicy::None,
            AdmissionPolicy::TokenBucket { rate: 8.0, burst: 16.0 },
            AdmissionPolicy::LoadShed { max_mean_load: 3.0 },
        ][admission_ix];
        let epochs = 12u64;
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = random_regular(n, 4, &mut rng).unwrap();
        let cfg = robust_cfg(n, admission, seed, epochs, shards);

        let full = OnlineSim::new(g.clone(), cfg.clone()).run();

        let mut first = OnlineSim::new(g.clone(), cfg.clone());
        for _ in 0..pause {
            first.run_epoch();
        }
        let snap = first.checkpoint().unwrap();
        prop_assert!(
            snap.domain_down_until.iter().any(|&u| u > pause),
            "pause at {} must land inside the scripted outage", pause
        );
        let json = snap.to_json().unwrap();
        let parsed = SimSnapshot::from_json(&json).unwrap();
        prop_assert_eq!(&parsed, &snap, "snapshot must survive serde");

        let mut resumed = OnlineSim::restore(parsed, g).unwrap();
        while resumed.epoch() < epochs {
            resumed.run_epoch();
        }
        prop_assert_eq!(resumed.records(), &full.records[pause as usize..]);
        let report = resumed.summary().to_report("prop", seed, full.tenants.clone());
        prop_assert_eq!(report.total_admitted, full.total_admitted);
        prop_assert_eq!(report.total_rejected, full.total_rejected);
        prop_assert_eq!(report.shed_fraction.to_bits(), full.shed_fraction.to_bits());
    }

    /// The incremental state (cached w_max and its multiplicity, cached
    /// stack loads, id accounting) passes `OnlineSim::audit` after every
    /// epoch, and straight after a mid-run checkpoint → JSON → restore:
    /// Pareto weights (the max-weight task departs repeatedly), two
    /// tenants, scripted and stochastic domain outages, at shards 1 and 4.
    /// The resumed run still matches the uninterrupted one.
    #[test]
    fn audit_holds_after_every_epoch_across_restore(
        n in 16usize..40,
        shards in prop_oneof![Just(1usize), Just(4usize)],
        pause in 3u64..10,
        seed in any::<u64>(),
    ) {
        let epochs = 14u64;
        let mut cfg = robust_cfg(n, AdmissionPolicy::None, seed, epochs, shards);
        cfg.arrival_weights = ArrivalWeights::ParetoTruncated { alpha: 1.3, cap: 32.0 };
        cfg.tenants = vec![
            TenantSpec::new("tight", ThresholdPolicy::Tight, 0.3),
            TenantSpec::new("loose", ThresholdPolicy::AboveAverage { epsilon: 1.0 }, 0.7),
        ];
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = random_regular(n, 4, &mut rng).unwrap();

        let mut first = OnlineSim::new(g.clone(), cfg.clone());
        for _ in 0..pause {
            first.run_epoch();
            prop_assert_eq!(first.audit(), Ok(()), "epoch {}", first.epoch());
        }
        let json = first.checkpoint().unwrap().to_json().unwrap();
        let mut resumed =
            OnlineSim::restore(SimSnapshot::from_json(&json).unwrap(), g.clone()).unwrap();
        prop_assert_eq!(resumed.audit(), Ok(()), "after restore");
        while resumed.epoch() < epochs {
            resumed.run_epoch();
            prop_assert_eq!(resumed.audit(), Ok(()), "epoch {}", resumed.epoch());
        }
        let full = OnlineSim::new(g, cfg).run();
        prop_assert_eq!(resumed.records(), &full.records[pause as usize..]);
    }

    /// Running a sharded pass conserves the task multiset and total
    /// weight regardless of the partition.
    #[test]
    fn sharded_pass_conserves_tasks(
        workload in arb_stacks(),
        shards in 1usize..16,
        seed in any::<u64>(),
    ) {
        let (mut stacks, weights) = workload;
        let n = stacks.len();
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = random_regular(n, 4, &mut rng).unwrap();
        let total: f64 = weights.iter().sum();
        let threshold = (total / n as f64) * 1.2 + 1e-9;
        let partition = Partition::contiguous(n, shards);
        ShardedEngine::new(partition, threshold, WalkKind::Lazy, 16)
            .run(&mut stacks, &g, &weights, seed, false);
        let after_total: f64 = stacks.iter().map(|s| s.load()).sum();
        prop_assert!((after_total - total).abs() < 1e-6,
            "weight not conserved: {} vs {}", after_total, total);
    }
}

/// The scan counter on a hand-checked pass. A perfect matching has
/// maximum degree 1, so every max-degree walk step crosses its edge. With
/// unit tasks and T = 3, round 1 ejects two tasks 0 → 1 and one 2 → 3,
/// which overloads 3 (load 4). From then on one task bounces between 2
/// and 3 (one destination per round) until the 5-round budget is spent.
/// So the pass checks the 6 stacks once, then 2 destinations, then 1 in
/// each of rounds 2–5: 12 stacks, at every shard count.
#[test]
fn stacks_scanned_is_n_plus_the_distinct_destinations() {
    let mut b = GraphBuilder::new(6);
    for (u, v) in [(0, 1), (2, 3), (4, 5)] {
        b.add_edge(u, v).unwrap();
    }
    let g = b.build();
    let mut stacks = vec![ResourceStack::new(); 6];
    let mut weights = Vec::new();
    for (v, k) in [(0usize, 5), (2, 4), (3, 3), (4, 1), (5, 1)] {
        for _ in 0..k {
            stacks[v].push(weights.len() as u32, 1.0);
            weights.push(1.0);
        }
    }
    for shards in [1usize, 3, 4, 8] {
        let mut after = stacks.clone();
        let pass =
            ShardedEngine::new(Partition::contiguous(6, shards), 3.0, WalkKind::MaxDegree, 5)
                .run(&mut after, &g, &weights, 1, false);
        assert!(!pass.balanced);
        assert_eq!((pass.rounds, pass.migrations), (5, 3 + 4), "shards {shards}");
        assert_eq!(pass.stacks_scanned, 6 + 2 + 4, "shards {shards}");
        let loads: Vec<f64> = after.iter().map(ResourceStack::load).collect();
        assert_eq!(loads, [3.0, 2.0, 3.0, 4.0, 1.0, 1.0], "shards {shards}");
    }
}
