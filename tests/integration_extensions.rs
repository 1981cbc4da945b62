//! Cross-crate integration for the Section-8 extensions and supporting
//! tooling: mixed protocol vs walk theory, non-uniform thresholds on
//! heterogeneous systems, graph I/O + walk pipeline, trace capture around
//! a full protocol run.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use tlb_core::mixed_protocol::{run_mixed, MixedConfig};
use tlb_core::nonuniform::{run_user_controlled_nonuniform, NonUniformConfig, ThresholdVector};
use tlb_core::placement::Placement;
use tlb_core::task::TaskSet;
use tlb_core::weights::WeightSpec;
use tlb_experiments::harness;
use tlb_experiments::stats::Summary;
use tlb_graphs::generators;
use tlb_walks::{mixing, spectral, TransitionMatrix, WalkKind};

/// The mixed protocol's balancing time scales with the graph's mixing
/// time, like the resource protocol's (Theorem-3 shape carries over).
#[test]
fn mixed_protocol_tracks_mixing_time() {
    let mean_rounds = |g: &tlb_graphs::Graph, kind: WalkKind, seed: u64| -> f64 {
        let m = g.num_nodes() * 8;
        let tasks = TaskSet::uniform(m);
        let cfg = MixedConfig { walk: kind, ..Default::default() };
        let rounds = harness::run_trials(25, seed, |s| {
            let mut rng = SmallRng::seed_from_u64(s);
            run_mixed(g, &tasks, Placement::AllOnOne(0), &cfg, &mut rng).rounds as f64
        });
        Summary::of(&rounds).mean
    };
    let tau_of = |g: &tlb_graphs::Graph, kind: WalkKind| -> f64 {
        let p = TransitionMatrix::build(g, kind);
        let gap = spectral::spectral_gap_power(&p, g, 1e-10, 100_000);
        mixing::lemma2_mixing_time(g.num_nodes(), &gap).unwrap() as f64
    };

    let fast = generators::complete(64);
    let slow = generators::torus2d(8, 8);
    let r_fast = mean_rounds(&fast, WalkKind::MaxDegree, 1);
    let r_slow = mean_rounds(&slow, WalkKind::Lazy, 2);
    let t_fast = tau_of(&fast, WalkKind::MaxDegree);
    let t_slow = tau_of(&slow, WalkKind::Lazy);
    assert!(t_slow > 5.0 * t_fast, "torus should mix much slower: {t_fast} vs {t_slow}");
    assert!(
        r_slow > 2.0 * r_fast,
        "mixed protocol must feel the mixing time: K_64 {r_fast} vs torus {r_slow}"
    );
}

/// Non-uniform speed-proportional thresholds put proportionally more load
/// on faster machines while respecting every local threshold.
#[test]
fn nonuniform_thresholds_load_fast_machines_more() {
    let mut speeds = vec![4.0; 5];
    speeds.extend(std::iter::repeat_n(1.0, 45));
    let mut rng = SmallRng::seed_from_u64(3);
    let tasks = WeightSpec::Exponential { m: 2000, mean: 2.0 }.generate(&mut rng);
    let tv = ThresholdVector::speed_proportional(&speeds, tasks.total_weight(), tasks.w_max(), 0.1);
    let out = run_user_controlled_nonuniform(
        &tasks,
        &tv,
        Placement::AllOnOne(10),
        &NonUniformConfig::default(),
        &mut rng,
    );
    assert!(out.balanced());
    for (r, &l) in out.final_loads.iter().enumerate() {
        assert!(l <= tv.of(r) + 1e-9, "resource {r} over its local threshold");
    }
    // Fast machines can (and statistically will) end with much higher
    // load than the mean slow machine once the hotspot drains through
    // them.
    let fast_mean: f64 = out.final_loads[..5].iter().sum::<f64>() / 5.0;
    let slow_mean: f64 = out.final_loads[5..].iter().sum::<f64>() / 45.0;
    assert!(
        fast_mean > slow_mean,
        "fast machines should carry more: fast {fast_mean:.1} vs slow {slow_mean:.1}"
    );
}

/// Edge-list I/O composes with the whole pipeline: serialize a sampled
/// expander, parse it back, and get identical walk quantities.
#[test]
fn graph_io_preserves_walk_quantities() {
    let mut rng = SmallRng::seed_from_u64(5);
    let g = generators::random_regular(40, 3, &mut rng).unwrap();
    let text = tlb_graphs::io::to_edge_list(&g);
    let back = tlb_graphs::io::from_edge_list(&text).unwrap();
    assert_eq!(back, g);
    let p1 = TransitionMatrix::build(&g, WalkKind::MaxDegree);
    let p2 = TransitionMatrix::build(&back, WalkKind::MaxDegree);
    let g1 = spectral::spectral_gap_power(&p1, &g, 1e-12, 50_000);
    let g2 = spectral::spectral_gap_power(&p2, &back, 1e-12, 50_000);
    assert!((g1.gap - g2.gap).abs() < 1e-12);
}

/// Trace capture around a manual protocol loop: records are consistent
/// with the outcome of the library loop under the same seed.
#[test]
fn trace_matches_outcome_aggregates() {
    use tlb_core::threshold::ThresholdPolicy;
    use tlb_core::user_protocol::{run_user_controlled, UserControlledConfig};

    let n = 30;
    let tasks = TaskSet::uniform(300);
    let cfg = UserControlledConfig {
        threshold: ThresholdPolicy::AboveAverage { epsilon: 0.2 },
        track_potential: true,
        ..Default::default()
    };
    let mut rng = SmallRng::seed_from_u64(11);
    let out = run_user_controlled(n, &tasks, Placement::AllOnOne(0), &cfg, &mut rng);
    assert!(out.balanced());
    // The potential series the outcome carries is exactly what a trace
    // would record round by round: starts positive, ends at zero, has
    // rounds+1 entries.
    assert_eq!(out.potential_series.len() as u64, out.rounds + 1);
    assert!(out.potential_series[0] > 0.0);
    assert_eq!(*out.potential_series.last().unwrap(), 0.0);
}
