//! Rayon-parallel trial fan-out with deterministic seeding.
//!
//! Section 7 of the paper averages every data point over 1000 independent
//! trials. Trials are embarrassingly parallel; the harness fans them out
//! over the rayon shim's persistent worker pool while keeping results
//! bit-reproducible: trial `t` of an experiment with base seed `s` always
//! uses the derived seed `splitmix(s, t)`, independent of thread
//! scheduling, and every parallel entry point returns exactly what its
//! sequential evaluation would. The pool self-schedules fixed-size chunks,
//! so sweeps whose trials have very different costs (slow-mixing graphs
//! next to fast ones) still keep every core busy.
//!
//! Whole sweeps go through [`run_sweep_map`], which flattens the
//! `(sweep-point × trial)` grid into one pool batch — no per-point
//! straggler barrier — while staying bit-identical to the per-point
//! [`run_trials`] loop. The experiment drivers reach it through
//! [`crate::figures::Sweep`], which adds the sweep's obs counters.
//!
//! The harness is also generic over the protocol abstraction: a
//! [`ProtocolPoint`] names a `(protocol × graph × workload × placement)`
//! cell through the unified [`MatrixProtocol`] surface (core
//! [`ProtocolKind`] variants and `tlb-baselines` adapters alike);
//! [`run_protocol_once`] runs one trial of it and [`run_protocol_sweep`]
//! a whole sweep on the pool, returning full [`ProtocolOutcome`]s. Both
//! drive the same [`Stepper`] the `run_*` entry points do, so they are
//! bit-identical to those with the same derived seeds.

use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};
use rayon::prelude::*;
use tlb_baselines::BaselineConfig;
use tlb_core::placement::Placement;
use tlb_core::protocol::{EngineStats, ProtocolKind, ProtocolOutcome, Stepper};
use tlb_core::task::TaskSet;
use tlb_core::weights::WeightSpec;
use tlb_graphs::Graph;

/// Derive the seed of trial `index` from a base seed (splitmix64 over the
/// pair, so neighbouring trials get decorrelated streams).
#[inline]
pub fn trial_seed(base: u64, index: u64) -> u64 {
    let mut z = base ^ index.wrapping_mul(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Run `trials` independent trials in parallel; `f(seed)` must be a pure
/// function of its seed and may return any `Send` payload (a round
/// count, or a struct when a trial yields more than one metric).
/// Results are returned in trial order.
pub fn run_trials<T, F>(trials: usize, base_seed: u64, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    (0..trials as u64)
        .into_par_iter()
        .map(|t| f(trial_seed(base_seed, t)))
        .collect()
}

/// Sequential variant (used by the harness-scaling ablation to measure the
/// pool speedup, and handy under a profiler).
pub fn run_trials_sequential<F>(trials: usize, base_seed: u64, f: F) -> Vec<f64>
where
    F: Fn(u64) -> f64,
{
    (0..trials as u64).map(|t| f(trial_seed(base_seed, t))).collect()
}

/// Run a whole sweep — `point_seeds.len()` parameter points × `trials`
/// trials each — as **one** self-scheduled pool batch instead of one
/// batch per point.
///
/// A per-point loop (`for seed in point_seeds { run_trials(trials, seed,
/// …) }`) puts a barrier after every sweep point: each call waits for its
/// slowest trial while the other cores idle, and sweeps whose points have
/// very different costs (slow-mixing graphs next to fast ones, tight
/// thresholds next to loose ones) pay that straggler tax once per point.
/// Flattening the `(point, trial)` grid into a single batch lets the
/// pool's chunk self-scheduling fill every core until the *whole sweep*
/// runs dry — the only barrier is the final one.
///
/// Output contract (proptest-pinned): `run_sweep_map(seeds, trials,
/// f)[i]` is bit-identical to `run_trials(trials, seeds[i], |s| f(i,
/// s))`, for any thread count — trial `t` of point `i` always runs with
/// seed `trial_seed(point_seeds[i], t)`, regardless of scheduling.
pub fn run_sweep_map<T, F>(point_seeds: &[u64], trials: usize, f: F) -> Vec<Vec<T>>
where
    T: Send,
    F: Fn(usize, u64) -> T + Sync,
{
    if trials == 0 {
        return point_seeds.iter().map(|_| Vec::new()).collect();
    }
    let total = point_seeds.len() * trials;
    let mut flat: Vec<T> = (0..total as u64)
        .into_par_iter()
        .map(|k| {
            let point = k as usize / trials;
            let t = (k as usize % trials) as u64;
            f(point, trial_seed(point_seeds[point], t))
        })
        .collect();
    // Unflatten back-to-front so each split is O(trials).
    let mut out: Vec<Vec<T>> = Vec::with_capacity(point_seeds.len());
    for p in (0..point_seeds.len()).rev() {
        out.push(flat.split_off(p * trials));
    }
    out.reverse();
    out
}

/// Which protocol a sweep cell runs: a core variant (through the unified
/// [`ProtocolKind`] dispatch) or a `tlb-baselines` round rule. This
/// is the experiment-side closure of the protocol abstraction — the enum
/// a driver can hold for "any protocol at all".
#[derive(Debug, Clone, PartialEq)]
pub enum MatrixProtocol {
    /// One of the three core protocols.
    Core(ProtocolKind),
    /// A related-work baseline run as a rebalancing protocol.
    Baseline(BaselineConfig),
}

impl MatrixProtocol {
    /// Short stable name (report/CSV key).
    pub fn label(&self) -> String {
        match self {
            MatrixProtocol::Core(kind) => kind.label().to_string(),
            MatrixProtocol::Baseline(cfg) => cfg.rule.label(),
        }
    }

    /// Construct the stepper, consuming RNG exactly as the variant's
    /// one-shot entry point would.
    pub fn new_stepper(
        &self,
        g: &Graph,
        tasks: &TaskSet,
        placement: Placement,
        rng: &mut dyn RngCore,
    ) -> Stepper {
        match self {
            MatrixProtocol::Core(kind) => kind.new_stepper(g, tasks, placement, rng),
            MatrixProtocol::Baseline(cfg) => cfg.new_stepper(g, tasks, placement, rng),
        }
    }
}

/// One `(protocol × graph × workload × placement)` cell of a protocol
/// sweep. Each trial regenerates the workload from its derived seed, so
/// the cell is a pure function of `seed` like every other harness entry
/// point.
#[derive(Debug, Clone)]
pub struct ProtocolPoint {
    /// Graph the stepper runs on (the user protocol ignores topology but
    /// still uses `graph.num_nodes()` as its resource count).
    pub graph: Graph,
    /// Per-trial workload generator.
    pub weights: WeightSpec,
    /// Initial placement.
    pub placement: Placement,
    /// Which protocol runs the cell.
    pub protocol: MatrixProtocol,
    /// Base seed of the cell (trial `t` runs with `trial_seed(seed, t)`).
    pub seed: u64,
}

/// One trial of a protocol point: generate the workload, run the
/// protocol's stepper to completion, report the outcome.
pub fn run_protocol_once(p: &ProtocolPoint, seed: u64) -> ProtocolOutcome {
    run_protocol_once_with_stats(p, seed).0
}

/// [`run_protocol_once`] plus the stepper's deterministic engine counters
/// (what a driver puts in `Trial::stats`).
pub fn run_protocol_once_with_stats(
    p: &ProtocolPoint,
    seed: u64,
) -> (ProtocolOutcome, EngineStats) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let tasks = p.weights.generate(&mut rng);
    let mut stepper = p.protocol.new_stepper(&p.graph, &tasks, p.placement.clone(), &mut rng);
    stepper.run(&p.graph, &mut rng);
    let stats = stepper.engine().obs_stats();
    (stepper.into_outcome(), stats)
}

/// Run a whole protocol sweep — every `(point × trial)` pair as **one**
/// self-scheduled pool batch, like [`run_sweep_map`]. `out[i]` is
/// bit-identical to `run_trials(trials, points[i].seed, |s|
/// run_protocol_once(&points[i], s))`.
pub fn run_protocol_sweep(points: &[ProtocolPoint], trials: usize) -> Vec<Vec<ProtocolOutcome>> {
    let seeds: Vec<u64> = points.iter().map(|p| p.seed).collect();
    run_sweep_map(&seeds, trials, |i, s| run_protocol_once(&points[i], s))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_distinct_and_deterministic() {
        let seeds: Vec<u64> = (0..1000).map(|t| trial_seed(42, t)).collect();
        let set: std::collections::HashSet<_> = seeds.iter().collect();
        assert_eq!(set.len(), seeds.len(), "seed collision");
        assert_eq!(trial_seed(42, 7), trial_seed(42, 7));
        assert_ne!(trial_seed(42, 7), trial_seed(43, 7));
    }

    #[test]
    fn parallel_matches_sequential() {
        let f = |seed: u64| (seed % 1000) as f64;
        let par = run_trials(500, 9, f);
        let seq = run_trials_sequential(500, 9, f);
        assert_eq!(par, seq);
    }

    #[test]
    fn results_in_trial_order() {
        let out = run_trials(100, 0, |s| s as f64);
        let expected: Vec<f64> = (0..100).map(|t| trial_seed(0, t) as f64).collect();
        assert_eq!(out, expected);
    }

    /// Trial whose cost varies ~100x with the seed — the uneven workload
    /// the pool's chunk self-scheduling exists for.
    fn uneven(seed: u64) -> f64 {
        let mut acc = seed;
        for _ in 0..(seed % 97) * 37 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        }
        (acc % 100_000) as f64
    }

    #[test]
    fn all_entry_points_match_sequential_on_uneven_work() {
        let trials = 257;
        let seq = run_trials_sequential(trials, 11, uneven);
        assert_eq!(run_trials(trials, 11, uneven), seq);
    }

    #[test]
    fn pool_is_reused_across_successive_calls() {
        for round in 0..20 {
            let seq = run_trials_sequential(64, round, uneven);
            assert_eq!(run_trials(64, round, uneven), seq, "round {round}");
        }
        // The shim's persistent pool spawns its workers exactly once.
        assert_eq!(rayon::worker_spawn_count(), rayon::current_num_threads().saturating_sub(1));
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let bad = trial_seed(5, 17);
        let result = std::panic::catch_unwind(|| {
            run_trials(64, 5, move |s| if s == bad { panic!("trial exploded") } else { 1.0 })
        });
        assert!(result.is_err(), "a panicking trial must panic the caller");
        // The pool stays usable after the propagated panic.
        assert_eq!(run_trials(8, 0, |s| s as f64), run_trials_sequential(8, 0, |s| s as f64));
    }

    #[test]
    fn run_sweep_matches_per_point_loop_bitwise() {
        // The whole-sweep batch must reproduce the per-point scheduling
        // exactly — same seeds, same order — on the uneven workload.
        let seeds = [3u64, 99, 3, 0xDEAD]; // duplicate seeds are legal
        let trials = 37;
        let swept = run_sweep_map(&seeds, trials, |_, s| uneven(s));
        assert_eq!(swept.len(), seeds.len());
        for (i, &seed) in seeds.iter().enumerate() {
            assert_eq!(swept[i], run_trials(trials, seed, uneven), "point {i}");
        }
    }

    #[test]
    fn run_sweep_point_index_reaches_the_closure() {
        let seeds = [1u64, 2, 3];
        let swept = run_sweep_map(&seeds, 4, |point, seed| (point, seed));
        for (i, point_results) in swept.iter().enumerate() {
            for (t, &(point, seed)) in point_results.iter().enumerate() {
                assert_eq!(point, i);
                assert_eq!(seed, trial_seed(seeds[i], t as u64));
            }
        }
    }

    #[test]
    fn run_sweep_degenerate_shapes() {
        let empty: Vec<Vec<f64>> = run_sweep_map(&[], 10, |_, s| s as f64);
        assert!(empty.is_empty());
        let zero_trials = run_sweep_map(&[1, 2], 0, |_, s| s as f64);
        assert_eq!(zero_trials, vec![Vec::<f64>::new(), Vec::new()]);
        let single = run_sweep_map(&[7], 1, |_, s| s as f64);
        assert_eq!(single, vec![vec![trial_seed(7, 0) as f64]]);
    }

    #[test]
    fn protocol_trials_match_direct_one_shot_calls() {
        use tlb_core::resource_protocol::{run_resource_controlled, ResourceControlledConfig};
        let g = tlb_graphs::generators::torus2d(4, 4);
        let spec = WeightSpec::Uniform { m: 120 };
        let pcfg = ResourceControlledConfig::default();
        let point = ProtocolPoint {
            graph: g.clone(),
            weights: spec.clone(),
            placement: Placement::AllOnOne(0),
            protocol: MatrixProtocol::Core(ProtocolKind::Resource(pcfg.clone())),
            seed: 77,
        };
        let outcomes = run_trials(6, 77, |s| run_protocol_once(&point, s));
        for (t, out) in outcomes.iter().enumerate() {
            let mut rng = SmallRng::seed_from_u64(trial_seed(77, t as u64));
            let tasks = spec.generate(&mut rng);
            let direct =
                run_resource_controlled(&g, &tasks, Placement::AllOnOne(0), &pcfg, &mut rng);
            assert_eq!(*out, direct, "trial {t} diverged from the direct call");
        }
    }

    #[test]
    fn protocol_sweep_matches_per_point_trials() {
        let g = tlb_graphs::generators::complete(10);
        let mk = |protocol: MatrixProtocol, seed: u64| ProtocolPoint {
            graph: g.clone(),
            weights: WeightSpec::Uniform { m: 80 },
            placement: Placement::AllOnOne(0),
            protocol,
            seed,
        };
        let points = vec![
            mk(MatrixProtocol::Core(ProtocolKind::User(Default::default())), 1),
            mk(MatrixProtocol::Baseline(BaselineConfig::default()), 2),
            mk(MatrixProtocol::Core(ProtocolKind::Mixed(Default::default())), 3),
        ];
        let swept = run_protocol_sweep(&points, 5);
        assert_eq!(swept.len(), 3);
        for (i, point) in points.iter().enumerate() {
            let per_point = run_trials(5, point.seed, |s| run_protocol_once(point, s));
            assert_eq!(swept[i], per_point, "point {i}");
            assert!(swept[i].iter().all(|o| o.balanced()));
        }
    }

    #[test]
    fn matrix_protocol_labels() {
        assert_eq!(
            MatrixProtocol::Core(ProtocolKind::Resource(Default::default())).label(),
            "resource"
        );
        assert_eq!(MatrixProtocol::Baseline(BaselineConfig::default()).label(), "greedy2");
    }

    #[test]
    fn map_variant_carries_structs() {
        #[derive(PartialEq, Debug)]
        struct Pair(u64, f64);
        let out = run_trials(10, 5, |s| Pair(s, s as f64 * 0.5));
        assert_eq!(out.len(), 10);
        assert_eq!(out[3], Pair(trial_seed(5, 3), trial_seed(5, 3) as f64 * 0.5));
    }
}
