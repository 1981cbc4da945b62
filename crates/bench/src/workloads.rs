//! Trial workloads shared by the `harness_scaling` criterion bench and the
//! `harness_smoke` CI binary, so both measure the same thing.

use rand::rngs::SmallRng;
use rand::{lemire_u64, Rng, SeedableRng};
use tlb_core::placement::Placement;
use tlb_core::user_protocol::{run_user_controlled, UserControlledConfig};
use tlb_core::weights::WeightSpec;
use tlb_experiments::harness::{self, trial_seed};

/// The PR 4 fused lazy kernel, replayed verbatim as the wide-lane
/// kernel's perf baseline: one single-stream word per walker drawn
/// inline (the serial xoshiro dependency chain the lane-striped
/// generator removes), fused coin + Lemire slot, affine gather on
/// regular graphs, branchless select. Draws `positions.len()` words from
/// `rng` — the historical stream shape, NOT the current one-parent-word
/// contract, which is exactly why it lives here and not in `tlb-walks`.
pub fn step_lazy_fused_reference<R: Rng + ?Sized>(
    g: &tlb_graphs::Graph,
    positions: &mut [tlb_graphs::NodeId],
    rng: &mut R,
) {
    let d = g.max_degree() as u64;
    if d == 0 {
        for _ in positions.iter() {
            rng.next_u64();
        }
        return;
    }
    if d > 0 && g.is_regular() {
        let flat = g.neighbors_flat();
        let du = d as usize;
        for v in positions.iter_mut() {
            let word = rng.next_u64();
            let slot = lemire_u64(word << 1, d) as usize;
            let dest = flat[*v as usize * du + slot];
            let mask = ((word >> 63) as tlb_graphs::NodeId).wrapping_neg();
            *v = dest ^ ((dest ^ *v) & mask);
        }
    } else {
        for v in positions.iter_mut() {
            let word = rng.next_u64();
            let slot = lemire_u64(word << 1, d) as usize;
            let nbrs = g.neighbors(*v);
            let dest = if slot < nbrs.len() { nbrs[slot] } else { *v };
            let mask = ((word >> 63) as tlb_graphs::NodeId).wrapping_neg();
            *v = dest ^ ((dest ^ *v) & mask);
        }
    }
}

/// One user-controlled trial whose cost varies roughly 8x with the seed
/// (200..=1600 tasks): the uneven fan-out the pool's chunk
/// self-scheduling is built for — a chunk-per-core split would leave the
/// cores that drew cheap trials idle.
pub fn uneven_user_trial(seed: u64) -> f64 {
    let m = 200 + (seed % 8) as usize * 200;
    let spec = WeightSpec::figure2(m, 16.0);
    let cfg = UserControlledConfig::default();
    let mut rng = SmallRng::seed_from_u64(seed);
    let tasks = spec.generate(&mut rng);
    run_user_controlled(150, &tasks, Placement::AllOnOne(0), &cfg, &mut rng).rounds as f64
}

/// One trial of the uneven benchmark *sweep*: point `i` simulates
/// `300·(i+1)` tasks, so later points cost several times more than early
/// ones — the straggler shape that makes per-point scheduling leave cores
/// idle at every point boundary while whole-sweep scheduling keeps them
/// fed until the sweep runs dry.
pub fn uneven_sweep_trial(point: usize, seed: u64) -> f64 {
    let m = 300 * (point + 1);
    let spec = WeightSpec::figure2(m, 16.0);
    let cfg = UserControlledConfig::default();
    let mut rng = SmallRng::seed_from_u64(seed);
    let tasks = spec.generate(&mut rng);
    run_user_controlled(150, &tasks, Placement::AllOnOne(0), &cfg, &mut rng).rounds as f64
}

/// Per-point seeds of the benchmark sweep (`splitmix` over the index so
/// neighbouring points get decorrelated streams).
pub fn sweep_point_seeds(points: usize) -> Vec<u64> {
    (0..points as u64).map(|p| trial_seed(0x5EED, p)).collect()
}

/// The scheduling baseline `run_sweep_map` replaces: one pool batch per sweep
/// point, with the implicit straggler barrier after each.
pub fn run_sweep_per_point(point_seeds: &[u64], trials: usize) -> Vec<Vec<f64>> {
    point_seeds
        .iter()
        .enumerate()
        .map(|(i, &seed)| harness::run_trials(trials, seed, |s| uneven_sweep_trial(i, s)))
        .collect()
}

/// The whole-sweep scheduling under test: the flattened single batch.
pub fn run_sweep_whole(point_seeds: &[u64], trials: usize) -> Vec<Vec<f64>> {
    harness::run_sweep_map(point_seeds, trials, uneven_sweep_trial)
}

/// The pre-pool execution strategy, kept as a measured baseline: split the
/// trials into one contiguous chunk per available core and run each chunk
/// on a freshly spawned scoped thread (what the rayon shim did on every
/// call before the persistent pool). Static partitioning finishes when the
/// slowest chunk does, so uneven trials leave cores idle — the gap to
/// `harness::run_trials` is exactly what the pool's self-scheduling buys.
pub fn run_trials_scoped<F>(trials: usize, base_seed: u64, f: F) -> Vec<f64>
where
    F: Fn(u64) -> f64 + Sync,
{
    // Same thread count as the pool (including the RAYON_NUM_THREADS
    // override) so the comparison isolates scheduling strategy and
    // per-call spawn cost, not core counts.
    let threads = rayon::current_num_threads().min(trials);
    let seeds: Vec<u64> = (0..trials as u64).map(|t| trial_seed(base_seed, t)).collect();
    if threads <= 1 {
        return seeds.into_iter().map(f).collect();
    }
    let chunk_size = trials.div_ceil(threads);
    let f = &f;
    std::thread::scope(|s| {
        let handles: Vec<_> = seeds
            .chunks(chunk_size)
            .map(|chunk| s.spawn(move || chunk.iter().map(|&seed| f(seed)).collect::<Vec<f64>>()))
            .collect();
        let mut out = Vec::with_capacity(trials);
        for h in handles {
            out.extend(h.join().expect("scoped baseline worker panicked"));
        }
        out
    })
}
