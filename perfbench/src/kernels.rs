//! Kernel rows: the two implementations of one Algorithm-5.1 walk step,
//! timed from outside on the same graph and cohort.
//!
//! * **batch** — `tlb_walks::BatchWalker::step_batch`, the one-shot
//!   steppers' kernel, drawing from a sequential stream;
//! * **counter** — `tlb_sim::shard::{walk_word, walk_dest}`, the online
//!   engine's counter-based word per task.
//!
//! Both advance the same starting cohort for the same number of steps;
//! the two are interleaved and the best of three repetitions is kept.

use std::hint::black_box;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tlb_graphs::{Graph, NodeId};
use tlb_sim::shard::{walk_dest, walk_word};
use tlb_walks::{BatchWalker, WalkKind};

use crate::Metrics;

/// Walk steps per timed repetition of one path.
const STEPS_PER_REP: usize = 1 << 23;
/// Interleaved repetitions; the fastest of each path is reported.
const REPS: usize = 3;

/// Nanoseconds per step of the two paths for `kind` on `g`, advancing a
/// cohort of `cohort` walkers from seeded uniform starting nodes.
fn time_paths(g: &Graph, kind: WalkKind, cohort: usize, seed: u64) -> (f64, f64) {
    let cohort = cohort.max(1);
    let n = g.num_nodes() as NodeId;
    let mut rng = SmallRng::seed_from_u64(seed);
    let start: Vec<NodeId> = (0..cohort).map(|_| rng.gen_range(0..n)).collect();
    let batches = STEPS_PER_REP.div_ceil(cohort);
    let steps = (batches * cohort) as f64;
    let mut walker = BatchWalker::new();
    let (mut best_batch, mut best_counter) = (f64::INFINITY, f64::INFINITY);
    for rep in 0..REPS as u64 {
        let mut pos = start.clone();
        let mut stream = SmallRng::seed_from_u64(seed ^ rep);
        let t = Instant::now();
        for _ in 0..batches {
            walker.step_batch(g, kind, &mut pos, &mut stream);
        }
        black_box(&pos);
        best_batch = best_batch.min(t.elapsed().as_nanos() as f64 / steps);

        let mut pos = start.clone();
        let t = Instant::now();
        for round in 0..batches as u64 {
            let round_seed = tlb_sim::epoch_seed(seed ^ rep, round);
            for (slot, v) in pos.iter_mut().enumerate() {
                *v = walk_dest(g, kind, *v, walk_word(round_seed, *v, slot as u64));
            }
        }
        black_box(&pos);
        best_counter = best_counter.min(t.elapsed().as_nanos() as f64 / steps);
    }
    (best_batch, best_counter)
}

/// Bytes one step moves, computed from the data layout (not measured):
/// `(batch, counter)`.
///
/// Both paths read and write the walker's position and gather one
/// neighbour id. The batch path also writes and re-reads its word block
/// (one `u64` per walker) and, off the regular-graph fast path, reads the
/// two CSR offsets; the counter path computes its word in registers but
/// always reads the two offsets through `Graph::neighbors`.
fn bytes_per_step(g: &Graph) -> (f64, f64) {
    let id = std::mem::size_of::<NodeId>();
    let offsets = 2 * std::mem::size_of::<usize>();
    let word = 2 * std::mem::size_of::<u64>();
    let common = 3 * id;
    let batch = common + word + if g.is_regular() { 0 } else { offsets };
    let counter = common + offsets;
    (batch as f64, counter as f64)
}

/// Time both paths for `kind` and record the kernel rows under the
/// walk's metric suffix (`max_degree` or `lazy`).
pub fn record(metrics: &mut Metrics, g: &Graph, kind: WalkKind, cohort: usize, seed: u64) {
    let suffix = match kind {
        WalkKind::MaxDegree => "max_degree",
        WalkKind::Lazy => "lazy",
        WalkKind::Simple => "simple",
    };
    let (batch, counter) = time_paths(g, kind, cohort, seed);
    println!(
        "kernel {suffix:<10} n={:<7} cohort={cohort:<7} batch {:.3} Gsteps/s  counter {:.3} Gsteps/s",
        g.num_nodes(),
        1.0 / batch,
        1.0 / counter,
    );
    metrics.set(format!("walks.batch_ns_per_step.{suffix}"), batch, "ns");
    metrics.set(format!("walks.counter_ns_per_step.{suffix}"), counter, "ns");
    let (b, c) = bytes_per_step(g);
    metrics.set("walks.bytes_per_step.batch", b, "B_computed");
    metrics.set("walks.bytes_per_step.counter", c, "B_computed");
}
