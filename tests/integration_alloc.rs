//! Steady-state allocation discipline of the protocol round loops.
//!
//! The stepper promises that a round allocates nothing once the reused
//! buffers (cohort, positions, coin and destination words, per-resource
//! stacks) have grown to the run's working size.
//! This test pins that promise with a counting global allocator: after a
//! warm-up prefix of rounds, every remaining round of the run must
//! perform **zero** heap allocations (and zero reallocations).
//!
//! The file contains exactly one `#[test]` on purpose: the test harness
//! runs tests in one process, and any concurrent test's allocations
//! would pollute the global counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use rand::rngs::SmallRng;
use rand::SeedableRng;
use tlb_core::mixed_protocol::{Departure, MixedConfig};
use tlb_core::prelude::*;
use tlb_graphs::generators::torus2d;

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Count allocations across `f`.
fn count_allocs<F: FnOnce()>(f: F) -> usize {
    ALLOCS.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    f();
    COUNTING.store(false, Ordering::Relaxed);
    ALLOCS.load(Ordering::Relaxed)
}

#[test]
fn round_loops_allocate_nothing_in_steady_state() {
    // "Steady state" = the round buffers AND the per-resource stacks
    // have all reached their working capacity. On a slow-mixing torus
    // the hotspot's load wave keeps reaching fresh stacks (first pushes
    // grow their Vecs) for a prefix of the run — at these seeds the last
    // allocating round is 41 of 108 (resource-controlled), so a 48-round
    // warm-up leaves a ~60-round tail that must be allocation-free. The
    // runs are seed-deterministic, so these warm-ups are stable.
    const TORUS_WARMUP: usize = 48;

    // Resource-controlled: hotspot drain on a slow-mixing torus (108
    // rounds at this seed). Round 1 grows the cohort buffers to their
    // maximum (everything above the threshold is ejected at once).
    let g = torus2d(8, 8);
    let tasks = TaskSet::new((0..600).map(|i| 1.0 + (i % 4) as f64).collect::<Vec<_>>());
    let cfg = ResourceControlledConfig::default();
    let mut rng = SmallRng::seed_from_u64(42);
    let kind = ProtocolKind::Resource(cfg);
    let mut stepper = kind.new_stepper(&g, &tasks, Placement::AllOnOne(0), &mut rng);
    for _ in 0..TORUS_WARMUP {
        stepper.step(&g, &mut rng);
    }
    assert!(!stepper.engine().is_done(), "warm-up must not finish the run (weaken the workload?)");
    let allocs = count_allocs(|| while !stepper.step(&g, &mut rng) {});
    let rounds = stepper.engine().rounds();
    assert!(stepper.engine().is_balanced(), "run must balance");
    assert!(rounds as usize > TORUS_WARMUP + 20, "need a meaningful steady-state tail");
    assert_eq!(allocs, 0, "resource-controlled steady-state rounds allocated ({rounds} rounds)");

    // User-controlled: same discipline for the Bernoulli departure loop
    // and the bulk destination words. A damped α stretches the run to 46
    // rounds (α = 1 balances in 7 — no tail to measure); stack
    // capacities stop growing at round 32 at this seed, so a 36-round
    // warm-up leaves a 10-round allocation-free tail.
    let mut rng = SmallRng::seed_from_u64(7);
    let ucfg = UserControlledConfig { alpha: 0.25, ..Default::default() };
    let g60 = tlb_graphs::GraphBuilder::new(60).build();
    let kind = ProtocolKind::User(ucfg);
    let mut stepper = kind.new_stepper(&g60, &tasks, Placement::AllOnOne(0), &mut rng);
    // The uniform jump never reads the graph; the edgeless one only
    // carries the 60 resources.
    for _ in 0..36 {
        stepper.step(&g60, &mut rng);
    }
    assert!(!stepper.engine().is_done(), "warm-up must not finish the run (weaken the workload?)");
    let allocs = count_allocs(|| while !stepper.step(&g60, &mut rng) {});
    assert!(stepper.engine().is_balanced());
    assert_eq!(allocs, 0, "user-controlled steady-state rounds allocated");

    // Mixed: batched walk cohort on the torus via AllActive departures
    // (57 rounds at this seed, stack capacities stable from round 42).
    // The Bernoulli mode is deliberately not pinned here: its potential
    // is non-monotone, so stacks keep reaching new high-water marks until
    // nearly the end of the run — growth there is working-set growth, not
    // a buffer-discipline regression.
    let mut rng = SmallRng::seed_from_u64(11);
    let mcfg = MixedConfig { departure: Departure::AllActive, ..Default::default() };
    let kind = ProtocolKind::Mixed(mcfg);
    let mut stepper = kind.new_stepper(&g, &tasks, Placement::AllOnOne(0), &mut rng);
    for _ in 0..TORUS_WARMUP {
        stepper.step(&g, &mut rng);
    }
    assert!(!stepper.engine().is_done(), "warm-up must not finish the run (weaken the workload?)");
    let allocs = count_allocs(|| while !stepper.step(&g, &mut rng) {});
    assert!(stepper.engine().is_balanced());
    assert_eq!(allocs, 0, "mixed steady-state rounds allocated");
}
