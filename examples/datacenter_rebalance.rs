//! Domain scenario: rebalancing heterogeneous batch jobs on a datacenter
//! fabric.
//!
//! A rack-scale cluster is modelled as a torus (each machine talks to its
//! four fabric neighbours — task migration is local, exactly the paper's
//! resource-controlled model). A burst of jobs with exponential service
//! times lands on a handful of ingest nodes; the operators don't know the
//! global average load, so the machines first *estimate* it with the
//! footnote-1 diffusion scheme, then run Algorithm 5.1 until every machine
//! is under its threshold.
//!
//! ```text
//! cargo run --release -p tlb-experiments --example datacenter_rebalance
//! ```

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tlb_core::diffusion::{estimate_average_to_tolerance, DiffusionKind};
use tlb_core::prelude::*;
use tlb_core::weights::WeightSpec;
use tlb_graphs::generators;
use tlb_graphs::{Graph, NodeId};

fn main() {
    let mut rng = SmallRng::seed_from_u64(2024);

    // 16x16 = 256 machines on a torus fabric.
    let (rows, cols) = (16usize, 16usize);
    let g = generators::torus2d(rows, cols);
    let n = g.num_nodes();

    // 3000 jobs with mean service time 3.0, landing on 4 ingest nodes.
    let tasks = WeightSpec::Exponential { m: 3000, mean: 3.0 }.generate(&mut rng);
    let ingest: Vec<NodeId> = vec![0, 15, 240, 255];
    let locs: Vec<NodeId> =
        (0..tasks.len()).map(|_| ingest[rng.gen_range(0..ingest.len())]).collect();

    println!("cluster: {n} machines ({rows}x{cols} torus)");
    println!(
        "burst:   {} jobs, total work {:.0}, heaviest {:.1}",
        tasks.len(),
        tasks.total_weight(),
        tasks.w_max()
    );

    // Phase 1 — estimate the average load by diffusion (footnote 1).
    // Machines only know their own initial load.
    let mut init_loads = vec![0.0; n];
    for (i, &l) in locs.iter().enumerate() {
        init_loads[l as usize] += tasks.weight(i as u32);
    }
    let true_avg = tasks.total_weight() / n as f64;
    let (estimates, steps) = estimate_average_to_tolerance(
        &g,
        &init_loads,
        0.01 * true_avg,
        1_000_000,
        DiffusionKind::Damped,
    );
    let worst = estimates.iter().map(|e| (e - true_avg).abs() / true_avg).fold(0.0f64, f64::max);
    println!("\nphase 1: diffusion average estimation");
    println!("  true average  = {true_avg:.2}");
    println!("  steps         = {steps}");
    println!("  worst rel err = {:.3}%", worst * 100.0);

    // Phase 2 — rebalance with the resource-controlled protocol.
    let cfg = ResourceControlledConfig {
        threshold: ThresholdPolicy::AboveAverage { epsilon: 0.2 },
        ..Default::default()
    };
    let kind = ProtocolKind::Resource(cfg);
    let out = run_checked(kind, &g, &tasks, Placement::Explicit(locs), &mut rng);
    println!("\nphase 2: resource-controlled rebalancing (Algorithm 5.1)");
    println!("  threshold        = {:.2}", out.threshold);
    println!("  rounds           = {}", out.rounds);
    println!("  migrations       = {}", out.migrations);
    println!("  final max load   = {:.2}", out.final_max_load);
    println!("  balanced         = {}", out.balanced());

    // Show the final load distribution in coarse buckets.
    let mut buckets = [0usize; 5];
    for &l in &out.final_loads {
        let frac = l / out.threshold;
        let idx = ((frac * 4.0) as usize).min(4);
        buckets[idx] += 1;
    }
    println!("\nfinal load distribution (fraction of threshold):");
    for (i, b) in buckets.iter().enumerate() {
        println!("  {:>3}%-{:>3}%: {:>4} machines", i * 25, (i + 1) * 25, b);
    }
}

/// Run `kind` to the end through its stepper and check what the example
/// claims of it: the run ends balanced, no load sits above the threshold,
/// and every task and all the weight are still placed. Draws exactly what
/// the `run_*` entry points draw.
fn run_checked(
    kind: ProtocolKind,
    g: &Graph,
    tasks: &TaskSet,
    placement: Placement,
    rng: &mut SmallRng,
) -> ProtocolOutcome {
    let mut stepper = kind.new_stepper(g, tasks, placement, rng);
    stepper.run(g, rng);
    let eng = stepper.engine();
    assert!(eng.is_balanced(), "the run must end balanced");
    assert!(eng.stacks().iter().all(|s| s.load() <= eng.threshold()), "a load exceeds T");
    let placed: usize = eng.stacks().iter().map(|s| s.num_tasks()).sum();
    assert_eq!(placed, tasks.len(), "tasks lost or duplicated");
    let load: f64 = eng.stacks().iter().map(|s| s.load()).sum();
    let total = tasks.total_weight();
    assert!((load - total).abs() <= 1e-9 * total, "load {load} is not the total weight {total}");
    stepper.into_outcome()
}
