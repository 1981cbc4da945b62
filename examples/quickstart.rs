//! Quickstart: run both protocols of the paper on a small system and
//! print what happened.
//!
//! ```text
//! cargo run --release -p tlb-experiments --example quickstart
//! ```

use rand::rngs::SmallRng;
use rand::SeedableRng;
use tlb_core::prelude::*;
use tlb_core::weights::WeightSpec;
use tlb_graphs::{generators, Graph, GraphBuilder};

fn main() {
    let mut rng = SmallRng::seed_from_u64(7);

    // A workload: 2000 tasks, one of weight 64, the rest unit weight
    // (Figure-2 style), everything initially dumped on resource 0.
    let tasks = WeightSpec::figure2(2000, 64.0).generate(&mut rng);
    println!(
        "workload: m = {}, W = {}, w_max = {}, w_max/w_min = {}",
        tasks.len(),
        tasks.total_weight(),
        tasks.w_max(),
        tasks.heterogeneity()
    );

    // --- User-controlled protocol (complete graph, Algorithm 6.1) -------
    let n = 500;
    let user_cfg = UserControlledConfig {
        threshold: ThresholdPolicy::AboveAverage { epsilon: 0.2 },
        alpha: 1.0, // the paper's simulation setting; its analysis uses ε/(120(1+ε))
        ..Default::default()
    };
    // Algorithm 6.1 never reads the graph; an edgeless one carries `n`.
    let edgeless = GraphBuilder::new(n).build();
    let kind = ProtocolKind::User(user_cfg);
    let out = run_checked(kind, &edgeless, &tasks, Placement::AllOnOne(0), &mut rng);
    println!("\nuser-controlled on K_{n}:");
    println!("  threshold      = {:.2}", out.threshold);
    println!("  balanced       = {}", out.balanced());
    println!("  rounds         = {}", out.rounds);
    println!("  migrations     = {}", out.migrations);
    println!("  final max load = {:.2}", out.final_max_load);
    let bound = tlb_core::drift::theorem11_bound(0.2, 1.0, tasks.w_max(), 1.0, tasks.len());
    println!(
        "  Theorem-11 bound at alpha=1: {bound:.0} rounds (measured {} — far below)",
        out.rounds
    );

    // --- Resource-controlled protocol (arbitrary graph, Algorithm 5.1) --
    let g = generators::torus2d(20, 25); // 500 resources on a torus
    let res_cfg = ResourceControlledConfig::default();
    let kind = ProtocolKind::Resource(res_cfg);
    let out = run_checked(kind, &g, &tasks, Placement::AllOnOne(0), &mut rng);
    println!("\nresource-controlled on a 20x25 torus:");
    println!("  threshold      = {:.2}", out.threshold);
    println!("  balanced       = {}", out.balanced());
    println!("  rounds         = {}", out.rounds);
    println!("  migrations     = {}", out.migrations);
    println!("  final max load = {:.2}", out.final_max_load);
    println!("\n(the torus mixes in Θ(n) — compare the round counts: Theorem 3 is τ(G)·log m)");
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
