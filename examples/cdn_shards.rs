//! Domain scenario: CDN shard placement with selfish, decentralized
//! migration.
//!
//! A content delivery network holds shards whose sizes follow a truncated
//! Pareto (a few blockbuster objects, a long tail). Any edge cache can
//! talk to any other (complete graph), but there is no coordinator: each
//! shard independently decides to move off an overloaded cache — exactly
//! the paper's user-controlled protocol. The example compares the
//! conservative analysis α with the aggressive α = 1 the paper simulates,
//! and an above-average vs tight threshold.
//!
//! ```text
//! cargo run --release -p tlb-experiments --example cdn_shards
//! ```

use rand::rngs::SmallRng;
use rand::SeedableRng;
use tlb_core::drift::{analysis_alpha, theorem11_bound};
use tlb_core::prelude::*;
use tlb_core::weights::WeightSpec;
use tlb_graphs::{Graph, GraphBuilder};

fn main() {
    let mut rng = SmallRng::seed_from_u64(99);

    let n = 200; // edge caches
    let tasks = WeightSpec::ParetoTruncated { m: 4000, alpha: 1.3, cap: 64.0 }.generate(&mut rng);
    println!(
        "shards: {} objects, total size {:.0}, largest {:.1}, heterogeneity {:.1}",
        tasks.len(),
        tasks.total_weight(),
        tasks.w_max(),
        tasks.heterogeneity()
    );
    println!("caches: {n} (complete graph — any cache can receive from any other)\n");

    // Algorithm 6.1 never reads the graph; an edgeless one carries `n`.
    let edgeless = GraphBuilder::new(n).build();
    let eps = 0.2;
    let scenarios: Vec<(&str, f64, ThresholdPolicy)> = vec![
        (
            "analysis alpha, above-average",
            analysis_alpha(eps),
            ThresholdPolicy::AboveAverage { epsilon: eps },
        ),
        ("alpha = 1,      above-average", 1.0, ThresholdPolicy::AboveAverage { epsilon: eps }),
        ("alpha = 1,      tight        ", 1.0, ThresholdPolicy::Tight),
    ];

    println!(
        "{:<32} {:>10} {:>12} {:>12} {:>14}",
        "scenario", "rounds", "migrations", "max load", "threshold"
    );
    for (name, alpha, threshold) in scenarios {
        let cfg = UserControlledConfig { threshold, alpha, ..Default::default() };
        let kind = ProtocolKind::User(cfg);
        let out = run_checked(kind, &edgeless, &tasks, Placement::AllOnOne(0), &mut rng);
        println!(
            "{:<32} {:>10} {:>12} {:>12.1} {:>14.1}",
            name, out.rounds, out.migrations, out.final_max_load, out.threshold
        );
    }

    let bound = theorem11_bound(eps, 1.0, tasks.w_max(), tasks.w_min(), tasks.len());
    println!(
        "\nTheorem-11 bound at alpha = 1: {bound:.0} rounds — the measured times sit well \
         below it, and the analysis-alpha run shows the 1/alpha slowdown the bound predicts."
    );
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
