//! Walkthrough of Observation 8: why tight thresholds cost `H(G)·log m`.
//!
//! Builds the lollipop family (clique `K_{n-1}` plus one pendant node on
//! `k` edges), shows its maximum hitting time `Θ(n²/k)` three ways (exact
//! fundamental matrix, Monte-Carlo walks, the asymptotic formula), then
//! runs the resource-controlled protocol with the tight threshold from the
//! observation's *saturating* start — every clique node at exactly the
//! threshold, the surplus on one clique node, the pendant empty — and
//! compares the measured balancing time to `H(G)·ln m`.
//!
//! ```text
//! cargo run --release -p tlb-experiments --example lower_bound_walkthrough
//! ```

use rand::rngs::SmallRng;
use rand::SeedableRng;
use tlb_core::prelude::*;
use tlb_experiments::figures::obs8;
use tlb_graphs::generators::lollipop;
use tlb_graphs::Graph;
use tlb_walks::{hitting, TransitionMatrix, WalkKind};

fn main() {
    let n = 32usize;
    let (tasks, placement) = obs8::workload(n);
    let m = tasks.len();
    let mut rng = SmallRng::seed_from_u64(5);

    println!("Observation 8 lower-bound family: clique K_{} + pendant node on k edges", n - 1);
    println!(
        "workload: {m} unit tasks; every clique node starts exactly at the tight threshold\n\
         T = W/n + 2w_max = {}; the surplus of {} tasks on clique node 0 can only drain\n\
         into the pendant node — which the walk takes Θ(n²/k) steps to find.\n",
        3 * n + 2,
        n + 2
    );
    println!(
        "{:>4} {:>12} {:>12} {:>10} {:>12} {:>16}",
        "k", "H exact", "H monte-c.", "n^2/k", "rounds", "rounds/(H ln m)"
    );

    for k in [1usize, 2, 4, 8, 16] {
        let g = lollipop(n, k).expect("valid parameters");
        let p = TransitionMatrix::build(&g, WalkKind::MaxDegree);
        let h_exact = hitting::max_hitting_time_exact(&p);
        let h_mc = hitting::max_hitting_time_mc(&g, WalkKind::MaxDegree, 8, 300, 2_000_000, 11);
        let asymptotic = (n * n) as f64 / k as f64;

        let kind = ProtocolKind::Resource(ResourceControlledConfig {
            threshold: ThresholdPolicy::TightResource,
            ..Default::default()
        });
        let trials = 10;
        let mean_rounds: f64 = (0..trials)
            .map(|_| {
                run_checked(kind.clone(), &g, &tasks, placement.clone(), &mut rng).rounds as f64
            })
            .sum::<f64>()
            / trials as f64;

        println!(
            "{k:>4} {h_exact:>12.1} {h_mc:>12.1} {asymptotic:>10.0} {mean_rounds:>12.1} {:>16.5}",
            mean_rounds / (h_exact * (m as f64).ln())
        );
    }

    println!(
        "\nReading the table: H tracks n²/k as k grows, and the balancing time tracks H \
         — the last column stays roughly flat, which is exactly the Ω(H·log m) / O(H·log W) \
         sandwich of Observation 8 and Theorem 7."
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
