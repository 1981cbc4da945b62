//! A8: related-work allocators (greedy d-choice, (1+beta), threshold
//! schemes) on the paper's weighted workloads.
//! Flags: see `tlb_experiments::cli`.

use tlb_experiments::{cli, figures::related_work};

fn main() {
    let (cfg, table) = cli::main(related_work::run);
    println!("\ngap growth ratios (gap at largest m / smallest m):");
    for (scheme, ratio) in related_work::growth_ratios(&cfg, &table) {
        println!("  {scheme:<18} {ratio:.2}x");
    }
}
