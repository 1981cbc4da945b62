//! Regenerate the paper's Figure 1 (balancing time vs W for k heavy tasks).
//! Flags: see `tlb_experiments::cli`.

use tlb_experiments::{cli, figures::figure1};

fn main() {
    let (cfg, table) = cli::main(figure1::run);
    println!("\nlog-fit per k (rounds ~ a + b ln m):");
    for (k, slope, r2) in figure1::log_fit_per_k(&cfg, &table) {
        println!("  k = {k:>3}: slope = {slope:.2}, r^2 = {r2:.4}");
    }
}
