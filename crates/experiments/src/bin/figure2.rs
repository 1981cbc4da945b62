//! Regenerate the paper's Figure 2 (normalized balancing time vs m per w_max).
//! Flags: see `tlb_experiments::cli`.

use tlb_experiments::{cli, figures::figure2};

fn main() {
    let (cfg, table) = cli::main(figure2::run);
    let (flatness, (slope, r2)) = figure2::shape_checks(&cfg, &table);
    println!("\nper-w_max flatness of rounds/log m (max/min over m):");
    for (w, ratio) in flatness {
        println!("  w_max = {w:>4}: {ratio:.2}x");
    }
    println!("plateau ~ a + b*w_max fit: slope = {slope:.4}, r^2 = {r2:.4}");
}
