//! A3: balancing time vs alpha (how conservative is the analysis alpha?).
//! Flags: see `tlb_experiments::cli`.

use tlb_experiments::{cli, figures::alpha_sweep};

fn main() {
    cli::main(alpha_sweep::run);
}
