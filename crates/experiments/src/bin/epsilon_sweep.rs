//! A4: tight vs above-average thresholds for the user-controlled protocol.
//! Flags: see `tlb_experiments::cli`.

use tlb_experiments::{cli, figures::epsilon_sweep};

fn main() {
    cli::main(epsilon_sweep::run);
}
