//! A6: measured potential decay vs Lemma 10's analytic delta.
//! Flags: see `tlb_experiments::cli`.

use tlb_experiments::{cli, figures::potential_decay};

fn main() {
    cli::main(potential_decay::run);
}
