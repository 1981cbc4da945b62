//! A7: the Section-8 mixed protocol vs the paper's two protocols.
//! Flags: see `tlb_experiments::cli`.

use tlb_experiments::{cli, figures::mixed};

fn main() {
    cli::main(mixed::run);
}
