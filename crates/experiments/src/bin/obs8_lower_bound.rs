//! A2: Observation-8 lower-bound family (lollipop, tight thresholds).
//! Flags: see `tlb_experiments::cli`.

use tlb_experiments::{cli, figures::obs8};

fn main() {
    cli::main(obs8::run);
}
