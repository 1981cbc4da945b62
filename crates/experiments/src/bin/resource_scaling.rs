//! A1: resource-controlled balancing time vs tau(G) log m (Theorem 3 shape).
//! Flags: see `tlb_experiments::cli`.

use tlb_experiments::{cli, figures::resource_scaling};

fn main() {
    cli::main(resource_scaling::run);
}
