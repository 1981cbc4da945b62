//! A5: footnote-1 diffusion average estimation vs mixing time.
//! Flags: see `tlb_experiments::cli`.

use tlb_experiments::{cli, figures::diffusion_expt};

fn main() {
    cli::main(diffusion_expt::run);
}
