//! Regenerate the paper's Table 1 (mixing & hitting times per family).
//! Flags: see `tlb_experiments::cli`.

use tlb_experiments::{cli, figures::table1};

fn main() {
    cli::main(table1::run);
}
