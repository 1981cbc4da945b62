//! M1: any protocol × any graph × any arrival scenario through the
//! generic protocol harness (the `BENCH_matrix` CI artifact).
//! Flags: see `tlb_experiments::cli`.

use tlb_experiments::{cli, figures::protocol_matrix};

fn main() {
    cli::main(protocol_matrix::run);
}
