//! # tlb-bench
//!
//! The CI perf binaries and the helpers they share. Each binary writes a
//! `BENCH_*.json` snapshot, and `ci/baselines/` keeps the checked-in
//! references:
//!
//! | binary          | snapshot | measures |
//! |-----------------|----------|----------|
//! | `harness_smoke` | `BENCH_harness`, `BENCH_sweep` | trial-harness throughput (sequential vs pool), walk-kernel steps/sec, sweep scheduling |
//! | `scale_sweep`   | `BENCH_scale`, `BENCH_obs` | sharded online-engine throughput over a grid of sizes |
//! | `bench_compare` | — | diffs two snapshots and flags regressions |
//!
//! End-to-end and per-layer timings of the online epoch, the walk kernels
//! and the one-shot trials live in the separate `perfbench/` package, and
//! every experiment driver reports its sweep time through `--obs-out`.

pub mod rss;
pub mod workloads;
