//! # tlb-experiments
//!
//! Experiment harness regenerating every table and figure of *Threshold
//! Load Balancing with Weighted Tasks*, plus the ablations catalogued in
//! `DESIGN.md` (experiment ids T1, F1, F2, A1–A6).
//!
//! Structure:
//!
//! * [`harness`] — rayon-parallel trial fan-out with deterministic
//!   per-trial seeding (this is the hpc-parallel axis of the
//!   reproduction: trials are embarrassingly parallel and scale linearly
//!   with cores),
//! * [`stats`] — mean / standard deviation / 95% confidence intervals,
//! * [`output`] — aligned-text tables and CSV/JSON persistence under
//!   `results/`,
//! * [`figures`] — one module per paper artifact (Table 1, Figures 1–2)
//!   and per ablation, each exposing a `run(&Config) -> (Table,
//!   ObsReport)` function over the one whole-sweep runner
//!   [`figures::Sweep`],
//! * [`cli`] — the command line every one-shot `--bin` driver shares
//!   ([`cli::main`]).
//!
//! Every experiment accepts a quality knob (trial count, sweep density) so
//! the same code path serves quick smoke runs and full paper-fidelity
//! regeneration.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cli;
pub mod figures;
pub mod harness;
pub mod output;
pub mod stats;
