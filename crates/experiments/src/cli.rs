//! The command line of the twelve one-shot experiment drivers: each
//! `--bin` is one call to [`main`] (plus shape-check print-outs in
//! `figure1`, `figure2` and `related_work`). Every driver understands:
//!
//! * `--quick` — run the reduced configuration (smoke-test scale),
//! * `--full` — run the default configuration at [`FULL_TRIALS`] trials
//!   per data point, the paper's Section-7 scale,
//! * `--trials N` — override the trial count (`N >= 1`),
//! * `--out DIR` — results directory (default `results/`),
//! * `--obs-out PATH` — also write the sweep's `tlb-obs` report (see
//!   [`crate::figures::Sweep::run`]) to `PATH`.
//!
//! `table1` and `diffusion_demo` have no trials, so `--full` and
//! `--trials` change nothing there. `--full` and `--quick` are mutually
//! exclusive. `online_sim` and `adversary_sweep` have their own flags.

use std::path::PathBuf;

use tlb_obs::ObsReport;

use crate::output::Table;

/// Trials per data point under `--full` (Section 7 of the paper).
pub const FULL_TRIALS: usize = 1000;

/// A one-shot driver's configuration, as [`main`] selects it: `--quick`
/// picks [`quick`](Self::quick), anything else starts from
/// [`Default`].
pub trait Experiment: Default {
    /// The reduced configuration (smoke tests, benches, CI).
    fn quick() -> Self;

    /// The trial count `--full` and `--trials` set; `None` for the
    /// measurement drivers, which have no trials.
    fn trials_mut(&mut self) -> Option<&mut usize>;
}

/// Parsed common options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Options {
    /// Use the reduced configuration.
    pub quick: bool,
    /// Use the paper-fidelity (Section-7 scale) configuration.
    pub full: bool,
    /// Trial-count override.
    pub trials: Option<usize>,
    /// Output directory for CSV/JSON artifacts.
    pub out_dir: PathBuf,
    /// Destination for the driver's observability report.
    pub obs_out: Option<PathBuf>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            quick: false,
            full: false,
            trials: None,
            out_dir: PathBuf::from("results"),
            obs_out: None,
        }
    }
}

impl Options {
    /// Parse from an iterator of arguments (without the program name).
    ///
    /// # Panics
    /// On unknown flags or malformed values — the binaries are internal
    /// tools, loud failure beats silent misconfiguration.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Options {
        let mut opts = Options::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--quick" => opts.quick = true,
                "--full" => opts.full = true,
                "--trials" => {
                    let v = it.next().expect("--trials needs a value");
                    let trials = v.parse().expect("--trials value must be an integer");
                    // Zero trials would run the sweep and then fail to
                    // summarize an empty sample.
                    assert!(trials >= 1, "--trials must be at least 1, got 0");
                    opts.trials = Some(trials);
                }
                "--out" => {
                    opts.out_dir = PathBuf::from(it.next().expect("--out needs a value"));
                }
                "--obs-out" => {
                    opts.obs_out = Some(PathBuf::from(it.next().expect("--obs-out needs a value")));
                }
                "--help" | "-h" => {
                    eprintln!(
                        "usage: [--quick | --full] [--trials N] [--out DIR] [--obs-out PATH]"
                    );
                    std::process::exit(0);
                }
                other => panic!("unknown argument: {other}"),
            }
        }
        assert!(!(opts.quick && opts.full), "--quick and --full are mutually exclusive");
        opts
    }

    /// Parse from the process arguments.
    pub fn from_env() -> Options {
        Options::parse(std::env::args().skip(1))
    }

    /// The configuration these options select: the quick or the default
    /// one, at [`FULL_TRIALS`] trials under `--full`, then at `--trials`
    /// if given.
    pub fn config<C: Experiment>(&self) -> C {
        let mut cfg = if self.quick { C::quick() } else { C::default() };
        if let Some(trials) = cfg.trials_mut() {
            if self.full {
                *trials = FULL_TRIALS;
            }
            if let Some(t) = self.trials {
                *trials = t;
            }
        }
        cfg
    }
}

/// The `main` of a one-shot driver: parse the process arguments, select
/// the configuration, run it, print the table, save
/// `<out>/<name>.{csv,json}` and, with `--obs-out`, the obs report.
/// Returns the configuration and the table for driver-specific
/// print-outs.
///
/// # Panics
/// On bad arguments or when an artifact cannot be written.
pub fn main<C: Experiment>(run: fn(&C) -> (Table, ObsReport)) -> (C, Table) {
    let opts = Options::from_env();
    let cfg = opts.config::<C>();
    let (table, obs) = run(&cfg);
    print!("{}", table.render());
    let path = table.save(&opts.out_dir).expect("write results");
    eprintln!("saved {}", path.display());
    if let Some(obs_out) = &opts.obs_out {
        std::fs::write(obs_out, format!("{}\n", obs.to_json()))
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", obs_out.display()));
        eprintln!("saved {}", obs_out.display());
    }
    (cfg, table)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Options {
        Options::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let o = parse(&[]);
        assert!(!o.quick);
        assert_eq!(o.trials, None);
        assert_eq!(o.out_dir, PathBuf::from("results"));
    }

    #[test]
    fn all_flags() {
        let o = parse(&["--quick", "--trials", "42", "--out", "/tmp/x", "--obs-out", "obs.json"]);
        assert!(o.quick);
        assert!(!o.full);
        assert_eq!(o.trials, Some(42));
        assert_eq!(o.out_dir, PathBuf::from("/tmp/x"));
        assert_eq!(o.obs_out, Some(PathBuf::from("obs.json")));
    }

    #[test]
    fn obs_out_defaults_to_none() {
        assert_eq!(parse(&[]).obs_out, None);
    }

    #[test]
    fn full_flag() {
        let o = parse(&["--full"]);
        assert!(o.full && !o.quick);
    }

    #[test]
    #[should_panic(expected = "mutually exclusive")]
    fn quick_and_full_conflict() {
        parse(&["--quick", "--full"]);
    }

    #[test]
    #[should_panic(expected = "unknown argument")]
    fn unknown_flag_panics() {
        parse(&["--wat"]);
    }

    #[test]
    #[should_panic(expected = "needs a value")]
    fn missing_value_panics() {
        parse(&["--trials"]);
    }

    #[test]
    #[should_panic(expected = "--trials must be at least 1")]
    fn zero_trials_rejected() {
        parse(&["--trials", "0"]);
    }

    #[test]
    fn config_selection() {
        use crate::figures::{alpha_sweep, table1};
        let trials = |args: &[&str]| parse(args).config::<alpha_sweep::Config>().trials;
        assert_eq!(trials(&[]), alpha_sweep::Config::default().trials);
        assert_eq!(trials(&["--quick"]), <alpha_sweep::Config as Experiment>::quick().trials);
        assert_eq!(trials(&["--full"]), FULL_TRIALS);
        assert_eq!(trials(&["--full", "--trials", "7"]), 7);
        assert_eq!(trials(&["--quick", "--trials", "3"]), 3);
        // A driver without trials ignores both.
        let sizes = parse(&["--full", "--trials", "7"]).config::<table1::Config>().sizes;
        assert_eq!(sizes, table1::Config::default().sizes);
    }
}
