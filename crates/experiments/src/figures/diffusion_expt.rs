//! **A5 — footnote-1 diffusion**: how fast the resources' average-load
//! estimates converge, per graph family.
//!
//! The paper assumes the threshold's `W/n` term is obtainable by running
//! continuous diffusion for mixing-time many steps. This experiment starts
//! from the adversarial hotspot load vector (all weight on node 0),
//! measures the steps to reach 1% relative error per Table-1 family, and
//! reports the ratio to the measured Lemma-2 mixing time — confirming the
//! footnote's "mixing time number of steps" claim.

use tlb_core::diffusion::{estimate_average_to_tolerance, DiffusionKind};
use tlb_graphs::generators::Family;
use tlb_obs::ObsReport;
use tlb_walks::mixing;
use tlb_walks::spectral::spectral_gap_power;
use tlb_walks::TransitionMatrix;

use super::{Sweep, Trial};
use crate::cli::Experiment;
use crate::figures::table1::build_family;
use crate::output::Table;

/// Configuration for the diffusion experiment.
#[derive(Debug, Clone)]
pub struct Config {
    /// Approximate nodes per family.
    pub size: usize,
    /// Relative error target (fraction of the true average).
    pub rel_tol: f64,
    /// Step cap.
    pub max_steps: usize,
    /// Seed for the randomized families.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config { size: 256, rel_tol: 0.01, max_steps: 2_000_000, seed: 0xA5 }
    }
}

impl Experiment for Config {
    fn quick() -> Self {
        Config { size: 64, max_steps: 200_000, ..Default::default() }
    }

    fn trials_mut(&mut self) -> Option<&mut usize> {
        None
    }
}

/// Run the experiment. Columns: family, n, steps_to_tol, tau_lemma2,
/// steps_over_tau. Every family is one point of a [`Sweep`] batch (obs
/// prefix `diffusion`, the diffusion steps counted as rounds) with a
/// single trial; the measurement is deterministic, so the trial seed
/// goes unused.
pub fn run(cfg: &Config) -> (Table, ObsReport) {
    let mut table = Table::new(
        "diffusion",
        format!(
            "A5/footnote 1: diffusion steps to {}% error vs mixing time (size~{})",
            cfg.rel_tol * 100.0,
            cfg.size
        ),
        &["family", "n", "steps_to_tol", "tau_lemma2", "steps_over_tau"],
    );
    let (results, reg) =
        Sweep::new("diffusion").run(&vec![cfg.seed; Family::ALL.len()], 1, |i, _| {
            let (g, kind) = build_family(Family::ALL[i], cfg.size, cfg.seed);
            let n = g.num_nodes();
            // Hotspot initial loads: everything on node 0; average = 1.
            let mut init = vec![0.0; n];
            init[0] = n as f64;
            // Damped diffusion: convergent on every family (the pure
            // max-degree chain is periodic on the bipartite ones).
            let (_, steps) = estimate_average_to_tolerance(
                &g,
                &init,
                cfg.rel_tol,
                cfg.max_steps,
                DiffusionKind::Damped,
            );
            let p = TransitionMatrix::build(&g, kind);
            let gap = spectral_gap_power(&p, &g, 1e-10, 100_000);
            let tau = mixing::lemma2_mixing_time(n, &gap).unwrap_or(u64::MAX) as f64;
            Trial { value: (n, steps, tau), rounds: steps as u64, stats: None }
        });
    for (family, &(n, steps, tau)) in Family::ALL.iter().zip(results.iter().flatten()) {
        table.push_row(vec![
            family.name().to_string(),
            n.to_string(),
            steps.to_string(),
            format!("{tau:.1}"),
            format!("{:.3}", steps as f64 / tau),
        ]);
    }
    (table, reg.snapshot())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_families_converge_within_cap() {
        let cfg = Config::quick();
        let (t, _) = run(&cfg);
        assert_eq!(t.rows.len(), Family::ALL.len());
        for (row, steps) in t.rows.iter().zip(t.column_f64("steps_to_tol")) {
            assert!((steps as usize) < cfg.max_steps, "family {} did not converge", row[0]);
        }
    }

    #[test]
    fn diffusion_steps_track_mixing_time() {
        // Steps/tau should be O(1)-ish: never more than a few multiples of
        // the Lemma-2 bound (which is itself conservative).
        let cfg = Config::quick();
        let (t, _) = run(&cfg);
        for ratio in t.column_f64("steps_over_tau") {
            assert!(ratio < 5.0, "diffusion needed {ratio}x the mixing time");
        }
    }
}
