//! **M1 — protocol matrix**: any protocol × any graph × any arrival
//! scenario, through one generic harness path.
//!
//! The cross-product no pre-trait layer could express: all three paper
//! protocols (resource-, user-controlled, mixed) *and* the related-work
//! baselines (`Greedy[d]`, `(1+β)`, sequential/parallel threshold-retry)
//! run through [`harness::run_protocol_once`] over every configured
//! graph family and arrival scenario (initial placement × weight
//! distribution), as **one** [`Sweep`] batch. Every cell
//! reports balancing rounds, migration volume, and completion rate
//! against the same threshold policy — the apples-to-apples comparison
//! the shared round engine exists for.
//!
//! The driver persists `protocol_matrix.{csv,json}`; CI smoke-runs it
//! under `RAYON_NUM_THREADS=1` and `4`, requires byte-identical JSON, and
//! uploads the snapshot as the `BENCH_matrix` artifact.

use tlb_baselines::{BaselineConfig, BaselineRule};
use tlb_core::mixed_protocol::MixedConfig;
use tlb_core::placement::Placement;
use tlb_core::protocol::ProtocolKind;
use tlb_core::resource_protocol::ResourceControlledConfig;
use tlb_core::threshold::ThresholdPolicy;
use tlb_core::user_protocol::UserControlledConfig;
use tlb_core::weights::WeightSpec;
use tlb_graphs::generators::Family;
use tlb_obs::ObsReport;

use super::{Sweep, Trial};
use crate::cli::Experiment;
use crate::figures::table1::build_family;
use crate::harness::{self, MatrixProtocol, ProtocolPoint};
use crate::output::Table;
use crate::stats::Summary;

/// Configuration of the protocol matrix.
#[derive(Debug, Clone)]
pub struct Config {
    /// Approximate graph size per family.
    pub size: usize,
    /// Tasks per resource (`m = tasks_per_node · n`).
    pub tasks_per_node: usize,
    /// Graph families swept.
    pub families: Vec<Family>,
    /// Arrival scenarios swept (placement label, placement): where the
    /// workload sits before rebalancing starts.
    pub scenarios: Vec<Scenario>,
    /// Weight workloads swept (label, heavy-task cap — `1.0` = uniform).
    pub pareto: bool,
    /// Threshold slack shared by every cell.
    pub epsilon: f64,
    /// Safety cap on rounds (cells that hit it report `completed < 1`).
    pub max_rounds: u64,
    /// Trials per cell.
    pub trials: usize,
    /// Base seed.
    pub seed: u64,
}

/// An arrival scenario: how the workload lands before rebalancing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scenario {
    /// Everything on resource 0 (the adversarial hotspot of Section 7).
    Hotspot,
    /// Uniformly random initial placement (a scattered arrival wave).
    Scattered,
}

impl Scenario {
    /// Report/CSV key.
    pub fn label(&self) -> &'static str {
        match self {
            Scenario::Hotspot => "hotspot",
            Scenario::Scattered => "scattered",
        }
    }

    fn placement(&self) -> Placement {
        match self {
            Scenario::Hotspot => Placement::AllOnOne(0),
            Scenario::Scattered => Placement::UniformRandom,
        }
    }
}

impl Default for Config {
    fn default() -> Self {
        Config {
            size: 128,
            tasks_per_node: 10,
            families: vec![Family::Complete, Family::RegularExpander, Family::Grid],
            scenarios: vec![Scenario::Hotspot, Scenario::Scattered],
            pareto: true,
            epsilon: 0.2,
            max_rounds: 100_000,
            trials: 50,
            seed: 0xA9,
        }
    }
}

impl Experiment for Config {
    fn quick() -> Self {
        Config {
            size: 32,
            families: vec![Family::Complete, Family::Grid],
            pareto: false,
            trials: 5,
            ..Default::default()
        }
    }

    fn trials_mut(&mut self) -> Option<&mut usize> {
        Some(&mut self.trials)
    }
}

/// The protocol roster every matrix run covers: the three paper
/// protocols plus four baseline rules, all against the same threshold
/// policy and round cap.
fn roster(
    threshold: ThresholdPolicy,
    max_rounds: u64,
    walk: tlb_walks::WalkKind,
) -> Vec<MatrixProtocol> {
    let base = |rule| {
        MatrixProtocol::Baseline(BaselineConfig {
            threshold,
            rule,
            max_rounds,
            ..Default::default()
        })
    };
    vec![
        MatrixProtocol::Core(ProtocolKind::Resource(ResourceControlledConfig {
            threshold,
            walk,
            max_rounds,
            ..Default::default()
        })),
        MatrixProtocol::Core(ProtocolKind::User(UserControlledConfig {
            threshold,
            max_rounds,
            ..Default::default()
        })),
        MatrixProtocol::Core(ProtocolKind::Mixed(MixedConfig {
            threshold,
            walk,
            max_rounds,
            ..Default::default()
        })),
        base(BaselineRule::Greedy { d: 2 }),
        base(BaselineRule::OnePlusBeta { beta: 0.5 }),
        base(BaselineRule::SequentialThreshold { retries: 4 }),
        base(BaselineRule::ParallelThreshold),
    ]
}

/// Run the matrix. Columns: protocol, family, scenario, workload, n, m,
/// rounds_mean, rounds_ci95, migrations_mean, completed_fraction.
///
/// The obs report counts the sweep under the `matrix` prefix, with the
/// points called `cells`, and adds the deterministic per-cell totals
/// `matrix.migrations` and `matrix.completed_trials`.
pub fn run(cfg: &Config) -> (Table, ObsReport) {
    let mut table = Table::new(
        "protocol_matrix",
        format!(
            "M1: every protocol x graph x arrival scenario through the generic harness (size~{}, eps={}, {} trials)",
            cfg.size, cfg.epsilon, cfg.trials
        ),
        &[
            "protocol",
            "family",
            "scenario",
            "workload",
            "n",
            "m",
            "rounds_mean",
            "rounds_ci95",
            "migrations_mean",
            "completed_fraction",
        ],
    );
    let threshold = ThresholdPolicy::AboveAverage { epsilon: cfg.epsilon };
    // Build every (family × scenario × workload × protocol) cell. The
    // per-cell seed mixes the cell's coordinates so no two cells share a
    // trial-seed stream.
    struct Cell {
        family: Family,
        scenario: Scenario,
        workload: &'static str,
        n: usize,
        m: usize,
        point: ProtocolPoint,
    }
    let mut cells: Vec<Cell> = Vec::new();
    for (fi, &family) in cfg.families.iter().enumerate() {
        let (g, walk) = build_family(family, cfg.size, cfg.seed);
        let n = g.num_nodes();
        let m = n * cfg.tasks_per_node;
        let mut workloads: Vec<(&'static str, WeightSpec)> =
            vec![("uniform", WeightSpec::Uniform { m })];
        if cfg.pareto {
            workloads.push(("pareto", WeightSpec::ParetoTruncated { m, alpha: 1.5, cap: 32.0 }));
        }
        for (si, &scenario) in cfg.scenarios.iter().enumerate() {
            for (wi, (wname, spec)) in workloads.iter().enumerate() {
                for (pi, protocol) in
                    roster(threshold, cfg.max_rounds, walk).into_iter().enumerate()
                {
                    cells.push(Cell {
                        family,
                        scenario,
                        workload: wname,
                        n,
                        m,
                        point: ProtocolPoint {
                            graph: g.clone(),
                            weights: spec.clone(),
                            placement: scenario.placement(),
                            protocol,
                            seed: cfg.seed
                                ^ ((fi as u64) << 48)
                                ^ ((si as u64) << 40)
                                ^ ((wi as u64) << 32)
                                ^ ((pi as u64) << 24),
                        },
                    });
                }
            }
        }
    }
    let seeds: Vec<u64> = cells.iter().map(|c| c.point.seed).collect();
    let (results, reg) = Sweep::new("matrix").unit("cells").run(&seeds, cfg.trials, |i, s| {
        let outcome = harness::run_protocol_once(&cells[i].point, s);
        Trial { rounds: outcome.rounds, value: outcome, stats: None }
    });
    for (cell, outcomes) in cells.iter().zip(&results) {
        // Deterministic sweep totals: u64 sums over outcomes, identical
        // no matter how the pool scheduled the trials.
        reg.add("matrix.migrations", outcomes.iter().map(|o| o.migrations).sum());
        reg.add("matrix.completed_trials", outcomes.iter().filter(|o| o.completed).count() as u64);
        let rounds: Vec<f64> = outcomes.iter().map(|o| o.rounds as f64).collect();
        let migs: Vec<f64> = outcomes.iter().map(|o| o.migrations as f64).collect();
        let completed =
            outcomes.iter().filter(|o| o.completed).count() as f64 / outcomes.len() as f64;
        let rs = Summary::of(&rounds);
        let ms = Summary::of(&migs);
        table.push_row(vec![
            cell.point.protocol.label(),
            cell.family.name().to_string(),
            cell.scenario.label().to_string(),
            cell.workload.to_string(),
            cell.n.to_string(),
            cell.m.to_string(),
            format!("{:.2}", rs.mean),
            format!("{:.2}", rs.ci95),
            format!("{:.0}", ms.mean),
            format!("{completed:.2}"),
        ]);
    }
    (table, reg.snapshot())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_matrix_covers_every_cell() {
        let cfg = Config::quick();
        let (t, obs) = run(&cfg);
        // 7 protocols × 2 families × 2 scenarios × 1 workload.
        assert_eq!(t.rows.len(), 7 * 2 * 2);
        // All three paper protocols and all four baselines appear.
        for label in [
            "resource",
            "user",
            "mixed",
            "greedy2",
            "one_plus_beta",
            "seq_threshold",
            "par_threshold",
        ] {
            assert!(t.rows.iter().any(|r| r[0] == label), "missing protocol {label}");
        }
        for frac in t.column_f64("completed_fraction") {
            assert!(frac > 0.0, "some protocol never completed");
        }
        assert!(obs.counters["matrix.completed_trials"] <= obs.counters["matrix.trials"]);
    }

    #[test]
    fn matrix_runs_are_deterministic() {
        let cfg = Config::quick();
        assert_eq!(run(&cfg).0, run(&cfg).0);
    }

    #[test]
    fn hotspot_is_no_easier_than_scattered_for_the_resource_protocol() {
        let cfg = Config::quick();
        let (t, _) = run(&cfg);
        let mean = |scenario: &str| -> f64 {
            let rows: Vec<f64> = t
                .rows
                .iter()
                .filter(|r| r[0] == "resource" && r[2] == scenario)
                .map(|r| r[6].parse::<f64>().unwrap())
                .collect();
            rows.iter().sum::<f64>() / rows.len() as f64
        };
        assert!(
            mean("hotspot") >= mean("scattered"),
            "hotspot {} vs scattered {}",
            mean("hotspot"),
            mean("scattered")
        );
    }

    #[test]
    fn obs_counters_aggregate_the_sweep_deterministically() {
        crate::figures::tests::check(run, 2, "matrix", "cells", &["rounds", "migrations"]);
    }
}
