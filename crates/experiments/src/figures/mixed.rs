//! **A7 — mixed protocol** (paper Section 8 future work): the mixed
//! resource/user protocol head-to-head against both paper protocols.
//!
//! On the complete graph all three should land in the same
//! `O(log m)`-ish regime; on sparse graphs the user-controlled protocol is
//! unavailable (it needs uniform jumps) and the comparison is mixed vs
//! resource-controlled — the mixed protocol trades slower single-round
//! drain (Bernoulli departures) for the same walk-limited spreading.
//!
//! All `(family × protocol)` cells run as one [`Sweep`] batch (obs
//! prefix `mixed`) through the protocol-generic
//! [`harness::run_protocol_once_with_stats`] — each cell is a [`ProtocolPoint`]
//! holding its [`ProtocolKind`], so adding a fourth protocol is one more
//! point, not another hand-rolled closure.

use tlb_core::mixed_protocol::{Departure, MixedConfig};
use tlb_core::placement::Placement;
use tlb_core::protocol::ProtocolKind;
use tlb_core::resource_protocol::ResourceControlledConfig;
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

/// Configuration for the mixed-protocol comparison.
#[derive(Debug, Clone)]
pub struct Config {
    /// Approximate graph size per family.
    pub size: usize,
    /// Tasks per resource.
    pub tasks_per_node: usize,
    /// Trials per point.
    pub trials: usize,
    /// Base seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config { size: 256, tasks_per_node: 10, trials: 100, seed: 0xA7 }
    }
}

impl Experiment for Config {
    fn quick() -> Self {
        Config { size: 64, trials: 15, ..Default::default() }
    }

    fn trials_mut(&mut self) -> Option<&mut usize> {
        Some(&mut self.trials)
    }
}

/// Run the comparison. Columns: family, protocol, rounds_mean,
/// rounds_ci95, migrations_mean.
pub fn run(cfg: &Config) -> (Table, ObsReport) {
    let mut table = Table::new(
        "mixed_comparison",
        format!(
            "A7/Section 8: mixed protocol vs the paper's two (size~{}, {} trials, Pareto weights)",
            cfg.size, cfg.trials
        ),
        &["family", "protocol", "rounds_mean", "rounds_ci95", "migrations_mean"],
    );
    // One ProtocolPoint per (family × protocol) cell, in row order. The
    // seed salts (^1 resource, ^2 mixed, ^3 user) are unchanged from the
    // per-protocol loops this sweep replaces.
    let mut points: Vec<(Family, ProtocolPoint)> = Vec::new();
    for family in [Family::Complete, Family::RegularExpander, Family::Grid] {
        let (g, kind) = build_family(family, cfg.size, cfg.seed);
        let m = g.num_nodes() * cfg.tasks_per_node;
        let spec = WeightSpec::ParetoTruncated { m, alpha: 1.5, cap: 32.0 };
        let mk = |protocol: ProtocolKind, salt: u64| ProtocolPoint {
            graph: g.clone(),
            weights: spec.clone(),
            placement: Placement::AllOnOne(0),
            protocol: MatrixProtocol::Core(protocol),
            seed: cfg.seed ^ salt,
        };
        points.push((
            family,
            mk(
                ProtocolKind::Resource(ResourceControlledConfig {
                    walk: kind,
                    ..Default::default()
                }),
                1,
            ),
        ));
        points.push((
            family,
            mk(
                ProtocolKind::Mixed(MixedConfig {
                    departure: Departure::Bernoulli,
                    walk: kind,
                    ..Default::default()
                }),
                2,
            ),
        ));
        if family == Family::Complete {
            points.push((family, mk(ProtocolKind::User(UserControlledConfig::default()), 3)));
        }
    }
    let seeds: Vec<u64> = points.iter().map(|(_, p)| p.seed).collect();
    let (results, reg) = Sweep::new("mixed").run(&seeds, cfg.trials, |i, s| {
        let (outcome, stats) = harness::run_protocol_once_with_stats(&points[i].1, s);
        Trial { rounds: outcome.rounds, value: outcome, stats: Some(stats) }
    });
    for ((family, point), outcomes) in points.iter().zip(&results) {
        let rounds: Vec<f64> = outcomes.iter().map(|o| o.rounds as f64).collect();
        let migs: Vec<f64> = outcomes.iter().map(|o| o.migrations as f64).collect();
        let rs = Summary::of(&rounds);
        let ms = Summary::of(&migs);
        table.push_row(vec![
            family.name().to_string(),
            point.protocol.label(),
            format!("{:.2}", rs.mean),
            format!("{:.2}", rs.ci95),
            format!("{:.0}", ms.mean),
        ]);
    }
    (table, reg.snapshot())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_covers_three_families_and_protocols() {
        let cfg = Config::quick();
        let (t, _) = run(&cfg);
        // complete: 3 protocols; expander + grid: 2 each = 7 rows
        assert_eq!(t.rows.len(), 7);
        for r in t.column_f64("rounds_mean") {
            assert!(r >= 1.0);
        }
    }

    #[test]
    fn mixed_and_user_agree_on_complete_graph() {
        let cfg = Config::quick();
        let (t, _) = run(&cfg);
        let get = |proto: &str| -> f64 {
            t.rows
                .iter()
                .find(|r| r[0] == "Complete Graph" && r[1] == proto)
                .map(|r| r[2].parse().unwrap())
                .unwrap()
        };
        let mixed = get("mixed");
        let user = get("user");
        let ratio = mixed / user;
        assert!((0.4..=2.5).contains(&ratio), "mixed {mixed} vs user {user}");
    }
}
