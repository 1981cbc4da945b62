//! One module per paper artifact / ablation; see `DESIGN.md` §3 for the
//! experiment index.
//!
//! | id | module | paper artifact | obs prefix |
//! |----|--------|----------------|------------|
//! | T1 | [`table1`] | Table 1 (mixing & hitting times) | `table1` |
//! | F1 | [`figure1`] | Figure 1 (balancing time vs `W`, two-point weights) | `figure1` |
//! | F2 | [`figure2`] | Figure 2 (normalized time vs `m`, single heavy task) | `figure2` |
//! | A1 | [`resource_scaling`] | Theorem 3 shape check | `scaling` |
//! | A2 | [`obs8`] | Observation 8 lower-bound family | `obs8` |
//! | A3 | [`alpha_sweep`] | α conservatism (§7 open question) | `alpha` |
//! | A4 | [`epsilon_sweep`] | tight vs above-average thresholds | `epsilon` |
//! | A5 | [`diffusion_expt`] | footnote-1 average estimation | `diffusion` |
//! | A6 | [`potential_decay`] | Lemma 10 drift vs measurement | `decay` |
//! | A7 | [`mixed`] | Section-8 future work: mixed protocol | `mixed` |
//! | A8 | [`related_work`] | Section-3 related-work allocators | `related` |
//! | M1 | [`protocol_matrix`] | every protocol × graph × arrival scenario | `matrix` |
//! | R1 | [`adversary`] | robustness: adaptive adversaries, failure domains, admission control | — |
//!
//! Every one-shot module (all but R1) has one shape: a `Config` that
//! implements [`crate::cli::Experiment`] and one `run(&Config) -> (Table,
//! ObsReport)` that prepares its sweep points, runs them through
//! [`Sweep::run`] as one pool batch, and folds the per-point trials into
//! table rows. Its `--bin` driver is one [`crate::cli::main`] call.

use tlb_core::protocol::EngineStats;
use tlb_obs::Registry;

use crate::harness;

pub mod adversary;
pub mod alpha_sweep;
pub mod diffusion_expt;
pub mod epsilon_sweep;
pub mod figure1;
pub mod figure2;
pub mod mixed;
pub mod obs8;
pub mod potential_decay;
pub mod protocol_matrix;
pub mod related_work;
pub mod resource_scaling;
pub mod table1;

/// One trial's result as [`Sweep::run`] sees it: the driver's own
/// payload plus the quantities the runner tallies.
#[derive(Debug, Clone, PartialEq)]
pub struct Trial<T> {
    /// What the driver's table summarizes.
    pub value: T,
    /// Protocol rounds the trial ran (diffusion steps for A5; 0 for
    /// trials without a round loop).
    pub rounds: u64,
    /// The round engine's counters, for trials run through a
    /// `*_with_stats` entry point.
    pub stats: Option<EngineStats>,
}

/// The whole-sweep runner every one-shot driver goes through. It names
/// the sweep's obs counters; [`run`](Self::run) does the rest.
#[derive(Debug, Clone, Copy)]
pub struct Sweep<'a> {
    prefix: &'a str,
    unit: &'a str,
}

impl<'a> Sweep<'a> {
    /// A sweep reporting under `prefix` (`alpha`, `scaling`, …), with
    /// its points counted as `<prefix>.points`.
    pub fn new(prefix: &'a str) -> Self {
        Sweep { prefix, unit: "points" }
    }

    /// Count the sweep points as `<prefix>.<unit>` instead (the protocol
    /// matrix calls them `cells`).
    pub fn unit(self, unit: &'a str) -> Self {
        Sweep { unit, ..self }
    }

    /// Run `point_seeds.len()` points × `trials` trials as **one**
    /// [`harness::run_sweep_map`] batch: trial `t` of point `i` runs
    /// `trial(i, trial_seed(point_seeds[i], t))`, so the payloads are
    /// bit-identical to a per-point loop at any thread count.
    ///
    /// Returns the payloads (point order, then trial order) and a
    /// registry already holding the sweep's report:
    ///
    /// * counters `<prefix>.<unit>`, `<prefix>.trials` and
    ///   `<prefix>.rounds`;
    /// * if any trial carried [`EngineStats`], their merge as
    ///   `<prefix>.walk_steps`, `.fused_word_draws`,
    ///   `.regular_fast_path_hits` and `.uniform_jump_draws` plus the
    ///   `<prefix>.max_round_cohort` gauge;
    /// * the batch wall time `<prefix>.sweep_ns`;
    /// * the rayon pool deltas the batch caused (`pool.threads`,
    ///   `pool.batches`, `pool.chunks_claimed`).
    ///
    /// The counters are pure functions of the payloads, so the
    /// `counters` subtree is byte-identical across thread counts and
    /// reruns. Drivers add their own counters to the registry before
    /// taking its snapshot.
    pub fn run<T, F>(&self, point_seeds: &[u64], trials: usize, trial: F) -> (Vec<Vec<T>>, Registry)
    where
        T: Send,
        F: Fn(usize, u64) -> Trial<T> + Sync,
    {
        let reg = Registry::new();
        let pool_base = rayon::pool_stats();
        let t_sweep = std::time::Instant::now();
        let results = harness::run_sweep_map(point_seeds, trials, trial);
        reg.record_ns(&self.key("sweep_ns"), t_sweep.elapsed().as_nanos() as u64);
        let pool = rayon::pool_stats();
        reg.set_exec("pool.threads", pool.threads as u64);
        reg.set_exec("pool.batches", pool.batches.saturating_sub(pool_base.batches));
        reg.set_exec(
            "pool.chunks_claimed",
            pool.chunks_claimed.saturating_sub(pool_base.chunks_claimed),
        );

        let mut merged: Option<EngineStats> = None;
        let values = results
            .into_iter()
            .map(|samples| {
                reg.add(&self.key(self.unit), 1);
                reg.add(&self.key("trials"), samples.len() as u64);
                reg.add(&self.key("rounds"), samples.iter().map(|t| t.rounds).sum());
                samples
                    .into_iter()
                    .map(|t| {
                        if let Some(stats) = &t.stats {
                            merged.get_or_insert_with(EngineStats::default).merge(stats);
                        }
                        t.value
                    })
                    .collect()
            })
            .collect();
        if let Some(stats) = merged {
            reg.add(&self.key("walk_steps"), stats.walk_steps);
            reg.add(&self.key("fused_word_draws"), stats.fused_word_draws);
            reg.add(&self.key("regular_fast_path_hits"), stats.regular_fast_path_hits);
            reg.add(&self.key("uniform_jump_draws"), stats.uniform_jump_draws);
            reg.set(&self.key("max_round_cohort"), stats.max_round_cohort);
        }
        (values, reg)
    }

    fn key(&self, name: &str) -> String {
        format!("{}.{name}", self.prefix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::Experiment;
    use crate::harness::trial_seed;
    use crate::output::Table;
    use tlb_obs::ObsReport;

    #[test]
    fn sweep_tallies_what_its_trials_report() {
        let seeds = [5u64, 6, 7];
        let (values, reg) = Sweep::new("t").run(&seeds, 4, |i, s| Trial {
            value: (i, s),
            rounds: s % 7,
            stats: Some(EngineStats {
                walk_steps: 2,
                max_round_cohort: s % 13,
                ..Default::default()
            }),
        });
        // Payloads come in point then trial order, with the harness seeds.
        for (i, point) in values.iter().enumerate() {
            assert!(point
                .iter()
                .enumerate()
                .all(|(t, &v)| v == (i, trial_seed(seeds[i], t as u64))));
        }
        let all = || values.iter().flatten().map(|&(_, s)| s);
        let obs = reg.snapshot();
        assert_eq!(obs.counters["t.points"], 3);
        assert_eq!(obs.counters["t.trials"], 12);
        assert_eq!(obs.counters["t.rounds"], all().map(|s| s % 7).sum::<u64>());
        assert_eq!(obs.counters["t.walk_steps"], 24);
        assert_eq!(obs.counters["t.max_round_cohort"], all().map(|s| s % 13).max().unwrap());
        assert!(obs.timings.contains_key("t.sweep_ns") && obs.exec.contains_key("pool.batches"));

        // Without engine stats there are no engine counters; `unit`
        // renames the point counter only.
        let (_, reg) = Sweep::new("u").unit("cells").run(&seeds, 2, |_, _| Trial {
            value: (),
            rounds: 1,
            stats: None,
        });
        let keys: Vec<String> = reg.snapshot().counters.into_keys().collect();
        assert_eq!(keys, ["u.cells", "u.rounds", "u.trials"]);
    }

    /// Run a driver twice at a small config and check the report shape
    /// every runner-driven driver shares.
    pub(crate) fn check<C: Experiment>(
        run: fn(&C) -> (Table, ObsReport),
        trials: usize,
        prefix: &str,
        unit: &str,
        nonzero: &[&str],
    ) {
        let mut cfg = C::quick();
        if let Some(t) = cfg.trials_mut() {
            *t = trials;
        }
        let (table, obs) = run(&cfg);
        let rows = table.rows.len() as u64;
        assert!(rows > 0, "{prefix}: empty table");
        assert_eq!(obs.counters[&format!("{prefix}.{unit}")], rows, "{prefix}: one point per row");
        assert_eq!(obs.counters[&format!("{prefix}.trials")], rows * trials as u64, "{prefix}");
        for key in nonzero {
            assert!(obs.counters[&format!("{prefix}.{key}")] > 0, "{prefix}.{key} is zero");
        }
        assert!(obs.timings.contains_key(&format!("{prefix}.sweep_ns")), "{prefix}: no sweep_ns");
        // The deterministic subtree is byte-stable run to run, and the
        // instrumentation leaves the table alone.
        let (again_table, again) = run(&cfg);
        assert_eq!(again_table, table, "{prefix}: table changed between runs");
        assert_eq!(again.counters_json(), obs.counters_json(), "{prefix}: counters drifted");
    }

    /// `alpha_sweep`, `epsilon_sweep`, `resource_scaling`,
    /// `potential_decay` and `protocol_matrix` make the same check from
    /// their own test modules.
    #[test]
    fn every_driver_reports_its_sweep_through_the_runner() {
        check(obs8::run, 2, "obs8", "points", &["rounds", "walk_steps"]);
        check(mixed::run, 2, "mixed", "points", &["rounds"]);
        check(figure1::run, 2, "figure1", "points", &["rounds", "uniform_jump_draws"]);
        check(figure2::run, 2, "figure2", "points", &["rounds", "uniform_jump_draws"]);
        check(related_work::run, 2, "related", "points", &[]);
        // The measurement drivers have no trial count: one run per point.
        check(table1::run, 1, "table1", "points", &[]);
        check(diffusion_expt::run, 1, "diffusion", "points", &["rounds"]);
    }
}
