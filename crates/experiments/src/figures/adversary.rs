//! **R1 — adversary sweep**: the robustness layer under attack — how
//! much worse can an *adaptive* adversary make the online engine than
//! the oblivious arrival streams, and how fast does admission control
//! bring a fleet back after losing a whole failure domain.
//!
//! Two grids, both fully deterministic (bit-identical across thread and
//! shard counts, like every `tlb-sim` run):
//!
//! * **Overload gap** — one run per adversary: oblivious placements
//!   (`Uniform`, `HotSpot`) against the informed ones (`MostLoaded` and
//!   the scrape-driven `Adaptive` placement paired with
//!   `DomainSteering::Adaptive`), all over the same failure-domain
//!   churn. Each run reports its *gap*: `max_load / threshold`
//!   averaged (and peaked) over the post-warmup window — how far above
//!   the protocol's own target the adversary holds the worst resource.
//!   The acceptance property (pinned in this module's tests and in the
//!   CI `chaos` job): the adaptive adversary's gap strictly exceeds
//!   every oblivious placement's.
//!
//! * **Recovery** — one run per admission policy (`none`,
//!   `token_bucket`, `load_shed`) through a scripted whole-domain
//!   outage. Each run reports the fraction of offered work it shed and
//!   its *recovery time*: epochs after the domain returns until
//!   `max_load` first falls back to the pre-outage peak. Load shedding
//!   must recover within a bounded number of epochs — also pinned.
//!
//! Every cell audits its engine after the run ([`OnlineSim::audit`]:
//! conservation, cached loads and `w_max`, no task on an inactive
//! resource) and panics on a broken invariant, so CI's `chaos` job
//! checks the audit across its whole thread × shard grid.
//!
//! The driver (`adversary_sweep`) persists the grid as
//! `adversary_sweep.{csv,json}` plus the `BENCH_adversary.json`
//! snapshot; no wall-clock field enters the snapshot, so CI byte-diffs
//! it across `RAYON_NUM_THREADS` × shard counts.

use tlb_graphs::generators::torus2d;
use tlb_sim::{
    AdmissionPolicy, ArrivalPlacement, ArrivalProcess, ChurnEvent, DomainSpec, DomainSteering,
    OnlineSim, OutageDuration, SimConfig, SimReport,
};

use crate::output::Table;

/// Configuration of the adversary sweep.
#[derive(Debug, Clone)]
pub struct Config {
    /// Torus side; the fleet is `side × side` resources.
    pub side: usize,
    /// How many failure domains the fleet splits into (equal contiguous
    /// id ranges; must divide `side²`). Few large domains make an
    /// outage a serious capacity event.
    pub racks: usize,
    /// Epochs per run.
    pub epochs: u64,
    /// Epochs discarded before gap statistics start.
    pub warmup: u64,
    /// Poisson arrival rate (tasks per epoch).
    pub rate: f64,
    /// Per-task per-epoch departure probability.
    pub departure_prob: f64,
    /// Protocol-round budget per epoch (kept scarce so an adversary has
    /// residual imbalance to exploit).
    pub rounds_per_epoch: u64,
    /// Stochastic whole-rack outage probability per epoch (gap grid).
    pub domain_outage: f64,
    /// Scripted outage for the recovery grid: the first rack goes down
    /// at `warmup` for this many epochs.
    pub outage_epochs: u64,
    /// Base seed shared by every cell.
    pub seed: u64,
    /// Shard count of the rebalancing pass (output-invariant; the CI
    /// chaos job crosses it with thread counts and byte-diffs).
    pub shards: usize,
    /// Recorded in the snapshot so baselines at different scales never
    /// diff clean.
    pub quick: bool,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            side: 12,
            racks: 3,
            epochs: 400,
            warmup: 60,
            rate: 120.0,
            departure_prob: 0.1,
            rounds_per_epoch: 4,
            domain_outage: 0.08,
            outage_epochs: 40,
            seed: 0xAD5E,
            shards: 1,
            quick: false,
        }
    }
}

impl Config {
    /// Reduced configuration for smoke tests and the CI chaos gate.
    /// Departures are slowed to `0.05` so piles decay over ~20 epochs:
    /// at that time constant the informed adversaries' compounding
    /// attacks (re-aiming at the surviving mound every epoch) clearly
    /// outrun fixed-target drilling, while the 40-epoch warmup still
    /// covers two full population time constants before measurement.
    pub fn quick() -> Self {
        Config {
            side: 6,
            epochs: 120,
            warmup: 40,
            rate: 30.0,
            departure_prob: 0.05,
            outage_epochs: 12,
            quick: true,
            ..Default::default()
        }
    }

    /// The fleet split into `racks` equal contiguous id ranges.
    fn racks(&self) -> Vec<DomainSpec> {
        let n = self.side * self.side;
        assert_eq!(n % self.racks, 0, "racks must divide the fleet size");
        let per = n / self.racks;
        (0..self.racks)
            .map(|r| DomainSpec::new(format!("rack{r}"), (r * per) as u32, ((r + 1) * per) as u32))
            .collect()
    }

    /// The scenario shared by every cell of both grids.
    fn base(&self, name: &str) -> SimConfig {
        let mut cfg = SimConfig {
            name: name.into(),
            epochs: self.epochs,
            seed: self.seed,
            arrivals: ArrivalProcess::Poisson { rate: self.rate },
            departure_prob: self.departure_prob,
            rounds_per_epoch: self.rounds_per_epoch,
            shards: self.shards,
            ..Default::default()
        };
        cfg.churn.domains = self.racks();
        cfg.churn.outage = OutageDuration { alpha: 1.5, min_epochs: 2, max_epochs: 8 };
        cfg
    }
}

/// One adversary's row in the overload-gap grid.
#[derive(Debug, Clone, PartialEq)]
pub struct GapRow {
    /// Adversary label (report key).
    pub adversary: &'static str,
    /// Whether the arrival stream is load-oblivious (the acceptance
    /// property compares the adaptive row against exactly these).
    pub oblivious: bool,
    /// Mean of `max_load / threshold` over the post-warmup window.
    pub mean_gap: f64,
    /// Peak of the same ratio.
    pub peak_gap: f64,
    /// Peak absolute load over the window.
    pub peak_load: f64,
}

/// One admission policy's row in the recovery grid.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryRow {
    /// Admission label (report key).
    pub admission: &'static str,
    /// Fraction of offered arrivals the policy rejected.
    pub shed_fraction: f64,
    /// Epochs after the failed rack returned until `max_load` first
    /// fell back to the pre-outage peak; `None` if the run never got
    /// back down.
    pub recovery_epochs: Option<u64>,
    /// Peak load during + after the outage.
    pub peak_load: f64,
}

/// The sweep's full result set.
#[derive(Debug, Clone, PartialEq)]
pub struct AdversaryReport {
    /// Overload-gap grid, one row per adversary.
    pub gap: Vec<GapRow>,
    /// Recovery grid, one row per admission policy.
    pub recovery: Vec<RecoveryRow>,
    /// The configuration's `quick` flag (stamped into the snapshot).
    pub quick: bool,
}

/// Gap statistics over the post-warmup window of one run.
fn gap_stats(report: &SimReport, warmup: u64) -> (f64, f64, f64) {
    let (mut sum, mut count, mut peak_gap, mut peak_load) = (0.0f64, 0u64, 0.0f64, 0.0f64);
    for r in report.records.iter().filter(|r| r.epoch >= warmup && r.threshold > 0.0) {
        let gap = r.max_load / r.threshold;
        sum += gap;
        count += 1;
        peak_gap = peak_gap.max(gap);
        peak_load = peak_load.max(r.max_load);
    }
    (if count > 0 { sum / count as f64 } else { 0.0 }, peak_gap, peak_load)
}

/// Run one cell on the `side × side` torus, then audit the engine
/// ([`OnlineSim::audit`]); panics on a broken invariant.
fn run_audited(cfg: &Config, sim_cfg: SimConfig) -> SimReport {
    let mut sim = OnlineSim::new(torus2d(cfg.side, cfg.side), sim_cfg);
    let report = sim.run();
    sim.audit().unwrap_or_else(|e| panic!("{}: audit failed: {e}", report.scenario));
    report
}

/// Run the overload-gap grid: every adversary over the identical
/// stochastic-outage scenario.
fn run_gap(cfg: &Config) -> Vec<GapRow> {
    let adversaries: [(&'static str, bool, ArrivalPlacement, DomainSteering); 5] = [
        ("uniform", true, ArrivalPlacement::Uniform, DomainSteering::Oblivious),
        ("hotspot", true, ArrivalPlacement::HotSpot(0), DomainSteering::Oblivious),
        ("most_loaded", false, ArrivalPlacement::MostLoaded, DomainSteering::Oblivious),
        ("adaptive", false, ArrivalPlacement::Adaptive { spread: 1 }, DomainSteering::Oblivious),
        // The full adversary also steers the rack outages onto the
        // most-loaded domain. Counter-intuitively that can *lower* the
        // standing overload (each steered outage scatters the pile the
        // placement half built), so it is reported as its own row
        // rather than folded into the acceptance comparison.
        (
            "adaptive_steered",
            false,
            ArrivalPlacement::Adaptive { spread: 1 },
            DomainSteering::Adaptive,
        ),
    ];
    adversaries
        .into_iter()
        .map(|(label, oblivious, placement, steering)| {
            let mut sim_cfg = cfg.base(&format!("gap-{label}"));
            sim_cfg.arrival_placement = placement;
            sim_cfg.churn.domain_outage = cfg.domain_outage;
            sim_cfg.churn.steering = steering;
            let report = run_audited(cfg, sim_cfg);
            let (mean_gap, peak_gap, peak_load) = gap_stats(&report, cfg.warmup);
            GapRow { adversary: label, oblivious, mean_gap, peak_gap, peak_load }
        })
        .collect()
}

/// Run the recovery grid: a scripted whole-rack outage under each
/// admission policy.
fn run_recovery(cfg: &Config) -> Vec<RecoveryRow> {
    // The shed cap sits just above the healthy-fleet mean load
    // (`rate / departure_prob` live tasks over `side²` resources), so
    // it binds during the outage and releases after recovery.
    let healthy_mean = cfg.rate / cfg.departure_prob / (cfg.side * cfg.side) as f64;
    let policies: [(&'static str, AdmissionPolicy); 3] = [
        ("none", AdmissionPolicy::None),
        (
            "token_bucket",
            AdmissionPolicy::TokenBucket { rate: cfg.rate * 0.8, burst: cfg.rate * 2.0 },
        ),
        ("load_shed", AdmissionPolicy::LoadShed { max_mean_load: healthy_mean * 1.05 }),
    ];
    let down_at = cfg.warmup;
    let back_at = cfg.warmup + cfg.outage_epochs;
    policies
        .into_iter()
        .map(|(label, admission)| {
            let mut sim_cfg = cfg.base(&format!("recovery-{label}"));
            sim_cfg.admission = admission;
            sim_cfg.churn.scripted = vec![(
                down_at,
                ChurnEvent::DomainOutage { domain: 0, duration: cfg.outage_epochs },
            )];
            let report = run_audited(cfg, sim_cfg);
            // Pre-outage peak over the last stretch of warmup (the
            // population has equilibrated by then): what "recovered"
            // means for this run.
            let baseline = report
                .records
                .iter()
                .filter(|r| r.epoch + 10 >= down_at && r.epoch < down_at)
                .map(|r| r.max_load)
                .fold(0.0f64, f64::max);
            let recovery_epochs = report
                .records
                .iter()
                .filter(|r| r.epoch >= back_at && r.max_load <= baseline)
                .map(|r| r.epoch - back_at)
                .next();
            let peak_load = report
                .records
                .iter()
                .filter(|r| r.epoch >= down_at)
                .map(|r| r.max_load)
                .fold(0.0f64, f64::max);
            RecoveryRow {
                admission: label,
                shed_fraction: report.shed_fraction,
                recovery_epochs,
                peak_load,
            }
        })
        .collect()
}

/// Run both grids.
pub fn run(cfg: &Config) -> AdversaryReport {
    AdversaryReport { gap: run_gap(cfg), recovery: run_recovery(cfg), quick: cfg.quick }
}

impl AdversaryReport {
    /// Render both grids as one table (`section` column distinguishes
    /// them) for the standard CSV/JSON artifacts.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "adversary_sweep",
            "R1: adaptive adversaries vs oblivious streams (overload gap) and admission-control \
             recovery from a whole-domain outage",
            &[
                "section",
                "label",
                "oblivious",
                "mean_gap",
                "peak_gap",
                "peak_load",
                "shed_fraction",
                "recovery_epochs",
            ],
        );
        for r in &self.gap {
            t.push_row(vec![
                "gap".into(),
                r.adversary.into(),
                r.oblivious.to_string(),
                format!("{:.4}", r.mean_gap),
                format!("{:.4}", r.peak_gap),
                format!("{:.4}", r.peak_load),
                String::new(),
                String::new(),
            ]);
        }
        for r in &self.recovery {
            t.push_row(vec![
                "recovery".into(),
                r.admission.into(),
                String::new(),
                String::new(),
                String::new(),
                format!("{:.4}", r.peak_load),
                format!("{:.6}", r.shed_fraction),
                r.recovery_epochs.map_or("unrecovered".into(), |e| e.to_string()),
            ]);
        }
        t
    }

    /// The `BENCH_adversary.json` snapshot. Deliberately carries **no
    /// wall-clock field** — every value is a deterministic function of
    /// the config, so CI byte-diffs the file across thread × shard
    /// grids and `bench_compare` runs advisory against the checked-in
    /// baseline.
    pub fn to_bench_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"bench\": \"adversary_sweep\",\n");
        out.push_str(&format!("  \"quick\": {},\n", self.quick));
        out.push_str("  \"gap\": [\n");
        for (i, r) in self.gap.iter().enumerate() {
            out.push_str(&format!(
                "    {{ \"adversary\": \"{}\", \"oblivious\": {}, \"mean_gap\": {:.6}, \
                 \"peak_gap\": {:.6}, \"peak_load\": {:.6} }}{}\n",
                r.adversary,
                r.oblivious,
                r.mean_gap,
                r.peak_gap,
                r.peak_load,
                if i + 1 < self.gap.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n  \"recovery\": [\n");
        for (i, r) in self.recovery.iter().enumerate() {
            out.push_str(&format!(
                "    {{ \"admission\": \"{}\", \"shed_fraction\": {:.6}, \
                 \"recovery_epochs\": {}, \"peak_load\": {:.6} }}{}\n",
                r.admission,
                r.shed_fraction,
                r.recovery_epochs.map_or(-1i64, |e| e as i64),
                r.peak_load,
                if i + 1 < self.recovery.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_report() -> AdversaryReport {
        run(&Config::quick())
    }

    #[test]
    fn sweep_is_deterministic() {
        assert_eq!(quick_report(), quick_report());
    }

    #[test]
    fn adaptive_adversary_beats_every_oblivious_stream() {
        // The tentpole acceptance property at quick scale: both
        // scrape-driven adaptive adversaries push the worst resource
        // strictly further over the protocol's target (`peak_gap` =
        // max over the window of `max_load / threshold`) than every
        // load-oblivious placement manages.
        let report = quick_report();
        for label in ["adaptive", "adaptive_steered"] {
            let adaptive = report.gap.iter().find(|r| r.adversary == label).expect("row");
            assert!(!adaptive.oblivious);
            assert!(adaptive.peak_gap.is_finite() && adaptive.peak_gap > 1.0);
            for r in report.gap.iter().filter(|r| r.oblivious) {
                assert!(
                    adaptive.peak_gap > r.peak_gap,
                    "{label} peak gap {:.4} must exceed {} at {:.4}",
                    adaptive.peak_gap,
                    r.adversary,
                    r.peak_gap
                );
            }
        }
        // And the adaptive stream also beats uniform on *standing*
        // overload, not just the spike.
        let adaptive = report.gap.iter().find(|r| r.adversary == "adaptive").unwrap();
        let uniform = report.gap.iter().find(|r| r.adversary == "uniform").unwrap();
        assert!(adaptive.mean_gap > uniform.mean_gap);
    }

    #[test]
    fn load_shedding_recovers_from_a_whole_rack_outage_within_bound() {
        // Second half of the acceptance: with load shedding on, the run
        // returns to its pre-outage peak within a bounded number of
        // epochs of the rack coming back.
        let report = quick_report();
        let shed = report
            .recovery
            .iter()
            .find(|r| r.admission == "load_shed")
            .expect("load_shed row");
        assert!(shed.shed_fraction > 0.0, "the shed cap must bind during the outage");
        let recovered = shed.recovery_epochs.expect("load_shed run must recover");
        assert!(recovered <= 30, "recovery took {recovered} epochs (bound 30)");
        // Admitting everything is never *faster* to recover than
        // shedding (it may tie if the backlog drains within one epoch).
        let none = report.recovery.iter().find(|r| r.admission == "none").unwrap();
        assert_eq!(none.shed_fraction, 0.0);
        if let Some(none_rec) = none.recovery_epochs {
            assert!(none_rec >= recovered, "open admission recovered faster than shedding");
        }
    }

    #[test]
    fn bench_snapshot_is_wall_clock_free_and_stable() {
        let report = quick_report();
        let json = report.to_bench_json();
        for banned in ["secs", "_ns", "rss", "bytes", "per_sec"] {
            assert!(!json.contains(banned), "wall-clock-ish key {banned:?} in {json}");
        }
        // Parses as JSON and round-trips deterministically.
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert!(v.as_object().is_some());
        assert_eq!(json, quick_report().to_bench_json());
        // Shard counts do not disturb the snapshot.
        let sharded = run(&Config { shards: 4, ..Config::quick() });
        assert_eq!(sharded.to_bench_json(), json);
    }
}
