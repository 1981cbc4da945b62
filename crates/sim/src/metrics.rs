//! Per-epoch metrics timeseries and the serialized run report.
//!
//! The one-shot outcomes report end-of-run aggregates; an online run is
//! judged by its *trajectory* — does the system stay under threshold
//! while traffic streams in, how fast does it re-converge after a drain,
//! which tenant's SLO degrades first. [`EpochRecord`] is one fixed-shape
//! sample per epoch; [`SimReport`] carries the series plus run-level
//! summaries and serializes to JSON for the CI perf-trajectory artifacts
//! (`BENCH_online.json`).
//!
//! Every run-level aggregate comes from [`RunningSummary`], which folds
//! each record into O(1) state as it streams past, so batch mode, service
//! mode (the series goes to a [`crate::sink::MetricsSink`]) and a
//! restored run all report the same aggregates. The unit tests check the
//! fold bit for bit against a direct computation over the series.

use serde::{Deserialize, Serialize};

/// One epoch's snapshot, taken after that epoch's rebalancing pass.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpochRecord {
    /// Epoch index (0-based).
    pub epoch: u64,
    /// Live tasks after arrivals/departures.
    pub live_tasks: usize,
    /// Active resources after churn.
    pub active_resources: usize,
    /// Tasks the arrival process *offered* this epoch (admitted +
    /// rejected).
    pub arrivals: u64,
    /// Offered tasks the admission policy accepted and placed this
    /// epoch (equals `arrivals` under `AdmissionPolicy::None`).
    pub admitted: u64,
    /// Offered tasks the admission policy rejected this epoch (never
    /// placed; they are *not* SLO violations).
    pub rejected: u64,
    /// Tasks that departed this epoch.
    pub departures: u64,
    /// Tasks forcibly relocated off deactivated resources this epoch.
    pub drained: u64,
    /// Protocol rounds the rebalancing pass executed this epoch.
    pub rebalance_rounds: u64,
    /// Task migrations the rebalancing pass performed this epoch.
    pub migrations: u64,
    /// The global threshold in force this epoch (0 when no tasks live).
    pub threshold: f64,
    /// Maximum resource load after rebalancing.
    pub max_load: f64,
    /// Mean load over active resources.
    pub mean_load: f64,
    /// Fraction of active resources above the threshold after
    /// rebalancing.
    pub overload_fraction: f64,
    /// Potential `Φ` against the global threshold after rebalancing.
    pub potential: f64,
    /// Whether every resource ended the epoch at or under the threshold.
    pub balanced: bool,
    /// Per-tenant count of resources violating the tenant's own
    /// threshold (index = tenant, order of the configured tenant list).
    pub tenant_violations: Vec<u64>,
    /// Per-tenant admitted arrivals this epoch (same indexing).
    pub tenant_admitted: Vec<u64>,
    /// Per-tenant rejected arrivals this epoch (same indexing) — the
    /// SLO ledger's "refused" column, disjoint from `tenant_violations`.
    pub tenant_rejected: Vec<u64>,
}

/// A whole run: configuration echo, per-epoch series, and summaries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Scenario name (report key; used as the JSON artifact stem).
    pub scenario: String,
    /// Base seed of the run.
    pub seed: u64,
    /// Epochs executed.
    pub epochs: u64,
    /// Tenant names, in the order `tenant_violations` indexes.
    pub tenants: Vec<String>,
    /// The per-epoch series.
    pub records: Vec<EpochRecord>,
    /// Total offered arrivals over the run.
    pub total_arrivals: u64,
    /// Total admitted arrivals over the run.
    pub total_admitted: u64,
    /// Total rejected arrivals over the run.
    pub total_rejected: u64,
    /// Fraction of offered arrivals the admission policy shed
    /// (`total_rejected / total_arrivals`; 0 for an arrival-free run).
    pub shed_fraction: f64,
    /// Total departures over the run.
    pub total_departures: u64,
    /// Total rebalancing migrations over the run.
    pub total_migrations: u64,
    /// Fraction of epochs that ended balanced.
    pub balanced_fraction: f64,
    /// Per-tenant fraction of epochs with at least one SLO violation.
    pub tenant_violation_rates: Vec<f64>,
    /// Per-tenant total admitted arrivals.
    pub tenant_admitted_totals: Vec<u64>,
    /// Per-tenant total rejected arrivals.
    pub tenant_rejected_totals: Vec<u64>,
    /// Maximum load seen in any epoch.
    pub peak_load: f64,
}

impl SimReport {
    /// Serialize to pretty JSON (the CI artifact format).
    ///
    /// # Errors
    /// If the report fails to serialize. In a long soak this surfaces as
    /// a run error rather than a mid-flight panic.
    pub fn to_json(&self) -> anyhow::Result<String> {
        serde_json::to_string_pretty(self).map_err(|e| anyhow::anyhow!("report serializes: {e:?}"))
    }

    /// The last epoch's record, if any.
    pub fn last(&self) -> Option<&EpochRecord> {
        self.records.last()
    }
}

/// O(1) streaming fold of the run-level aggregates.
///
/// The engine feeds every [`EpochRecord`] through
/// [`observe`](Self::observe) whether or not the record itself is
/// buffered, and takes every aggregate of its [`SimReport`] from here,
/// in batch and service mode alike. The summary is part of
/// [`crate::SimSnapshot`], so aggregates survive a checkpoint/restore
/// cycle and keep counting from where they left off.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunningSummary {
    /// Epochs observed.
    pub epochs: u64,
    /// Total offered arrivals over the run.
    pub total_arrivals: u64,
    /// Total admitted arrivals over the run.
    pub total_admitted: u64,
    /// Total rejected arrivals over the run.
    pub total_rejected: u64,
    /// Total departures over the run.
    pub total_departures: u64,
    /// Total rebalancing migrations over the run.
    pub total_migrations: u64,
    /// Epochs that ended balanced.
    pub balanced_epochs: u64,
    /// Per-tenant count of epochs with at least one SLO violation.
    pub violated_epochs: Vec<u64>,
    /// Per-tenant total admitted arrivals.
    pub tenant_admitted_tasks: Vec<u64>,
    /// Per-tenant total rejected arrivals.
    pub tenant_rejected_tasks: Vec<u64>,
    /// Maximum load seen in any epoch.
    pub peak_load: f64,
}

impl RunningSummary {
    /// Fold one epoch's record into the aggregates.
    pub fn observe(&mut self, r: &EpochRecord) {
        if self.violated_epochs.is_empty() && !r.tenant_violations.is_empty() {
            self.violated_epochs = vec![0; r.tenant_violations.len()];
        }
        if self.tenant_admitted_tasks.is_empty() && !r.tenant_admitted.is_empty() {
            self.tenant_admitted_tasks = vec![0; r.tenant_admitted.len()];
        }
        if self.tenant_rejected_tasks.is_empty() && !r.tenant_rejected.is_empty() {
            self.tenant_rejected_tasks = vec![0; r.tenant_rejected.len()];
        }
        self.epochs += 1;
        self.total_arrivals += r.arrivals;
        self.total_admitted += r.admitted;
        self.total_rejected += r.rejected;
        self.total_departures += r.departures;
        self.total_migrations += r.migrations;
        if r.balanced {
            self.balanced_epochs += 1;
        }
        for (slot, &v) in self.violated_epochs.iter_mut().zip(&r.tenant_violations) {
            if v > 0 {
                *slot += 1;
            }
        }
        for (slot, &a) in self.tenant_admitted_tasks.iter_mut().zip(&r.tenant_admitted) {
            *slot += a;
        }
        for (slot, &x) in self.tenant_rejected_tasks.iter_mut().zip(&r.tenant_rejected) {
            *slot += x;
        }
        self.peak_load = self.peak_load.max(r.max_load);
    }

    /// Reconstitute a [`SimReport`] from the aggregates alone.
    ///
    /// `records` comes back empty; every summary field equals, bit for
    /// bit, the same aggregate computed directly over the observed series.
    pub fn to_report(
        &self,
        scenario: impl Into<String>,
        seed: u64,
        tenants: Vec<String>,
    ) -> SimReport {
        let balanced_fraction =
            if self.epochs == 0 { 1.0 } else { self.balanced_epochs as f64 / self.epochs as f64 };
        let tenant_violation_rates = (0..tenants.len())
            .map(|c| {
                if self.epochs == 0 {
                    return 0.0;
                }
                let violated = self.violated_epochs.get(c).copied().unwrap_or(0);
                violated as f64 / self.epochs as f64
            })
            .collect();
        let shed_fraction = if self.total_arrivals == 0 {
            0.0
        } else {
            self.total_rejected as f64 / self.total_arrivals as f64
        };
        let pad = |v: &Vec<u64>| -> Vec<u64> {
            (0..tenants.len()).map(|c| v.get(c).copied().unwrap_or(0)).collect()
        };
        let tenant_admitted_totals = pad(&self.tenant_admitted_tasks);
        let tenant_rejected_totals = pad(&self.tenant_rejected_tasks);
        SimReport {
            scenario: scenario.into(),
            seed,
            epochs: self.epochs,
            tenants,
            records: Vec::new(),
            total_arrivals: self.total_arrivals,
            total_admitted: self.total_admitted,
            total_rejected: self.total_rejected,
            shed_fraction,
            total_departures: self.total_departures,
            total_migrations: self.total_migrations,
            balanced_fraction,
            tenant_violation_rates,
            tenant_admitted_totals,
            tenant_rejected_totals,
            peak_load: self.peak_load,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference aggregation: every summary field computed directly
    /// over a finished series, the oracle [`RunningSummary`] is checked
    /// against.
    fn from_records(
        scenario: impl Into<String>,
        seed: u64,
        tenants: Vec<String>,
        records: Vec<EpochRecord>,
    ) -> SimReport {
        let epochs = records.len() as u64;
        let total_arrivals: u64 = records.iter().map(|r| r.arrivals).sum();
        let total_admitted: u64 = records.iter().map(|r| r.admitted).sum();
        let total_rejected: u64 = records.iter().map(|r| r.rejected).sum();
        let shed_fraction =
            if total_arrivals == 0 { 0.0 } else { total_rejected as f64 / total_arrivals as f64 };
        let total_departures = records.iter().map(|r| r.departures).sum();
        let total_migrations = records.iter().map(|r| r.migrations).sum();
        let balanced = records.iter().filter(|r| r.balanced).count();
        let balanced_fraction = if epochs == 0 { 1.0 } else { balanced as f64 / epochs as f64 };
        let tenant_violation_rates = (0..tenants.len())
            .map(|c| {
                if epochs == 0 {
                    return 0.0;
                }
                let violated = records.iter().filter(|r| r.tenant_violations[c] > 0).count();
                violated as f64 / epochs as f64
            })
            .collect();
        let per_tenant = |field: fn(&EpochRecord) -> &Vec<u64>| -> Vec<u64> {
            (0..tenants.len())
                .map(|c| records.iter().map(|r| field(r).get(c).copied().unwrap_or(0)).sum())
                .collect()
        };
        let tenant_admitted_totals = per_tenant(|r| &r.tenant_admitted);
        let tenant_rejected_totals = per_tenant(|r| &r.tenant_rejected);
        let peak_load = records.iter().map(|r| r.max_load).fold(0.0, f64::max);
        SimReport {
            scenario: scenario.into(),
            seed,
            epochs,
            tenants,
            records,
            total_arrivals,
            total_admitted,
            total_rejected,
            shed_fraction,
            total_departures,
            total_migrations,
            balanced_fraction,
            tenant_violation_rates,
            tenant_admitted_totals,
            tenant_rejected_totals,
            peak_load,
        }
    }

    fn record(epoch: u64, balanced: bool, violations: Vec<u64>) -> EpochRecord {
        let tenants = violations.len();
        EpochRecord {
            epoch,
            live_tasks: 10,
            active_resources: 4,
            arrivals: 2,
            admitted: 1,
            rejected: 1,
            departures: 1,
            drained: 0,
            rebalance_rounds: 3,
            migrations: 5,
            threshold: 4.0,
            max_load: if balanced { 3.5 } else { 6.0 },
            mean_load: 2.5,
            overload_fraction: if balanced { 0.0 } else { 0.25 },
            potential: if balanced { 0.0 } else { 2.0 },
            balanced,
            tenant_violations: violations,
            tenant_admitted: vec![1; tenants],
            tenant_rejected: vec![0; tenants],
        }
    }

    #[test]
    fn summaries_aggregate_the_series() {
        let report = from_records(
            "unit",
            7,
            vec!["a".into(), "b".into()],
            vec![
                record(0, false, vec![1, 0]),
                record(1, true, vec![0, 0]),
                record(2, true, vec![2, 1]),
                record(3, true, vec![0, 0]),
            ],
        );
        assert_eq!(report.epochs, 4);
        assert_eq!(report.total_arrivals, 8);
        assert_eq!(report.total_admitted, 4);
        assert_eq!(report.total_rejected, 4);
        assert_eq!(report.shed_fraction, 0.5);
        assert_eq!(report.total_departures, 4);
        assert_eq!(report.total_migrations, 20);
        assert_eq!(report.balanced_fraction, 0.75);
        assert_eq!(report.tenant_violation_rates, vec![0.5, 0.25]);
        assert_eq!(report.tenant_admitted_totals, vec![4, 4]);
        assert_eq!(report.tenant_rejected_totals, vec![0, 0]);
        assert_eq!(report.peak_load, 6.0);
        assert_eq!(report.last().unwrap().epoch, 3);
    }

    #[test]
    fn json_roundtrips() {
        let report =
            from_records("roundtrip", 1, vec!["only".into()], vec![record(0, true, vec![0])]);
        let back: SimReport = serde_json::from_str(&report.to_json().unwrap()).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn running_summary_matches_from_records_bit_for_bit() {
        let records = vec![
            record(0, false, vec![1, 0]),
            record(1, true, vec![0, 0]),
            record(2, true, vec![2, 1]),
            record(3, true, vec![0, 0]),
        ];
        let mut summary = RunningSummary::default();
        for r in &records {
            summary.observe(r);
        }
        let tenants = vec!["a".to_string(), "b".to_string()];
        let buffered = from_records("unit", 7, tenants.clone(), records);
        let streamed = summary.to_report("unit", 7, tenants);
        assert_eq!(streamed.epochs, buffered.epochs);
        assert_eq!(streamed.total_arrivals, buffered.total_arrivals);
        assert_eq!(streamed.total_admitted, buffered.total_admitted);
        assert_eq!(streamed.total_rejected, buffered.total_rejected);
        assert_eq!(streamed.shed_fraction.to_bits(), buffered.shed_fraction.to_bits());
        assert_eq!(streamed.total_departures, buffered.total_departures);
        assert_eq!(streamed.total_migrations, buffered.total_migrations);
        assert_eq!(streamed.balanced_fraction.to_bits(), buffered.balanced_fraction.to_bits());
        assert_eq!(streamed.tenant_violation_rates, buffered.tenant_violation_rates);
        assert_eq!(streamed.tenant_admitted_totals, buffered.tenant_admitted_totals);
        assert_eq!(streamed.tenant_rejected_totals, buffered.tenant_rejected_totals);
        assert_eq!(streamed.peak_load.to_bits(), buffered.peak_load.to_bits());
        assert!(streamed.records.is_empty());
    }

    #[test]
    fn empty_summary_reports_like_an_empty_run() {
        let streamed = RunningSummary::default().to_report("empty", 0, vec![]);
        let buffered = from_records("empty", 0, vec![], vec![]);
        assert_eq!(streamed, buffered);
    }

    #[test]
    fn empty_run_is_vacuously_balanced() {
        let report = from_records("empty", 0, vec![], vec![]);
        assert_eq!(report.balanced_fraction, 1.0);
        assert!(report.last().is_none());
    }
}
