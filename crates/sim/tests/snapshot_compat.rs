//! Snapshot format compatibility: a v1 checkpoint written before the
//! robustness layer existed (PR 7's `SNAPSHOT_VERSION = 1`) must keep
//! loading through the upgrade shim in [`SimSnapshot::from_json`].
//!
//! The fixture `fixtures/snapshot_v1.json` was generated by the v1
//! engine (epoch-12 checkpoint of the "steady" scenario on `K_16`,
//! seed 42, two tenants) and is checked in verbatim — regenerating it
//! with a current build would defeat the point of the test.

use tlb_graphs::generators::complete;
use tlb_sim::{AdmissionPolicy, OnlineSim, SimSnapshot, SNAPSHOT_VERSION};

const V1_FIXTURE: &str = include_str!("fixtures/snapshot_v1.json");

#[test]
fn v1_fixture_upgrades_in_place() {
    let snap = SimSnapshot::from_json(V1_FIXTURE).expect("v1 snapshot loads through the shim");
    assert_eq!(snap.version, SNAPSHOT_VERSION);
    assert_eq!(snap.epoch, 12);
    assert_eq!(snap.config.name, "steady");
    assert_eq!(snap.config.seed, 42);

    // The added state defaults to "robustness features off" — exactly
    // what the v1 engine was running.
    assert!(snap.config.churn.domains.is_empty());
    assert_eq!(snap.config.churn.domain_outage, 0.0);
    assert_eq!(snap.config.admission, AdmissionPolicy::None);
    assert!(snap.domain_down_until.is_empty());
    assert!(snap.admission_tokens.is_empty());

    // A v1 engine admitted every offered arrival, so the upgraded
    // ledger mirrors the arrival total.
    assert_eq!(snap.summary.total_admitted, snap.summary.total_arrivals);
    assert_eq!(snap.summary.total_rejected, 0);
    assert!(snap.summary.tenant_admitted_tasks.is_empty());
    assert!(snap.summary.tenant_rejected_tasks.is_empty());
}

#[test]
fn v1_fixture_restores_and_keeps_running() {
    let snap = SimSnapshot::from_json(V1_FIXTURE).unwrap();
    let live_at_pause = snap.live;
    let mut sim = OnlineSim::restore(snap, complete(16)).expect("upgraded snapshot restores");
    assert_eq!(sim.epoch(), 12);
    assert_eq!(sim.live_tasks(), live_at_pause);

    // The resumed run keeps going (and stays deterministic) on the
    // current engine: same fixture, same continuation.
    let continue_run = |mut sim: OnlineSim| {
        for _ in 0..12 {
            sim.run_epoch();
        }
        sim.records().to_vec()
    };
    let a = continue_run(sim);
    sim = OnlineSim::restore(SimSnapshot::from_json(V1_FIXTURE).unwrap(), complete(16)).unwrap();
    let b = continue_run(sim);
    assert_eq!(a, b);
    assert_eq!(a.len(), 12);
    // Admission is off in the upgraded config: the new ledger fields
    // stay in the "admit everything" regime post-resume too.
    for r in &a {
        assert_eq!(r.arrivals, r.admitted);
        assert_eq!(r.rejected, 0);
    }
}

#[test]
fn unknown_versions_are_rejected_not_guessed() {
    let future = V1_FIXTURE.replacen("\"version\": 1", "\"version\": 3", 1);
    assert!(future.contains("\"version\": 3"), "fixture must carry a leading version field");
    let err = SimSnapshot::from_json(&future).unwrap_err().to_string();
    assert!(err.contains("version"), "unhelpful error: {err}");
}

#[test]
fn snapshots_naming_a_removed_rebalance_policy_are_rejected() {
    // Older version-2 builds could also rebalance with the `Mixed`
    // protocol or a `Baseline` rule and wrote those policies into their
    // snapshots. This build runs only the resource policy, so loading
    // such a document must return an error, not panic.
    let doc = SimSnapshot::from_json(V1_FIXTURE).unwrap().to_json().unwrap();
    let start = doc.find("\"rebalance\":").expect("config names its rebalance policy");
    let end = doc.find("\"rounds_per_epoch\"").expect("the field after it");
    for removed in [
        r#"{"Mixed": {"departure": "Bernoulli", "alpha": 1.0, "walk": "MaxDegree"}}"#,
        r#"{"Baseline": {"rule": {"Greedy": {"d": 2}}}}"#,
    ] {
        let old = format!("{}\"rebalance\": {removed},\n{}", &doc[..start], &doc[end..]);
        let err = SimSnapshot::from_json(&old).expect_err(removed).to_string();
        assert!(err.contains("unknown variant"), "unhelpful error for {removed}: {err}");
    }
}

#[test]
fn current_snapshots_still_round_trip_at_version_2() {
    let snap = SimSnapshot::from_json(V1_FIXTURE).unwrap();
    let json = snap.to_json().unwrap();
    assert!(json.contains("\"version\": 2"));
    let back = SimSnapshot::from_json(&json).unwrap();
    assert_eq!(back, snap);
}
