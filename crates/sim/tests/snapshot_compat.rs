//! Snapshot format compatibility: a v1 checkpoint written before the
//! robustness layer existed (PR 7's `SNAPSHOT_VERSION = 1`) must keep
//! loading through the upgrade shim in [`SimSnapshot::from_json`], and
//! v2/v3 documents load as they are unless their graph carries edge
//! churn, which this build cannot replay.
//!
//! The fixture `fixtures/snapshot_v1.json` was generated by the v1
//! engine (epoch-12 checkpoint of the "steady" scenario on `K_16`,
//! seed 42, two tenants) and is checked in verbatim — regenerating it
//! with a current build would defeat the point of the test.

use tlb_graphs::generators::complete;
use tlb_sim::{AdmissionPolicy, OnlineSim, SimSnapshot, SNAPSHOT_VERSION};

const V1_FIXTURE: &str = include_str!("fixtures/snapshot_v1.json");

/// The fixture as the current build writes it.
fn current_doc() -> String {
    SimSnapshot::from_json(V1_FIXTURE).unwrap().to_json().unwrap()
}

/// `doc` (a current document) rewritten as an older build wrote it:
/// stamped `version` and carrying the v1–v3 `graph` edge lists.
fn as_old_version(doc: &str, version: u32, added: &str, removed: &str) -> String {
    let doc = doc.replacen(
        &format!("\"version\": {SNAPSHOT_VERSION}"),
        &format!("\"version\": {version}"),
        1,
    );
    let at = doc.find("\"graph\": {").expect("snapshot has a graph object") + "\"graph\": {".len();
    format!("{}\"added\": {added}, \"removed\": {removed},{}", &doc[..at], &doc[at..])
}

/// Restore `doc` on the fixture's `K_16`; its checkpoint and the next
/// six epochs' records.
fn checkpoint_and_continuation(doc: &str) -> (String, Vec<tlb_sim::EpochRecord>) {
    let snap = SimSnapshot::from_json(doc).expect("document loads");
    assert_eq!(snap.version, SNAPSHOT_VERSION);
    let mut sim = OnlineSim::restore(snap, complete(16)).expect("document restores");
    let state = sim.checkpoint().unwrap().to_json().unwrap();
    for _ in 0..6 {
        sim.run_epoch();
    }
    (state, sim.records().to_vec())
}

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
    let future = current_doc().replacen("\"version\": 4", "\"version\": 5", 1);
    assert!(future.contains("\"version\": 5"), "snapshot must carry a leading version field");
    let err = SimSnapshot::from_json(&future).unwrap_err().to_string();
    assert!(err.contains("version 5 unsupported"), "unhelpful error: {err}");
}

#[test]
fn v2_documents_with_or_without_compact_after_ops_restore_like_v3() {
    // v2 builds wrote `compact_after_ops` into the config; v3 dropped the
    // key. A v2 document carrying it restores to the same state as its
    // v3 twin, and so does a v2 document without it (written by builds
    // that dropped the key before the version was bumped).
    let current = current_doc();
    assert!(!current.contains("compact_after_ops"), "the config has no compact_after_ops");
    let v3 = as_old_version(&current, 3, "[]", "[]");
    let without = as_old_version(&current, 2, "[]", "[]");
    let at = without.find("\"rebalance\":").expect("config names its rebalance policy");
    let with = format!("{}\"compact_after_ops\": 64,\n    {}", &without[..at], &without[at..]);
    let twin = checkpoint_and_continuation(&v3);
    assert_eq!(checkpoint_and_continuation(&with), twin);
    assert_eq!(checkpoint_and_continuation(&without), twin);
}

#[test]
fn v3_documents_without_edge_churn_restore_like_v4() {
    // v1–v3 wrote the graph as an edge diff against the base plus the
    // mask; node churn left the diff empty. Such a document is its v4
    // twin with two empty lists, and must resume identically.
    let v4 = current_doc();
    let v3 = as_old_version(&v4, 3, "[]", "[]");
    assert_eq!(checkpoint_and_continuation(&v3), checkpoint_and_continuation(&v4));
}

#[test]
fn v3_documents_with_edge_churn_are_rejected() {
    // This build cannot replay edge churn; loading such a document must
    // fail loudly rather than drop the edges and resume on another graph.
    let v4 = current_doc();
    for (added, removed) in [("[[0, 1]]", "[]"), ("[]", "[[2, 3]]")] {
        let doc = as_old_version(&v4, 3, added, removed);
        let err = SimSnapshot::from_json(&doc).expect_err(added).to_string();
        assert!(err.contains("edge churn"), "unhelpful error for {added}/{removed}: {err}");
    }
}

#[test]
fn snapshots_naming_a_removed_edge_event_are_rejected() {
    // Older builds had `AddEdge`/`RemoveEdge` churn events. Churn is node
    // activity only now, so a config scripting one must fail to load.
    let doc = current_doc();
    assert!(doc.contains("\"scripted\": []"), "the fixture scripts no churn");
    for removed in [r#"{"AddEdge": [0, 2]}"#, r#"{"RemoveEdge": [0, 1]}"#] {
        let old = doc.replacen("\"scripted\": []", &format!("\"scripted\": [[13, {removed}]]"), 1);
        let err = SimSnapshot::from_json(&old).expect_err(removed).to_string();
        assert!(err.contains("unknown variant"), "unhelpful error for {removed}: {err}");
    }
}

#[test]
fn snapshots_with_no_active_resource_are_rejected() {
    // The engine never deactivates its last resource; a snapshot with
    // none active has nowhere to place arrivals and must not restore.
    let mut snap = SimSnapshot::from_json(V1_FIXTURE).unwrap();
    snap.graph.active.fill(false);
    snap.stacks.iter_mut().for_each(|s| *s = Default::default());
    snap.weights.clear();
    snap.tenant_of.clear();
    snap.free_ids.clear();
    snap.live = 0;
    let err = OnlineSim::restore(snap, complete(16)).map(|_| ()).unwrap_err().to_string();
    assert!(err.contains("no resource is active"), "unhelpful error: {err}");
}

#[test]
fn snapshots_naming_a_removed_rebalance_policy_are_rejected() {
    // Older version-2 builds could also rebalance with the `Mixed`
    // protocol or a `Baseline` rule and wrote those policies into their
    // snapshots. This build runs only the resource policy, so loading
    // such a document must return an error, not panic.
    let doc = current_doc();
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
fn current_snapshots_round_trip_at_version_4() {
    let snap = SimSnapshot::from_json(V1_FIXTURE).unwrap();
    let json = snap.to_json().unwrap();
    assert!(json.contains("\"version\": 4"));
    // The graph is the node count and the active mask, nothing else.
    let value: serde_json::Value = serde_json::from_str(&json).unwrap();
    let graph = value.as_object().unwrap().iter().find(|(k, _)| k == "graph").unwrap();
    let mut keys: Vec<&str> = graph.1.as_object().unwrap().iter().map(|(k, _)| &k[..]).collect();
    keys.sort_unstable();
    assert_eq!(keys, ["active", "num_nodes"]);
    let back = SimSnapshot::from_json(&json).unwrap();
    assert_eq!(back, snap);
}
