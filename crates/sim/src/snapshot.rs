//! Versioned checkpoints of a running [`OnlineSim`](crate::OnlineSim).
//!
//! A [`SimSnapshot`] captures everything a resumed engine needs to
//! continue **bit-identically** to the uninterrupted run: the full
//! configuration, the epoch counter, the churn overlay as a
//! [`DynamicDelta`] (node count and active mask; the base CSR itself is
//! *not* serialized — the restoring side supplies it, so a snapshot of
//! a million-node run carries one flag per resource, not its topology),
//! the per-resource stacks, the task tables with their id-recycling
//! freelist, and the streaming metrics summary.
//!
//! **Why no RNG state?** Checkpoints are taken at epoch boundaries, and
//! the engine's determinism design leaves *no* persistent RNG state
//! there: epoch `e` seeds a fresh `SmallRng` from
//! [`epoch_seed`](crate::epoch_seed)`(seed, e)`, and the sharded
//! rebalancing pass draws from the counter-based stream rooted at
//! `rebalance_seed(seed, e)`. The `(seed, epoch)` pair in the snapshot
//! *is* the complete RNG stream position. (The vendored RNG still
//! exports raw state via `SmallRng::to_state`/`from_state` for callers
//! that checkpoint mid-stream; the engine does not need it.)
//!
//! The format is JSON with a leading `version` field, checked on load;
//! see the "Service mode" section of the README for the restart recipe.
//!
//! ## Version history
//!
//! * **v1** (PR 7): config, epoch, graph delta, stacks, task tables,
//!   summary.
//! * **v2** (robustness layer): adds the failure-domain recovery
//!   deadlines (`domain_down_until`) and the per-tenant admission token
//!   balances (`admission_tokens`); the config gained `admission` and
//!   the churn block gained `domains`/`domain_outage`/`outage`/
//!   `steering`; the summary gained the admitted/rejected ledger.
//!   [`SimSnapshot::from_json`] upgrades v1 documents in place —
//!   missing robustness state defaults to "feature off" (no domains,
//!   admit everything, every offered arrival counted as admitted),
//!   which is exactly what a v1 engine did.
//! * **v3**: the config lost `compact_after_ops` (now a constant of the
//!   state layer). Otherwise v2's layout, so v2 documents load as they
//!   are: the key, if present, is ignored. Snapshots written before the
//!   bump by builds that had already dropped the key also say v2 and
//!   load the same way.
//! * **v4**: the `graph` object is the node count and the active mask
//!   (`num_nodes`, `active`), because churn is node activity only. v1–v3
//!   documents also carried `added`/`removed` edge lists against the base
//!   graph. Only scripted `AddEdge`/`RemoveEdge` events, which no
//!   shipped scenario used, filled them, so [`SimSnapshot::from_json`] loads
//!   documents whose lists are empty as they are. A document whose edge
//!   lists are not empty is rejected: this build cannot replay edge
//!   churn, and dropping the edges would resume on a different graph.

use serde::{Deserialize, Serialize};
use serde_json::{Number, Value};
use tlb_core::stack::ResourceStack;
use tlb_core::task::TaskId;
use tlb_graphs::DynamicDelta;

use anyhow::Context;

use crate::engine::SimConfig;
use crate::metrics::RunningSummary;

/// Current snapshot format version. Bumped whenever the serialized
/// layout or the determinism contract it relies on changes; `load`
/// rejects mismatches instead of misinterpreting old state (known old
/// versions upgrade through a shim — see the module docs).
pub const SNAPSHOT_VERSION: u32 = 4;

/// A versioned, serializable checkpoint of an online run at an epoch
/// boundary (see the module docs for what is and is not captured).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimSnapshot {
    /// Format version ([`SNAPSHOT_VERSION`] at write time).
    pub version: u32,
    /// Full configuration in force when the checkpoint was taken.
    pub config: SimConfig,
    /// Epochs executed before the checkpoint (the resumed engine runs
    /// epoch `epoch` next).
    pub epoch: u64,
    /// Churn overlay: the active mask over the base graph the run was
    /// started with.
    pub graph: DynamicDelta,
    /// Per-resource stacks (index = resource id).
    pub stacks: Vec<ResourceStack>,
    /// Weight slot per task id (freelist slots hold stale values).
    pub weights: Vec<f64>,
    /// Tenant index per task id (parallel to `weights`).
    pub tenant_of: Vec<u16>,
    /// Recycled task-id slots, in pop order.
    pub free_ids: Vec<TaskId>,
    /// Live task count.
    pub live: usize,
    /// Per failure domain (index = config's domain list): the epoch at
    /// whose start the domain recovers, 0 when healthy. Parallel to
    /// `config.churn.domains`. (v2)
    pub domain_down_until: Vec<u64>,
    /// Per-tenant admission token balances (token-bucket policy only;
    /// empty otherwise). (v2)
    pub admission_tokens: Vec<f64>,
    /// Streaming run-level aggregates up to the checkpoint.
    pub summary: RunningSummary,
}

impl SimSnapshot {
    /// Serialize to pretty JSON.
    ///
    /// # Errors
    /// If serialization fails.
    pub fn to_json(&self) -> anyhow::Result<String> {
        serde_json::to_string_pretty(self)
            .map_err(|e| anyhow::anyhow!("snapshot serializes: {e:?}"))
    }

    /// Parse a snapshot, upgrading known old versions through the
    /// compatibility shim and rejecting unknown ones.
    ///
    /// # Errors
    /// If the JSON is malformed, the `version` field is neither
    /// [`SNAPSHOT_VERSION`] nor an upgradable older version, or the
    /// graph carries edge churn (see the v4 entry in the module docs).
    pub fn from_json(text: &str) -> anyhow::Result<Self> {
        let mut value: Value =
            serde_json::from_str(text).map_err(|e| anyhow::anyhow!("snapshot parse: {e:?}"))?;
        let version = value
            .as_object()
            .and_then(|o| o.iter().find(|(k, _)| k == "version"))
            .and_then(|(_, v)| v.as_u64());
        match version {
            Some(1) => {
                upgrade_v1(&mut value).map_err(|e| anyhow::anyhow!("snapshot v1 upgrade: {e}"))?;
            }
            Some(2 | 3) => {}
            Some(v) if v == u64::from(SNAPSHOT_VERSION) => {}
            other => anyhow::bail!(
                "snapshot version {} unsupported (this build reads versions 1..={})",
                other.map_or_else(|| "missing".to_owned(), |v| v.to_string()),
                SNAPSHOT_VERSION
            ),
        }
        reject_edge_churn(&value)?;
        let mut snap = <SimSnapshot as Deserialize>::from_value(&value)
            .map_err(|e| anyhow::anyhow!("snapshot parse: {e}"))?;
        snap.version = SNAPSHOT_VERSION;
        Ok(snap)
    }

    /// Write the snapshot to `path` as JSON.
    ///
    /// # Errors
    /// On serialization or I/O failure.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> anyhow::Result<()> {
        let path = path.as_ref();
        std::fs::write(path, self.to_json()?)
            .with_context(|| format!("writing snapshot {}", path.display()))
    }

    /// Read a snapshot from `path`.
    ///
    /// # Errors
    /// On I/O failure, malformed JSON, or a version mismatch.
    pub fn load(path: impl AsRef<std::path::Path>) -> anyhow::Result<Self> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .with_context(|| format!("reading snapshot {}", path.display()))?;
        SimSnapshot::from_json(&text)
            .map_err(|e| anyhow::anyhow!("parsing snapshot {}: {e}", path.display()))
    }
}

/// Refuse a document whose `graph` lists edges added to or removed from
/// the base graph (the v1–v3 `added`/`removed` keys). Empty lists are
/// what every node-churn run wrote and load as they are.
fn reject_edge_churn(value: &Value) -> anyhow::Result<()> {
    let graph = value
        .as_object()
        .and_then(|o| o.iter().find(|(k, _)| k == "graph"))
        .and_then(|(_, g)| g.as_object())
        .unwrap_or_default();
    for (key, list) in graph {
        if matches!(key.as_str(), "added" | "removed") && list.as_array() != Some(&[]) {
            anyhow::bail!(
                "snapshot graph.{key} lists edge churn, which this build cannot replay \
                 (churn is node activity only)"
            );
        }
    }
    Ok(())
}

/// The pairs of an object `Value`, or an error naming the site.
fn object_mut<'a>(v: &'a mut Value, what: &str) -> Result<&'a mut Vec<(String, Value)>, String> {
    match v {
        Value::Object(pairs) => Ok(pairs),
        other => Err(format!("{what} must be an object, found {}", other.kind())),
    }
}

/// Mutable lookup inside an object's pairs.
fn field_mut<'a>(
    pairs: &'a mut [(String, Value)],
    key: &str,
    what: &str,
) -> Result<&'a mut Value, String> {
    pairs
        .iter_mut()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("{what} is missing field {key:?}"))
}

/// Insert `key: value` unless the key already exists (an upgrade must
/// never clobber data a field-bearing document carries).
fn insert_missing(pairs: &mut Vec<(String, Value)>, key: &str, value: Value) {
    if !pairs.iter().any(|(k, _)| k == key) {
        pairs.push((key.to_string(), value));
    }
}

/// In-place v1 → v2 upgrade of a parsed snapshot document (a v2
/// document then reads as v3; see the module docs). The added state all
/// defaults to "robustness features off", which is exactly
/// the v1 engine's behaviour: no failure domains (so no recovery
/// deadlines), `AdmissionPolicy::None` (so every offered arrival was
/// admitted — the summary's new admitted total equals its arrival
/// total), and empty per-tenant admission ledgers (the engine sizes
/// them lazily on the next epoch).
fn upgrade_v1(value: &mut Value) -> Result<(), String> {
    let root = object_mut(value, "snapshot")?;
    insert_missing(root, "domain_down_until", Value::Array(Vec::new()));
    insert_missing(root, "admission_tokens", Value::Array(Vec::new()));

    let config = object_mut(field_mut(root, "config", "snapshot")?, "config")?;
    insert_missing(config, "admission", Value::String("None".to_string()));
    let churn = object_mut(field_mut(config, "churn", "config")?, "config.churn")?;
    insert_missing(churn, "domains", Value::Array(Vec::new()));
    insert_missing(churn, "domain_outage", Value::Number(Number::F(0.0)));
    insert_missing(churn, "outage", crate::domains::OutageDuration::default().to_value());
    insert_missing(churn, "steering", Value::String("Oblivious".to_string()));

    let summary = object_mut(field_mut(root, "summary", "snapshot")?, "summary")?;
    let admitted = field_mut(summary, "total_arrivals", "summary")?.clone();
    insert_missing(summary, "total_admitted", admitted);
    insert_missing(summary, "total_rejected", Value::Number(Number::U(0)));
    insert_missing(summary, "tenant_admitted_tasks", Value::Array(Vec::new()));
    insert_missing(summary, "tenant_rejected_tasks", Value::Array(Vec::new()));
    Ok(())
}
