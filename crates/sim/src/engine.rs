//! The epoch-driven online simulation engine — the *scheduler* half of
//! the state/scheduler split (the state half is the crate-private `state`
//! module).
//!
//! Each epoch the scheduler: (1) applies resource churn (scripted rack
//! drains and stochastic failures/recoveries, draining tasks off leaving
//! resources), (2) departs each live task independently with probability
//! `departure_prob`, (3) admits streaming arrivals, then (4) runs the
//! resource-controlled protocol (the paper's Algorithm 5.1) as an
//! *incremental* rebalancing pass — up to `rounds_per_epoch` protocol
//! rounds — and (5) records an [`EpochRecord`]. The threshold is
//! recomputed every epoch from the *live* population (total weight,
//! active resources, live `w_max`), so the target tracks the traffic.
//!
//! ## Cost of an epoch
//!
//! Outside the rebalancing pass, a steady epoch costs O(n + arrivals +
//! departures) for n resources, not O(m) in the live population m:
//!
//! * departures are geometric skips over the concatenated stacks — one
//!   draw per departure, plus an O(n) walk over the stack lengths;
//! * the live `w_max` and its multiplicity are cached in the state;
//!   the O(m) rescan runs only when the last task carrying it departs;
//! * the metrics are one pass over the stacks, reading task weights only
//!   on overloaded ones;
//! * a single tenant's SLO violations are counted from the cached stack
//!   loads. Several tenants still gather per-(tenant, resource) loads in
//!   O(m);
//! * the adaptive adversary's targets are an O(n) top-`spread` selection
//!   over a snapshot of last epoch's loads, not a sort of all n ids.
//!
//! [`OnlineSim::audit`] checks the cached state against full recomputes.
//!
//! The rebalancing pass always runs through the sharded engine of
//! [`crate::shard`]: the stacks are rebalanced in place, split into
//! `SimConfig::shards` contiguous slices. Each round is two parallel
//! phases on the persistent rayon pool, one task per slice: eject+walk,
//! which files every handoff under its destination's slice, then apply.
//! At `shards = 1` this is the sequential reference. The pass scans the n
//! stacks once; each round then touches only the overloaded frontier and
//! its destinations, so it costs O(cohort), not O(n). The epoch reads the
//! rounds, migrations and obs counters off the returned
//! [`PassOutcome`](crate::shard::PassOutcome).
//!
//! ## Determinism
//!
//! Epoch `e` draws its churn/departure/arrival randomness from a fresh
//! sequential `SmallRng` seeded with [`epoch_seed`]`(base_seed, e)`, so
//! epoch `e`'s stream is independent of how much randomness earlier
//! epochs consumed. The rebalancing pass draws nothing from that RNG:
//! its walk words come from the *counter-based* stream rooted at
//! [`crate::shard::rebalance_seed`]`(base_seed, e)` — a pure function of
//! `(seed, epoch, round, node, slot)` — which is what keeps a run
//! bit-identical across `RAYON_NUM_THREADS` **and** across shard counts
//! (see `crate::shard` for the law and its chi-square pin).
//!
//! ## Observability
//!
//! [`OnlineSim::enable_obs`] turns on a per-run [`tlb_obs::Registry`]
//! fed every epoch: deterministic protocol counters (arrivals, ejection
//! cohorts, walk draws — identical across thread and shard counts),
//! wall-clock phase timings (churn / arrivals / rebalance / record), and
//! execution-layout diagnostics (rayon pool deltas, cross-shard
//! handoffs). With obs off the loop takes no timestamps and keeps no
//! tallies; with it on, nothing touches any RNG stream, so records and
//! snapshots stay bit-identical either way. While obs is on, lifecycle
//! transitions (obs start, checkpoint, reconfigure) also emit one-line
//! JSON events on stderr.

use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use tlb_core::stack::ResourceStack;
use tlb_core::threshold::ThresholdPolicy;
use tlb_graphs::DynamicGraph;
use tlb_graphs::Graph;
use tlb_obs::{ObsReport, Registry};
use tlb_walks::WalkKind;

use crate::admission::AdmissionPolicy;
use crate::arrivals::{ArrivalPlacement, ArrivalProcess, ArrivalWeights};
use crate::churn::{ChurnEvent, ChurnProcess};
use crate::domains::{validate_domain_list, DomainSteering};
use crate::metrics::{EpochRecord, RunningSummary, SimReport};
use crate::shard::{rebalance_seed, ShardedEngine};
use crate::sink::MetricsSink;
use crate::snapshot::{SimSnapshot, SNAPSHOT_VERSION};
use crate::state::SimState;
use crate::tenants::{TenantSet, TenantSpec};

/// Derive epoch `e`'s seed from the base seed (splitmix64 over the pair,
/// the same mix `tlb-experiments::harness::trial_seed` uses for trials,
/// so neighbouring epochs get decorrelated streams).
#[inline]
pub fn epoch_seed(base: u64, epoch: u64) -> u64 {
    let mut z = base ^ epoch.wrapping_mul(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Which protocol the per-epoch rebalancing pass runs. The online
/// engine runs Algorithm 5.1 only; the enum keeps the serialized config
/// and snapshot shape (`{"Resource": {"walk": ...}}`) stable.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum RebalancePolicy {
    /// Resource-controlled (Algorithm 5.1): overloaded resources eject
    /// every cutting/above task, one walk step each. Runs through the
    /// sharded engine ([`crate::shard::ShardedEngine`]); honours
    /// [`SimConfig::shards`].
    Resource {
        /// Walk moving ejected tasks.
        walk: WalkKind,
    },
}

/// Full configuration of an online run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Scenario name (report key).
    pub name: String,
    /// Epochs to run.
    pub epochs: u64,
    /// Base seed; see [`epoch_seed`].
    pub seed: u64,
    /// Arrival count process.
    pub arrivals: ArrivalProcess,
    /// If set, arrivals only happen while `epoch < window` (the tail of
    /// the run is a pure drain/convergence phase).
    pub arrival_window: Option<u64>,
    /// Where arrivals land.
    pub arrival_placement: ArrivalPlacement,
    /// Arrival weight distribution.
    pub arrival_weights: ArrivalWeights,
    /// Per-task per-epoch departure probability (`0 ≤ p < 1`).
    pub departure_prob: f64,
    /// Resource churn (independent flap, scripted events, and
    /// correlated failure-domain outages).
    pub churn: ChurnProcess,
    /// Admission policy gating arrivals before placement (RNG-free
    /// decisions; see [`crate::admission`]).
    pub admission: AdmissionPolicy,
    /// Tenant classes (arrival shares and per-tenant SLO policies).
    pub tenants: Vec<TenantSpec>,
    /// Global threshold policy the rebalancing pass enforces, recomputed
    /// each epoch over the live population.
    pub threshold: ThresholdPolicy,
    /// Which protocol rebalances.
    pub rebalance: RebalancePolicy,
    /// Protocol-round budget per epoch (the pass stops early once
    /// balanced).
    pub rounds_per_epoch: u64,
    /// Shard count of the rebalancing pass (the output is bit-identical
    /// at every shard count, so this is purely a throughput knob — see
    /// `crate::shard`). Clamped to the node count.
    pub shards: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            name: "online".into(),
            epochs: 200,
            seed: 0,
            arrivals: ArrivalProcess::Poisson { rate: 20.0 },
            arrival_window: None,
            arrival_placement: ArrivalPlacement::Uniform,
            arrival_weights: ArrivalWeights::Unit,
            departure_prob: 0.0,
            churn: ChurnProcess::none(),
            admission: AdmissionPolicy::None,
            tenants: vec![TenantSpec::new(
                "default",
                ThresholdPolicy::AboveAverage { epsilon: 0.2 },
                1.0,
            )],
            threshold: ThresholdPolicy::AboveAverage { epsilon: 0.2 },
            rebalance: RebalancePolicy::Resource { walk: WalkKind::MaxDegree },
            rounds_per_epoch: 16,
            shards: 1,
        }
    }
}

/// Observability state of a run: the registry every epoch feeds, plus
/// the pool-statistics baseline captured at enable time so the report
/// carries this run's deltas rather than process-lifetime totals.
#[derive(Debug)]
struct ObsState {
    reg: Registry,
    pool_base: rayon::PoolStats,
}

/// The online simulation: the engine's state plus the epoch scheduler
/// driving it (see the module docs for the split).
#[derive(Debug)]
pub struct OnlineSim {
    cfg: SimConfig,
    tenants: TenantSet,
    /// Pristine copy of the base graph the run started on — the
    /// reference [`SimSnapshot`] deltas are computed against.
    base: Graph,
    state: SimState,
    epoch: u64,
    records: Vec<EpochRecord>,
    /// Streaming run-level aggregates; fed every epoch whether or not
    /// the record itself is buffered.
    summary: RunningSummary,
    /// Whether epoch records accumulate in `records` (batch mode). Off
    /// in service mode so memory stays flat over unbounded runs.
    buffer_records: bool,
    /// Optional streaming destination for every epoch record.
    sink: Option<Box<dyn MetricsSink>>,
    /// Per-run observability; `None` (the default) keeps the epoch loop
    /// on its uninstrumented path.
    obs: Option<ObsState>,
}

impl OnlineSim {
    /// Create an engine over `base` with no tasks.
    ///
    /// # Panics
    /// If the graph is empty, the tenant list is empty or has
    /// non-positive shares, `departure_prob` is not in `[0, 1)`, a churn
    /// probability is not in `[0, 1]`, a failure domain, scripted churn
    /// event or hot spot does not fit the graph, `shards` is zero, or the
    /// walk is [`WalkKind::Simple`].
    pub fn new(base: Graph, cfg: SimConfig) -> Self {
        let n = base.num_nodes();
        assert!(n > 0, "need at least one resource");
        if let Err(msg) = Self::try_validate(&cfg, n) {
            panic!("{msg}");
        }
        let tenants = TenantSet::new(cfg.tenants.clone());
        let mut state = SimState::new(base.clone());
        state.domain_down_until = vec![0; cfg.churn.domains.len()];
        state.admission_tokens = cfg.admission.initial_tokens(tenants.len());
        OnlineSim {
            cfg,
            tenants,
            base,
            state,
            epoch: 0,
            records: Vec::new(),
            summary: RunningSummary::default(),
            buffer_records: true,
            sink: None,
            obs: None,
        }
    }

    /// Parameters come from config literals and snapshots, so reject bad
    /// ones up front instead of panicking deep inside a sampler mid-run.
    /// The checks against the `n`-node graph live in
    /// [`ChurnProcess::validate_against_graph`] and
    /// [`ArrivalPlacement::validate_against_graph`].
    fn try_validate(cfg: &SimConfig, n: usize) -> Result<(), String> {
        if cfg.tenants.is_empty() {
            return Err("need at least one tenant".to_string());
        }
        if let Some(t) = cfg.tenants.iter().find(|t| !(t.share.is_finite() && t.share > 0.0)) {
            return Err(format!(
                "tenant {:?} share must be positive and finite, got {}",
                t.name, t.share
            ));
        }
        if !(0.0..1.0).contains(&cfg.departure_prob) {
            return Err(format!("departure_prob must be in [0, 1), got {}", cfg.departure_prob));
        }
        for (name, p) in [
            ("random_down", cfg.churn.random_down),
            ("random_up", cfg.churn.random_up),
            ("domain_outage", cfg.churn.domain_outage),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("churn {name} must be in [0, 1], got {p}"));
            }
        }
        validate_domain_list(&cfg.churn.domains)?;
        cfg.churn.outage.validate()?;
        for (epoch, ev) in &cfg.churn.scripted {
            if let ChurnEvent::DomainOutage { domain, duration } = ev {
                if *domain as usize >= cfg.churn.domains.len() {
                    return Err(format!(
                        "scripted DomainOutage at epoch {epoch} names domain {domain}, but only \
                         {} domains are configured",
                        cfg.churn.domains.len()
                    ));
                }
                if *duration == 0 {
                    return Err(format!(
                        "scripted DomainOutage at epoch {epoch} must last >= 1 epoch"
                    ));
                }
            }
        }
        cfg.admission.validate()?;
        cfg.arrivals.validate()?;
        cfg.arrival_weights.validate()?;
        cfg.arrival_placement.validate()?;
        if cfg.shards == 0 {
            return Err("shards must be >= 1".to_string());
        }
        // Churn can isolate an active node; the max-degree and lazy walks
        // self-loop there, but the simple walk is undefined on isolated
        // nodes, so it cannot drive an online run.
        let RebalancePolicy::Resource { walk } = cfg.rebalance;
        if walk == WalkKind::Simple {
            return Err(
                "WalkKind::Simple cannot rebalance a churned graph (undefined on isolated nodes)"
                    .to_string(),
            );
        }
        cfg.churn.validate_against_graph(n)?;
        cfg.arrival_placement.validate_against_graph(n)
    }

    /// Validated in-place configuration swap for a live service: apply a
    /// new phase's config between epochs, keeping all engine state.
    ///
    /// Rejected swaps (returned as errors, the engine untouched):
    ///
    /// * a changed tenant list — task→tenant assignments are indices
    ///   into it;
    /// * a changed failure-domain list — the recovery deadlines index
    ///   into it (swapping outage probability/duration/steering is
    ///   fine);
    /// * any config [`new`](Self::new) rejects, which
    ///   includes `WalkKind::Simple` (undefined on the isolated nodes
    ///   churn creates);
    /// * scripted churn or a hot spot naming a node, range or edge
    ///   outside the graph.
    ///
    /// Swapping the *admission* policy resets its token balances to the
    /// new policy's initial state (an unchanged policy keeps mid-bucket
    /// state, so a pure phase swap stays bit-identical).
    ///
    /// # Errors
    /// As above; the current configuration stays in force on error.
    pub fn reconfigure(&mut self, cfg: SimConfig) -> anyhow::Result<()> {
        anyhow::ensure!(self.cfg.tenants == cfg.tenants, "tenant classes cannot change mid-run");
        anyhow::ensure!(
            self.cfg.churn.domains == cfg.churn.domains,
            "failure domains cannot change mid-run (recovery deadlines index into them)"
        );
        Self::try_validate(&cfg, self.base.num_nodes()).map_err(anyhow::Error::msg)?;
        if self.cfg.admission != cfg.admission {
            self.state.admission_tokens = cfg.admission.initial_tokens(self.tenants.len());
        }
        self.cfg = cfg;
        self.obs_event("reconfigure");
        Ok(())
    }

    /// Number of live tasks.
    pub fn live_tasks(&self) -> usize {
        self.state.live
    }

    /// Epochs executed so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The churn overlay (for inspection).
    pub fn graph(&self) -> &DynamicGraph {
        &self.state.dg
    }

    /// The per-resource stacks (index = resource id).
    pub fn stacks(&self) -> &[ResourceStack] {
        &self.state.stacks
    }

    /// Records taken so far.
    pub fn records(&self) -> &[EpochRecord] {
        &self.records
    }

    /// Check the engine's incremental state against full recomputes. The
    /// epoch loop never calls it (it is O(m)); tests and soaks call it
    /// between epochs. It checks that:
    ///
    /// * there is one stack per resource, and live tasks = Σ stack sizes
    ///   = id slots − free ids;
    /// * the cached `w_max` and the number of live tasks carrying it equal
    ///   a full rescan;
    /// * every stack's cached load is within a relative 10⁻⁹ of its exact
    ///   weight sum (relative to the larger of that sum, `w_max` and 1);
    /// * no task sits on an inactive resource;
    /// * every id slot is stacked once or free once, never both or twice;
    /// * every stacked task's weight is finite and positive.
    ///
    /// # Errors
    /// A description of the first broken invariant.
    pub fn audit(&self) -> Result<(), String> {
        self.state.audit()
    }

    /// Capacity of the task-id space (live slots + recycled free slots) —
    /// the engine's memory footprint per task, for the bounded-memory
    /// tests.
    pub fn id_capacity(&self) -> usize {
        self.state.weights.len()
    }

    /// Streaming run-level aggregates over every epoch executed by this
    /// engine (including epochs before a [`restore`](Self::restore)).
    pub fn summary(&self) -> &RunningSummary {
        &self.summary
    }

    /// Attach a streaming destination for epoch records; replaces (and
    /// returns) any previous sink. Pass `None` to detach.
    pub fn set_sink(&mut self, sink: Option<Box<dyn MetricsSink>>) -> Option<Box<dyn MetricsSink>> {
        std::mem::replace(&mut self.sink, sink)
    }

    /// Turn the in-memory record buffer on (batch mode, the default) or
    /// off (service mode: memory stays flat; the series goes to the
    /// sink, aggregates to [`summary`](Self::summary)). Turning it off
    /// clears any already-buffered records.
    pub fn set_record_buffering(&mut self, on: bool) {
        self.buffer_records = on;
        if !on {
            self.records = Vec::new();
        }
    }

    /// Turn on observability for this run (idempotent). Captures the
    /// rayon pool-statistics baseline (so [`obs_report`](Self::obs_report)
    /// carries deltas), starts the registry the epoch loop feeds, and
    /// emits an `obs_start` event line on stderr. After a
    /// [`restore`](Self::restore), call this again on the resumed
    /// engine — the event's `epoch` field records the resume point.
    ///
    /// Determinism-neutral: nothing here or in the instrumented loop
    /// touches an RNG stream, so records, snapshots, and reports are
    /// bit-identical to an obs-off run.
    pub fn enable_obs(&mut self) {
        if self.obs.is_none() {
            self.obs = Some(ObsState { reg: Registry::new(), pool_base: rayon::pool_stats() });
            self.obs_event("obs_start");
        }
    }

    /// Snapshot the observability report, if
    /// [`enable_obs`](Self::enable_obs) was called: deterministic
    /// protocol counters, wall-clock phase timings, and execution-layout
    /// diagnostics including the pool-statistics delta since enable (see
    /// `tlb-obs` for the three-way split).
    pub fn obs_report(&self) -> Option<ObsReport> {
        let obs = self.obs.as_ref()?;
        let pool = rayon::pool_stats();
        let base = &obs.pool_base;
        obs.reg.set_exec("pool.threads", pool.threads as u64);
        obs.reg.set_exec("pool.workers_spawned", pool.workers_spawned as u64);
        obs.reg.set_exec("pool.batches", pool.batches.saturating_sub(base.batches));
        obs.reg.set_exec(
            "pool.chunks_claimed",
            pool.chunks_claimed.saturating_sub(base.chunks_claimed),
        );
        obs.reg
            .set_exec("pool.inline_nested", pool.inline_nested.saturating_sub(base.inline_nested));
        obs.reg.set_exec(
            "pool.inline_contended",
            pool.inline_contended.saturating_sub(base.inline_contended),
        );
        Some(obs.reg.snapshot())
    }

    /// One structured JSON event line on stderr — only while obs is on.
    fn obs_event(&self, kind: &str) {
        if self.obs.is_some() {
            eprintln!(
                "{{\"tlb_obs_event\":\"{kind}\",\"epoch\":{},\"live_tasks\":{},\"active_resources\":{}}}",
                self.epoch,
                self.state.live,
                self.state.dg.num_active()
            );
        }
    }

    /// Run `cfg.epochs` epochs (on top of any already run) and assemble
    /// the report.
    ///
    /// # Panics
    /// If an attached metrics sink fails; use [`try_run`](Self::try_run)
    /// to handle sink errors.
    pub fn run(&mut self) -> SimReport {
        self.try_run().expect("online run failed")
    }

    /// Fallible form of [`run`](Self::run): run `cfg.epochs` epochs,
    /// flush the sink, and assemble the [`report`](Self::report).
    ///
    /// # Errors
    /// If the attached metrics sink fails to record or flush.
    pub fn try_run(&mut self) -> anyhow::Result<SimReport> {
        for _ in 0..self.cfg.epochs {
            self.try_run_epoch()?;
        }
        if let Some(sink) = self.sink.as_mut() {
            sink.flush()?;
        }
        Ok(self.report())
    }

    /// Assemble a report for every epoch of the run, including those
    /// before a [`restore`](Self::restore): the aggregates come from the
    /// streaming [`summary`](Self::summary), and the series is whatever
    /// is buffered (empty in service mode, where it went to the sink; the
    /// post-restore tail after a restore).
    pub fn report(&self) -> SimReport {
        let mut report =
            self.summary
                .to_report(self.cfg.name.clone(), self.cfg.seed, self.tenants.names());
        report.records = self.records.clone();
        report
    }

    /// Checkpoint the engine at the current epoch boundary.
    ///
    /// Flushes the sink first so the metrics stream on disk never lags
    /// the snapshot, then captures config, epoch counter, churn overlay
    /// (as a canonical delta against the pristine base graph), stacks,
    /// task tables, and the streaming summary. See [`crate::snapshot`]
    /// for why no RNG state is needed.
    ///
    /// # Errors
    /// If the sink flush fails.
    pub fn checkpoint(&mut self) -> anyhow::Result<SimSnapshot> {
        if let Some(sink) = self.sink.as_mut() {
            sink.flush()?;
        }
        self.obs_event("checkpoint");
        Ok(SimSnapshot {
            version: SNAPSHOT_VERSION,
            config: self.cfg.clone(),
            epoch: self.epoch,
            graph: self.state.dg.delta_from(&self.base),
            stacks: self.state.stacks.clone(),
            weights: self.state.weights.clone(),
            tenant_of: self.state.tenant_of.clone(),
            free_ids: self.state.free_ids.clone(),
            live: self.state.live,
            domain_down_until: self.state.domain_down_until.clone(),
            admission_tokens: self.state.admission_tokens.clone(),
            summary: self.summary.clone(),
        })
    }

    /// Rebuild an engine from a checkpoint plus the pristine base graph
    /// the original run was started on. The resumed engine continues
    /// **bit-identically** to the uninterrupted run — same records, same
    /// stream draws — across thread and shard counts, because all
    /// randomness re-derives from `(seed, epoch)` at epoch boundaries.
    ///
    /// The record buffer starts empty (records before the checkpoint
    /// live wherever the original run's sink put them);
    /// [`summary`](Self::summary) continues from the checkpointed
    /// aggregates. No sink is attached; re-attach one with
    /// [`set_sink`](Self::set_sink).
    ///
    /// # Errors
    /// If the snapshot version is unsupported, the config fails
    /// validation, the graph delta does not apply to `base`, or the
    /// restored state fails [`audit`](Self::audit) (task tables, id
    /// accounting, weights, cached loads).
    pub fn restore(snap: SimSnapshot, base: Graph) -> anyhow::Result<Self> {
        anyhow::ensure!(
            snap.version == SNAPSHOT_VERSION,
            "snapshot version {} unsupported (this build reads version {})",
            snap.version,
            SNAPSHOT_VERSION
        );
        let n = base.num_nodes();
        anyhow::ensure!(n > 0, "need at least one resource");
        Self::try_validate(&snap.config, n).map_err(anyhow::Error::msg)?;
        anyhow::ensure!(
            snap.domain_down_until.len() == snap.config.churn.domains.len(),
            "snapshot carries {} domain deadlines for {} configured domains",
            snap.domain_down_until.len(),
            snap.config.churn.domains.len()
        );
        let expected_tokens = match snap.config.admission {
            AdmissionPolicy::TokenBucket { .. } => snap.config.tenants.len(),
            _ => 0,
        };
        anyhow::ensure!(
            snap.admission_tokens.len() == expected_tokens,
            "snapshot carries {} admission token balances, expected {expected_tokens} for the \
             configured policy",
            snap.admission_tokens.len()
        );
        if let AdmissionPolicy::TokenBucket { burst, .. } = snap.config.admission {
            anyhow::ensure!(
                snap.admission_tokens.iter().all(|t| t.is_finite() && (0.0..=burst).contains(t)),
                "admission token balance outside [0, {burst}]"
            );
        }
        let dg = DynamicGraph::from_delta(base.clone(), &snap.graph)
            .map_err(|e| anyhow::anyhow!("snapshot graph delta does not apply: {e}"))?;
        let tenants = TenantSet::new(snap.config.tenants.clone());
        // At an epoch boundary the walk graph always equals the overlay
        // snapshot (any topology change refreshes it within the epoch),
        // so re-deriving it here preserves bit-identity.
        let walk_graph = dg.snapshot();
        let mut state = SimState::new(base.clone());
        state.dg = dg;
        state.walk_graph = walk_graph;
        state.stacks = snap.stacks;
        state.weights = snap.weights;
        state.tenant_of = snap.tenant_of;
        state.free_ids = snap.free_ids;
        state.live = snap.live;
        state.domain_down_until = snap.domain_down_until;
        state.admission_tokens = snap.admission_tokens;
        let inconsistent = |e: String| anyhow::anyhow!("snapshot state is inconsistent: {e}");
        // The tables first: the `w_max` scan indexes the weight table.
        state.audit_tables().map_err(inconsistent)?;
        anyhow::ensure!(
            state.tenant_of.iter().all(|&c| (c as usize) < tenants.len()),
            "snapshot names a tenant index outside the {} configured tenants",
            tenants.len()
        );
        state.w_max = state.scan_w_max();
        state.audit().map_err(inconsistent)?;
        Ok(OnlineSim {
            cfg: snap.config,
            tenants,
            base,
            state,
            epoch: snap.epoch,
            records: Vec::new(),
            summary: snap.summary,
            buffer_records: true,
            sink: None,
            obs: None,
        })
    }

    /// Execute one epoch: churn → departures → arrivals → rebalance →
    /// metrics.
    ///
    /// # Panics
    /// If an attached metrics sink fails; use
    /// [`try_run_epoch`](Self::try_run_epoch) to handle sink errors.
    pub fn run_epoch(&mut self) {
        self.try_run_epoch().expect("online epoch failed")
    }

    /// Fallible form of [`run_epoch`](Self::run_epoch).
    ///
    /// # Errors
    /// If the attached metrics sink fails to record.
    pub fn try_run_epoch(&mut self) -> anyhow::Result<()> {
        let obs_on = self.obs.is_some();
        let t_start = obs_on.then(Instant::now);
        let mut rng = SmallRng::seed_from_u64(epoch_seed(self.cfg.seed, self.epoch));
        let state = &mut self.state;
        let mut drained = 0u64;
        let mut topology_changed = false;
        let epoch = self.epoch;
        let domains = &self.cfg.churn.domains;

        // The adaptive arrival adversary reacts to the loads as last
        // epoch's rebalancing pass left them — snapshot them before this
        // epoch's churn/departures disturb them. Every branch below is
        // feature-gated, so configs without the new knobs draw the exact
        // RNG sequence they always did.
        let adaptive_spread = match self.cfg.arrival_placement {
            ArrivalPlacement::Adaptive { spread } => {
                state.snapshot_loads();
                Some(spread)
            }
            _ => None,
        };

        // --- 1. churn: due domain recoveries (scheduled, no RNG), then
        // scripted events in list order, then the stochastic domain
        // outage, then independent down/up flaps.
        if !domains.is_empty() {
            state.recover_due_domains(domains, epoch, &mut topology_changed);
        }
        let events: Vec<ChurnEvent> = self.cfg.churn.events_at(epoch).collect();
        for ev in events {
            drained += match ev {
                ChurnEvent::DomainOutage { domain, duration } => state.domain_outage(
                    domains,
                    domain as usize,
                    epoch + duration,
                    &mut rng,
                    &mut topology_changed,
                ),
                ev => state.apply_event(ev, &mut rng, &mut topology_changed),
            };
        }
        if !domains.is_empty()
            && self.cfg.churn.domain_outage > 0.0
            && rng.gen_bool(self.cfg.churn.domain_outage)
        {
            let healthy: Vec<usize> =
                (0..domains.len()).filter(|&d| state.domain_down_until[d] == 0).collect();
            if !healthy.is_empty() {
                let d = match self.cfg.churn.steering {
                    DomainSteering::Oblivious => healthy[rng.gen_range(0..healthy.len())],
                    // The adversary shoots the most-loaded healthy
                    // domain — a pure function of the stacks, no draw.
                    DomainSteering::Adaptive => healthy
                        .iter()
                        .copied()
                        .max_by(|&a, &b| {
                            state
                                .domain_load(domains, a)
                                .partial_cmp(&state.domain_load(domains, b))
                                .expect("loads are finite")
                                .then(b.cmp(&a))
                        })
                        .expect("healthy is non-empty"),
                };
                let duration = self.cfg.churn.outage.sample(&mut rng);
                drained += state.domain_outage(
                    domains,
                    d,
                    epoch + duration,
                    &mut rng,
                    &mut topology_changed,
                );
            }
        }
        if self.cfg.churn.random_down > 0.0 && rng.gen_bool(self.cfg.churn.random_down) {
            let active = state.active_ids();
            if active.len() > 1 {
                let v = active[rng.gen_range(0..active.len())];
                drained +=
                    state.apply_event(ChurnEvent::Deactivate(v), &mut rng, &mut topology_changed);
            }
        }
        if self.cfg.churn.random_up > 0.0 && rng.gen_bool(self.cfg.churn.random_up) {
            // A down domain recovers as a unit on its deadline — its
            // nodes are not eligible for one-at-a-time resurrection.
            let inactive: Vec<tlb_graphs::NodeId> = (0..state.dg.num_nodes() as tlb_graphs::NodeId)
                .filter(|&v| {
                    !state.dg.is_active(v)
                        && (domains.is_empty() || !state.in_down_domain(domains, v, epoch))
                })
                .collect();
            if !inactive.is_empty() {
                let v = inactive[rng.gen_range(0..inactive.len())];
                state.apply_event(ChurnEvent::Activate(v), &mut rng, &mut topology_changed);
            }
        }
        if topology_changed {
            state.refresh_walk_graph();
        }
        let t_churn = obs_on.then(Instant::now);

        // --- 2. departures: each live task leaves independently with
        // probability `departure_prob`, drawn as geometric skips over the
        // concatenated stacks (one draw per departure, not per task).
        let departures = state.depart(self.cfg.departure_prob, &mut rng);

        // --- 3. arrivals, gated by admission. The offered stream
        // (tenant + weight draws) is identical whatever the policy
        // decides, and the decisions themselves consume no RNG, so the
        // only stream difference a policy makes is the destination
        // draws it skips for rejected tasks.
        let mut arrivals = 0u64;
        let mut admitted = 0u64;
        let mut rejected = 0u64;
        let mut tenant_admitted = vec![0u64; self.tenants.len()];
        let mut tenant_rejected = vec![0u64; self.tenants.len()];
        self.cfg.admission.refill(&mut state.admission_tokens);
        let in_window = self.cfg.arrival_window.is_none_or(|w| self.epoch < w);
        if in_window {
            let count = self.cfg.arrivals.sample_count(self.epoch, &mut rng);
            let active = state.active_ids();
            // The adaptive adversary's targets for this whole epoch:
            // last epoch's `spread` most-loaded resources still active
            // (empty for the other placements).
            let adaptive_targets: Vec<tlb_graphs::NodeId> = match adaptive_spread {
                Some(spread) => state.top_loaded(&active, spread),
                None => Vec::new(),
            };
            // Projected total live weight, tracked incrementally for
            // the load-shedding decision (unused by the other policies,
            // so their epochs skip the O(n) sum).
            let mut projected_weight = match self.cfg.admission {
                AdmissionPolicy::LoadShed { .. } => state.total_weight(),
                _ => 0.0,
            };
            for _ in 0..count {
                let tenant = self.tenants.pick(rng.gen::<f64>());
                let weight = self.cfg.arrival_weights.sample(&mut rng);
                arrivals += 1;
                let admit = self.cfg.admission.admit(
                    tenant,
                    weight,
                    state.live,
                    projected_weight,
                    active.len(),
                    &mut state.admission_tokens,
                );
                if !admit {
                    rejected += 1;
                    tenant_rejected[tenant as usize] += 1;
                    continue;
                }
                let dest = state.arrival_destination(
                    self.cfg.arrival_placement,
                    &active,
                    &adaptive_targets,
                    admitted,
                    &mut rng,
                );
                state.admit(weight, tenant, dest);
                projected_weight += weight;
                admitted += 1;
                tenant_admitted[tenant as usize] += 1;
            }
        }

        // --- 4. recompute the live threshold.
        let n_active = state.dg.num_active();
        let total_weight = state.total_weight();
        let w_max = state.w_max.max;
        let threshold = if state.live > 0 {
            self.cfg.threshold.value(total_weight, n_active, w_max)
        } else {
            0.0
        };

        // --- 5. incremental rebalancing pass.
        let (mut rebalance_rounds, mut migrations) = (0u64, 0u64);
        let t_arrivals = obs_on.then(Instant::now);
        if state.live > 0 {
            // The sharded engine — at shards = 1 this *is* the reference
            // sequential semantics, so every run goes through one code
            // path regardless of k. It rebalances the stacks in place and
            // does the epoch's one balance scan itself.
            let RebalancePolicy::Resource { walk } = self.cfg.rebalance;
            let partition = state.dg.partition(self.cfg.shards);
            let pass = ShardedEngine::new(partition, threshold, walk, self.cfg.rounds_per_epoch)
                .run(
                    &mut state.stacks,
                    &state.walk_graph,
                    &state.weights,
                    rebalance_seed(self.cfg.seed, self.epoch),
                    obs_on,
                );
            (rebalance_rounds, migrations) = (pass.rounds, pass.migrations);
            if let Some(obs) = &self.obs {
                let reg = &obs.reg;
                // Shard-count-invariant work counter: the pass's one scan
                // counts even when it finds the stacks balanced.
                reg.add("rebalance.stacks_scanned", pass.stacks_scanned);
                // A pass that started balanced is not a rebalance: it ran no
                // round and leaves no other trace in the report.
                if pass.rounds > 0 || !pass.balanced {
                    // Shard-count-invariant (counters subtree).
                    reg.add("rebalance.ejected", pass.migrations);
                    reg.gauge("rebalance.max_round_cohort").record_max(pass.max_round_cohort);
                    // Layout-dependent (exec) and wall clock (timings).
                    reg.add_exec("shard.cross_shard_handoffs", pass.cross_shard_handoffs);
                    let t = pass.timings.expect("a pass with obs on is timed");
                    reg.record_ns("shard.eject_walk_ns", t.eject_walk_ns);
                    reg.record_ns("shard.apply_ns", t.apply_ns);
                }
            }
        }

        let t_rebalance = obs_on.then(Instant::now);

        // --- 6. metrics snapshot: one pass over the stacks, plus the
        // tenant scan (O(n) over stack loads with a single tenant).
        let (max_load, overloaded, potential) = state.load_metrics(threshold);
        let balanced = overloaded == 0;
        let tenant_violations = self.tenants.violations(
            &state.stacks,
            &state.weights,
            &state.tenant_of,
            n_active,
            total_weight,
            w_max,
        );
        if let Some(obs) = &self.obs {
            // Per-tenant SLO ledger, inside the deterministic counters
            // subtree: violated vs rejected vs admitted work.
            let reg = &obs.reg;
            for (c, spec) in self.tenants.specs().iter().enumerate() {
                reg.add(&format!("tenant.{}.violations", spec.name), tenant_violations[c]);
                reg.add(&format!("tenant.{}.admitted", spec.name), tenant_admitted[c]);
                reg.add(&format!("tenant.{}.rejected", spec.name), tenant_rejected[c]);
            }
        }
        let record = EpochRecord {
            epoch: self.epoch,
            live_tasks: state.live,
            active_resources: n_active,
            arrivals,
            admitted,
            rejected,
            departures,
            drained,
            rebalance_rounds,
            migrations,
            threshold,
            max_load,
            mean_load: if n_active > 0 { total_weight / n_active as f64 } else { 0.0 },
            overload_fraction: if n_active > 0 { overloaded as f64 / n_active as f64 } else { 0.0 },
            potential,
            balanced,
            tenant_violations,
            tenant_admitted,
            tenant_rejected,
        };
        self.summary.observe(&record);
        if let Some(sink) = self.sink.as_mut() {
            sink.record(&record)?;
        }
        if self.buffer_records {
            self.records.push(record);
        }
        if let Some(obs) = &self.obs {
            let reg = &obs.reg;
            reg.add("sim.epochs", 1);
            reg.add("sim.arrivals", arrivals);
            reg.add("sim.admitted", admitted);
            reg.add("sim.rejected", rejected);
            reg.add("sim.departures", departures);
            reg.add("sim.drained", drained);
            reg.add("sim.migrations", migrations);
            reg.add("sim.rebalance_rounds", rebalance_rounds);
            if balanced {
                reg.add("sim.balanced_epochs", 1);
            }
            let t_end = Instant::now();
            let span = |a: Option<Instant>, b: Instant| {
                (b - a.expect("obs boundaries exist while obs is on")).as_nanos() as u64
            };
            reg.record_ns("epoch.churn_ns", span(t_start, t_churn.unwrap()));
            reg.record_ns("epoch.arrivals_ns", span(t_churn, t_arrivals.unwrap()));
            reg.record_ns("epoch.rebalance_ns", span(t_arrivals, t_rebalance.unwrap()));
            reg.record_ns("epoch.record_ns", span(t_rebalance, t_end));
            reg.record_ns("epoch.total_ns", span(t_start, t_end));
        }
        self.epoch += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domains::OutageDuration;
    use tlb_graphs::generators::{complete, torus2d};

    fn quick_cfg(name: &str) -> SimConfig {
        SimConfig {
            name: name.into(),
            epochs: 60,
            seed: 11,
            arrivals: ArrivalProcess::Poisson { rate: 12.0 },
            departure_prob: 0.05,
            rounds_per_epoch: 8,
            ..Default::default()
        }
    }

    #[test]
    fn steady_state_stays_mostly_balanced() {
        let mut sim = OnlineSim::new(complete(16), quick_cfg("steady"));
        let report = sim.run();
        assert_eq!(report.epochs, 60);
        assert!(report.total_arrivals > 0);
        assert!(report.total_departures > 0);
        // On K_16 with a generous round budget the pass should end most
        // epochs balanced.
        assert!(report.balanced_fraction > 0.8, "fraction {}", report.balanced_fraction);
    }

    #[test]
    fn runs_are_bit_identical() {
        let a = OnlineSim::new(torus2d(4, 4), quick_cfg("det")).run();
        let b = OnlineSim::new(torus2d(4, 4), quick_cfg("det")).run();
        assert_eq!(a, b);
        assert_eq!(a.to_json().unwrap(), b.to_json().unwrap());
    }

    #[test]
    fn sharded_runs_match_the_single_shard_reference() {
        // The online acceptance form of the shard-invariance law: whole
        // reports (every record field, bit for bit) are independent of
        // the shard count.
        let mut cfg = quick_cfg("shards");
        cfg.churn = ChurnProcess {
            scripted: vec![],
            random_down: 0.05,
            random_up: 0.08,
            ..Default::default()
        };
        let reference = OnlineSim::new(torus2d(4, 4), cfg.clone()).run();
        for shards in [2usize, 3, 7, 16] {
            cfg.shards = shards;
            let sharded = OnlineSim::new(torus2d(4, 4), cfg.clone()).run();
            assert_eq!(sharded, reference, "shard count {shards} diverged");
        }
    }

    #[test]
    fn epoch_seeding_decouples_epochs_from_history() {
        // Changing epoch 0's workload must not change epoch 5's draws:
        // run two configs that differ only in the arrival window and
        // compare the *churn* draws indirectly via the seed function.
        assert_ne!(epoch_seed(1, 0), epoch_seed(1, 1));
        assert_eq!(epoch_seed(9, 4), epoch_seed(9, 4));
        assert_ne!(epoch_seed(1, 4), epoch_seed(2, 4));
    }

    #[test]
    fn drain_preserves_tasks_and_weight() {
        let mut cfg = quick_cfg("drain");
        cfg.departure_prob = 0.0;
        cfg.arrival_window = Some(10);
        cfg.epochs = 30;
        cfg.churn = ChurnProcess::scripted(vec![
            (12, ChurnEvent::Deactivate(0)),
            (13, ChurnEvent::Deactivate(1)),
        ]);
        let mut sim = OnlineSim::new(complete(8), cfg);
        let report = sim.run();
        let live_after_arrivals = report.records[10].live_tasks;
        assert!(live_after_arrivals > 0);
        // No departures configured: draining moves tasks, never loses them.
        let last = report.last().unwrap();
        assert_eq!(last.live_tasks, live_after_arrivals);
        assert_eq!(last.active_resources, 6);
        assert!(report.records[12].drained > 0 || report.records[13].drained > 0);
        // Drained resources hold nothing.
        assert!(sim.stacks()[0].is_empty());
        assert!(sim.stacks()[1].is_empty());
    }

    #[test]
    fn last_resource_is_never_deactivated() {
        let mut cfg = quick_cfg("last");
        cfg.epochs = 5;
        cfg.churn =
            ChurnProcess::scripted(vec![(0, ChurnEvent::DeactivateRange { from: 0, to: 4 })]);
        let mut sim = OnlineSim::new(complete(4), cfg);
        let report = sim.run();
        assert_eq!(report.records[0].active_resources, 1);
    }

    #[test]
    fn hotspot_arrivals_pile_onto_target_then_rebalance() {
        let mut cfg = quick_cfg("hotspot");
        cfg.arrival_placement = ArrivalPlacement::HotSpot(3);
        cfg.rounds_per_epoch = 0; // no rebalancing: observe the pile-up
        cfg.departure_prob = 0.0;
        cfg.epochs = 5;
        let mut sim = OnlineSim::new(complete(8), cfg);
        sim.run();
        let on_target = sim.stacks()[3].num_tasks();
        let elsewhere: usize = sim
            .stacks()
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != 3)
            .map(|(_, s)| s.num_tasks())
            .sum();
        assert!(on_target > 0);
        assert_eq!(elsewhere, 0);
    }

    #[test]
    fn id_slots_are_recycled() {
        let mut cfg = quick_cfg("recycle");
        cfg.epochs = 400;
        cfg.arrivals = ArrivalProcess::Poisson { rate: 10.0 };
        cfg.departure_prob = 0.2; // equilibrium population ~ rate/p = 50
        let mut sim = OnlineSim::new(complete(12), cfg);
        let report = sim.run();
        assert!(report.total_arrivals > 2000);
        // Without slot recycling the id space would match total arrivals;
        // with it, it tracks the peak live population instead.
        assert!(
            sim.id_capacity() < report.total_arrivals as usize / 4,
            "id capacity {} vs arrivals {}",
            sim.id_capacity(),
            report.total_arrivals
        );
    }

    #[test]
    fn multi_tenant_violations_reported_per_tenant() {
        let mut cfg = quick_cfg("tenants");
        cfg.tenants = vec![
            TenantSpec::new("strict", ThresholdPolicy::Tight, 1.0),
            TenantSpec::new("relaxed", ThresholdPolicy::AboveAverage { epsilon: 2.0 }, 1.0),
        ];
        cfg.epochs = 80;
        let mut sim = OnlineSim::new(complete(10), cfg);
        let report = sim.run();
        assert_eq!(report.tenants, vec!["strict".to_string(), "relaxed".to_string()]);
        assert_eq!(report.tenant_violation_rates.len(), 2);
        // The tight tenant must violate at least as often as the relaxed
        // one (its threshold is strictly lower for the same traffic).
        assert!(
            report.tenant_violation_rates[0] >= report.tenant_violation_rates[1],
            "rates {:?}",
            report.tenant_violation_rates
        );
    }

    #[test]
    fn checkpoint_restore_resumes_bit_identically() {
        // Segmented run (pause at epoch 25, serialize, restore, finish)
        // vs the uninterrupted run: every post-restore record and the
        // whole-run summary must match bit for bit.
        let mut cfg = quick_cfg("ckpt");
        cfg.churn = ChurnProcess {
            scripted: vec![],
            random_down: 0.05,
            random_up: 0.08,
            ..Default::default()
        };
        let full = OnlineSim::new(torus2d(4, 4), cfg.clone()).run();

        let mut first = OnlineSim::new(torus2d(4, 4), cfg.clone());
        for _ in 0..25 {
            first.run_epoch();
        }
        let snap = first.checkpoint().unwrap();
        let json = snap.to_json().unwrap();
        let back = crate::snapshot::SimSnapshot::from_json(&json).unwrap();
        assert_eq!(back, snap, "snapshot must survive serde");

        let mut resumed = OnlineSim::restore(back, torus2d(4, 4)).unwrap();
        assert_eq!(resumed.epoch(), 25);
        for _ in 25..60 {
            resumed.run_epoch();
        }
        assert_eq!(resumed.records(), &full.records[25..]);
        let summary_report = resumed.summary().to_report("ckpt", cfg.seed, full.tenants.clone());
        assert_eq!(summary_report.total_migrations, full.total_migrations);
        assert_eq!(summary_report.peak_load.to_bits(), full.peak_load.to_bits());
        assert_eq!(summary_report.balanced_fraction.to_bits(), full.balanced_fraction.to_bits());
    }

    #[test]
    fn restored_batch_report_covers_the_whole_run() {
        // Batch mode after a restore: the report's aggregates cover every
        // epoch of the run, bit for bit as the uninterrupted run reports
        // them, and its series is the uninterrupted run's tail.
        let cfg = quick_cfg("restored-report");
        let full = OnlineSim::new(complete(8), cfg.clone()).run();
        let mut first = OnlineSim::new(complete(8), cfg.clone());
        for _ in 0..25 {
            first.run_epoch();
        }
        let mut resumed = OnlineSim::restore(first.checkpoint().unwrap(), complete(8)).unwrap();
        while resumed.epoch() < cfg.epochs {
            resumed.run_epoch();
        }
        let report = resumed.report();
        assert_eq!(report.records, full.records[25..]);
        // The JSON writer round-trips every f64, so equal text is bit-equal.
        let aggregates = |r: &SimReport| SimReport { records: Vec::new(), ..r.clone() }.to_json();
        assert_eq!(aggregates(&report).unwrap(), aggregates(&full).unwrap());
    }

    #[test]
    fn restore_rejects_corrupt_snapshots() {
        let mut sim = OnlineSim::new(complete(8), quick_cfg("corrupt"));
        for _ in 0..5 {
            sim.run_epoch();
        }
        let snap = sim.checkpoint().unwrap();

        // Corrupt a copy of the snapshot; the restore error, if any.
        let corrupt = |edit: &dyn Fn(&mut SimSnapshot)| {
            let mut bad = snap.clone();
            edit(&mut bad);
            OnlineSim::restore(bad, complete(8)).err().map(|e| e.to_string())
        };
        assert!(corrupt(&|s| s.version = 99).is_some());
        assert!(corrupt(&|s| s.live += 1).is_some());
        assert!(corrupt(&|s| s.tenant_of.push(0)).is_some());

        // Counts kept consistent (with one more id slot where needed), so
        // only the per-id checks catch these; each used to restore fine
        // and then panic or run on corrupt state.
        let t = snap.stacks.iter().flat_map(|s| s.tasks()).copied().next().unwrap();
        let free_out_of_range = corrupt(&|s| {
            s.weights.push(1.0);
            s.tenant_of.push(0);
            s.free_ids.push(1_000_000);
        });
        assert!(free_out_of_range.unwrap().contains("outside the"));
        let nan_weight = corrupt(&|s| s.weights[t as usize] = f64::NAN);
        assert!(nan_weight.unwrap().contains("finite and positive"));
        let stacked_twice = corrupt(&|s| {
            s.weights.push(1.0);
            s.tenant_of.push(0);
            s.live += 1;
            let w = s.weights[t as usize];
            s.stacks[0].push(t, w);
        });
        assert!(stacked_twice.unwrap().contains("twice"));
        assert!(corrupt(&|s| s.tenant_of[t as usize] = 7).unwrap().contains("tenant index"));

        // Malformed config literals inside the snapshot are errors, not
        // sampler or tenant-set panics.
        let negative_rate =
            corrupt(&|s| s.config.arrivals = ArrivalProcess::Poisson { rate: -1.0 });
        assert!(negative_rate.unwrap().contains("arrival process"));
        let zero_alpha = corrupt(&|s| {
            s.config.arrival_weights = ArrivalWeights::ParetoTruncated { alpha: 0.0, cap: 8.0 }
        });
        assert!(zero_alpha.unwrap().contains("Pareto"));
        assert!(corrupt(&|s| s.config.tenants.clear()).unwrap().contains("at least one tenant"));
        assert!(corrupt(&|s| s.config.tenants[0].share = 0.0).unwrap().contains("share"));
        // A scripted event naming a node the graph does not have is
        // caught at restore, not at its epoch.
        let ghost = corrupt(&|s| {
            s.config.churn.scripted = vec![(snap.epoch, ChurnEvent::Deactivate(99))];
        });
        assert!(ghost.unwrap().contains("8-node graph"));
        let hot_ghost = corrupt(&|s| s.config.arrival_placement = ArrivalPlacement::HotSpot(1000));
        assert!(hot_ghost.unwrap().contains("8-node graph"));

        // Wrong base graph: node count mismatch surfaces as a delta error.
        assert!(OnlineSim::restore(snap, complete(9)).is_err());
    }

    #[test]
    fn reconfigure_rejects_determinism_corrupting_swaps() {
        let mut sim = OnlineSim::new(complete(8), quick_cfg("reconf"));
        for _ in 0..3 {
            sim.run_epoch();
        }

        // The simple walk (undefined on churn-isolated nodes) is
        // rejected, engine untouched.
        let mut bad = quick_cfg("reconf");
        bad.rebalance = RebalancePolicy::Resource { walk: WalkKind::Simple };
        assert!(sim.reconfigure(bad).is_err());

        // Tenant list changes are rejected.
        let mut tenants = quick_cfg("reconf");
        tenants.tenants.push(TenantSpec::new("late", ThresholdPolicy::Tight, 1.0));
        assert!(sim.reconfigure(tenants).is_err());

        // Malformed arrival literals and out-of-graph scripted churn are
        // errors, not panics at the next epoch.
        let mut negative_rate = quick_cfg("reconf");
        negative_rate.arrivals = ArrivalProcess::Poisson { rate: -1.0 };
        assert!(sim.reconfigure(negative_rate).is_err());
        let mut ghost = quick_cfg("reconf");
        ghost.churn.scripted = vec![(sim.epoch(), ChurnEvent::Deactivate(99))];
        assert!(sim.reconfigure(ghost).is_err());
        let mut hot_ghost = quick_cfg("reconf");
        hot_ghost.arrival_placement = ArrivalPlacement::HotSpot(1000);
        assert!(sim.reconfigure(hot_ghost).is_err());

        // A legal phase swap applies and the run continues.
        let mut ok = quick_cfg("reconf");
        ok.arrivals = ArrivalProcess::Off;
        ok.epochs = 2;
        sim.reconfigure(ok).unwrap();
        let report = sim.run();
        assert_eq!(report.last().unwrap().arrivals, 0);
    }

    #[test]
    fn streaming_mode_matches_buffered_aggregates_with_flat_records() {
        let cfg = quick_cfg("stream");
        let buffered = OnlineSim::new(complete(12), cfg.clone()).run();

        let mut streaming = OnlineSim::new(complete(12), cfg);
        streaming.set_record_buffering(false);
        streaming.set_sink(Some(Box::new(crate::sink::MemorySink::new(4))));
        let report = streaming.try_run().unwrap();
        assert!(report.records.is_empty(), "service mode must not buffer the series");
        assert_eq!(streaming.records().len(), 0);
        assert_eq!(report.epochs, buffered.epochs);
        assert_eq!(report.total_arrivals, buffered.total_arrivals);
        assert_eq!(report.total_departures, buffered.total_departures);
        assert_eq!(report.total_migrations, buffered.total_migrations);
        assert_eq!(report.balanced_fraction.to_bits(), buffered.balanced_fraction.to_bits());
        assert_eq!(report.peak_load.to_bits(), buffered.peak_load.to_bits());
        assert_eq!(report.tenant_violation_rates, buffered.tenant_violation_rates);
    }

    #[test]
    fn obs_is_off_by_default_and_determinism_neutral_when_on() {
        let mut cfg = quick_cfg("obs");
        cfg.churn = ChurnProcess {
            scripted: vec![],
            random_down: 0.05,
            random_up: 0.08,
            ..Default::default()
        };
        let plain = OnlineSim::new(torus2d(4, 4), cfg.clone()).run();

        let run_observed = |shards: usize| {
            let mut cfg = cfg.clone();
            cfg.shards = shards;
            let mut sim = OnlineSim::new(torus2d(4, 4), cfg);
            assert!(sim.obs_report().is_none(), "obs must be opt-in");
            sim.enable_obs();
            let report = sim.run();
            (report, sim.obs_report().expect("obs was enabled"))
        };
        let (report, obs) = run_observed(1);
        // Neutrality: the instrumented run's records are bit-identical.
        assert_eq!(report, plain);
        // Counter semantics against the run-level report.
        assert_eq!(obs.counters["sim.epochs"], plain.epochs);
        assert_eq!(obs.counters["sim.arrivals"], plain.total_arrivals);
        assert_eq!(obs.counters["sim.migrations"], plain.total_migrations);
        assert_eq!(obs.counters["rebalance.ejected"], plain.total_migrations);
        assert!(obs.counters["rebalance.max_round_cohort"] > 0);
        assert!(obs.timings.contains_key("epoch.total_ns"));
        assert!(obs.timings.contains_key("shard.eject_walk_ns"));
        assert!(obs.timings.contains_key("shard.apply_ns"));
        assert!(obs.exec.contains_key("pool.threads"));
        assert_eq!(obs.exec["shard.cross_shard_handoffs"], 0);

        // The counters subtree is byte-identical across shard counts;
        // exec (layout diagnostics) legitimately differs.
        for shards in [2usize, 5] {
            let (sharded_report, sharded_obs) = run_observed(shards);
            assert_eq!(sharded_report, plain, "shard count {shards} diverged");
            assert_eq!(
                sharded_obs.counters_json(),
                obs.counters_json(),
                "obs counters diverged at shard count {shards}"
            );
        }
    }

    fn two_rack_cfg(name: &str) -> SimConfig {
        let mut cfg = quick_cfg(name);
        cfg.churn.domains = vec![
            crate::domains::DomainSpec::new("rack-a", 0, 8),
            crate::domains::DomainSpec::new("rack-b", 8, 16),
        ];
        cfg
    }

    #[test]
    fn scripted_domain_outage_drops_the_rack_and_recovers_on_schedule() {
        let mut cfg = two_rack_cfg("dom-script");
        cfg.epochs = 20;
        cfg.churn.scripted = vec![(5, ChurnEvent::DomainOutage { domain: 0, duration: 4 })];
        let report = OnlineSim::new(torus2d(4, 4), cfg).run();
        // Epochs 5..9 run with rack-a (8 nodes) down; the recovery fires
        // at the start of epoch 9.
        for e in 0..20usize {
            let expect = if (5..9).contains(&e) { 8 } else { 16 };
            assert_eq!(
                report.records[e].active_resources, expect,
                "epoch {e}: {:?}",
                report.records[e]
            );
        }
        // Draining moved the rack's tasks to the survivors, never lost them.
        let r = &report.records[5];
        assert_eq!(r.arrivals, r.admitted + r.rejected);
    }

    #[test]
    fn stochastic_domain_outages_are_deterministic_and_bounded() {
        let mut cfg = two_rack_cfg("dom-stoch");
        cfg.epochs = 80;
        cfg.churn.domain_outage = 0.2;
        cfg.churn.outage = OutageDuration { alpha: 1.5, min_epochs: 2, max_epochs: 6 };
        let a = OnlineSim::new(torus2d(4, 4), cfg.clone()).run();
        let b = OnlineSim::new(torus2d(4, 4), cfg.clone()).run();
        assert_eq!(a, b);
        // Some epoch must actually have lost a rack...
        assert!(a.records.iter().any(|r| r.active_resources <= 8), "no outage in 80 epochs");
        // ...and with both racks coverable the engine never takes the
        // last one down (the heal-side guard keeps >= 1 resource active).
        assert!(a.records.iter().all(|r| r.active_resources >= 1));
        // Sharding does not disturb the domain draws.
        cfg.shards = 4;
        let sharded = OnlineSim::new(torus2d(4, 4), cfg).run();
        assert_eq!(sharded, a);
    }

    #[test]
    fn domain_list_alone_is_rng_neutral() {
        // Configuring domains without an outage probability must not
        // shift any stream: the run is bit-identical to the no-domain run.
        let plain = OnlineSim::new(torus2d(4, 4), quick_cfg("dom-inert")).run();
        let with_domains = OnlineSim::new(torus2d(4, 4), two_rack_cfg("dom-inert")).run();
        assert_eq!(with_domains, plain);
    }

    #[test]
    fn adaptive_steering_shoots_the_loaded_rack() {
        // All load starts on rack-a (hot-spot arrivals onto node 2, no
        // rebalance): the adaptive adversary shoots the loaded rack
        // first, so its drained mass keeps sloshing between racks.
        let mut cfg = two_rack_cfg("dom-adapt");
        cfg.epochs = 60;
        cfg.arrival_placement = ArrivalPlacement::HotSpot(2);
        cfg.rounds_per_epoch = 0;
        cfg.departure_prob = 0.0;
        cfg.churn.domain_outage = 0.3;
        cfg.churn.outage = OutageDuration { alpha: 2.0, min_epochs: 2, max_epochs: 4 };
        cfg.churn.steering = DomainSteering::Adaptive;
        let mut sim = OnlineSim::new(torus2d(4, 4), cfg.clone());
        let report = sim.run();
        assert!(report.records.iter().any(|r| r.active_resources < 16), "no outage fired");
        // The drained hot-spot tasks land on rack-b during the outage and
        // stay there (no rebalancing); conservation holds throughout.
        for r in &report.records {
            assert_eq!(r.arrivals, r.admitted + r.rejected, "epoch {}", r.epoch);
        }
        // Determinism incl. the RNG-free victim choice.
        assert_eq!(OnlineSim::new(torus2d(4, 4), cfg).run(), report);
    }

    #[test]
    fn adaptive_placement_piles_onto_the_most_loaded_resource() {
        // The placement adversary with spread 1 and no rebalancing: the
        // epoch-0 ranking ties to node 0, and every later ranking keeps
        // node 0 on top, so the whole stream lands there.
        let mut cfg = quick_cfg("adapt-place");
        cfg.arrival_placement = ArrivalPlacement::Adaptive { spread: 1 };
        cfg.rounds_per_epoch = 0;
        cfg.departure_prob = 0.0;
        cfg.epochs = 6;
        let mut sim = OnlineSim::new(complete(8), cfg.clone());
        let report = sim.run();
        assert!(report.total_arrivals > 0);
        let elsewhere: usize =
            sim.stacks().iter().skip(1).map(tlb_core::stack::ResourceStack::num_tasks).sum();
        assert_eq!(elsewhere, 0, "adaptive spread-1 placement leaked off the top slot");
        assert_eq!(sim.stacks()[0].num_tasks() as u64, report.total_arrivals);
        // Spread 2 round-robins over exactly the top two slots.
        cfg.arrival_placement = ArrivalPlacement::Adaptive { spread: 2 };
        let mut sim2 = OnlineSim::new(complete(8), cfg);
        sim2.run();
        let nonempty = sim2.stacks().iter().filter(|s| !s.is_empty()).count();
        assert_eq!(nonempty, 2);
    }

    #[test]
    fn static_cap_admission_bounds_the_live_population() {
        let mut cfg = quick_cfg("cap");
        cfg.admission = AdmissionPolicy::StaticCap { max_live: 20 };
        cfg.departure_prob = 0.02;
        cfg.epochs = 80;
        let report = OnlineSim::new(complete(8), cfg).run();
        assert!(report.records.iter().all(|r| r.live_tasks <= 20));
        assert!(report.total_rejected > 0, "a 20-task cap must shed at this rate");
        assert_eq!(report.total_admitted + report.total_rejected, report.total_arrivals);
        assert!(report.shed_fraction > 0.0 && report.shed_fraction < 1.0);
    }

    #[test]
    fn token_bucket_admission_rate_limits_per_tenant() {
        let mut cfg = quick_cfg("bucket");
        cfg.tenants = vec![
            TenantSpec::new("gold", ThresholdPolicy::AboveAverage { epsilon: 0.2 }, 1.0),
            TenantSpec::new("bronze", ThresholdPolicy::AboveAverage { epsilon: 0.2 }, 1.0),
        ];
        cfg.admission = AdmissionPolicy::TokenBucket { rate: 2.0, burst: 6.0 };
        cfg.epochs = 100;
        let report = OnlineSim::new(complete(8), cfg).run();
        // Each tenant can admit at most burst + rate per elapsed epoch.
        let budget = (6.0 + 2.0 * 100.0) as u64;
        for (c, name) in report.tenants.iter().enumerate() {
            assert!(
                report.tenant_admitted_totals[c] <= budget,
                "tenant {name} admitted {} > budget {budget}",
                report.tenant_admitted_totals[c]
            );
        }
        assert!(report.total_rejected > 0, "a 2/epoch bucket must reject at a 12/epoch rate");
        assert_eq!(report.total_admitted + report.total_rejected, report.total_arrivals);
        let tenant_sum: u64 = report.tenant_admitted_totals.iter().sum();
        assert_eq!(tenant_sum, report.total_admitted);
    }

    #[test]
    fn load_shed_admission_keeps_mean_load_under_the_cap() {
        let mut cfg = quick_cfg("shed");
        cfg.admission = AdmissionPolicy::LoadShed { max_mean_load: 2.0 };
        cfg.departure_prob = 0.02;
        cfg.epochs = 80;
        let report = OnlineSim::new(complete(8), cfg).run();
        // No churn: the active set is fixed at 8, so the admission-time
        // bound is exactly the recorded mean.
        assert!(
            report.records.iter().all(|r| r.mean_load <= 2.0 + 1e-9),
            "mean load exceeded the shed cap"
        );
        assert!(report.total_rejected > 0);
        assert_eq!(report.total_admitted + report.total_rejected, report.total_arrivals);
    }

    #[test]
    fn admission_off_admits_everything_and_preserves_legacy_streams() {
        let report = OnlineSim::new(complete(16), quick_cfg("steady")).run();
        assert_eq!(report.total_admitted, report.total_arrivals);
        assert_eq!(report.total_rejected, 0);
        assert_eq!(report.shed_fraction, 0.0);
    }

    #[test]
    fn robustness_features_checkpoint_restore_bit_identically() {
        // Pause at epoch 10 — *inside* the scripted rack outage — with
        // admission and stochastic domain churn live, and resume.
        let mut cfg = two_rack_cfg("dom-ckpt");
        cfg.epochs = 40;
        cfg.churn.scripted = vec![(8, ChurnEvent::DomainOutage { domain: 1, duration: 6 })];
        cfg.churn.domain_outage = 0.1;
        cfg.admission = AdmissionPolicy::TokenBucket { rate: 5.0, burst: 10.0 };
        let full = OnlineSim::new(torus2d(4, 4), cfg.clone()).run();

        let mut first = OnlineSim::new(torus2d(4, 4), cfg.clone());
        for _ in 0..10 {
            first.run_epoch();
        }
        let snap = first.checkpoint().unwrap();
        assert!(snap.domain_down_until.iter().any(|&u| u > 10), "pause must be mid-outage");
        let json = snap.to_json().unwrap();
        let back = SimSnapshot::from_json(&json).unwrap();
        assert_eq!(back, snap);
        let mut resumed = OnlineSim::restore(back, torus2d(4, 4)).unwrap();
        for _ in 10..40 {
            resumed.run_epoch();
        }
        assert_eq!(resumed.records(), &full.records[10..]);
    }

    #[test]
    fn restore_rejects_corrupt_robustness_state() {
        let mut cfg = two_rack_cfg("dom-corrupt");
        cfg.admission = AdmissionPolicy::TokenBucket { rate: 1.0, burst: 4.0 };
        let mut sim = OnlineSim::new(torus2d(4, 4), cfg);
        for _ in 0..3 {
            sim.run_epoch();
        }
        let snap = sim.checkpoint().unwrap();

        let mut wrong_domains = snap.clone();
        wrong_domains.domain_down_until.push(0);
        assert!(OnlineSim::restore(wrong_domains, torus2d(4, 4)).is_err());

        let mut wrong_tokens = snap.clone();
        wrong_tokens.admission_tokens.pop();
        assert!(OnlineSim::restore(wrong_tokens, torus2d(4, 4)).is_err());

        let mut over_full = snap.clone();
        over_full.admission_tokens[0] = 99.0;
        assert!(OnlineSim::restore(over_full, torus2d(4, 4)).is_err());

        assert!(OnlineSim::restore(snap, torus2d(4, 4)).is_ok());
    }

    #[test]
    fn reconfigure_rejects_domain_list_changes() {
        let mut sim = OnlineSim::new(torus2d(4, 4), two_rack_cfg("dom-reconf"));
        for _ in 0..3 {
            sim.run_epoch();
        }
        // Changing the domain list is rejected (deadlines index into it).
        let mut bad = quick_cfg("dom-reconf");
        bad.churn.domains = vec![crate::domains::DomainSpec::new("other", 0, 16)];
        assert!(sim.reconfigure(bad).is_err());
        // Swapping outage knobs over the same list is a legal phase swap.
        let mut ok = two_rack_cfg("dom-reconf");
        ok.churn.domain_outage = 0.05;
        ok.churn.steering = DomainSteering::Adaptive;
        sim.reconfigure(ok).unwrap();
    }

    #[test]
    fn per_tenant_obs_counters_match_the_report_ledger() {
        let mut cfg = quick_cfg("obs-tenant");
        cfg.tenants = vec![
            TenantSpec::new("gold", ThresholdPolicy::AboveAverage { epsilon: 0.2 }, 1.0),
            TenantSpec::new("bronze", ThresholdPolicy::Tight, 1.0),
        ];
        cfg.admission = AdmissionPolicy::StaticCap { max_live: 30 };
        cfg.departure_prob = 0.02;
        let mut sim = OnlineSim::new(complete(8), cfg);
        sim.enable_obs();
        let report = sim.run();
        let obs = sim.obs_report().unwrap();
        for (c, name) in report.tenants.iter().enumerate() {
            assert_eq!(
                obs.counters[&format!("tenant.{name}.admitted")],
                report.tenant_admitted_totals[c]
            );
            assert_eq!(
                obs.counters[&format!("tenant.{name}.rejected")],
                report.tenant_rejected_totals[c]
            );
        }
        assert_eq!(obs.counters["sim.admitted"], report.total_admitted);
        assert_eq!(obs.counters["sim.rejected"], report.total_rejected);
    }

    #[test]
    fn long_pareto_run_passes_the_audit_every_epoch() {
        // Heavy-tailed weights over a ~100-task population: the unique
        // max-weight task departs again and again, so the cached w_max
        // keeps dropping through the rescan, and the audit checks it (and
        // every cached load) against a full recompute after each epoch.
        let mut cfg = quick_cfg("audit");
        cfg.epochs = 2000;
        cfg.arrivals = ArrivalProcess::Poisson { rate: 5.0 };
        cfg.arrival_weights = ArrivalWeights::ParetoTruncated { alpha: 1.3, cap: 32.0 };
        let mut sim = OnlineSim::new(torus2d(4, 4), cfg);
        let (mut drops, mut prev) = (0u32, 0.0);
        for _ in 0..2000 {
            sim.run_epoch();
            sim.audit().unwrap_or_else(|e| panic!("epoch {}: {e}", sim.epoch()));
            if sim.state.w_max.max < prev {
                drops += 1;
            }
            prev = sim.state.w_max.max;
        }
        assert!(drops >= 50, "w_max dropped only {drops} times in 2000 epochs");
    }

    #[test]
    fn empty_system_epochs_are_trivially_balanced() {
        let mut cfg = quick_cfg("empty");
        cfg.arrivals = ArrivalProcess::Off;
        cfg.departure_prob = 0.0;
        cfg.epochs = 3;
        let report = OnlineSim::new(complete(4), cfg).run();
        assert_eq!(report.balanced_fraction, 1.0);
        assert_eq!(report.last().unwrap().threshold, 0.0);
        assert_eq!(report.last().unwrap().live_tasks, 0);
    }
}
