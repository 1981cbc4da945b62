//! # tlb-sim
//!
//! An online, event-driven simulation engine over the threshold
//! load-balancing protocols of *Threshold Load Balancing with Weighted
//! Tasks* (Berenbrink, Friedetzky, Mallmann-Trenn, Meshkinfamfard,
//! Wastell — IPPS 2015 / JPDC 2018).
//!
//! The paper analyses one-shot balancing: a fixed task set on a fixed
//! graph, rebalanced until quiescent. This crate turns that into a
//! long-running open system, the regime of branching/Moran-type
//! interacting-particle models (Cox–Horton–Villemonais): tasks **arrive**
//! via pluggable processes ([`ArrivalProcess`]: Poisson, batched, bursty;
//! adversarial placement via [`ArrivalPlacement`]), tasks **depart**,
//! resources **join and leave** ([`ChurnProcess`] over a
//! `tlb_graphs::DynamicGraph` overlay), and the resource-controlled
//! protocol runs as an *incremental* rebalancing pass between events
//! through the sharded engine of [`shard`]. Tenant classes carry their own
//! [`ThresholdPolicy`](tlb_core::threshold::ThresholdPolicy) SLOs
//! ([`TenantSpec`]), and every epoch emits a fixed-shape
//! [`EpochRecord`]; a run serializes to JSON as a [`SimReport`].
//!
//! ## Architecture: state, scheduler, shards
//!
//! The engine is split into a *state* half ([`SimState`] in [`state`]:
//! the churn overlay, walk snapshot, stacks, and task tables, plus the
//! event primitives that mutate them) and a *scheduler* half
//! ([`OnlineSim`] in [`engine`]: the epoch loop deciding when churn,
//! departures, arrivals, and the rebalancing pass run). The rebalancing
//! pass runs through the **sharded engine** ([`ShardedEngine`] in
//! [`shard`]): it borrows the stacks and splits them in place into
//! contiguous node-range slices, each stepped as one task on the
//! persistent rayon pool, with cross-shard walk handoffs batched at round
//! boundaries.
//!
//! Runs are bit-reproducible across thread counts **and shard counts**:
//! each epoch's churn/departure/arrival draws come from its own
//! [`epoch_seed`]-derived sequential RNG, and the sharded pass draws
//! counter-based walk words that are a pure function of
//! `(seed, epoch, round, node, slot)` — see [`shard`] for the law.
//!
//! ## Service mode: checkpoint/restore and streaming metrics
//!
//! A long-running deployment cannot buffer its whole epoch series or
//! restart from epoch zero after a rollout. Service mode is three
//! orthogonal pieces:
//!
//! * **Checkpoint/restore** ([`SimSnapshot`] in [`snapshot`]):
//!   [`OnlineSim::checkpoint`] serializes the full engine state at an
//!   epoch boundary — config, epoch counter, the churn overlay as a
//!   canonical delta against the pristine base graph, stacks, task
//!   tables with the id-recycling freelist, and the running summary.
//!   [`OnlineSim::restore`] rebuilds an engine that continues
//!   **bit-identically** to the uninterrupted run, across thread *and*
//!   shard counts: all randomness re-derives from `(seed, epoch)` at
//!   epoch boundaries, so the `(seed, epoch)` pair in the snapshot is
//!   the complete RNG stream position.
//! * **Streaming metrics** ([`MetricsSink`] in [`sink`]): with
//!   [`OnlineSim::set_record_buffering`]`(false)` the engine stops
//!   accumulating records; each [`EpochRecord`] streams to the attached
//!   sink ([`NdjsonSink`] for soaks, [`MemorySink`] for tests) and folds
//!   into an O(1) [`RunningSummary`], so memory stays flat over
//!   unbounded runs.
//! * **Live reconfiguration**: [`OnlineSim::reconfigure`] applies a new
//!   phase's config between epochs with validation — invalid swaps (a
//!   changed tenant list, the simple walk on a churned graph) are
//!   rejected as errors with the engine untouched.
//!
//! ## Quickstart
//!
//! ```
//! use tlb_graphs::generators::complete;
//! use tlb_sim::{ArrivalProcess, OnlineSim, SimConfig};
//!
//! let cfg = SimConfig {
//!     name: "doc".into(),
//!     epochs: 40,
//!     arrivals: ArrivalProcess::Poisson { rate: 8.0 },
//!     departure_prob: 0.05,
//!     ..Default::default()
//! };
//! let report = OnlineSim::new(complete(8), cfg).run();
//! assert_eq!(report.epochs, 40);
//! assert!(report.balanced_fraction > 0.5);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod admission;
pub mod arrivals;
pub mod churn;
pub mod domains;
pub mod engine;
pub mod metrics;
pub mod shard;
pub mod sink;
pub mod snapshot;
pub mod state;
pub mod tenants;

pub use admission::AdmissionPolicy;
pub use arrivals::{ArrivalPlacement, ArrivalProcess, ArrivalWeights};
pub use churn::{ChurnEvent, ChurnProcess};
pub use domains::{DomainSpec, DomainSteering, OutageDuration};
pub use engine::{epoch_seed, OnlineSim, RebalancePolicy, SimConfig};
pub use metrics::{EpochRecord, RunningSummary, SimReport};
pub use shard::ShardedEngine;
pub use sink::{MemorySink, MetricsSink, NdjsonSink};
pub use snapshot::{SimSnapshot, SNAPSHOT_VERSION};
pub use state::SimState;
pub use tenants::{TenantSet, TenantSpec};
