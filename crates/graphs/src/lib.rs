//! # tlb-graphs
//!
//! Graph substrate for the *Threshold Load Balancing with Weighted Tasks*
//! reproduction (Berenbrink, Friedetzky, Mallmann-Trenn, Meshkinfamfard,
//! Wastell — JPDC 2018 / IPPS 2015).
//!
//! The paper's resources form the nodes of an arbitrary undirected graph
//! `G = (V, E)`; tasks on a resource may only migrate along edges of `G`
//! (Section 4 of the paper). This crate provides:
//!
//! * a compact immutable [`Graph`] in CSR (compressed sparse row) form,
//! * a mutable [`GraphBuilder`] for constructing graphs edge by edge,
//! * a [`DynamicGraph`] churn overlay (a CSR base plus an active mask:
//!   nodes deactivate and reactivate, the edges of `G` stay fixed) for
//!   the online simulation's resources that leave and rejoin,
//! * a [`Partition`] view splitting the node id space into contiguous
//!   shard ranges for the sharded online engine,
//! * [`generators`] for every graph family the paper's Table 1 and
//!   Observation 8 refer to (complete, expander, Erdős–Rényi, hypercube,
//!   grid, and the lollipop lower-bound family),
//! * [`algo`] with the traversal/validation routines the rest of the
//!   workspace relies on (connectivity, diameter, bipartiteness, …).
//!
//! Graphs are *simple* (no self-loops, no parallel edges) and undirected.
//! Self-loop behaviour needed by the paper's max-degree random walk
//! (`P_{ii} = (d - d_i)/d`) is handled in `tlb-walks`, not here — the walk's
//! laziness is a property of the chain, not of `G`.
//!
//! ## Quick example
//!
//! ```
//! use tlb_graphs::generators::hypercube;
//! use tlb_graphs::algo;
//!
//! let g = hypercube(4); // 16 nodes, degree 4
//! assert_eq!(g.num_nodes(), 16);
//! assert!(algo::is_connected(&g));
//! assert_eq!(algo::diameter(&g), Some(4));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod algo;
pub mod builder;
pub mod dynamic;
pub mod error;
pub mod generators;
pub mod graph;
pub mod io;
pub mod partition;

pub use builder::GraphBuilder;
pub use dynamic::{DynamicDelta, DynamicGraph};
pub use error::GraphError;
pub use graph::{Graph, NodeId};
pub use partition::Partition;
