//! # tlb-core
//!
//! The primary contribution of *Threshold Load Balancing with Weighted
//! Tasks* (Berenbrink, Friedetzky, Mallmann-Trenn, Meshkinfamfard, Wastell;
//! JPDC 2018 / IPPS 2015), implemented as a library:
//!
//! * the **resource-controlled protocol** (Algorithm 5.1) on arbitrary
//!   graphs — overloaded resources push their above-threshold and cutting
//!   tasks one max-degree random-walk step per round
//!   ([`resource_protocol`]),
//! * the **user-controlled protocol** (Algorithm 6.1) on complete graphs —
//!   every task on an overloaded resource independently migrates to a
//!   uniformly random resource with probability `α·⌈φ_r/w_max⌉·(1/b_r)`
//!   ([`user_protocol`]),
//! * each protocol both as a one-shot `run_*` entry point and as a
//!   [`protocol::Stepper`] to drive round by round
//!   (`new_stepper → step → into_outcome`),
//! * the **protocol abstraction** ([`protocol`]) every protocol plugs
//!   into: the shared [`protocol::RoundEngine`] round machinery and its
//!   phases, the object-safe [`protocol::RoundRule`], the one
//!   [`protocol::Stepper`] that runs any rule, and the
//!   [`protocol::ProtocolKind`] factory (see "Protocol abstraction"
//!   below),
//! * the model substrate both share: weighted tasks ([`task`], [`weights`]),
//!   stack semantics with heights and threshold cutting ([`stack`]),
//!   threshold policies ([`threshold`]), initial placements ([`placement`]),
//!   the potential function `Φ` of Eq. (1) ([`potential`]), the
//!   drift-theorem machinery of Theorem 6 ([`drift`]),
//! * the analysis-side substrates the paper references: proper first-fit
//!   assignments ([`assignment`], Section 5.2) and the footnote-1 diffusion
//!   scheme for estimating the average load ([`diffusion`]).
//!
//! ## Protocol abstraction
//!
//! Every protocol variant — the two paper protocols, the Section-8 mixed
//! extension, and the baseline adapters in `tlb-baselines` — is a
//! departure rule plus a movement rule, and runs through one stepper:
//!
//! * **one round frame** — [`protocol::Stepper::step`] is `is_done →
//!   begin_round → rule.round → finish_round`, written once; `step(&Graph,
//!   &mut dyn RngCore) -> bool` is one round (`true` when done). Every
//!   variant takes the graph in `step` (the user-controlled protocol
//!   ignores it). All outcomes are the unified
//!   [`protocol::ProtocolOutcome`];
//! * **one round engine** — the shared machinery (cohort buffers, cached
//!   `BatchWalker`, migration/potential/trace accounting, completion
//!   detection) and the phases the rules are built from (Algorithm 5.1's
//!   ejection, Algorithm 6.1's coins, a walk step, a uniform jump, the
//!   arrivals) live in [`protocol::RoundEngine`];
//! * **rules** — a [`protocol::RoundRule`] runs one round's phases. The
//!   three protocols here are one rule (active or coin departures × walk
//!   or uniform movement, plus the arrival-shuffle flag) that
//!   [`protocol::ProtocolKind::new_stepper`] builds from the config; the
//!   baselines implement the trait with their placement rules.
//!
//! **RNG-stream guarantee:** there is one dispatch path — the rule draws
//! from a `&mut dyn RngCore`, and the `run_*` entry points build the same
//! stepper `new_stepper` does — so a run draws the same words in the same
//! order however it is started. This is part of the per-version
//! determinism contract below; `tests/integration_protocol_trait.rs` pins
//! the paths the legacy goldens leave out.
//!
//! ## Determinism & RNG stream policy
//!
//! Every protocol run is a pure function of its seed. Within one version
//! of this repository, runs are **bit-identical across
//! `RAYON_NUM_THREADS` settings and across reruns** — the round loops
//! draw from a single sequential RNG, and the experiment harness derives
//! per-trial seeds independent of scheduling. The round loops sample
//! through the batched kernel (`tlb_walks::BatchWalker` for walk steps,
//! bulk destination words for the user protocol), which consumes the
//! *same stream* the scalar reference would for max-degree and simple
//! walks, and a fused one-word-per-step stream for lazy walks.
//!
//! **Not guaranteed:** stream stability across versions. A PR may change
//! the draw count or order (this is exactly what the batched kernel did
//! to the lazy walk and to the mixed protocol's coin/walk interleaving);
//! it must then re-pin the golden outcome values once, justified by the
//! chi-square distribution-equivalence tests in `tlb_walks::batch`, with
//! the old values recorded in the test comment. See "Determinism & RNG
//! stream policy" in `vendor/README.md` for the full contract.
//!
//! ## Quickstart
//!
//! ```
//! use rand::rngs::SmallRng;
//! use rand::SeedableRng;
//! use tlb_core::prelude::*;
//! use tlb_graphs::generators::complete;
//!
//! // 100 unit-weight tasks plus one heavy task, all starting on node 0.
//! let mut weights = vec![1.0; 100];
//! weights.push(8.0);
//! let tasks = TaskSet::new(weights);
//! let g = complete(16);
//! let cfg = UserControlledConfig {
//!     threshold: ThresholdPolicy::AboveAverage { epsilon: 0.2 },
//!     alpha: 1.0,
//!     ..Default::default()
//! };
//! let mut rng = SmallRng::seed_from_u64(1);
//! let out = run_user_controlled(g.num_nodes(), &tasks, Placement::AllOnOne(0), &cfg, &mut rng);
//! assert!(out.balanced());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod assignment;
pub mod diffusion;
pub mod drift;
pub mod mixed_protocol;
pub mod placement;
pub mod potential;
pub mod protocol;
pub mod resource_protocol;
pub mod stack;
pub mod task;
pub mod threshold;
pub mod trace;
pub mod user_protocol;
pub mod weights;

/// Convenient re-exports of the types most programs need.
pub mod prelude {
    pub use crate::placement::Placement;
    pub use crate::protocol::{ProtocolKind, ProtocolOutcome, RoundEngine, RoundRule, Stepper};
    pub use crate::resource_protocol::{
        run_resource_controlled, run_resource_controlled_with_stats, ResourceControlledConfig,
        ResourceControlledOutcome,
    };
    pub use crate::task::{TaskId, TaskSet};
    pub use crate::threshold::ThresholdPolicy;
    pub use crate::user_protocol::{
        run_user_controlled, run_user_controlled_with_stats, UserControlledConfig,
        UserControlledOutcome,
    };
    pub use crate::weights::WeightSpec;
}
