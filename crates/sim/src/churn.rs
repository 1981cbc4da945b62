//! Resource churn: scripted and stochastic topology changes.
//!
//! Production fleets lose racks to maintenance and gain capacity on a
//! schedule, while individual machines flap at random. [`ChurnProcess`]
//! models both: a scripted event list (rack drains, scale-ups — the
//! operator's calendar) plus per-epoch random deactivate/reactivate
//! probabilities (failures and recoveries). On top of that sit
//! *failure domains* ([`crate::domains`]): named node ranges that fail
//! as a unit with power-law outage durations and scheduled recovery —
//! correlated churn, steered blindly or adversarially
//! ([`DomainSteering`]). Each epoch the engine applies, in order:
//! due domain recoveries, scripted events in list order, the stochastic
//! domain-outage draw, then the independent down/up draws — all with
//! its per-epoch RNG.

use serde::{Deserialize, Serialize};
use tlb_graphs::NodeId;

use crate::domains::{validate_domains_against_graph, DomainSpec, DomainSteering, OutageDuration};

/// One scripted topology change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChurnEvent {
    /// Resource leaves; its tasks are drained to the surviving resources.
    Deactivate(
        /// The leaving resource.
        NodeId,
    ),
    /// Resource rejoins with its old neighbourhood.
    Activate(
        /// The rejoining resource.
        NodeId,
    ),
    /// Drain a contiguous id range `[from, to)` — a rack.
    DeactivateRange {
        /// First id to drain (inclusive).
        from: NodeId,
        /// One past the last id to drain.
        to: NodeId,
    },
    /// Reactivate a contiguous id range `[from, to)`.
    ActivateRange {
        /// First id to restore (inclusive).
        from: NodeId,
        /// One past the last id to restore.
        to: NodeId,
    },
    /// Add a link.
    AddEdge(
        /// One endpoint.
        NodeId,
        /// The other endpoint.
        NodeId,
    ),
    /// Remove a link.
    RemoveEdge(
        /// One endpoint.
        NodeId,
        /// The other endpoint.
        NodeId,
    ),
    /// Take a whole failure domain down for `duration` epochs — the
    /// scripted form of the stochastic domain-outage process. The
    /// domain recovers (whole range reactivated) at the start of epoch
    /// `outage_epoch + duration`. If the domain is already down the
    /// deadline extends to the later of the two.
    DomainOutage {
        /// Index into [`ChurnProcess::domains`].
        domain: u32,
        /// Outage length in epochs (`>= 1`).
        duration: u64,
    },
}

/// The churn configuration of a run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct ChurnProcess {
    /// Scripted `(epoch, event)` pairs; applied in list order on their
    /// epoch (so a drain and its later recovery can share the list).
    pub scripted: Vec<(u64, ChurnEvent)>,
    /// Per-epoch probability of one random failure (deactivate a
    /// uniformly random active resource). The engine never takes the last
    /// active resource down.
    pub random_down: f64,
    /// Per-epoch probability of one random recovery (reactivate a
    /// uniformly random inactive resource). When failure domains are
    /// configured, nodes inside a currently-down domain are excluded —
    /// a dead rack does not resurrect one machine at a time.
    pub random_up: f64,
    /// Failure domains (racks/zones) over the node-id space; empty
    /// means no correlated churn. Scripted [`ChurnEvent::DomainOutage`]
    /// events and the stochastic `domain_outage` draw index into this
    /// list, and the engine carries one recovery deadline per entry.
    pub domains: Vec<DomainSpec>,
    /// Per-epoch probability of one domain outage (a whole healthy
    /// domain goes down; duration drawn from `outage`). Requires a
    /// non-empty `domains` list to have any effect.
    pub domain_outage: f64,
    /// Outage-duration distribution for stochastic domain outages.
    pub outage: OutageDuration,
    /// Victim selection for stochastic domain outages.
    pub steering: DomainSteering,
}

impl ChurnProcess {
    /// No churn at all.
    pub fn none() -> Self {
        ChurnProcess::default()
    }

    /// Scripted events only.
    pub fn scripted(events: Vec<(u64, ChurnEvent)>) -> Self {
        ChurnProcess { scripted: events, ..Default::default() }
    }

    /// The scripted events landing on `epoch`, in list order.
    pub fn events_at(&self, epoch: u64) -> impl Iterator<Item = ChurnEvent> + '_ {
        self.scripted.iter().filter(move |(e, _)| *e == epoch).map(|&(_, ev)| ev)
    }

    /// Whether any churn (scripted anywhere or stochastic, independent
    /// or domain-correlated) is configured.
    pub fn is_active(&self) -> bool {
        !self.scripted.is_empty()
            || self.random_down > 0.0
            || self.random_up > 0.0
            || (!self.domains.is_empty() && self.domain_outage > 0.0)
    }

    /// Node-count-dependent checks: every failure domain and every
    /// scripted node id, id range and edge fits an `n`-node graph, and no
    /// scripted edge is a self-loop. The engine runs this wherever a
    /// config meets a graph (construction, restore, reconfigure), so a
    /// bad id is rejected there instead of panicking on its epoch.
    ///
    /// # Errors
    /// Naming the first offending domain or event.
    pub fn validate_against_graph(&self, n: usize) -> Result<(), String> {
        validate_domains_against_graph(&self.domains, n)?;
        let fits = |v: NodeId| (v as usize) < n;
        for &(epoch, ev) in &self.scripted {
            let ok = match ev {
                ChurnEvent::Deactivate(v) | ChurnEvent::Activate(v) => fits(v),
                ChurnEvent::DeactivateRange { from, to }
                | ChurnEvent::ActivateRange { from, to } => from <= to && to as usize <= n,
                ChurnEvent::AddEdge(u, v) | ChurnEvent::RemoveEdge(u, v) => {
                    u != v && fits(u) && fits(v)
                }
                // Checked against the domain list by the engine.
                ChurnEvent::DomainOutage { .. } => true,
            };
            if !ok {
                return Err(format!(
                    "scripted {ev:?} at epoch {epoch} does not fit the {n}-node graph"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_filter_by_epoch_in_order() {
        let c = ChurnProcess::scripted(vec![
            (3, ChurnEvent::Deactivate(1)),
            (5, ChurnEvent::Activate(1)),
            (3, ChurnEvent::AddEdge(0, 2)),
        ]);
        let at3: Vec<ChurnEvent> = c.events_at(3).collect();
        assert_eq!(at3, vec![ChurnEvent::Deactivate(1), ChurnEvent::AddEdge(0, 2)]);
        assert_eq!(c.events_at(4).count(), 0);
        assert_eq!(c.events_at(5).count(), 1);
    }

    #[test]
    fn scripted_events_are_checked_against_the_graph() {
        let ok = ChurnProcess::scripted(vec![
            (0, ChurnEvent::Deactivate(7)),
            (1, ChurnEvent::DeactivateRange { from: 4, to: 8 }),
            (2, ChurnEvent::AddEdge(0, 7)),
            (3, ChurnEvent::DomainOutage { domain: 0, duration: 2 }),
        ]);
        assert!(ok.validate_against_graph(8).is_ok());
        assert!(ok.validate_against_graph(7).is_err());
        for bad in [
            ChurnEvent::Activate(8),
            ChurnEvent::ActivateRange { from: 2, to: 9 },
            ChurnEvent::DeactivateRange { from: 5, to: 3 },
            ChurnEvent::RemoveEdge(3, 3),
            ChurnEvent::AddEdge(0, 99),
        ] {
            let churn = ChurnProcess::scripted(vec![(0, bad)]);
            assert!(churn.validate_against_graph(8).is_err(), "{bad:?} accepted");
        }
        let domains = vec![DomainSpec::new("rack0", 0, 9)];
        assert!(ChurnProcess { domains, ..Default::default() }
            .validate_against_graph(8)
            .is_err());
    }

    #[test]
    fn activity_flags() {
        assert!(!ChurnProcess::none().is_active());
        assert!(ChurnProcess::scripted(vec![(0, ChurnEvent::Deactivate(0))]).is_active());
        assert!(ChurnProcess { random_down: 0.01, ..Default::default() }.is_active());
        // A domain list alone is inert; it needs an outage probability.
        let domains = vec![DomainSpec::new("rack0", 0, 4)];
        assert!(!ChurnProcess { domains: domains.clone(), ..Default::default() }.is_active());
        assert!(ChurnProcess { domains, domain_outage: 0.05, ..Default::default() }.is_active());
    }
}
