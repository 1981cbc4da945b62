//! Multi-tenant threshold SLOs.
//!
//! The paper's protocols share one global threshold. A multi-tenant
//! service instead promises each tenant class its own bound: tenant `c`
//! with policy `P_c` is *violated* on resource `r` when the tenant's own
//! load there exceeds `T_c = P_c(W_c, n_active, w_max_c)` — the threshold
//! the tenant's tasks would satisfy if balanced in isolation. The engine
//! rebalances globally (it does not see tenants) and reports per-tenant
//! violation counts per epoch, so tighter-policy tenants surface as the
//! first to degrade under pressure.

use serde::{Deserialize, Serialize};
use tlb_core::stack::ResourceStack;
use tlb_core::threshold::ThresholdPolicy;

/// One tenant class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantSpec {
    /// Display name (report key).
    pub name: String,
    /// The tenant's SLO threshold policy.
    pub policy: ThresholdPolicy,
    /// Relative share of arriving tasks assigned to this tenant
    /// (normalized over all tenants; must be `> 0`).
    pub share: f64,
}

impl TenantSpec {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, policy: ThresholdPolicy, share: f64) -> Self {
        TenantSpec { name: name.into(), policy, share }
    }
}

/// The tenant classes of a run, with cumulative shares for sampling.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSet {
    specs: Vec<TenantSpec>,
    cumulative: Vec<f64>,
}

impl TenantSet {
    /// Build from specs; shares are normalized.
    ///
    /// # Panics
    /// If `specs` is empty or any share is non-positive.
    pub fn new(specs: Vec<TenantSpec>) -> Self {
        assert!(!specs.is_empty(), "need at least one tenant");
        let total: f64 = specs
            .iter()
            .map(|s| {
                assert!(s.share > 0.0, "tenant {} has non-positive share {}", s.name, s.share);
                s.share
            })
            .sum();
        let mut acc = 0.0;
        let cumulative = specs
            .iter()
            .map(|s| {
                acc += s.share / total;
                acc
            })
            .collect();
        TenantSet { specs, cumulative }
    }

    /// A single default tenant taking all traffic.
    pub fn single(policy: ThresholdPolicy) -> Self {
        TenantSet::new(vec![TenantSpec::new("default", policy, 1.0)])
    }

    /// Number of tenants.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Whether there are no tenants (never true for a constructed set).
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// The tenant specs.
    pub fn specs(&self) -> &[TenantSpec] {
        &self.specs
    }

    /// Tenant names in spec order.
    pub fn names(&self) -> Vec<String> {
        self.specs.iter().map(|s| s.name.clone()).collect()
    }

    /// Map a uniform draw `u ∈ [0, 1)` to a tenant index by share.
    pub fn pick(&self, u: f64) -> u16 {
        self.cumulative.iter().position(|&c| u < c).unwrap_or(self.specs.len() - 1) as u16
    }

    /// Count, for every tenant, the resources whose tenant-local load
    /// exceeds the tenant's own threshold. `weights` and `tenant_of` are
    /// indexed by task id; `n_active` is the denominator of the per-tenant
    /// averages; `total` and `w_max` are the whole live population's.
    ///
    /// With one tenant its local load is the stack load and its W and
    /// w_max are `total` and `w_max`, so the count reads the cached stack
    /// loads: O(n), no per-task gather. Several tenants need the O(m)
    /// gather of per-(tenant, resource) loads.
    pub fn violations(
        &self,
        stacks: &[ResourceStack],
        weights: &[f64],
        tenant_of: &[u16],
        n_active: usize,
        total: f64,
        w_max: f64,
    ) -> Vec<u64> {
        let [spec] = self.specs.as_slice() else {
            return self.gather_violations(stacks, weights, tenant_of, n_active);
        };
        if total <= 0.0 || n_active == 0 {
            return vec![0];
        }
        let threshold = spec.policy.value(total, n_active, w_max);
        vec![stacks.iter().filter(|s| s.load() > threshold).count() as u64]
    }

    /// The general per-tenant scan behind [`violations`](Self::violations):
    /// gathers every task's weight into its (tenant, resource) cell.
    fn gather_violations(
        &self,
        stacks: &[ResourceStack],
        weights: &[f64],
        tenant_of: &[u16],
        n_active: usize,
    ) -> Vec<u64> {
        let t = self.specs.len();
        // Tenant-local load per (tenant, resource), plus per-tenant W and
        // w_max, in one pass over the stacked tasks.
        let mut load = vec![0.0f64; t * stacks.len()];
        let mut total = vec![0.0f64; t];
        let mut w_max = vec![0.0f64; t];
        for (r, stack) in stacks.iter().enumerate() {
            for &task in stack.tasks() {
                let c = tenant_of[task as usize] as usize;
                let w = weights[task as usize];
                load[c * stacks.len() + r] += w;
                total[c] += w;
                if w > w_max[c] {
                    w_max[c] = w;
                }
            }
        }
        (0..t)
            .map(|c| {
                if total[c] <= 0.0 || n_active == 0 {
                    return 0;
                }
                let threshold = self.specs[c].policy.value(total[c], n_active, w_max[c]);
                load[c * stacks.len()..(c + 1) * stacks.len()]
                    .iter()
                    .filter(|&&l| l > threshold)
                    .count() as u64
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_normalize_and_pick_respects_boundaries() {
        let ts = TenantSet::new(vec![
            TenantSpec::new("a", ThresholdPolicy::Tight, 3.0),
            TenantSpec::new("b", ThresholdPolicy::Tight, 1.0),
        ]);
        assert_eq!(ts.pick(0.0), 0);
        assert_eq!(ts.pick(0.74), 0);
        assert_eq!(ts.pick(0.76), 1);
        assert_eq!(ts.pick(0.999_999), 1);
    }

    #[test]
    fn violations_count_per_tenant_overloads() {
        // Two tenants, two resources. Tenant 0: three unit tasks all on
        // r0 (W=3, wmax=1, tight T = 3/2 + 1 = 2.5 -> r0 violates).
        // Tenant 1: one task on each resource (W=2, T = 2 -> none).
        let ts = TenantSet::new(vec![
            TenantSpec::new("tight", ThresholdPolicy::Tight, 1.0),
            TenantSpec::new("calm", ThresholdPolicy::Tight, 1.0),
        ]);
        let weights = vec![1.0; 5];
        let tenant_of = vec![0, 0, 0, 1, 1];
        let mut r0 = ResourceStack::new();
        r0.push(0, 1.0);
        r0.push(1, 1.0);
        r0.push(2, 1.0);
        r0.push(3, 1.0);
        let mut r1 = ResourceStack::new();
        r1.push(4, 1.0);
        let v = ts.violations(&[r0, r1], &weights, &tenant_of, 2, 5.0, 1.0);
        assert_eq!(v, vec![1, 0]);
    }

    #[test]
    fn single_tenant_count_from_stack_loads_matches_the_gather() {
        // Weighted tasks spread unevenly over five resources (one empty):
        // the O(n) count over cached loads must agree with the per-task
        // gather at every threshold the policies produce.
        let weights = vec![1.5, 4.0, 2.25, 1.0, 3.0, 1.0, 7.5, 2.0];
        let layout: [&[u32]; 5] = [&[0, 1, 2], &[3], &[], &[4, 5, 6], &[7]];
        let stacks: Vec<ResourceStack> = layout
            .iter()
            .map(|ids| {
                let mut s = ResourceStack::new();
                for &t in *ids {
                    s.push(t, weights[t as usize]);
                }
                s
            })
            .collect();
        let tenant_of = vec![0u16; weights.len()];
        let total: f64 = weights.iter().sum();
        for policy in [
            ThresholdPolicy::Tight,
            ThresholdPolicy::AboveAverage { epsilon: 0.2 },
            ThresholdPolicy::AboveAverage { epsilon: 1.0 },
        ] {
            let ts = TenantSet::single(policy);
            for n_active in [3, 5] {
                let fast = ts.violations(&stacks, &weights, &tenant_of, n_active, total, 7.5);
                assert_eq!(fast, ts.gather_violations(&stacks, &weights, &tenant_of, n_active));
            }
        }
    }

    #[test]
    fn absent_tenant_reports_zero_violations() {
        let ts = TenantSet::new(vec![
            TenantSpec::new("a", ThresholdPolicy::Tight, 1.0),
            TenantSpec::new("ghost", ThresholdPolicy::Tight, 1.0),
        ]);
        let mut r0 = ResourceStack::new();
        r0.push(0, 2.0);
        let v = ts.violations(&[r0], &[2.0], &[0], 1, 2.0, 2.0);
        assert_eq!(v, vec![0, 0], "single resource holds its own average");
    }

    #[test]
    #[should_panic(expected = "non-positive share")]
    fn zero_share_rejected() {
        TenantSet::new(vec![TenantSpec::new("z", ThresholdPolicy::Tight, 0.0)]);
    }
}
