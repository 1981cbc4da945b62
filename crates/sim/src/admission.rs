//! Admission control: policies that gate arrivals *before* placement.
//!
//! The paper's protocols balance whatever load exists; a production
//! front door also decides what load to **accept**. An
//! [`AdmissionPolicy`] sits between the arrival sampler and placement:
//! every offered task is either *admitted* (placed and balanced as
//! usual) or *rejected* (counted, never placed) — so the per-tenant SLO
//! accounting can separate work the system refused from work it
//! accepted and then violated.
//!
//! Every decision is a pure function of the current engine state (live
//! count, projected mean load, per-tenant token balances) — **no RNG is
//! consumed**, which is what lets admission ride the existing
//! determinism scheme: configs without admission draw the exact RNG
//! sequence they always did, and configs with it stay bit-identical
//! across thread and shard counts.
//!
//! The token-bucket balances are the one piece of persistent state
//! (refilled once per epoch, spent per admitted task); they live in the
//! engine's state and travel in the snapshot, so checkpoint/restore
//! resumes mid-bucket bit-identically.

use serde::{Deserialize, Serialize};

/// The admission policy of a run. All decisions are RNG-free.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum AdmissionPolicy {
    /// Admit everything (the pre-admission engine, bit for bit).
    #[default]
    None,
    /// Reject arrivals while the live population is at the cap — a hard
    /// global concurrency limit.
    StaticCap {
        /// Maximum live tasks (`>= 1`).
        max_live: usize,
    },
    /// Per-tenant token bucket: each tenant's bucket refills by `rate`
    /// tokens at the start of every epoch (capped at `burst`) and each
    /// admitted task spends one token. Tenants start with a full bucket.
    TokenBucket {
        /// Tokens added per epoch per tenant (`> 0`).
        rate: f64,
        /// Bucket capacity per tenant (`>= 1`).
        burst: f64,
    },
    /// Load shedding: reject any arrival that would push the mean load
    /// per active resource above the bound — the "stop accepting work
    /// we provably cannot balance" valve.
    LoadShed {
        /// Maximum mean load per active resource (`> 0`).
        max_mean_load: f64,
    },
}

impl AdmissionPolicy {
    /// Check the parameters.
    ///
    /// # Errors
    /// Describing the offending field.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            AdmissionPolicy::None => Ok(()),
            AdmissionPolicy::StaticCap { max_live } => {
                if max_live == 0 {
                    return Err("admission max_live must be >= 1".to_string());
                }
                Ok(())
            }
            AdmissionPolicy::TokenBucket { rate, burst } => {
                if !(rate.is_finite() && rate > 0.0) {
                    return Err(format!("token rate must be positive and finite, got {rate}"));
                }
                if !(burst.is_finite() && burst >= 1.0) {
                    return Err(format!("token burst must be >= 1 and finite, got {burst}"));
                }
                Ok(())
            }
            AdmissionPolicy::LoadShed { max_mean_load } => {
                if !(max_mean_load.is_finite() && max_mean_load > 0.0) {
                    return Err(format!(
                        "max_mean_load must be positive and finite, got {max_mean_load}"
                    ));
                }
                Ok(())
            }
        }
    }

    /// Initial per-tenant token balances: full buckets for
    /// [`TokenBucket`](Self::TokenBucket), empty (unused) otherwise.
    pub fn initial_tokens(&self, tenants: usize) -> Vec<f64> {
        match *self {
            AdmissionPolicy::TokenBucket { burst, .. } => vec![burst; tenants],
            _ => Vec::new(),
        }
    }

    /// Start-of-epoch refill (no-op for every policy but the bucket).
    pub fn refill(&self, tokens: &mut [f64]) {
        if let AdmissionPolicy::TokenBucket { rate, burst } = *self {
            for t in tokens {
                *t = (*t + rate).min(burst);
            }
        }
    }

    /// Decide one offered arrival. `live` and `total_weight` describe
    /// the system *before* this task; `n_active` is the current active
    /// resource count; `tokens` are the per-tenant balances (mutated on
    /// a token-bucket admit). Pure given its inputs — no RNG.
    pub fn admit(
        &self,
        tenant: u16,
        weight: f64,
        live: usize,
        total_weight: f64,
        n_active: usize,
        tokens: &mut [f64],
    ) -> bool {
        match *self {
            AdmissionPolicy::None => true,
            AdmissionPolicy::StaticCap { max_live } => live < max_live,
            AdmissionPolicy::TokenBucket { .. } => {
                let slot = &mut tokens[tenant as usize];
                if *slot >= 1.0 {
                    *slot -= 1.0;
                    true
                } else {
                    false
                }
            }
            AdmissionPolicy::LoadShed { max_mean_load } => {
                n_active > 0 && (total_weight + weight) / n_active as f64 <= max_mean_load
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_admits_everything() {
        let p = AdmissionPolicy::None;
        assert!(p.initial_tokens(3).is_empty());
        assert!(p.admit(0, 5.0, usize::MAX - 1, 1e12, 1, &mut []));
    }

    #[test]
    fn static_cap_cuts_at_the_limit() {
        let p = AdmissionPolicy::StaticCap { max_live: 10 };
        assert!(p.admit(0, 1.0, 9, 0.0, 4, &mut []));
        assert!(!p.admit(0, 1.0, 10, 0.0, 4, &mut []));
    }

    #[test]
    fn token_bucket_is_per_tenant_and_refills_to_burst() {
        let p = AdmissionPolicy::TokenBucket { rate: 1.5, burst: 2.0 };
        let mut tokens = p.initial_tokens(2);
        assert_eq!(tokens, vec![2.0, 2.0]);
        // Tenant 0 spends its bucket; tenant 1 is untouched.
        assert!(p.admit(0, 1.0, 0, 0.0, 1, &mut tokens));
        assert!(p.admit(0, 1.0, 0, 0.0, 1, &mut tokens));
        assert!(!p.admit(0, 1.0, 0, 0.0, 1, &mut tokens));
        assert!(p.admit(1, 1.0, 0, 0.0, 1, &mut tokens));
        // Refill is capped at burst.
        p.refill(&mut tokens);
        assert_eq!(tokens, vec![1.5, 2.0]);
        assert!(p.admit(0, 1.0, 0, 0.0, 1, &mut tokens));
        assert!(!p.admit(0, 1.0, 0, 0.0, 1, &mut tokens), "0.5 tokens buys no task");
    }

    #[test]
    fn load_shed_bounds_projected_mean_load() {
        let p = AdmissionPolicy::LoadShed { max_mean_load: 3.0 };
        // 4 active resources, total weight 11: one more unit keeps the
        // mean at 3.0 (admitted), a 2.0 task would push it over.
        assert!(p.admit(0, 1.0, 11, 11.0, 4, &mut []));
        assert!(!p.admit(0, 2.0, 11, 11.0, 4, &mut []));
        assert!(!p.admit(0, 1.0, 0, 0.0, 0, &mut []), "no capacity, no admission");
    }

    #[test]
    fn validation_rejects_bad_literals() {
        assert!(AdmissionPolicy::StaticCap { max_live: 0 }.validate().is_err());
        assert!(AdmissionPolicy::TokenBucket { rate: 0.0, burst: 4.0 }.validate().is_err());
        assert!(AdmissionPolicy::TokenBucket { rate: 1.0, burst: 0.5 }.validate().is_err());
        assert!(AdmissionPolicy::LoadShed { max_mean_load: f64::INFINITY }.validate().is_err());
        assert!(AdmissionPolicy::None.validate().is_ok());
        assert!(AdmissionPolicy::TokenBucket { rate: 0.5, burst: 8.0 }.validate().is_ok());
    }
}
