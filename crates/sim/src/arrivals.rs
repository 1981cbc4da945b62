//! Streaming arrival processes.
//!
//! The one-shot protocols start from a fixed task set; the online engine
//! instead draws a number of *new* tasks every epoch from a pluggable
//! [`ArrivalProcess`], gives each a weight from [`ArrivalWeights`], and
//! drops it on a resource chosen by [`ArrivalPlacement`]. All sampling is
//! done with the engine's per-epoch RNG, so a trajectory is a pure
//! function of the base seed.

use rand::Rng;
use rand_distr::{Distribution, Poisson};
use serde::{Deserialize, Serialize};

/// How many tasks arrive in a given epoch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ArrivalProcess {
    /// No arrivals (a drain-only or rebalance-only scenario).
    Off,
    /// `Poisson(rate)` arrivals per epoch — the classic open-system model.
    Poisson {
        /// Mean arrivals per epoch (`> 0`).
        rate: f64,
    },
    /// A deterministic batch of `size` tasks every `every` epochs
    /// (bulk uploads, cron-style ingestion).
    Batched {
        /// Tasks per batch.
        size: usize,
        /// Epoch period between batches (`>= 1`); the batch lands on
        /// epochs where `epoch % every == 0`.
        every: u64,
    },
    /// Poisson background traffic with periodic flash crowds: rate
    /// `base` normally, `burst` during the first `burst_len` epochs of
    /// every `period`-epoch window.
    Bursty {
        /// Background mean arrivals per epoch.
        base: f64,
        /// Mean arrivals per epoch while the burst is on (`> base`).
        burst: f64,
        /// Window length in epochs (`>= 1`).
        period: u64,
        /// Burst duration at the start of each window (`<= period`).
        burst_len: u64,
    },
}

impl ArrivalProcess {
    /// Check the parameters, so a bad config literal fails at engine
    /// construction (or snapshot restore) instead of at the first
    /// in-window sample.
    ///
    /// # Errors
    /// If a Poisson rate is non-positive or non-finite, or a period is
    /// zero.
    pub fn validate(&self) -> Result<(), String> {
        let ok = match *self {
            ArrivalProcess::Off => true,
            ArrivalProcess::Poisson { rate } => rate.is_finite() && rate > 0.0,
            ArrivalProcess::Batched { every, .. } => every >= 1,
            ArrivalProcess::Bursty { base, burst, period, .. } => {
                period >= 1 && [base, burst].iter().all(|r| r.is_finite() && *r >= 0.0)
            }
        };
        ok.then_some(()).ok_or_else(|| {
            format!(
                "invalid arrival process {self:?}: rates must be finite (Poisson > 0, bursty \
                 >= 0) and periods >= 1"
            )
        })
    }

    /// Sample the number of arrivals for `epoch`.
    ///
    /// # Panics
    /// If a Poisson rate is non-positive or a period is zero.
    pub fn sample_count<R: Rng + ?Sized>(&self, epoch: u64, rng: &mut R) -> usize {
        match *self {
            ArrivalProcess::Off => 0,
            ArrivalProcess::Poisson { rate } => {
                let d = Poisson::new(rate).expect("arrival rate must be positive");
                Distribution::<u64>::sample(&d, rng) as usize
            }
            ArrivalProcess::Batched { size, every } => {
                assert!(every >= 1, "batch period must be >= 1");
                if epoch.is_multiple_of(every) {
                    size
                } else {
                    0
                }
            }
            ArrivalProcess::Bursty { base, burst, period, burst_len } => {
                assert!(period >= 1, "burst period must be >= 1");
                let rate = if epoch % period < burst_len { burst } else { base };
                if rate <= 0.0 {
                    return 0;
                }
                let d = Poisson::new(rate).expect("burst rates must be positive");
                Distribution::<u64>::sample(&d, rng) as usize
            }
        }
    }
}

/// Where an arriving task lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ArrivalPlacement {
    /// Uniformly random active resource (load-oblivious front-end).
    Uniform,
    /// Every arrival hits one fixed resource — the adversarial hot-spot
    /// (the paper's all-on-one start, streamed). Falls back to the
    /// lowest-id active resource if the target is inactive.
    HotSpot(
        /// The targeted resource.
        tlb_graphs::NodeId,
    ),
    /// Every arrival hits the currently most-loaded active resource
    /// (ties to the lowest id) — a worst-case adaptive adversary.
    MostLoaded,
    /// The *online* adaptive adversary: observes the per-resource loads
    /// as they stood at the **end of the previous epoch** (after that
    /// epoch's rebalancing pass — exactly what a monitoring scrape
    /// would show) and spreads this epoch's arrivals round-robin over
    /// the `spread` most-loaded resources still active, ties to the
    /// lowest id. Unlike [`MostLoaded`](Self::MostLoaded) it cannot see
    /// its own within-epoch placements, so it models a real adversary
    /// reacting to published metrics rather than an oracle. Consumes no
    /// RNG.
    Adaptive {
        /// How many top-loaded resources the arrivals are spread over
        /// (`>= 1`; `1` concentrates everything on the single worst).
        spread: usize,
    },
}

impl ArrivalPlacement {
    /// Check the parameters (see [`ArrivalProcess::validate`]).
    ///
    /// # Errors
    /// If an adaptive spread is zero.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            ArrivalPlacement::Adaptive { spread: 0 } => Err("adaptive spread must be >= 1".into()),
            _ => Ok(()),
        }
    }
}

/// Weight distribution of arriving tasks (all respect the paper's
/// `w_min = 1` normalization).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ArrivalWeights {
    /// Unit weights.
    Unit,
    /// Independent `Uniform[1, hi]`.
    UniformRange {
        /// Upper endpoint (`>= 1`).
        hi: f64,
    },
    /// Truncated Pareto on `[1, cap]` with shape `alpha` — heavy-tailed
    /// object sizes (a few blockbusters, a long tail).
    ParetoTruncated {
        /// Tail exponent (`> 0`); smaller is heavier.
        alpha: f64,
        /// Upper truncation (`>= 1`).
        cap: f64,
    },
}

impl ArrivalWeights {
    /// Check the parameters (see [`ArrivalProcess::validate`]).
    ///
    /// # Errors
    /// If a bound is non-finite or violates the `w_min = 1`
    /// normalization, or a Pareto shape is non-positive.
    pub fn validate(&self) -> Result<(), String> {
        let ok = match *self {
            ArrivalWeights::Unit => true,
            ArrivalWeights::UniformRange { hi } => hi.is_finite() && hi >= 1.0,
            ArrivalWeights::ParetoTruncated { alpha, cap } => {
                alpha.is_finite() && alpha > 0.0 && cap.is_finite() && cap >= 1.0
            }
        };
        ok.then_some(()).ok_or_else(|| {
            format!(
                "invalid arrival weights {self:?}: bounds must be finite and >= 1, a Pareto \
                 shape positive"
            )
        })
    }

    /// Sample one task weight.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match *self {
            ArrivalWeights::Unit => 1.0,
            ArrivalWeights::UniformRange { hi } => {
                assert!(hi >= 1.0, "hi must be >= 1");
                rng.gen_range(1.0..=hi)
            }
            ArrivalWeights::ParetoTruncated { alpha, cap } => {
                // The exact sampler WeightSpec::ParetoTruncated uses, so
                // streamed and one-shot workloads share one distribution.
                tlb_core::weights::sample_pareto_truncated(alpha, cap, rng)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed)
    }

    #[test]
    fn off_never_arrives() {
        let mut r = rng(1);
        for e in 0..50 {
            assert_eq!(ArrivalProcess::Off.sample_count(e, &mut r), 0);
        }
    }

    #[test]
    fn poisson_rate_tracks_mean() {
        let p = ArrivalProcess::Poisson { rate: 12.0 };
        let mut r = rng(2);
        let total: usize = (0..5000).map(|e| p.sample_count(e, &mut r)).sum();
        let mean = total as f64 / 5000.0;
        assert!((mean - 12.0).abs() < 0.3, "mean {mean}");
    }

    #[test]
    fn batched_fires_on_period() {
        let p = ArrivalProcess::Batched { size: 7, every: 3 };
        let mut r = rng(3);
        let counts: Vec<usize> = (0..7).map(|e| p.sample_count(e, &mut r)).collect();
        assert_eq!(counts, vec![7, 0, 0, 7, 0, 0, 7]);
    }

    #[test]
    fn bursty_switches_rates() {
        let p = ArrivalProcess::Bursty { base: 2.0, burst: 200.0, period: 10, burst_len: 2 };
        let mut r = rng(4);
        // Average over many windows: burst epochs should dwarf base epochs.
        let mut burst_total = 0usize;
        let mut base_total = 0usize;
        for e in 0..1000u64 {
            let c = p.sample_count(e, &mut r);
            if e % 10 < 2 {
                burst_total += c;
            } else {
                base_total += c;
            }
        }
        let burst_mean = burst_total as f64 / 200.0;
        let base_mean = base_total as f64 / 800.0;
        assert!(burst_mean > 150.0, "burst mean {burst_mean}");
        assert!(base_mean < 4.0, "base mean {base_mean}");
    }

    #[test]
    fn weights_respect_floor_and_cap() {
        let mut r = rng(5);
        for _ in 0..500 {
            let w = ArrivalWeights::UniformRange { hi: 8.0 }.sample(&mut r);
            assert!((1.0..=8.0).contains(&w));
            let p = ArrivalWeights::ParetoTruncated { alpha: 1.1, cap: 64.0 }.sample(&mut r);
            assert!((1.0..=64.0).contains(&p));
            assert_eq!(ArrivalWeights::Unit.sample(&mut r), 1.0);
        }
    }

    #[test]
    fn validate_rejects_bad_literals_without_panicking() {
        assert!(ArrivalProcess::Poisson { rate: -1.0 }.validate().is_err());
        assert!(ArrivalProcess::Poisson { rate: f64::NAN }.validate().is_err());
        assert!(ArrivalProcess::Batched { size: 3, every: 0 }.validate().is_err());
        let bursty = ArrivalProcess::Bursty { base: 1.0, burst: 2.0, period: 0, burst_len: 0 };
        assert!(bursty.validate().is_err());
        assert!(ArrivalProcess::Poisson { rate: 2.0 }.validate().is_ok());
        assert!(ArrivalWeights::ParetoTruncated { alpha: 0.0, cap: 8.0 }.validate().is_err());
        assert!(ArrivalWeights::UniformRange { hi: f64::INFINITY }.validate().is_err());
        assert!(ArrivalWeights::ParetoTruncated { alpha: 1.5, cap: 8.0 }.validate().is_ok());
        assert!(ArrivalPlacement::Adaptive { spread: 0 }.validate().is_err());
        assert!(ArrivalPlacement::Adaptive { spread: 2 }.validate().is_ok());
    }

    #[test]
    fn sampling_is_seed_deterministic() {
        let p = ArrivalProcess::Poisson { rate: 5.0 };
        let a: Vec<usize> = {
            let mut r = rng(9);
            (0..20).map(|e| p.sample_count(e, &mut r)).collect()
        };
        let b: Vec<usize> = {
            let mut r = rng(9);
            (0..20).map(|e| p.sample_count(e, &mut r)).collect()
        };
        assert_eq!(a, b);
    }
}
