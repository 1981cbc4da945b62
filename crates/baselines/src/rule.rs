//! The baseline placement rules, each defined once.
//!
//! Every rule picks among `k` candidate bins, named by their index
//! `0..k`, and reads bin loads through `load(index)`. The one-shot
//! allocators pass bins `0..n` directly; [`crate::stepper`] maps an index
//! `c` to the node `cands[c]`. Both callers therefore draw the same words
//! for the same decisions.

use rand::Rng;

/// `Greedy[d]`: the least loaded of `d` uniform draws (ties: first
/// sampled). Draws exactly `d` words.
pub(crate) fn greedy<R: Rng + ?Sized>(
    k: usize,
    d: usize,
    load: impl Fn(usize) -> f64,
    rng: &mut R,
) -> usize {
    let mut best = rng.gen_range(0..k);
    for _ in 1..d {
        let c = rng.gen_range(0..k);
        if load(c) < load(best) {
            best = c;
        }
    }
    best
}

/// The `(1+β)` rule: one uniform draw with probability `β`, otherwise
/// the less loaded of two (ties: the first). Returns the bin and the
/// number of bin draws (1 or 2).
pub(crate) fn one_plus_beta<R: Rng + ?Sized>(
    k: usize,
    beta: f64,
    load: impl Fn(usize) -> f64,
    rng: &mut R,
) -> (usize, u64) {
    if rng.gen_bool(beta) {
        return (rng.gen_range(0..k), 1);
    }
    let a = rng.gen_range(0..k);
    let b = rng.gen_range(0..k);
    (if load(a) <= load(b) { a } else { b }, 2)
}

/// Threshold retry: up to `retries` uniform draws, taking the first bin
/// whose load stays at most `t` after adding `w`. Returns that bin, or
/// `None` if every draw was full, and the number of draws made.
pub(crate) fn first_fit<R: Rng + ?Sized>(
    k: usize,
    retries: usize,
    w: f64,
    t: f64,
    load: impl Fn(usize) -> f64,
    rng: &mut R,
) -> (Option<usize>, u64) {
    for draws in 1..=retries as u64 {
        let c = rng.gen_range(0..k);
        if load(c) + w <= t {
            return (Some(c), draws);
        }
    }
    (None, retries as u64)
}

/// One synchronous parallel wave: draw a uniform bin for every slot
/// (into `bins`, parallel to `slots`), then shuffle the arrivals into a
/// uniform order, the cited model's collision tie-breaking. The caller
/// then accepts arrivals in that order.
pub(crate) fn wave<R: Rng + ?Sized>(k: usize, slots: &mut [u32], bins: &mut Vec<u32>, rng: &mut R) {
    bins.clear();
    bins.extend(slots.iter().map(|_| rng.gen_range(0..k) as u32));
    rand::seq::shuffle_paired(slots, bins, rng);
}
