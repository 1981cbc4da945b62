//! Per-resource task stacks with heights (paper Sections 5 and 6).
//!
//! Each resource stores its tasks in a stack; the *height* `h_i` of task
//! `i` is the total weight of tasks below it. Task `i` **cuts** the
//! threshold `T` if `h_i < T < h_i + w_i`; it is **above** if `h_i ≥ T`;
//! otherwise it is **below** (equivalently *accepted*: `h_i + w_i ≤ T`).
//!
//! ## Resuming Algorithm 5.1's ejection
//!
//! An overloaded resource ejects its cutting and above tasks: everything
//! from the first height with `h + w > T` upward. The scan that finds
//! that cut folds the weights bottom-up, and the fold only grows (a
//! non-negative f64 add never lowers the sum), so an accepted prefix
//! stays accepted while tasks are only pushed on top of it.
//! [`ResourceStack::remove_active_from`] therefore takes a *mark* — the
//! prefix length and the exact fold a previous scan left — and scans only
//! from there, with the same split and the same load bits as a scan from
//! the bottom ([`ResourceStack::remove_active_into`], the `(0, 0.0)`
//! mark). The one-shot round engine keeps one mark per resource
//! (`tlb_core::protocol::RoundEngine`).

use rand::unit_f64;
use serde::{Deserialize, Serialize};

use crate::task::TaskId;

/// Classification of one task relative to the threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Band {
    /// Entirely below or at the threshold (`h + w ≤ T`) — the set `I_b`.
    Below,
    /// Cutting the threshold (`h < T < h + w`) — the set `I_c`.
    Cutting,
    /// Entirely above (`h ≥ T`) — the set `I_a`.
    Above,
}

/// A resource's stack of task ids with a cached total load.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ResourceStack {
    tasks: Vec<TaskId>,
    load: f64,
}

impl ResourceStack {
    /// Empty stack.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total weight `x_r` of the stacked tasks.
    #[inline]
    pub fn load(&self) -> f64 {
        self.load
    }

    /// Number of tasks `b_r`.
    #[inline]
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the stack holds no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Stack contents bottom-to-top.
    pub fn tasks(&self) -> &[TaskId] {
        &self.tasks
    }

    /// `x_r > T`?
    #[inline]
    pub fn is_overloaded(&self, threshold: f64) -> bool {
        self.load > threshold
    }

    /// Push a task on top of the stack.
    #[inline]
    pub fn push(&mut self, id: TaskId, weight: f64) {
        self.tasks.push(id);
        self.load += weight;
    }

    /// Height of the task at stack position `pos` (sum of weights below).
    pub fn height_at(&self, pos: usize, weights: &[f64]) -> f64 {
        self.tasks[..pos].iter().map(|&t| weights[t as usize]).sum()
    }

    /// Classify the task at stack position `pos`.
    pub fn band_at(&self, pos: usize, threshold: f64, weights: &[f64]) -> Band {
        let h = self.height_at(pos, weights);
        let w = weights[self.tasks[pos] as usize];
        band(h, w, threshold)
    }

    /// The paper's per-resource potential `φ_r`: total weight of the
    /// cutting task (if any) plus all tasks above the threshold; zero for
    /// non-overloaded resources. Single bottom-to-top scan.
    pub fn phi(&self, threshold: f64, weights: &[f64]) -> f64 {
        if !self.is_overloaded(threshold) {
            return 0.0;
        }
        let mut h = 0.0;
        let mut phi = 0.0;
        for &t in &self.tasks {
            let w = weights[t as usize];
            if h + w > threshold {
                // Cutting or above: counts fully toward φ_r.
                phi += w;
            }
            h += w;
        }
        phi
    }

    /// `ψ_r = ⌈φ_r / w_max⌉` — the minimum number of departures needed to
    /// drop below the threshold (Observation 9).
    pub fn psi(&self, threshold: f64, weights: &[f64], w_max: f64) -> u64 {
        let phi = self.phi(threshold, weights);
        if phi <= 0.0 {
            0
        } else {
            (phi / w_max).ceil() as u64
        }
    }

    /// Remove all *active* tasks (`I_a ∪ I_c`: cutting or above the
    /// threshold), keeping the accepted prefix — the removal step of the
    /// resource-controlled protocol (Algorithm 5.1). Because heights are
    /// cumulative, the active tasks are exactly the tasks from the first
    /// threshold violation upward, so this is a split of the stack.
    ///
    /// Appends the removed tasks to `out` (bottom-to-top) and returns how
    /// many were removed; the round loop calls this once per overloaded
    /// resource per round with a reused buffer, so it allocates nothing
    /// of its own. The cached load is reset to the exact accepted-prefix
    /// height, which also clears any accumulated f64 drift.
    ///
    /// This is [`remove_active_from`](Self::remove_active_from) scanning
    /// from the bottom, `(0, 0.0)`.
    #[inline]
    pub fn remove_active_into(
        &mut self,
        threshold: f64,
        weights: &[f64],
        out: &mut Vec<TaskId>,
    ) -> usize {
        self.remove_active_from(0, 0.0, threshold, weights, out)
    }

    /// [`remove_active_into`](Self::remove_active_into) with the scan
    /// resumed at stack position `len` from height `height`: the split
    /// and the new load are those of the scan from the bottom whenever
    /// the bottom `len` tasks are unchanged since a scan of the same
    /// weights accepted them and `height` is that scan's fold over them.
    ///
    /// Why that is exact: the fresh scan tests `h + w > T`, and `h + w`
    /// is its next fold value. Adding a non-negative weight never lowers
    /// an f64 sum, so the folds below position `len` are at most
    /// `height`, and `height ≤ T` (every accepted task passed the test),
    /// so the fresh scan cannot stop below `len` and reaches it holding
    /// `height` — the state this scan starts from. Only pushes on top
    /// keep that true; a removal below `len` or a smaller threshold does
    /// not, and the caller must then restart from `(0, 0.0)`.
    ///
    /// Reads the weights of positions `len` up to and including the
    /// first task it ejects.
    ///
    /// # Panics
    /// If `len` exceeds the stack length.
    pub fn remove_active_from(
        &mut self,
        len: usize,
        height: f64,
        threshold: f64,
        weights: &[f64],
        out: &mut Vec<TaskId>,
    ) -> usize {
        let (split, h) = self.accepted_prefix_from(len, height, threshold, weights);
        let removed = self.tasks.len() - split;
        out.extend_from_slice(&self.tasks[split..]);
        self.tasks.truncate(split);
        self.load = h;
        removed
    }

    /// The accepted prefix `(length, height)` that Algorithm 5.1's scan
    /// finds, resumed at position `len` from height `height` (see
    /// [`remove_active_from`](Self::remove_active_from)): the scan stops
    /// at the first task with `h + w > T`, and `height` is the exact
    /// bottom-up fold over the prefix. The one scan loop of both
    /// ejection methods; it only reads the stack.
    ///
    /// # Panics
    /// If `len` exceeds the stack length.
    pub(crate) fn accepted_prefix_from(
        &self,
        len: usize,
        height: f64,
        threshold: f64,
        weights: &[f64],
    ) -> (usize, f64) {
        let mut h = height;
        for (pos, &t) in (len..).zip(&self.tasks[len..]) {
            let w = weights[t as usize];
            if h + w > threshold {
                return (pos, h);
            }
            h += w;
        }
        (self.tasks.len(), h)
    }

    /// Independently remove each task with probability `p` (the
    /// user-controlled migration draw); remaining tasks keep their relative
    /// order (the stack compacts and heights are implicitly reassigned).
    ///
    /// The coins are pre-drawn: `words[i]` decides the task at stack
    /// position `i`, which leaves iff [`unit_f64`]`(words[i]) < p` — the
    /// coin `gen_bool(p)` flips from that word, so one bulk fill of
    /// [`num_tasks`](Self::num_tasks) words replaces a `gen_bool` per task
    /// without moving the stream. Appends the migrants to `out`
    /// (bottom-to-top) and returns how many left.
    ///
    /// # Panics
    /// If `words` is shorter than the stack.
    pub fn drain_bernoulli_into(
        &mut self,
        p: f64,
        words: &[u64],
        weights: &[f64],
        out: &mut Vec<TaskId>,
    ) -> usize {
        let words = &words[..self.tasks.len()];
        let before = out.len();
        let mut removed_weight = 0.0;
        let mut kept = 0;
        for (read, &word) in words.iter().enumerate() {
            let t = self.tasks[read];
            if unit_f64(word) < p {
                out.push(t);
                removed_weight += weights[t as usize];
            } else {
                self.tasks[kept] = t;
                kept += 1;
            }
        }
        self.tasks.truncate(kept);
        self.load -= removed_weight;
        out.len() - before
    }

    /// Remove the tasks at the sorted, distinct stack `positions` (0 =
    /// bottom) and append them to `out` bottom-to-top; the remaining tasks
    /// keep their relative order. The cached load drops by the removed
    /// weight, as in [`drain_bernoulli_into`](Self::drain_bernoulli_into).
    /// Returns how many were removed. The online engine's departure draw
    /// calls this with geometrically skipped positions.
    ///
    /// # Panics
    /// If a position is out of range, or (debug builds) the positions are
    /// not strictly increasing.
    pub fn remove_positions_into(
        &mut self,
        positions: &[usize],
        weights: &[f64],
        out: &mut Vec<TaskId>,
    ) -> usize {
        debug_assert!(positions.windows(2).all(|p| p[0] < p[1]), "positions must increase");
        let (Some(&first), Some(&last)) = (positions.first(), positions.last()) else {
            return 0;
        };
        assert!(
            last < self.tasks.len(),
            "position {last} outside a {}-task stack",
            self.tasks.len()
        );
        let mut removed_weight = 0.0;
        let mut k = 0;
        let mut write = first;
        for read in first..self.tasks.len() {
            let t = self.tasks[read];
            if positions.get(k) == Some(&read) {
                k += 1;
                out.push(t);
                removed_weight += weights[t as usize];
            } else {
                self.tasks[write] = t;
                write += 1;
            }
        }
        self.tasks.truncate(write);
        self.load -= removed_weight;
        k
    }
}

/// Classify `(height, weight)` against a threshold.
#[inline]
pub fn band(height: f64, weight: f64, threshold: f64) -> Band {
    if height + weight <= threshold {
        Band::Below
    } else if height >= threshold {
        Band::Above
    } else {
        Band::Cutting
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{RngCore, SeedableRng};

    /// weights[i] indexed by task id.
    fn stack_of(ids_weights: &[(TaskId, f64)]) -> (ResourceStack, Vec<f64>) {
        let max_id = ids_weights.iter().map(|&(i, _)| i).max().unwrap_or(0);
        let mut weights = vec![1.0; max_id as usize + 1];
        let mut s = ResourceStack::new();
        for &(id, w) in ids_weights {
            weights[id as usize] = w;
            s.push(id, w);
        }
        (s, weights)
    }

    #[test]
    fn load_and_heights() {
        let (s, weights) = stack_of(&[(0, 2.0), (1, 3.0), (2, 1.0)]);
        assert_eq!(s.load(), 6.0);
        assert_eq!(s.num_tasks(), 3);
        assert_eq!(s.height_at(0, &weights), 0.0);
        assert_eq!(s.height_at(1, &weights), 2.0);
        assert_eq!(s.height_at(2, &weights), 5.0);
    }

    #[test]
    fn band_classification() {
        // T = 4: task0 (h=0,w=2) below; task1 (h=2,w=3) cutting (2<4<5);
        // task2 (h=5,w=1) above.
        let (s, weights) = stack_of(&[(0, 2.0), (1, 3.0), (2, 1.0)]);
        assert_eq!(s.band_at(0, 4.0, &weights), Band::Below);
        assert_eq!(s.band_at(1, 4.0, &weights), Band::Cutting);
        assert_eq!(s.band_at(2, 4.0, &weights), Band::Above);
    }

    #[test]
    fn band_boundary_exact_fit_counts_as_below() {
        // h + w == T is accepted ("less than or equal to the threshold").
        assert_eq!(band(1.0, 3.0, 4.0), Band::Below);
        assert_eq!(band(4.0, 1.0, 4.0), Band::Above);
    }

    #[test]
    fn phi_counts_cutting_plus_above() {
        let (s, weights) = stack_of(&[(0, 2.0), (1, 3.0), (2, 1.0)]);
        // T = 4: phi = w1 + w2 = 4
        assert_eq!(s.phi(4.0, &weights), 4.0);
        // Not overloaded => phi = 0
        assert_eq!(s.phi(6.0, &weights), 0.0);
        assert_eq!(s.phi(100.0, &weights), 0.0);
    }

    #[test]
    fn psi_ceiling() {
        let (s, weights) = stack_of(&[(0, 2.0), (1, 3.0), (2, 1.0)]);
        // phi = 4, wmax = 3 -> psi = 2
        assert_eq!(s.psi(4.0, &weights, 3.0), 2);
        assert_eq!(s.psi(4.0, &weights, 4.0), 1);
        assert_eq!(s.psi(6.0, &weights, 3.0), 0);
    }

    #[test]
    fn remove_active_splits_at_first_violation() {
        let (mut s, weights) = stack_of(&[(0, 2.0), (1, 3.0), (2, 1.0)]);
        let mut removed = Vec::new();
        assert_eq!(s.remove_active_into(4.0, &weights, &mut removed), 2);
        assert_eq!(removed, vec![1, 2]);
        assert_eq!(s.tasks(), &[0]);
        assert_eq!(s.load(), 2.0);
        // Now under threshold: nothing to remove.
        assert_eq!(s.remove_active_into(4.0, &weights, &mut removed), 0);
        assert_eq!(removed, vec![1, 2]);
    }

    #[test]
    fn remove_active_on_exact_threshold_removes_nothing() {
        let (mut s, weights) = stack_of(&[(0, 2.0), (1, 2.0)]);
        let mut removed = Vec::new();
        assert_eq!(s.remove_active_into(4.0, &weights, &mut removed), 0);
        assert!(removed.is_empty());
        assert_eq!(s.num_tasks(), 2);
    }

    #[test]
    fn remove_active_into_reuses_buffer() {
        let (mut a, weights) = stack_of(&[(0, 2.0), (1, 3.0), (2, 1.0)]);
        let mut b = ResourceStack::new();
        b.push(3, 1.0);
        b.push(0, 2.0);
        let mut weights = weights;
        weights.push(1.0); // id 3
        let mut out = Vec::new();
        assert_eq!(a.remove_active_into(4.0, &weights, &mut out), 2);
        // Appends without clearing: a second resource drains into the same
        // buffer behind the first one's migrants.
        assert_eq!(b.remove_active_into(1.0, &weights, &mut out), 1);
        assert_eq!(out, vec![1, 2, 0]);
        assert_eq!(a.load(), 2.0);
        assert_eq!(b.load(), 1.0);
    }

    /// Eject from `ids_weights` by a scan from the bottom and by one
    /// resumed at `len` from the bottom scan's own fold; both must leave
    /// the same stack (ids and load bits) and eject the same tasks.
    fn resumed_equals_fresh(ids_weights: &[(TaskId, f64)], len: usize, threshold: f64) -> usize {
        let (mut fresh, weights) = stack_of(ids_weights);
        let mut resumed = fresh.clone();
        let height = ids_weights[..len].iter().fold(0.0, |h, &(_, w)| h + w);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        let removed = fresh.remove_active_into(threshold, &weights, &mut a);
        assert_eq!(resumed.remove_active_from(len, height, threshold, &weights, &mut b), removed);
        assert_eq!((resumed.tasks(), &b), (fresh.tasks(), &a));
        assert_eq!(resumed.load().to_bits(), fresh.load().to_bits());
        removed
    }

    #[test]
    fn remove_active_from_a_mark_in_the_middle() {
        // Non-integral weights, T = 2.5: the fold reaches 2.1 after four
        // tasks, and the fifth (0.7) cuts. Every resume point up to the
        // cut gives the bottom scan's split and load bits.
        let stack = [(0, 0.1), (1, 0.2), (2, 0.3), (3, 1.5), (4, 0.7), (5, 2.0)];
        for len in 0..=4 {
            assert_eq!(resumed_equals_fresh(&stack, len, 2.5), 2, "resume at {len}");
        }
    }

    #[test]
    fn remove_active_from_a_mark_at_exactly_the_threshold() {
        // The accepted prefix fills T exactly (1 + 2 = 3): the next task
        // ejects, whatever its weight.
        let stack = [(0, 1.0), (1, 2.0), (2, 0.5), (3, 4.0)];
        assert_eq!(resumed_equals_fresh(&stack, 2, 3.0), 2);
        let (mut s, weights) = stack_of(&stack);
        let mut out = Vec::new();
        assert_eq!(s.remove_active_from(2, 3.0, 3.0, &weights, &mut out), 2);
        assert_eq!(
            (s.tasks(), out.as_slice(), s.load()),
            ([0, 1].as_slice(), [2, 3].as_slice(), 3.0)
        );
    }

    #[test]
    fn remove_active_from_the_stack_top_reads_nothing() {
        // A mark at the stack length: nothing above it to scan, nothing
        // ejected, and the load is reset to the mark's height.
        let stack = [(0, 1.0), (1, 2.0)];
        assert_eq!(resumed_equals_fresh(&stack, 2, 3.0), 0);
        let (mut s, weights) = stack_of(&stack);
        let mut out = Vec::new();
        assert_eq!(s.remove_active_from(2, 3.0, 3.0, &weights, &mut out), 0);
        assert!(out.is_empty());
        assert_eq!((s.num_tasks(), s.load()), (2, 3.0));
    }

    #[test]
    #[should_panic]
    fn remove_active_from_rejects_a_mark_past_the_top() {
        let (mut s, weights) = stack_of(&[(0, 1.0)]);
        s.remove_active_from(2, 1.0, 3.0, &weights, &mut Vec::new());
    }

    #[test]
    fn drain_bernoulli_into_appends() {
        let (mut s, weights) = stack_of(&[(0, 2.0), (1, 3.0)]);
        let mut out = vec![9];
        assert_eq!(s.drain_bernoulli_into(1.0, &[7, u64::MAX], &weights, &mut out), 2);
        assert_eq!(out, vec![9, 0, 1]);
        assert!(s.is_empty());
    }

    #[test]
    fn drain_bernoulli_extremes() {
        // The smallest and largest coin words: p = 0 keeps even a zero
        // word, p = 1 lets even the all-ones word leave.
        let (mut s, weights) = stack_of(&[(0, 2.0), (1, 3.0)]);
        let mut out = Vec::new();
        assert_eq!(s.drain_bernoulli_into(0.0, &[0, 0], &weights, &mut out), 0);
        assert_eq!(s.num_tasks(), 2);
        assert_eq!(s.drain_bernoulli_into(1.0, &[u64::MAX; 2], &weights, &mut out), 2);
        assert_eq!(out, vec![0, 1]);
        assert_eq!(s.load(), 0.0);
        assert!(s.is_empty());
    }

    #[test]
    fn drain_bernoulli_rate_statistics() {
        let mut rng = SmallRng::seed_from_u64(123);
        let trials = 2000;
        let mut total_migrants = 0usize;
        let mut words = [0u64; 10];
        for _ in 0..trials {
            let (mut s, weights) = stack_of(&(0..10).map(|i| (i, 1.0)).collect::<Vec<_>>());
            rng.fill_u64(&mut words);
            total_migrants += s.drain_bernoulli_into(0.3, &words, &weights, &mut Vec::new());
        }
        let rate = total_migrants as f64 / (trials * 10) as f64;
        assert!((rate - 0.3).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn remove_positions_into_keeps_order_and_load() {
        let (mut s, weights) = stack_of(&[(0, 2.0), (1, 3.0), (2, 1.0), (3, 4.0), (4, 0.5)]);
        let mut out = vec![9];
        assert_eq!(s.remove_positions_into(&[1, 3, 4], &weights, &mut out), 3);
        assert_eq!(out, vec![9, 1, 3, 4]);
        assert_eq!(s.tasks(), &[0, 2]);
        assert_eq!(s.load(), 3.0);
        assert_eq!(s.remove_positions_into(&[], &weights, &mut out), 0);
        assert_eq!(s.remove_positions_into(&[0, 1], &weights, &mut out), 2);
        assert!(s.is_empty());
        assert_eq!(s.load(), 0.0);
    }

    #[test]
    #[should_panic(expected = "outside a 2-task stack")]
    fn remove_positions_into_rejects_out_of_range() {
        let (mut s, weights) = stack_of(&[(0, 2.0), (1, 3.0)]);
        s.remove_positions_into(&[2], &weights, &mut Vec::new());
    }

    #[test]
    fn phi_with_single_giant_task() {
        // One task heavier than the threshold: it cuts (h=0 < T < w).
        let (s, weights) = stack_of(&[(0, 10.0)]);
        assert_eq!(s.phi(4.0, &weights), 10.0);
        assert_eq!(s.band_at(0, 4.0, &weights), Band::Cutting);
    }
}
