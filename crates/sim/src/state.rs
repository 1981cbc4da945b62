//! The engine's *state* half: everything an online run owns, with the
//! event-application primitives that mutate it — no scheduling.
//!
//! [`SimState`] bundles the churn overlay, its CSR walk snapshot, the
//! per-resource stacks, and the task tables (weights, tenant indices,
//! recycled id slots). The *scheduler* half — the epoch loop in
//! [`crate::engine`] that decides **when** churn, departures, arrivals,
//! and the rebalancing pass run, and which engine runs the pass — calls
//! into these primitives. The split is what makes sharding possible: the
//! scheduler lends the stacks to the parallel
//! [`crate::shard::ShardedEngine`], which rebalances them in place
//! without knowing how the rest of the state is stored between epochs.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use rand::Rng;
use tlb_core::stack::ResourceStack;
use tlb_core::task::TaskId;
use tlb_graphs::{DynamicGraph, Graph, NodeId};

use crate::arrivals::ArrivalPlacement;
use crate::churn::ChurnEvent;
use crate::domains::DomainSpec;

/// Relative tolerance of the audit's cached-load check, against
/// `max(exact load, w_max, 1)`. `push` and the departure draw update a
/// stack's load by adding and subtracting weights, so rounding error grows
/// with every update until the next rebalance ejection resets the load
/// exactly; 10⁻⁹ leaves room for millions of updates of weights up to the
/// scale.
const LOAD_AUDIT_REL_TOL: f64 = 1e-9;

/// The largest weight of a task multiset and how many tasks carry it
/// (`max = 0, count = 0` when empty).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct MaxCount {
    pub(crate) max: f64,
    pub(crate) count: usize,
}

impl MaxCount {
    /// Fold one more weight in.
    fn add(&mut self, w: f64) {
        if w > self.max {
            *self = MaxCount { max: w, count: 1 };
        } else if w == self.max {
            self.count += 1;
        }
    }
}

/// A resource ranked by load for the adaptive adversary: it orders before
/// another when it is heavier, ties to the lower id.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Ranked(f64, NodeId);

impl Eq for Ranked {}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .0
            .partial_cmp(&self.0)
            .expect("loads are finite")
            .then(self.1.cmp(&other.1))
    }
}

/// All state an online simulation owns between epochs (see the module
/// docs for the state/scheduler split).
#[derive(Debug, Clone)]
pub(crate) struct SimState {
    /// The churn overlay.
    pub(crate) dg: DynamicGraph,
    /// CSR snapshot of the effective graph the walk kernels use;
    /// refreshed whenever churn changes the topology.
    pub(crate) walk_graph: Graph,
    /// Per-resource stacks (index = resource id).
    pub(crate) stacks: Vec<ResourceStack>,
    /// Weight slot per task id; slots of departed tasks are recycled via
    /// `free_ids`, so memory tracks the live population, not the arrival
    /// total.
    pub(crate) weights: Vec<f64>,
    /// Tenant index per task id (parallel to `weights`).
    pub(crate) tenant_of: Vec<u16>,
    pub(crate) free_ids: Vec<TaskId>,
    pub(crate) live: usize,
    /// Largest live task weight and its multiplicity, kept incrementally
    /// by [`admit`](Self::admit) and the departure draw. The O(m) rescan
    /// runs only when a departure takes the count to zero.
    pub(crate) w_max: MaxCount,
    /// Reused per-epoch buffer for departure draws.
    pub(crate) departed: Vec<TaskId>,
    /// Reused per-epoch buffer: every stack's load as the last pass left
    /// it, for the adaptive adversary (see
    /// [`snapshot_loads`](Self::snapshot_loads)).
    pub(crate) prior_loads: Vec<f64>,
    /// Per failure domain (index = position in the config's domain
    /// list): the epoch at whose start the domain recovers, or 0 when
    /// the domain is healthy. Non-RNG persistent state — it travels in
    /// the snapshot so a restored run replays the same recoveries.
    pub(crate) domain_down_until: Vec<u64>,
    /// Per-tenant admission token balances (token-bucket policy only;
    /// empty otherwise). Snapshot state, like `domain_down_until`.
    pub(crate) admission_tokens: Vec<f64>,
}

impl SimState {
    /// Empty state over the overlay `dg`, with no tasks.
    pub(crate) fn new(dg: DynamicGraph) -> Self {
        let n = dg.num_nodes();
        let walk_graph = dg.snapshot();
        SimState {
            dg,
            walk_graph,
            stacks: vec![ResourceStack::new(); n],
            weights: Vec::new(),
            tenant_of: Vec::new(),
            free_ids: Vec::new(),
            live: 0,
            w_max: MaxCount::default(),
            departed: Vec::new(),
            prior_loads: Vec::new(),
            domain_down_until: Vec::new(),
            admission_tokens: Vec::new(),
        }
    }

    /// Apply one churn event. Deactivating a resource drains its tasks to
    /// uniformly random surviving resources (the orchestrator's forced
    /// migration — these do not count as protocol migrations). Returns
    /// the number of drained tasks. Deactivation of the last active
    /// resource is skipped: the system never loses all capacity.
    pub(crate) fn apply_event<R: Rng + ?Sized>(
        &mut self,
        ev: ChurnEvent,
        rng: &mut R,
        topology_changed: &mut bool,
    ) -> u64 {
        match ev {
            ChurnEvent::Deactivate(v) => self.deactivate_one(v, rng, topology_changed),
            ChurnEvent::Activate(v) => {
                if self.dg.activate(v) {
                    *topology_changed = true;
                }
                0
            }
            ChurnEvent::DeactivateRange { from, to } => {
                // Take the whole rack down before re-placing anything, so
                // no task is drained onto a sibling that leaves in the
                // same event (and then drained again).
                let mut orphans: Vec<TaskId> = Vec::new();
                for v in from..to {
                    if let Some(stack) = self.deactivate_collect(v, topology_changed) {
                        orphans.extend_from_slice(stack.tasks());
                    }
                }
                self.place_orphans(&orphans, rng)
            }
            ChurnEvent::ActivateRange { from, to } => {
                for v in from..to {
                    if self.dg.activate(v) {
                        *topology_changed = true;
                    }
                }
                0
            }
            ChurnEvent::DomainOutage { .. } => {
                // The scheduler resolves this against the config's domain
                // list (it owns the recovery deadlines) and applies the
                // range deactivation via `domain_outage` below.
                unreachable!("DomainOutage is resolved by the scheduler")
            }
        }
    }

    /// Take failure domain `d` down until epoch `until`: record the
    /// recovery deadline (extending any outage already in force) and
    /// drain the whole range. Returns the number of drained tasks.
    pub(crate) fn domain_outage<R: Rng + ?Sized>(
        &mut self,
        domains: &[DomainSpec],
        d: usize,
        until: u64,
        rng: &mut R,
        topology_changed: &mut bool,
    ) -> u64 {
        self.domain_down_until[d] = self.domain_down_until[d].max(until);
        let DomainSpec { from, to, .. } = domains[d];
        self.apply_event(ChurnEvent::DeactivateRange { from, to }, rng, topology_changed)
    }

    /// Recover every domain whose outage deadline has arrived:
    /// reactivate the whole range (no RNG) and clear the deadline.
    /// Returns the number of domains recovered.
    pub(crate) fn recover_due_domains(
        &mut self,
        domains: &[DomainSpec],
        epoch: u64,
        topology_changed: &mut bool,
    ) -> u64 {
        let mut recovered = 0;
        for (deadline, spec) in self.domain_down_until.iter_mut().zip(domains) {
            if *deadline != 0 && *deadline <= epoch {
                *deadline = 0;
                recovered += 1;
                for v in spec.from..spec.to {
                    if self.dg.activate(v) {
                        *topology_changed = true;
                    }
                }
            }
        }
        recovered
    }

    /// Whether `v` belongs to a domain currently down (deadline still in
    /// the future of `epoch`).
    pub(crate) fn in_down_domain(&self, domains: &[DomainSpec], v: NodeId, epoch: u64) -> bool {
        self.domain_down_until
            .iter()
            .zip(domains)
            .any(|(&until, dom)| until > epoch && dom.contains(v))
    }

    /// Total stacked load inside domain `d` (drained domains report 0).
    pub(crate) fn domain_load(&self, domains: &[DomainSpec], d: usize) -> f64 {
        let DomainSpec { from, to, .. } = domains[d];
        self.stacks[from as usize..to as usize].iter().map(ResourceStack::load).sum()
    }

    /// Record every stack's current load — the adversary's view of last
    /// epoch's loads when taken before this epoch's churn runs.
    pub(crate) fn snapshot_loads(&mut self) {
        self.prior_loads.clear();
        self.prior_loads.extend(self.stacks.iter().map(ResourceStack::load));
    }

    /// The adaptive adversary's targets: the `k` ids of `candidates` with
    /// the largest [`snapshot_loads`](Self::snapshot_loads) load, heaviest
    /// first, ties to the lowest id — the first `k` candidates of a full
    /// sort of every id by snapshot load, in the same order. One pass
    /// keeps the best `k` so far in a heap whose top is the worst of
    /// them, so a candidate that does not beat it costs one comparison:
    /// O(|candidates|·log k) at worst instead of a sort of every id.
    pub(crate) fn top_loaded(&self, candidates: &[NodeId], k: usize) -> Vec<NodeId> {
        let mut best = BinaryHeap::with_capacity(k + 1);
        for &v in candidates {
            let ranked = Ranked(self.prior_loads[v as usize], v);
            if best.len() < k {
                best.push(ranked);
            } else if let Some(mut worst) = best.peek_mut().filter(|w| ranked < **w) {
                *worst = ranked;
            }
        }
        best.into_sorted_vec().into_iter().map(|Ranked(_, v)| v).collect()
    }

    fn deactivate_one<R: Rng + ?Sized>(
        &mut self,
        v: NodeId,
        rng: &mut R,
        topology_changed: &mut bool,
    ) -> u64 {
        match self.deactivate_collect(v, topology_changed) {
            Some(orphan) => {
                let tasks = orphan.tasks().to_vec();
                self.place_orphans(&tasks, rng)
            }
            None => 0,
        }
    }

    /// Deactivate `v` (unless it is the last active resource) and take
    /// its stack without re-placing the tasks yet.
    fn deactivate_collect(
        &mut self,
        v: NodeId,
        topology_changed: &mut bool,
    ) -> Option<ResourceStack> {
        if !self.dg.is_active(v) || self.dg.num_active() <= 1 {
            return None;
        }
        self.dg.deactivate(v);
        *topology_changed = true;
        Some(std::mem::take(&mut self.stacks[v as usize]))
    }

    /// Re-place drained tasks on uniformly random surviving resources;
    /// returns how many were placed.
    fn place_orphans<R: Rng + ?Sized>(&mut self, orphans: &[TaskId], rng: &mut R) -> u64 {
        if orphans.is_empty() {
            return 0;
        }
        let survivors = self.active_ids();
        for &t in orphans {
            let dest = survivors[rng.gen_range(0..survivors.len())];
            self.stacks[dest as usize].push(t, self.weights[t as usize]);
        }
        orphans.len() as u64
    }

    /// Depart every live task independently with probability `p`, with
    /// O(departures) draws: walking the tasks in concatenated stack order
    /// (resource 0 bottom-to-top, then resource 1, ...), each gap to the
    /// next departing task is one inverse-CDF Geometric(p) draw,
    /// `⌊ln(1−u)/ln(1−p)⌋`, so `P(gap = k) = (1−p)^k·p` — the law of
    /// skipping past independent Bernoulli(p) coins. The walk itself is
    /// O(n) over the stack lengths. Freed id slots are recycled and the
    /// cached `w_max` follows. Returns the departure count.
    pub(crate) fn depart<R: Rng + ?Sized>(&mut self, p: f64, rng: &mut R) -> u64 {
        if p <= 0.0 || self.live == 0 {
            return 0;
        }
        let ln_q = (-p).ln_1p();
        // `as` saturates, so a gap past every task stays in range.
        let mut gap = || ((-rng.gen::<f64>()).ln_1p() / ln_q) as usize;
        self.departed.clear();
        let mut positions = Vec::new();
        // Concatenated index of the next departing task, and of the
        // current stack's bottom task.
        let mut next = gap();
        let mut base = 0usize;
        for stack in self.stacks.iter_mut() {
            let end = base + stack.num_tasks();
            if next < end {
                positions.clear();
                while next < end {
                    positions.push(next - base);
                    next = next.saturating_add(gap()).saturating_add(1);
                }
                stack.remove_positions_into(&positions, &self.weights, &mut self.departed);
            }
            base = end;
        }
        let departures = self.departed.len() as u64;
        self.live -= self.departed.len();
        for &t in &self.departed {
            if self.weights[t as usize] == self.w_max.max {
                self.w_max.count -= 1;
            }
        }
        if self.w_max.count == 0 {
            self.w_max = self.scan_w_max();
        }
        self.free_ids.append(&mut self.departed);
        departures
    }

    /// Admit one arriving task: assign an id slot (recycled if possible),
    /// record its weight and tenant, stack it on `dest`, and fold its
    /// weight into the cached `w_max`.
    pub(crate) fn admit(&mut self, weight: f64, tenant: u16, dest: NodeId) {
        self.w_max.add(weight);
        let id = match self.free_ids.pop() {
            Some(id) => {
                self.weights[id as usize] = weight;
                self.tenant_of[id as usize] = tenant;
                id
            }
            None => {
                self.weights.push(weight);
                self.tenant_of.push(tenant);
                (self.weights.len() - 1) as TaskId
            }
        };
        self.stacks[dest as usize].push(id, weight);
        self.live += 1;
    }

    pub(crate) fn active_ids(&self) -> Vec<NodeId> {
        (0..self.dg.num_nodes() as NodeId).filter(|&v| self.dg.is_active(v)).collect()
    }

    /// Pick the resource the `admitted`-th admitted arrival of the epoch
    /// lands on under `placement`. `adaptive_targets` are the adaptive
    /// adversary's targets, which only the scheduler can resolve (they
    /// rank the loads from before this epoch's churn).
    pub(crate) fn arrival_destination<R: Rng + ?Sized>(
        &self,
        placement: ArrivalPlacement,
        active: &[NodeId],
        adaptive_targets: &[NodeId],
        admitted: u64,
        rng: &mut R,
    ) -> NodeId {
        match placement {
            ArrivalPlacement::Uniform => active[rng.gen_range(0..active.len())],
            ArrivalPlacement::HotSpot(v) => {
                if self.dg.is_active(v) {
                    v
                } else {
                    active[0]
                }
            }
            ArrivalPlacement::MostLoaded => active
                .iter()
                .copied()
                .max_by(|&a, &b| {
                    self.stacks[a as usize]
                        .load()
                        .partial_cmp(&self.stacks[b as usize].load())
                        .expect("loads are finite")
                        // Ties go to the lowest id: prefer `a` on equal.
                        .then(b.cmp(&a))
                })
                .expect("at least one active resource"),
            // Round-robin over the targets by admitted index.
            ArrivalPlacement::Adaptive { .. } => {
                adaptive_targets[admitted as usize % adaptive_targets.len()]
            }
        }
    }

    /// Total live weight.
    pub(crate) fn total_weight(&self) -> f64 {
        self.stacks.iter().map(ResourceStack::load).sum()
    }

    /// Full O(m) recompute of the largest live weight and its
    /// multiplicity. The epoch loop calls it only when the last max-weight
    /// task departs; restore and the audit call it once.
    pub(crate) fn scan_w_max(&self) -> MaxCount {
        let mut best = MaxCount::default();
        for &t in self.stacks.iter().flat_map(ResourceStack::tasks) {
            best.add(self.weights[t as usize]);
        }
        best
    }

    /// Check the incremental state against full recomputes; see
    /// [`OnlineSim::audit`](crate::OnlineSim::audit) for the list.
    pub(crate) fn audit(&self) -> Result<(), String> {
        self.audit_tables()?;
        if self.dg.num_active() == 0 {
            return Err("no resource is active".to_string());
        }
        let scanned = self.scan_w_max();
        if self.w_max != scanned {
            return Err(format!("cached {:?} but a rescan finds {scanned:?}", self.w_max));
        }
        for (v, stack) in self.stacks.iter().enumerate() {
            if !stack.is_empty() && !self.dg.is_active(v as NodeId) {
                return Err(format!("inactive resource {v} holds {} tasks", stack.num_tasks()));
            }
            let exact: f64 = stack.tasks().iter().map(|&t| self.weights[t as usize]).sum();
            let scale = exact.max(self.w_max.max).max(1.0);
            let err = (stack.load() - exact).abs();
            if err.is_nan() || err > LOAD_AUDIT_REL_TOL * scale {
                return Err(format!(
                    "resource {v} caches load {} but its tasks weigh {exact}",
                    stack.load()
                ));
            }
        }
        Ok(())
    }

    /// The table half of [`audit`](Self::audit), which every other check
    /// (and [`scan_w_max`](Self::scan_w_max)) relies on to index safely:
    /// one stack per node, the live count, id slots and tenant slots
    /// agree, every id slot is stacked once or free once, and every
    /// stacked task weighs a finite positive amount.
    pub(crate) fn audit_tables(&self) -> Result<(), String> {
        let n = self.dg.num_nodes();
        if self.stacks.len() != n {
            return Err(format!("{} stacks for a {n}-node graph", self.stacks.len()));
        }
        let slots = self.weights.len();
        let stacked: usize = self.stacks.iter().map(ResourceStack::num_tasks).sum();
        if self.live != stacked
            || self.live + self.free_ids.len() != slots
            || self.tenant_of.len() != slots
        {
            return Err(format!(
                "live {} vs {stacked} stacked; {} free ids, {slots} weight and {} tenant slots",
                self.live,
                self.free_ids.len(),
                self.tenant_of.len()
            ));
        }
        let mut seen = vec![false; slots];
        let stacked_ids = self.stacks.iter().flat_map(ResourceStack::tasks);
        // The first `live` ids are the stacked ones, then the free list.
        for (i, &t) in stacked_ids.chain(&self.free_ids).enumerate() {
            let slot = seen
                .get_mut(t as usize)
                .ok_or_else(|| format!("task id {t} outside the {slots}-slot table"))?;
            if std::mem::replace(slot, true) {
                return Err(format!("task id {t} is stacked or freed twice"));
            }
            let w = self.weights[t as usize];
            if i < self.live && !(w.is_finite() && w > 0.0) {
                return Err(format!("stacked task {t} has weight {w}, not finite and positive"));
            }
        }
        Ok(())
    }

    /// Max load, overloaded-resource count, and potential Φ against
    /// `threshold`, in one pass over the stacks. Φ reads task weights only
    /// on overloaded stacks, so the pass is O(n) plus their tasks.
    pub(crate) fn load_metrics(&self, threshold: f64) -> (f64, usize, f64) {
        let (mut max_load, mut overloaded, mut potential) = (0.0f64, 0usize, 0.0f64);
        for stack in &self.stacks {
            max_load = max_load.max(stack.load());
            if stack.is_overloaded(threshold) {
                overloaded += 1;
                potential += stack.phi(threshold, &self.weights);
            }
        }
        (max_load, overloaded, potential)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use tlb_graphs::generators::complete;

    /// Stack sizes with empty stacks in between, so geometric gaps cross
    /// stack boundaries and skip whole resources.
    const SIZES: [usize; 8] = [3, 0, 7, 1, 0, 12, 5, 2];

    /// Unit tasks laid out per `SIZES`; ids are assigned in admission
    /// order, so id = position in the concatenated stack order.
    fn layout() -> SimState {
        let mut state = SimState::new(DynamicGraph::new(complete(SIZES.len())));
        for (v, &k) in SIZES.iter().enumerate() {
            for _ in 0..k {
                state.admit(1.0, 0, v as NodeId);
            }
        }
        state
    }

    /// χ²(df) upper bound at ≈0.999, as in `crate::shard`'s pins.
    fn chi2_crit(df: usize) -> f64 {
        df as f64 + 4.0 * (2.0 * df as f64).sqrt() + 10.0
    }

    /// The statistical justification of the geometric-skip departure
    /// stream (the one re-pin it caused): over many independent epochs the
    /// departure count has the Binomial(live, p) mean and variance, and
    /// every (resource, position) cell departs at rate p — per-task
    /// Bernoulli(p) coins, with no position or resource bias.
    #[test]
    fn geometric_departures_match_independent_bernoulli_coins() {
        let base = layout();
        let live = base.live;
        for (p, seed) in [(0.02, 1u64), (0.1, 2), (0.45, 3)] {
            let trials = 20_000usize;
            let mut rng = SmallRng::seed_from_u64(0xDE9A ^ seed);
            let mut per_task = vec![0u64; live];
            let (mut sum, mut sum_sq) = (0.0f64, 0.0f64);
            for _ in 0..trials {
                let mut s = base.clone();
                let k = s.depart(p, &mut rng);
                assert_eq!(s.live + k as usize, live);
                s.audit().unwrap();
                for &t in &s.free_ids {
                    per_task[t as usize] += 1;
                }
                sum += k as f64;
                sum_sq += (k * k) as f64;
            }
            // Moments against Binomial(live, p), each within 5 standard
            // errors (the variance's from the binomial fourth moment).
            let t = trials as f64;
            let (n, q) = (live as f64, 1.0 - p);
            let (mean, var) = (sum / t, sum_sq / t - (sum / t).powi(2));
            let (mu, sigma2) = (n * p, n * p * q);
            let mu4 = sigma2 * (1.0 + 3.0 * (n - 2.0) * p * q);
            assert!(
                (mean - mu).abs() < 5.0 * (sigma2 / t).sqrt(),
                "p={p}: mean {mean} vs binomial {mu}"
            );
            assert!(
                (var - sigma2).abs() < 5.0 * ((mu4 - sigma2 * sigma2) / t).sqrt(),
                "p={p}: variance {var} vs binomial {sigma2}"
            );
            // Each cell's count is Binomial(trials, p), independent across
            // cells: χ² over stack positions, then over whole resources.
            let e = t * p;
            let cell_stat: f64 = per_task.iter().map(|&c| (c as f64 - e).powi(2) / (e * q)).sum();
            assert!(
                cell_stat < chi2_crit(live),
                "p={p}: position chi2 {cell_stat:.2} >= {:.2}",
                chi2_crit(live)
            );
            let (mut res_stat, mut res_df, mut start) = (0.0, 0, 0);
            for &k in SIZES.iter().filter(|&&k| k > 0) {
                let c: u64 = per_task[start..start + k].iter().sum();
                let e = e * k as f64;
                res_stat += (c as f64 - e).powi(2) / (e * q);
                res_df += 1;
                start += k;
            }
            assert!(
                res_stat < chi2_crit(res_df),
                "p={p}: resource chi2 {res_stat:.2} >= {:.2}",
                chi2_crit(res_df)
            );
        }
    }

    /// The adversary's old ranking, kept as the oracle for
    /// [`SimState::top_loaded`]: every id fully sorted by stack load,
    /// heaviest first, ties to the lowest id.
    fn full_sort_ranking(state: &SimState) -> Vec<NodeId> {
        let mut ids: Vec<NodeId> = (0..state.dg.num_nodes() as NodeId).collect();
        ids.sort_by(|&a, &b| {
            state.stacks[b as usize]
                .load()
                .partial_cmp(&state.stacks[a as usize].load())
                .expect("loads are finite")
                .then(a.cmp(&b))
        });
        ids
    }

    /// Top-k selection equals the head of the full sort, filtered to the
    /// ids active after churn: many equal loads (unit weights, empty
    /// stacks), ids deactivated and reactivated between the snapshot and
    /// the selection, and `k` past the active count.
    #[test]
    fn top_loaded_is_the_head_of_the_old_full_sort() {
        let n = 40usize;
        for seed in 0..24u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut state = SimState::new(DynamicGraph::new(complete(n)));
            let mut changed = false;
            for _ in 0..rng.gen_range(0..6) {
                state.apply_event(
                    ChurnEvent::Deactivate(rng.gen_range(0..n as NodeId)),
                    &mut rng,
                    &mut changed,
                );
            }
            let active = state.active_ids();
            let unit = seed % 2 == 0;
            for _ in 0..rng.gen_range(0..3 * n) {
                let w = if unit { 1.0 } else { [1.0, 2.5, 4.0][rng.gen_range(0..3usize)] };
                state.admit(w, 0, active[rng.gen_range(0..active.len())]);
            }
            state.snapshot_loads();
            let ranking = full_sort_ranking(&state);
            // This epoch's churn: drains (which move load after the
            // snapshot) and recoveries of ids that were down.
            for _ in 0..rng.gen_range(0..6) {
                let v = rng.gen_range(0..n as NodeId);
                let ev = if rng.gen_bool(0.5) {
                    ChurnEvent::Deactivate(v)
                } else {
                    ChurnEvent::Activate(v)
                };
                state.apply_event(ev, &mut rng, &mut changed);
            }
            let active = state.active_ids();
            for k in [1, 2, 5, 16, active.len(), active.len() + 3] {
                let want: Vec<NodeId> =
                    ranking.iter().copied().filter(|&v| state.dg.is_active(v)).take(k).collect();
                assert_eq!(state.top_loaded(&active, k), want, "seed {seed} k {k}");
            }
        }
    }

    #[test]
    fn cached_w_max_follows_admissions_and_departures() {
        let mut state = SimState::new(DynamicGraph::new(complete(2)));
        for w in [2.0, 5.0, 1.0, 5.0] {
            state.admit(w, 0, 0);
        }
        assert_eq!(state.w_max, MaxCount { max: 5.0, count: 2 });
        // Departing everything empties the cache back to (0, 0).
        let mut rng = SmallRng::seed_from_u64(4);
        while state.live > 0 {
            state.depart(0.5, &mut rng);
            state.audit().unwrap();
        }
        assert_eq!(state.w_max, MaxCount::default());
        state.admit(3.0, 0, 1);
        assert_eq!(state.w_max, MaxCount { max: 3.0, count: 1 });
        state.audit().unwrap();
    }
}
