//! The online workloads, `steady` and `hotspot`: an `OnlineSim` held at a
//! steady population by Poisson arrivals that balance Bernoulli
//! departures, timed one `run_epoch` call at a time.
//!
//! Set-up is graph generation, `OnlineSim::new`, and one bulk-load epoch
//! that lands the initial population uniformly; the engine is then
//! reconfigured to the workload's steady arrival process. Every epoch is
//! checked on the engine's public state (see [`check_epoch`]). The
//! quality metrics cover the first `quality_epochs` steady epochs, a fixed
//! amount of work, so they are deterministic for a seed; the timings
//! cover every epoch measured.

use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tlb_core::threshold::ThresholdPolicy;
use tlb_graphs::generators::random_regular;
use tlb_graphs::Graph;
use tlb_obs::ObsReport;
use tlb_sim::{
    ArrivalPlacement, ArrivalProcess, ArrivalWeights, ChurnProcess, DomainSpec, DomainSteering,
    OnlineSim, RebalancePolicy, SimConfig, SimSnapshot, TenantSpec,
};
use tlb_walks::WalkKind;

use crate::{
    geomean, graph_fingerprint, median, mix, peak_rss_mb, quiet_timing, Opts, Outcome, Scale,
    Timing,
};

/// Set-ups per run; the set-up metrics are their medians.
const SETUPS: usize = 3;

/// One online workload, generated from the seed.
pub struct Spec {
    /// Resources.
    pub n: usize,
    /// Seed of the graph generator.
    pub graph_seed: u64,
    /// Config of the bulk-load epoch.
    pub bulk: SimConfig,
    /// Config of every steady epoch.
    pub steady: SimConfig,
    /// Run a checkpoint → JSON → restore cycle before every this-many
    /// steady epochs.
    pub checkpoint_every: Option<u64>,
    /// Adaptive-adversary spreads, one per segment of `checkpoint_every`
    /// epochs, cycled (empty: the steady config's placement throughout).
    pub spreads: Vec<usize>,
    /// Steady epochs the quality metrics cover (and the minimum a run
    /// measures).
    pub quality_epochs: u64,
    /// Fingerprint of the seed-derived parameters.
    pub fingerprint: u64,
}

/// `steady`: random 8-regular graph, 10 unit tasks per resource,
/// Poisson arrivals at `p·N` against departure probability `p = 0.02`,
/// one tenant at `ε = 0.2`, resource policy with the max-degree walk,
/// 32 rounds per epoch.
pub fn steady(opts: &Opts) -> Spec {
    let (n, quality_epochs) = match opts.scale {
        Scale::Full => (100_000, 100),
        Scale::Small => (2_000, 20),
    };
    // 10.4 tasks per resource, not 10: with unit tasks the threshold
    // 1.2·W/n + 1 would sit on the integer 13, and the population's
    // random walk around 10⁶ would flip every resource at load 13 between
    // accepted and overloaded, swinging migrations tenfold for hundreds
    // of epochs.
    let tasks = 104 * n / 10;
    let p = 0.02;
    let mut rng = SmallRng::seed_from_u64(opts.seed ^ 0x57EAD);
    let (graph_seed, sim_seed): (u64, u64) = (rng.gen(), rng.gen());
    let bulk = SimConfig {
        name: "steady".into(),
        epochs: 1,
        seed: sim_seed,
        arrivals: ArrivalProcess::Batched { size: tasks, every: u64::MAX },
        departure_prob: 0.0,
        threshold: ThresholdPolicy::AboveAverage { epsilon: 0.2 },
        rebalance: RebalancePolicy::Resource { walk: WalkKind::MaxDegree },
        rounds_per_epoch: 32,
        shards: opts.shards,
        ..Default::default()
    };
    let steady = SimConfig {
        arrivals: ArrivalProcess::Poisson { rate: p * tasks as f64 },
        departure_prob: p,
        ..bulk.clone()
    };
    Spec {
        n,
        graph_seed,
        bulk,
        steady,
        checkpoint_every: None,
        spreads: Vec::new(),
        quality_epochs,
        fingerprint: mix(graph_seed, sim_seed),
    }
}

/// `hotspot`: random 8-regular graph in racks of 256, 8 truncated-Pareto
/// tasks per resource, an adaptive adversary piling arrivals onto the
/// `spread` most-loaded resources, two tenants, adaptively steered rack
/// outages, lazy walk with 64 rounds per epoch, and a checkpoint/restore
/// cycle every 50 epochs. The spread steps through 4..=16, one value per
/// 50-epoch segment, from a seed-drawn starting point, so every run sees
/// every spread.
pub fn hotspot(opts: &Opts) -> Spec {
    let (racks, rack_size, quality_epochs, every) = match opts.scale {
        Scale::Full => (64u32, 256u32, 650, 50),
        Scale::Small => (8, 128, 20, 10),
    };
    let n = (racks * rack_size) as usize;
    let tasks = 8 * n;
    let p = 0.02;
    let mut rng = SmallRng::seed_from_u64(opts.seed ^ 0x4075_9077);
    let (graph_seed, sim_seed): (u64, u64) = (rng.gen(), rng.gen());
    let first = rng.gen_range(0..13usize);
    let spreads: Vec<usize> = (0..13).map(|k| 4 + (first + k) % 13).collect();
    let domains: Vec<DomainSpec> = (0..racks)
        .map(|r| DomainSpec::new(format!("rack{r}"), r * rack_size, (r + 1) * rack_size))
        .collect();
    let bulk = SimConfig {
        name: "hotspot".into(),
        epochs: 1,
        seed: sim_seed,
        arrivals: ArrivalProcess::Batched { size: tasks, every: u64::MAX },
        arrival_weights: ArrivalWeights::ParetoTruncated { alpha: 1.3, cap: 32.0 },
        departure_prob: 0.0,
        churn: ChurnProcess { domains, ..Default::default() },
        tenants: vec![
            TenantSpec::new("latency", ThresholdPolicy::Tight, 0.3),
            TenantSpec::new("batch", ThresholdPolicy::AboveAverage { epsilon: 1.0 }, 0.7),
        ],
        threshold: ThresholdPolicy::AboveAverage { epsilon: 0.2 },
        rebalance: RebalancePolicy::Resource { walk: WalkKind::Lazy },
        rounds_per_epoch: 64,
        shards: opts.shards,
        ..Default::default()
    };
    let steady = SimConfig {
        arrivals: ArrivalProcess::Poisson { rate: p * tasks as f64 },
        arrival_placement: ArrivalPlacement::Adaptive { spread: spreads[0] },
        departure_prob: p,
        churn: ChurnProcess {
            domain_outage: 0.02,
            steering: DomainSteering::Adaptive,
            ..bulk.churn.clone()
        },
        ..bulk.clone()
    };
    Spec {
        n,
        graph_seed,
        bulk,
        steady,
        checkpoint_every: Some(every),
        fingerprint: mix(mix(graph_seed, sim_seed), first as u64),
        spreads,
        quality_epochs,
    }
}

/// Set-up times of one set-up, in seconds.
struct SetupTimes {
    graph: f64,
    bulk: f64,
    total: f64,
}

/// Generate the graph, build the engine, run the bulk-load epoch, and
/// switch to the steady config. Returns the engine and the pristine base
/// graph (needed by `restore`).
fn setup_once(spec: &Spec, out: &mut Outcome) -> (OnlineSim, Graph, SetupTimes) {
    let t0 = Instant::now();
    let mut rng = SmallRng::seed_from_u64(spec.graph_seed);
    let base = random_regular(spec.n, 8, &mut rng).expect("n·8 is even and 8 < n");
    let t1 = Instant::now();
    let mut sim = OnlineSim::new(base.clone(), spec.bulk.clone());
    let t2 = Instant::now();
    let bulk = sim.try_run_epoch().map_err(|e| e.to_string());
    let t3 = Instant::now();
    out.check("bulk-load epoch", bulk.and_then(|()| check_epoch(&sim)));
    sim.reconfigure(spec.steady.clone())
        .expect("steady config keeps tenants and domains");
    let secs = |a: Instant, b: Instant| (b - a).as_secs_f64();
    (sim, base, SetupTimes { graph: secs(t0, t1), bulk: secs(t2, t3), total: secs(t0, t3) })
}

/// Set up `SETUPS` times, keeping the last engine; returns the median
/// set-up times.
fn setup(spec: &Spec, out: &mut Outcome) -> (OnlineSim, Graph, SetupTimes) {
    let mut times = Vec::new();
    let mut kept = None;
    for _ in 0..SETUPS {
        drop(kept.take());
        let (sim, base, t) = setup_once(spec, out);
        times.push(t);
        kept = Some((sim, base));
    }
    let med = |f: fn(&SetupTimes) -> f64| median(&times.iter().map(f).collect::<Vec<_>>());
    let (sim, base) = kept.expect("SETUPS > 0");
    out.inputs = mix(spec.fingerprint, graph_fingerprint(&base));
    (
        sim,
        base,
        SetupTimes { graph: med(|t| t.graph), bulk: med(|t| t.bulk), total: med(|t| t.total) },
    )
}

/// The output checks of the epoch just run, on public state only:
/// `live_tasks()` equals the stacked task count, no task sits on an
/// inactive resource, the record's `balanced` flag agrees with the
/// recomputed max load against its threshold, and offered = admitted +
/// rejected, overall and per tenant.
fn check_epoch(sim: &OnlineSim) -> Result<(), String> {
    let rec = sim.records().last().ok_or("no epoch record")?;
    let stacks = sim.stacks();
    let stacked: usize = stacks.iter().map(|s| s.num_tasks()).sum();
    if stacked != sim.live_tasks() || rec.live_tasks != stacked {
        return Err(format!(
            "live {} / record {} but {stacked} stacked",
            sim.live_tasks(),
            rec.live_tasks
        ));
    }
    let g = sim.graph();
    if let Some(v) = (0..stacks.len()).find(|&v| !g.is_active(v as u32) && !stacks[v].is_empty()) {
        return Err(format!("inactive resource {v} holds {} tasks", stacks[v].num_tasks()));
    }
    let max_load = stacks.iter().map(|s| s.load()).fold(0.0, f64::max);
    if rec.balanced != (max_load <= rec.threshold) {
        return Err(format!(
            "balanced = {} but max load {max_load} vs threshold {}",
            rec.balanced, rec.threshold
        ));
    }
    let tenant_sum = |v: &[u64]| v.iter().sum::<u64>();
    if rec.arrivals != rec.admitted + rec.rejected
        || tenant_sum(&rec.tenant_admitted) != rec.admitted
        || tenant_sum(&rec.tenant_rejected) != rec.rejected
    {
        return Err(format!(
            "offered {} != admitted {} + rejected {}",
            rec.arrivals, rec.admitted, rec.rejected
        ));
    }
    Ok(())
}

/// Wall times of one checkpoint cycle.
struct Cycle {
    checkpoint_ns: f64,
    restore_ns: f64,
    bytes: usize,
}

/// `checkpoint → to_json → from_json → restore`, replacing `sim` with
/// the restored engine; the restored state is checked against the
/// original outside the timed calls.
fn cycle(sim: &mut OnlineSim, base: &Graph, out: &mut Outcome) -> Cycle {
    let t0 = Instant::now();
    let json = sim.checkpoint().and_then(|s| s.to_json()).expect("snapshot serializes");
    let t1 = Instant::now();
    let restored = SimSnapshot::from_json(&json)
        .and_then(|s| OnlineSim::restore(s, base.clone()))
        .expect("own snapshot restores");
    let t2 = Instant::now();
    let same = restored.stacks() == sim.stacks()
        && restored.live_tasks() == sim.live_tasks()
        && restored.epoch() == sim.epoch();
    out.check("restore", if same { Ok(()) } else { Err("restored state differs".into()) });
    *sim = restored;
    let ns = |a: Instant, b: Instant| (b - a).as_nanos() as f64;
    Cycle { checkpoint_ns: ns(t0, t1), restore_ns: ns(t1, t2), bytes: json.len() }
}

/// Epochs per block of the quiet-half timing estimator.
const TIMING_BLOCK: usize = 50;

/// What a stretch of measured epochs produced.
#[derive(Default)]
struct Block {
    /// Outside-timed wall of every `run_epoch` call.
    epoch_ns: Vec<f64>,
    /// Checkpoint-cycle time run just before each epoch (0 if none).
    cycle_ns: Vec<f64>,
    cycles: Vec<Cycle>,
    /// Live tasks after each epoch.
    live: Vec<f64>,
    balanced: Vec<bool>,
    migrations: Vec<f64>,
    rounds: Vec<f64>,
    /// Merged obs report of a traced stretch.
    obs: Option<ObsReport>,
}

impl Block {
    fn timing(&self) -> Timing {
        quiet_timing(&self.epoch_ns, &self.cycle_ns, &self.live, TIMING_BLOCK)
    }
}

/// Run steady epochs until `seconds` have passed and at least
/// `min_epochs` ran. With `traced`, obs is on throughout (re-enabled
/// after every restore, the pieces merged).
fn measure(
    sim: &mut OnlineSim,
    base: &Graph,
    spec: &Spec,
    seconds: f64,
    min_epochs: u64,
    traced: bool,
    out: &mut Outcome,
) -> Block {
    let mut b = Block::default();
    let merge = |obs: &mut Option<ObsReport>, sim: &OnlineSim| {
        if let Some(r) = sim.obs_report() {
            match obs {
                Some(total) => total.merge(&r),
                None => *obs = Some(r),
            }
        }
    };
    if traced {
        sim.enable_obs();
    }
    let start = Instant::now();
    let mut i = 0u64;
    while i < min_epochs || start.elapsed().as_secs_f64() < seconds {
        let mut cycle_ns = 0.0;
        if let Some(k) = spec.checkpoint_every.filter(|&k| i.is_multiple_of(k)) {
            if i > 0 {
                merge(&mut b.obs, sim);
                let c = cycle(sim, base, out);
                cycle_ns = c.checkpoint_ns + c.restore_ns;
                b.cycles.push(c);
                if traced {
                    sim.enable_obs();
                }
            }
            if !spec.spreads.is_empty() {
                let spread = spec.spreads[(i / k) as usize % spec.spreads.len()];
                let placement = ArrivalPlacement::Adaptive { spread };
                let cfg = SimConfig { arrival_placement: placement, ..spec.steady.clone() };
                sim.reconfigure(cfg).expect("only the placement changes");
            }
        }
        b.cycle_ns.push(cycle_ns);
        let t = Instant::now();
        let ran = sim.try_run_epoch().map_err(|e| e.to_string());
        b.epoch_ns.push(t.elapsed().as_nanos() as f64);
        out.check("epoch", ran.and_then(|()| check_epoch(sim)));
        let rec = sim.records().last().expect("epoch recorded");
        b.live.push(rec.live_tasks as f64);
        b.balanced.push(rec.balanced);
        b.migrations.push(rec.migrations as f64);
        b.rounds.push(rec.rebalance_rounds as f64);
        i += 1;
    }
    if traced {
        merge(&mut b.obs, sim);
    }
    b
}

/// The end-to-end run.
pub fn run(spec: &Spec, opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let (mut sim, base, setup) = setup(spec, &mut out);
    let b = measure(&mut sim, &base, spec, opts.seconds, spec.quality_epochs, false, &mut out);
    let q = spec.quality_epochs as usize;
    let rebalanced: Vec<f64> = b.rounds[..q].iter().copied().filter(|&r| r > 0.0).collect();
    let t = b.timing();
    let m = &mut out.metrics;
    m.set("setup_s", setup.total, "s");
    m.set("epoch_ms_p50", t.p50_ns / 1e6, "ms");
    m.set("epoch_ms_p90", t.p90_ns / 1e6, "ms");
    m.set("ns_per_task_epoch", t.wall_ns / t.work, "ns");
    m.set(
        "balanced_epoch_frac",
        b.balanced[..q].iter().filter(|&&x| x).count() as f64 / q as f64,
        "ratio",
    );
    m.set(
        "migrations_per_task_epoch",
        b.migrations[..q].iter().sum::<f64>() / b.live[..q].iter().sum::<f64>(),
        "ratio",
    );
    m.set("trials_per_s", t.ops / (t.wall_ns / 1e9), "1/s");
    m.set(
        "rounds_geomean",
        if rebalanced.is_empty() { 1.0 } else { geomean(&rebalanced) },
        "rounds",
    );
    m.set("peak_rss_mb", peak_rss_mb(), "MiB");
    println!(
        "online: {} epochs, {} checkpoint cycles, {:.0} live tasks at the end",
        b.epoch_ns.len(),
        b.cycles.len(),
        b.live.last().copied().unwrap_or(0.0)
    );
    out
}

/// The traced run: an untraced block, then a traced block of the same
/// length on the same engine; the obs registry splits the traced epochs
/// into phases, and the kernel rows run on the workload's own graph at
/// its mean rebalance cohort.
pub fn trace(spec: &Spec, opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let (mut sim, base, setup) = setup(spec, &mut out);
    // The traced run reports no quality metrics; two timing blocks per
    // stretch suffice.
    let (half, min) = (opts.seconds / 2.0, spec.quality_epochs.min(2 * TIMING_BLOCK as u64));
    let plain = measure(&mut sim, &base, spec, half, min, false, &mut out);
    let mut traced = measure(&mut sim, &base, spec, half, min, true, &mut out);
    if traced.cycles.is_empty() {
        // Workloads without periodic checkpoints still report one cycle.
        traced.cycles.push(cycle(&mut sim, &base, &mut out));
    }
    let obs = traced.obs.take().expect("obs was on for the traced block");
    let epochs = traced.epoch_ns.len() as f64;
    let total = |k: &str| obs.timings.get(k).map_or(0.0, |t| t.total_ns as f64);
    let count = |k: &str| obs.counters.get(k).copied().unwrap_or(0) as f64;
    let phases = ["churn", "arrivals", "rebalance", "record"];
    let attributed: f64 = phases.iter().map(|p| total(&format!("epoch.{p}_ns"))).sum();
    let outside: f64 = traced.epoch_ns.iter().sum();
    let ejected = count("rebalance.ejected");
    let rounds = count("sim.rebalance_rounds");

    let m = &mut out.metrics;
    for p in phases {
        m.set(format!("sim.{p}_ns_per_epoch"), total(&format!("epoch.{p}_ns")) / epochs, "ns");
    }
    m.set("sim.unattributed_frac", 1.0 - attributed / outside, "ratio");
    m.set("obs.overhead_frac", traced.timing().p50_ns / plain.timing().p50_ns - 1.0, "ratio");
    m.set("shard.eject_walk_ns_per_task", total("shard.eject_walk_ns") / ejected.max(1.0), "ns");
    m.set("shard.route_ns_per_epoch", total("shard.route_ns") / epochs, "ns");
    m.set("shard.apply_ns_per_epoch", total("shard.apply_ns") / epochs, "ns");
    let handoffs = obs.exec.get("shard.cross_shard_handoffs").copied().unwrap_or(0) as f64;
    m.set("shard.cross_shard_handoffs_per_epoch", handoffs / epochs, "count");
    m.set("rebalance.ejected_per_epoch", ejected / epochs, "count");
    m.set("rebalance.rounds_per_epoch", rounds / epochs, "rounds");
    let cycle_med = |f: fn(&Cycle) -> f64| median(&traced.cycles.iter().map(f).collect::<Vec<_>>());
    m.set("snapshot.checkpoint_ms", cycle_med(|c| c.checkpoint_ns) / 1e6, "ms");
    m.set("snapshot.restore_ms", cycle_med(|c| c.restore_ns) / 1e6, "ms");
    m.set("snapshot.bytes", cycle_med(|c| c.bytes as f64), "B");
    m.set("graphs.build_s", setup.graph, "s");
    m.set("sim.bulk_load_s", setup.bulk, "s");
    let cohort = (ejected / rounds.max(1.0)).round() as usize;
    for kind in [WalkKind::MaxDegree, WalkKind::Lazy] {
        crate::kernels::record(m, &base, kind, cohort, opts.seed);
    }
    println!(
        "online trace: {} plain + {} traced epochs, {} checkpoint cycles",
        plain.epoch_ns.len(),
        traced.epoch_ns.len(),
        traced.cycles.len()
    );
    out
}
