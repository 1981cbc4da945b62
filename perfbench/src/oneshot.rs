//! The `oneshot` workload: the paper's Section-7 setting through
//! `tlb_experiments::harness::run_protocol_sweep`.
//!
//! Every trial starts with all tasks on resource 0, TwoPoint weights
//! (`W = 10n`, `n/16` heavy tasks of weight 50, as in Figure 1) and
//! `ε = 0.2`. Five cells run a fixed number of trials each; one *pass* is
//! one `run_protocol_sweep` call over every cell. Pass `k` draws its trial
//! seeds from `k mod cycle`, so a run cycles through `cycle` distinct
//! trial sets: every cycle is the same work, and each pass must reproduce
//! its counterpart in the first cycle exactly. The workload never touches
//! `tlb-sim`.

use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tlb_baselines::{BaselineConfig, BaselineRule};
use tlb_core::mixed_protocol::MixedConfig;
use tlb_core::placement::Placement;
use tlb_core::protocol::{ProtocolKind, ProtocolOutcome};
use tlb_core::resource_protocol::ResourceControlledConfig;
use tlb_core::threshold::ThresholdPolicy;
use tlb_core::user_protocol::UserControlledConfig;
use tlb_core::weights::WeightSpec;
use tlb_experiments::harness::{self, MatrixProtocol, ProtocolPoint};
use tlb_graphs::generators::{random_regular, torus2d};
use tlb_graphs::Graph;
use tlb_walks::WalkKind;

use crate::{geomean, graph_fingerprint, median, mix, quiet_timing, Opts, Outcome, Scale};

/// Round cap of every trial; a trial that reaches it fails its check.
const MAX_ROUNDS: u64 = 1_000_000;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Relative tolerance of the `Σ final_loads = W` check.
const LOAD_SUM_TOL: f64 = 1e-9;

/// One cell of the sweep.
struct Cell {
    /// Metric suffix (`core.trial_ms.<name>`).
    name: &'static str,
    /// The harness point.
    point: ProtocolPoint,
    /// Total weight `W` of every trial.
    total: f64,
    /// Tasks per trial.
    tasks: usize,
}

/// The generated inputs: the cells plus the trial count per cell.
struct Inputs {
    /// The five cells.
    cells: Vec<Cell>,
    /// Trials per cell and pass.
    trials: usize,
    /// Distinct trial sets the passes cycle through.
    cycle: usize,
    /// Fingerprint of the graphs and seeds.
    fingerprint: u64,
    /// Seconds spent generating the graphs.
    graph_s: f64,
}

/// Build the graphs and harness points (the workload's set-up).
fn build(opts: &Opts) -> Inputs {
    let (n, side, trials, cycle) = match opts.scale {
        Scale::Full => (4096, 64, 2, 16),
        Scale::Small => (256, 16, 2, 2),
    };
    let t = Instant::now();
    let mut rng = SmallRng::seed_from_u64(opts.seed ^ 0x0_5E07);
    let regular = random_regular(n, 8, &mut rng).expect("n·8 is even and 8 < n");
    let torus = torus2d(side, side);
    let graph_s = t.elapsed().as_secs_f64();
    let threshold = ThresholdPolicy::AboveAverage { epsilon: 0.2 };
    let resource = |walk| {
        MatrixProtocol::Core(ProtocolKind::Resource(ResourceControlledConfig {
            threshold,
            walk,
            max_rounds: MAX_ROUNDS,
            ..Default::default()
        }))
    };
    let roster: [(&'static str, &Graph, MatrixProtocol); 5] = [
        ("resource_maxdeg_reg8", &regular, resource(WalkKind::MaxDegree)),
        ("resource_lazy_torus", &torus, resource(WalkKind::Lazy)),
        (
            "user",
            &regular,
            MatrixProtocol::Core(ProtocolKind::User(UserControlledConfig {
                threshold,
                max_rounds: MAX_ROUNDS,
                ..Default::default()
            })),
        ),
        (
            "mixed_reg8",
            &regular,
            MatrixProtocol::Core(ProtocolKind::Mixed(MixedConfig {
                threshold,
                walk: WalkKind::MaxDegree,
                max_rounds: MAX_ROUNDS,
                ..Default::default()
            })),
        ),
        (
            "greedy2",
            &regular,
            MatrixProtocol::Baseline(BaselineConfig {
                threshold,
                rule: BaselineRule::Greedy { d: 2 },
                max_rounds: MAX_ROUNDS,
                ..Default::default()
            }),
        ),
    ];
    let mut fingerprint = mix(graph_fingerprint(&regular), graph_fingerprint(&torus));
    let cells = roster
        .into_iter()
        .map(|(name, g, protocol)| {
            let n = g.num_nodes();
            let weights = WeightSpec::TwoPoint { total: 10.0 * n as f64, k: n / 16, heavy: 50.0 };
            let seed = rng.gen();
            fingerprint = mix(fingerprint, seed);
            Cell {
                name,
                total: 10.0 * n as f64,
                tasks: weights.num_tasks(),
                point: ProtocolPoint {
                    graph: g.clone(),
                    weights,
                    placement: Placement::AllOnOne(0),
                    protocol,
                    seed,
                },
            }
        })
        .collect();
    Inputs { cells, trials, cycle, fingerprint, graph_s }
}

impl Inputs {
    /// The harness points of pass `k`: each cell's seed mixed with
    /// `k mod cycle`.
    fn points(&self, k: usize) -> Vec<ProtocolPoint> {
        let set = (k % self.cycle) as u64;
        let point = |c: &Cell| ProtocolPoint { seed: mix(c.point.seed, set), ..c.point.clone() };
        self.cells.iter().map(point).collect()
    }
}

/// The output checks of one trial.
fn check_trial(cell: &Cell, o: &ProtocolOutcome) -> Result<(), String> {
    if !o.completed || o.rounds > MAX_ROUNDS {
        return Err(format!("not balanced within {MAX_ROUNDS} rounds ({} run)", o.rounds));
    }
    let sum: f64 = o.final_loads.iter().sum();
    if (sum - cell.total).abs() > LOAD_SUM_TOL * cell.total {
        return Err(format!("final loads sum to {sum}, expected W = {}", cell.total));
    }
    if o.final_max_load > o.threshold {
        return Err(format!("final max load {} above threshold {}", o.final_max_load, o.threshold));
    }
    Ok(())
}

/// Check every trial of a pass against its cell and against the
/// reference pass (same seeds, so identical rounds and migrations).
fn check_pass(
    out: &mut Outcome,
    inputs: &Inputs,
    pass: &[Vec<ProtocolOutcome>],
    reference: Option<&[Vec<ProtocolOutcome>]>,
) {
    for (c, cell) in inputs.cells.iter().enumerate() {
        for (t, o) in pass[c].iter().enumerate() {
            let replay = reference.map_or(Ok(()), |r| {
                let (a, b) = (&r[c][t], o);
                if (a.rounds, a.migrations) == (b.rounds, b.migrations) {
                    Ok(())
                } else {
                    Err(format!("replay differs: rounds {} vs {}", b.rounds, a.rounds))
                }
            });
            out.check(cell.name, check_trial(cell, o).and(replay));
        }
    }
}

/// Set up `SETUPS` times; returns the last inputs and the median set-up
/// and graph-generation times.
fn setup(opts: &Opts) -> (Inputs, f64, f64) {
    let mut totals = Vec::new();
    let mut graphs = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUPS {
        drop(inputs.take());
        let t = Instant::now();
        let built = build(opts);
        totals.push(t.elapsed().as_secs_f64());
        graphs.push(built.graph_s);
        inputs = Some(built);
    }
    (inputs.expect("SETUPS > 0"), median(&totals), median(&graphs))
}

/// The end-to-end run: repeat passes until `opts.seconds` have passed
/// and at least one cycle ran. The quality metrics cover the first cycle;
/// the timings use blocks of one cycle each.
pub fn run(opts: &Opts) -> Outcome {
    let (inputs, setup_s, _) = setup(opts);
    let mut out = Outcome { inputs: inputs.fingerprint, ..Default::default() };
    let tasks_per_pass: usize = inputs.cells.iter().map(|c| c.tasks * inputs.trials).sum();
    let mut pass_ns = Vec::new();
    let mut first_cycle: Vec<Vec<Vec<ProtocolOutcome>>> = Vec::new();
    let start = Instant::now();
    let mut k = 0;
    while k < inputs.cycle || start.elapsed().as_secs_f64() < opts.seconds {
        let points = inputs.points(k);
        let t = Instant::now();
        let pass = harness::run_protocol_sweep(&points, inputs.trials);
        pass_ns.push(t.elapsed().as_nanos() as f64);
        check_pass(&mut out, &inputs, &pass, first_cycle.get(k % inputs.cycle).map(Vec::as_slice));
        if k < inputs.cycle {
            first_cycle.push(pass);
        }
        k += 1;
    }
    let trials: Vec<&ProtocolOutcome> = first_cycle.iter().flatten().flatten().collect();
    let balanced = trials.iter().filter(|o| o.balanced()).count() as f64 / trials.len() as f64;
    let migrations: u64 = trials.iter().map(|o| o.migrations).sum();
    let mean_rounds: Vec<f64> = (0..inputs.cells.len())
        .map(|c| {
            let cell: Vec<&ProtocolOutcome> = first_cycle.iter().flat_map(|p| &p[c]).collect();
            cell.iter().map(|o| o.rounds as f64).sum::<f64>() / cell.len() as f64
        })
        .collect();
    let trials_per_pass = (inputs.cells.len() * inputs.trials) as f64;
    let t = quiet_timing(&pass_ns, &vec![0.0; k], &vec![1.0; k], inputs.cycle);
    let m = &mut out.metrics;
    m.set("setup_s", setup_s, "s");
    m.set("epoch_ms_p50", t.p50_ns / 1e6, "ms");
    m.set("epoch_ms_p90", t.p90_ns / 1e6, "ms");
    m.set("ns_per_task_epoch", t.wall_ns / (tasks_per_pass as f64 * t.ops), "ns");
    m.set("balanced_epoch_frac", balanced, "ratio");
    m.set(
        "migrations_per_task_epoch",
        migrations as f64 / (tasks_per_pass * inputs.cycle) as f64,
        "ratio",
    );
    m.set("trials_per_s", trials_per_pass * t.ops / (t.wall_ns / 1e9), "1/s");
    m.set("rounds_geomean", geomean(&mean_rounds), "rounds");
    m.set("peak_rss_mb", crate::peak_rss_mb(), "MiB");
    println!("oneshot: {k} passes of {trials_per_pass} trials");
    out
}

/// The traced run: one cycle of passes through the harness's sweep
/// fan-out, with every trial's generate and run calls timed from outside;
/// yields the `core.*`, `harness.*`, `graphs.*` and `walks.*` layer
/// metrics.
pub fn trace(opts: &Opts) -> Outcome {
    let (inputs, _, graph_s) = setup(opts);
    let mut out = Outcome { inputs: inputs.fingerprint, ..Default::default() };
    let cells = inputs.cells.len();
    // Per cell: Σ run ns, Σ rounds, Σ migrations, trials.
    let mut per_cell = vec![(0.0, 0.0, 0u64, 0.0); cells];
    let (mut busy_ns, mut generate_ns, mut sweep_ns) = (0.0, 0.0, 0.0);
    for k in 0..inputs.cycle {
        let points = inputs.points(k);
        let seeds: Vec<u64> = points.iter().map(|p| p.seed).collect();
        let t = Instant::now();
        let timed = harness::run_sweep_map(&seeds, inputs.trials, |i, seed| {
            let p = &points[i];
            let t0 = Instant::now();
            let mut rng = SmallRng::seed_from_u64(seed);
            let tasks = p.weights.generate(&mut rng);
            let t1 = Instant::now();
            let mut stepper =
                p.protocol.new_stepper(&p.graph, &tasks, p.placement.clone(), &mut rng);
            stepper.run(&p.graph, &mut rng);
            let outcome = stepper.into_outcome();
            let t2 = Instant::now();
            (outcome, (t1 - t0).as_nanos() as f64, (t2 - t1).as_nanos() as f64)
        });
        sweep_ns += t.elapsed().as_nanos() as f64;
        let pass: Vec<Vec<ProtocolOutcome>> =
            timed.iter().map(|cell| cell.iter().map(|r| r.0.clone()).collect()).collect();
        // The traced trial body must reproduce the harness's own trials.
        let reference = (k == 0).then(|| harness::run_protocol_sweep(&points, inputs.trials));
        check_pass(&mut out, &inputs, &pass, reference.as_deref());
        for (acc, rows) in per_cell.iter_mut().zip(&timed) {
            for (o, gen, run) in rows {
                *acc = (acc.0 + run, acc.1 + o.rounds as f64, acc.2 + o.migrations, acc.3 + 1.0);
                generate_ns += gen;
                busy_ns += gen + run;
            }
        }
    }

    let m = &mut out.metrics;
    for (cell, &(run_ns, rounds, _, trials)) in inputs.cells.iter().zip(&per_cell) {
        m.set(format!("core.trial_ms.{}", cell.name), run_ns / trials / 1e6, "ms");
        m.set(format!("core.rounds.{}", cell.name), rounds / trials, "rounds");
    }
    let total_trials = (cells * inputs.trials * inputs.cycle) as f64;
    m.set("core.generate_ms", generate_ns / total_trials / 1e6, "ms");
    m.set("harness.busy_frac", busy_ns / (sweep_ns * rayon::current_num_threads() as f64), "ratio");
    m.set("graphs.build_s", graph_s, "s");

    // Kernel rows on the cells' own graphs, at each resource cell's mean
    // cohort (migrations per round).
    for (c, kind) in [(0, WalkKind::MaxDegree), (1, WalkKind::Lazy)] {
        let (_, rounds, migrations, _) = per_cell[c];
        let cohort = (migrations as f64 / rounds.max(1.0)).round() as usize;
        crate::kernels::record(m, &inputs.cells[c].point.graph, kind, cohort, opts.seed);
    }
    out
}
