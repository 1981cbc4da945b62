//! Million-scale throughput sweep of the sharded online engine.
//!
//! For each point of an `n`-grid the driver seeds `10·n` unit tasks onto
//! a degree-8 random-regular graph (one batched arrival at epoch 0),
//! runs the resource-controlled online engine for a fixed number of
//! epochs at every requested shard count, and writes two artifacts:
//!
//! * `BENCH_scale.json` (`--out`): timing rows per `(n, shards)` cell,
//!   plus the thread count. Each row splits the one-time epoch-0 bulk
//!   load (`setup_secs`) from the steady epochs 1..E (`steady_secs`,
//!   `epochs_per_sec`, and `ns_per_task_epoch` = steady wall over the
//!   live tasks summed across those epochs), and carries peak RSS.
//!   Peak RSS is the *process* high-water mark (`VmHWM`), so it is
//!   monotone over the run: read each row as "peak by the end of this
//!   cell", and compare like cells across runs, not cells within one run.
//! * a deterministic snapshot (`--det-out`): the full [`SimReport`] per
//!   `n`, with no wall-clock content. The engine's output is
//!   bit-identical across thread counts and shard counts (see
//!   `tlb_sim::shard`), so this file must be **byte-identical** no matter
//!   which `--shards` list or `RAYON_NUM_THREADS` produced it — the CI
//!   scale job diffs four such runs.
//!
//! When `--shards` lists several counts the driver also asserts, in
//! process, that every count reproduced the same report.
//!
//! Observability: `--obs-out PATH` turns the engine's obs registry on
//! for every cell and writes a `BENCH_obs.json` — the same timing rows
//! plus the merged [`ObsReport`] subtrees (`counters` deterministic,
//! `timings` wall clock, `exec` layout diagnostics). `--obs-det-out
//! PATH` writes *only* the `counters` subtree, which must be
//! byte-identical across thread and shard counts — the obs twin of
//! `--det-out`. Without either flag the run is obs-free, identical to
//! the uninstrumented driver.
//!
//! Usage: `scale_sweep [--quick] [--epochs E] [--shards 1,4,...]
//!                     [--out PATH] [--det-out PATH]
//!                     [--obs-out PATH] [--obs-det-out PATH]`
//!
//! `--quick` runs the CI grid (n = 10⁴ and 10⁵, i.e. up to 10⁵ resources
//! and 10⁶ tasks); the default grid adds n = 10⁶ (10⁷ tasks) for real
//! scaling measurements.

use std::fmt::Write as _;
use std::time::Instant;

use tlb_bench::rss::{peak_rss_bytes, rss_json};
use tlb_obs::ObsReport;
use tlb_sim::{ArrivalProcess, OnlineSim, SimConfig, SimReport};
use tlb_walks::WalkKind;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use tlb_graphs::generators::random_regular;

const BASE_SEED: u64 = 0xA5_CA1E;

/// Configuration for one grid point at one shard count.
fn config(n: usize, epochs: u64, shards: usize) -> SimConfig {
    SimConfig {
        name: format!("scale_n{n}"),
        epochs,
        seed: BASE_SEED,
        // The whole task population lands in one batch at epoch 0; the
        // remaining epochs measure steady-state rebalancing + drain.
        arrivals: ArrivalProcess::Batched { size: 10 * n, every: u64::MAX },
        departure_prob: 0.02,
        rebalance: tlb_sim::RebalancePolicy::Resource { walk: WalkKind::MaxDegree },
        rounds_per_epoch: 32,
        shards,
        ..Default::default()
    }
}

/// One timed cell.
struct Cell {
    report: SimReport,
    /// Wall seconds of epoch 0, the one-time bulk load.
    setup_secs: f64,
    /// Wall seconds of the steady epochs 1..E.
    steady_secs: f64,
    /// Live tasks summed over the steady epochs.
    task_epochs: u64,
    /// The cell's observability report, when obs was requested.
    obs: Option<ObsReport>,
}

/// Run one cell, timing the bulk-load epoch apart from the steady ones.
fn run_cell(base: &tlb_graphs::Graph, n: usize, epochs: u64, shards: usize, obs: bool) -> Cell {
    let mut sim = OnlineSim::new(base.clone(), config(n, epochs, shards));
    if obs {
        sim.enable_obs();
    }
    let t = Instant::now();
    sim.run_epoch();
    let setup_secs = t.elapsed().as_secs_f64();
    let t = Instant::now();
    for _ in 1..epochs {
        sim.run_epoch();
    }
    let steady_secs = t.elapsed().as_secs_f64();
    let report = sim.report();
    let task_epochs = report.records[1..].iter().map(|r| r.live_tasks as u64).sum();
    Cell { report, setup_secs, steady_secs, task_epochs, obs: sim.obs_report() }
}

fn main() {
    let mut quick = false;
    let mut epochs = 6u64;
    let mut shards: Vec<usize> = vec![1, 4];
    let mut out = String::from("BENCH_scale.json");
    let mut det_out: Option<String> = None;
    let mut obs_out: Option<String> = None;
    let mut obs_det_out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--epochs" => {
                epochs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--epochs needs a positive integer");
            }
            "--shards" => {
                let list = args.next().expect("--shards needs a comma-separated list");
                shards = list
                    .split(',')
                    .map(|s| s.trim().parse().expect("--shards entries must be positive integers"))
                    .collect();
            }
            "--out" => out = args.next().expect("--out needs a path"),
            "--det-out" => det_out = Some(args.next().expect("--det-out needs a path")),
            "--obs-out" => obs_out = Some(args.next().expect("--obs-out needs a path")),
            "--obs-det-out" => {
                obs_det_out = Some(args.next().expect("--obs-det-out needs a path"));
            }
            other => panic!(
                "unknown argument {other:?} (expected --quick / --epochs E / --shards LIST / \
                 --out PATH / --det-out PATH / --obs-out PATH / --obs-det-out PATH)"
            ),
        }
    }
    assert!(epochs >= 2, "--epochs must be >= 2: epoch 0 is the bulk load, the rest steady");
    assert!(!shards.is_empty() && shards.iter().all(|&s| s > 0));

    let grid: &[usize] = if quick { &[10_000, 100_000] } else { &[10_000, 100_000, 1_000_000] };
    let threads = rayon::current_num_threads();
    let obs_on = obs_out.is_some() || obs_det_out.is_some();

    let mut rows = String::new();
    let mut det_reports = String::new();
    let mut obs_total: Option<ObsReport> = None;
    for (gi, &n) in grid.iter().enumerate() {
        let mut rng = SmallRng::seed_from_u64(BASE_SEED ^ n as u64);
        let base = random_regular(n, 8, &mut rng).expect("regular scale graph");

        let mut reference: Option<SimReport> = None;
        for &s in &shards {
            let Cell { report, setup_secs, steady_secs, task_epochs, obs } =
                run_cell(&base, n, epochs, s, obs_on);
            // Merge one cell per n — the first listed shard count — so
            // the merged counters cannot depend on how many counts the
            // `--shards` list replays (each cell's counters are already
            // shard-count-invariant on their own).
            if let Some(obs) = obs.filter(|_| s == shards[0]) {
                match &mut obs_total {
                    None => obs_total = Some(obs),
                    Some(total) => total.merge(&obs),
                }
            }
            match &reference {
                None => reference = Some(report),
                Some(reference) => assert_eq!(
                    reference, &report,
                    "shard-count invariance violated at n={n}, shards={s}"
                ),
            }
            let epochs_per_sec = (epochs - 1) as f64 / steady_secs;
            let ns_per_task_epoch = steady_secs * 1e9 / task_epochs.max(1) as f64;
            if !rows.is_empty() {
                rows.push_str(",\n");
            }
            write!(
                rows,
                "    {{ \"n\": {n}, \"tasks\": {}, \"shards\": {s}, \"epochs\": {epochs}, \
                 \"setup_secs\": {setup_secs:.6}, \"steady_secs\": {steady_secs:.6}, \
                 \"epochs_per_sec\": {epochs_per_sec:.3}, \
                 \"ns_per_task_epoch\": {ns_per_task_epoch:.3}, \"peak_rss_bytes\": {} }}",
                10 * n,
                rss_json(peak_rss_bytes()),
            )
            .unwrap();
            println!(
                "n={n:>8} shards={s:>3} threads={threads}: setup {setup_secs:.3}s, \
                 steady {epochs_per_sec:.2} epochs/sec, {ns_per_task_epoch:.2} ns/task-epoch"
            );
        }

        // The deterministic snapshot carries one report per n — the
        // in-process assertion above proved every shard count agrees, so
        // which one we emit is immaterial.
        let report = reference.expect("at least one shard count ran");
        assert!(
            report.last().expect("epochs > 0").balanced,
            "scale run must re-converge within the round budget at n={n}"
        );
        if gi > 0 {
            det_reports.push_str(",\n");
        }
        write!(det_reports, "  \"n={n}\": {}", report.to_json().expect("report serializes"))
            .unwrap();
    }

    let json = format!(
        "{{\n  \"bench\": \"scale_sweep\",\n  \"workload\": \"batched_10n_tasks_regular_d8\",\n  \
         \"quick\": {quick},\n  \"threads\": {threads},\n  \"rows\": [\n{rows}\n  ]\n}}\n"
    );
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    println!("{json}");
    println!("wrote {out}");

    if let Some(det_out) = det_out {
        let det = format!("{{\n{det_reports}\n}}\n");
        std::fs::write(&det_out, &det).unwrap_or_else(|e| panic!("cannot write {det_out}: {e}"));
        println!("wrote {det_out} (deterministic; byte-stable across threads and shards)");
    }

    if obs_on {
        let obs = obs_total.expect("obs was enabled for every cell");
        if let Some(obs_out) = obs_out {
            let json = format!(
                "{{\n  \"bench\": \"scale_sweep\",\n  \
                 \"workload\": \"batched_10n_tasks_regular_d8\",\n  \"quick\": {quick},\n  \
                 \"threads\": {threads},\n  \"rows\": [\n{rows}\n  ],\n  \
                 \"counters\": {},\n  \"timings\": {},\n  \"exec\": {}\n}}\n",
                obs.counters_json(),
                obs.timings_json(),
                obs.exec_json(),
            );
            std::fs::write(&obs_out, &json)
                .unwrap_or_else(|e| panic!("cannot write {obs_out}: {e}"));
            println!("wrote {obs_out} (timing rows + obs report)");
        }
        if let Some(obs_det_out) = obs_det_out {
            let det = format!("{}\n", obs.counters_json());
            std::fs::write(&obs_det_out, &det)
                .unwrap_or_else(|e| panic!("cannot write {obs_det_out}: {e}"));
            println!("wrote {obs_det_out} (obs counters; byte-stable across threads and shards)");
        }
    }
}
