//! Online-simulation driver: streaming arrivals + resource churn +
//! multi-tenant thresholds, producing the `BENCH_online.json` epoch-metrics
//! snapshot CI uploads alongside `BENCH_harness.json` — and, in service
//! mode, the checkpoint/restore + streaming-metrics soak CI byte-diffs.
//!
//! Usage: `online_sim [--quick] [--scenario NAME] [--epochs N] [--seed S]
//! [--out PATH] [--checkpoint-every N] [--checkpoint PATH]
//! [--restore PATH] [--metrics-out PATH] [--bench-out PATH]
//! [--obs-out PATH] [--obs-every N]`
//!
//! `--obs-out PATH` enables the engine's observability registry (see
//! `tlb-obs`) and writes the final report — deterministic counters,
//! phase timings, execution diagnostics — as JSON. Obs never touches an
//! RNG stream, so every other artifact stays byte-identical to an
//! obs-free run; lifecycle events (obs start, checkpoints, soak
//! reconfigurations) additionally log one JSON line each to stderr.
//!
//! `--obs-every N` (requires `--obs-out`) switches the obs artifact to
//! an NDJSON *stream*: one `{"epoch": E, "report": {...}}` line every
//! `N` epochs plus a final line at run end, so a long soak exposes its
//! counter trajectory — not just the end state — without touching the
//! deterministic metrics stream. Reports carry wall-clock phase
//! timings, so the obs stream is *not* a byte-diff artifact; CI checks
//! its cadence (line count), never its bytes.
//!
//! Scenarios:
//!
//! * `steady`  — Poisson arrivals and departures in equilibrium on a
//!   complete graph; two tenants (one tight SLO, one relaxed).
//! * `churn`   — arrivals while resources fail and recover at random and
//!   a scripted rack drains mid-run; arrivals stop at 2/3 of the run so
//!   the tail is a pure convergence phase (the default).
//! * `cdn-day` — bursty flash-crowd traffic with heavy-tailed object
//!   sizes on a torus fabric.
//! * `soak`    — the service-mode scenario: a long run that cycles
//!   through traffic phases via live `reconfigure()` on a fixed epoch
//!   grid. The phase schedule is a pure function of `(quick, epoch)` —
//!   *not* of the total epoch count — so a run restored from a
//!   checkpoint replays the identical schedule and stays bit-identical
//!   to the uninterrupted run.
//!
//! Service-mode flags (any scenario):
//!
//! * `--epochs N` is the **total** target epoch count: a restored run
//!   continues until the engine has executed `N` epochs overall, so
//!   `seg1(--epochs 60) + seg2(--restore --epochs 120)` covers exactly
//!   the epochs of one `--epochs 120` run.
//! * `--checkpoint-every N` saves a [`SimSnapshot`] to `--checkpoint
//!   PATH` at every epoch divisible by `N` (the metrics stream is
//!   flushed first, so the NDJSON on disk never lags the snapshot).
//! * `--metrics-out PATH` turns record buffering **off** and streams one
//!   compact JSON [`EpochRecord`](tlb_sim::EpochRecord) per line to `PATH`; memory stays flat
//!   no matter how long the run is. Concatenating segment streams must
//!   reproduce the uninterrupted stream byte for byte — the CI `soak`
//!   job diffs exactly that, across different `RAYON_NUM_THREADS` per
//!   segment.
//! * `--bench-out PATH` writes a small perf JSON (epochs/sec, peak-RSS
//!   flatness) for the advisory `bench_compare` gate.
//!
//! The driver also runs [`OnlineSim::audit`] — the engine's cached
//! state against full recomputes — right after `--restore`, at every
//! checkpoint it writes, and after its last epoch, and fails on the
//! first broken invariant; CI's soak job runs it that way.
//!
//! The report JSON contains no wall-clock fields, so two runs with the
//! same seed are byte-identical regardless of machine or thread count —
//! CI diffs `RAYON_NUM_THREADS=1` against `=4` as a reproducibility gate.

use tlb_core::threshold::ThresholdPolicy;
use tlb_graphs::generators::{complete, torus2d};
use tlb_graphs::Graph;
use tlb_sim::{
    ArrivalPlacement, ArrivalProcess, ArrivalWeights, ChurnEvent, ChurnProcess, NdjsonSink,
    OnlineSim, SimConfig, SimSnapshot, TenantSpec,
};

struct Args {
    quick: bool,
    scenario: String,
    epochs: Option<u64>,
    seed: u64,
    out: String,
    checkpoint_every: Option<u64>,
    checkpoint: String,
    restore: Option<String>,
    metrics_out: Option<String>,
    bench_out: Option<String>,
    obs_out: Option<String>,
    obs_every: Option<u64>,
}

fn parse_args() -> Args {
    let mut args = Args {
        quick: false,
        scenario: "churn".into(),
        epochs: None,
        seed: 2024,
        out: "BENCH_online.json".into(),
        checkpoint_every: None,
        checkpoint: "online_sim.snapshot.json".into(),
        restore: None,
        metrics_out: None,
        bench_out: None,
        obs_out: None,
        obs_every: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => args.quick = true,
            "--scenario" => args.scenario = it.next().expect("--scenario needs a name"),
            "--epochs" => {
                args.epochs = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--epochs needs a positive integer"),
                );
            }
            "--seed" => {
                args.seed =
                    it.next().and_then(|v| v.parse().ok()).expect("--seed needs an integer");
            }
            "--out" => args.out = it.next().expect("--out needs a path"),
            "--checkpoint-every" => {
                args.checkpoint_every = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--checkpoint-every needs a positive integer"),
                );
            }
            "--checkpoint" => args.checkpoint = it.next().expect("--checkpoint needs a path"),
            "--restore" => args.restore = Some(it.next().expect("--restore needs a path")),
            "--metrics-out" => {
                args.metrics_out = Some(it.next().expect("--metrics-out needs a path"));
            }
            "--bench-out" => args.bench_out = Some(it.next().expect("--bench-out needs a path")),
            "--obs-out" => args.obs_out = Some(it.next().expect("--obs-out needs a path")),
            "--obs-every" => {
                args.obs_every = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n| n > 0)
                        .expect("--obs-every needs a positive integer"),
                );
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: online_sim [--quick] [--scenario steady|churn|cdn-day|soak] \
                     [--epochs N] [--seed S] [--out PATH] [--checkpoint-every N] \
                     [--checkpoint PATH] [--restore PATH] [--metrics-out PATH] \
                     [--bench-out PATH] [--obs-out PATH] [--obs-every N]"
                );
                std::process::exit(0);
            }
            other => panic!("unknown argument: {other}"),
        }
    }
    args
}

fn two_tenants() -> Vec<TenantSpec> {
    vec![
        TenantSpec::new("latency-tier", ThresholdPolicy::Tight, 0.3),
        TenantSpec::new("batch-tier", ThresholdPolicy::AboveAverage { epsilon: 1.0 }, 0.7),
    ]
}

/// Build `(config, base graph)` for a named scenario.
fn scenario(name: &str, quick: bool, epochs: Option<u64>, seed: u64) -> (SimConfig, Graph) {
    let scale = if quick { 1 } else { 4 };
    match name {
        "steady" => {
            let cfg = SimConfig {
                name: "steady".into(),
                epochs: epochs.unwrap_or(if quick { 120 } else { 600 }),
                seed,
                arrivals: ArrivalProcess::Poisson { rate: 10.0 * scale as f64 },
                departure_prob: 0.05,
                tenants: two_tenants(),
                rounds_per_epoch: 16,
                ..Default::default()
            };
            (cfg, complete(16 * scale))
        }
        "churn" => {
            let side = 4 * scale; // torus side
            let total = epochs.unwrap_or(if quick { 150 } else { 450 });
            let n = (side * side) as u32;
            let cfg = SimConfig {
                name: "churn".into(),
                epochs: total,
                seed,
                arrivals: ArrivalProcess::Poisson { rate: 6.0 * scale as f64 },
                // The tail third of the run has no arrivals: a pure
                // convergence phase after the churn storm.
                arrival_window: Some(total * 2 / 3),
                departure_prob: 0.02,
                churn: ChurnProcess {
                    scripted: vec![
                        // A rack (one torus row) drains mid-run and
                        // returns before the arrival window closes.
                        (total / 3, ChurnEvent::DeactivateRange { from: 0, to: n / 4 }),
                        (total / 2, ChurnEvent::ActivateRange { from: 0, to: n / 4 }),
                    ],
                    random_down: 0.05,
                    random_up: 0.10,
                    ..Default::default()
                },
                tenants: two_tenants(),
                rounds_per_epoch: 24,
                ..Default::default()
            };
            (cfg, torus2d(side, side))
        }
        "cdn-day" => {
            let cfg = SimConfig {
                name: "cdn-day".into(),
                epochs: epochs.unwrap_or(if quick { 150 } else { 500 }),
                seed,
                arrivals: ArrivalProcess::Bursty {
                    base: 4.0 * scale as f64,
                    burst: 40.0 * scale as f64,
                    period: 50,
                    burst_len: 6,
                },
                arrival_weights: ArrivalWeights::ParetoTruncated { alpha: 1.3, cap: 32.0 },
                arrival_placement: ArrivalPlacement::Uniform,
                departure_prob: 0.04,
                tenants: two_tenants(),
                rounds_per_epoch: 24,
                ..Default::default()
            };
            (cfg, torus2d(4 * scale, 4 * scale))
        }
        "soak" => {
            let cfg = SimConfig {
                name: "soak".into(),
                epochs: epochs.unwrap_or(if quick { 120 } else { 1200 }),
                seed,
                arrivals: ArrivalProcess::Poisson { rate: 6.0 * scale as f64 },
                departure_prob: 0.05,
                churn: ChurnProcess {
                    scripted: vec![],
                    random_down: 0.03,
                    random_up: 0.06,
                    ..Default::default()
                },
                tenants: two_tenants(),
                rounds_per_epoch: 16,
                ..Default::default()
            };
            (cfg, torus2d(4 * scale, 4 * scale))
        }
        other => panic!("unknown scenario {other:?} (expected steady / churn / cdn-day / soak)"),
    }
}

/// Soak phase period: the schedule flips phase every this many epochs.
fn soak_period(quick: bool) -> u64 {
    if quick {
        30
    } else {
        100
    }
}

/// The soak scenario's live-reconfiguration schedule: at every epoch on
/// the phase grid, the config to apply. A pure function of
/// `(quick, epoch)` and the base config — deliberately *not* of the
/// total epoch count — so a restored segment recomputes the identical
/// schedule from its CLI args and the stream stays bit-identical.
fn soak_phase(base: &SimConfig, quick: bool, epoch: u64) -> Option<SimConfig> {
    let period = soak_period(quick);
    if !epoch.is_multiple_of(period) {
        return None;
    }
    let scale = if quick { 1 } else { 4 };
    let phase = (epoch / period) % 3;
    Some(match phase {
        // Equilibrium traffic.
        0 => base.clone(),
        // Flash crowd: bursty arrivals, bigger round budget.
        1 => SimConfig {
            arrivals: ArrivalProcess::Bursty {
                base: 4.0 * scale as f64,
                burst: 30.0 * scale as f64,
                period: 20,
                burst_len: 4,
            },
            rounds_per_epoch: 24,
            ..base.clone()
        },
        // Overnight drain: trickle arrivals, faster departures.
        _ => SimConfig {
            arrivals: ArrivalProcess::Poisson { rate: 1.0 * scale as f64 },
            departure_prob: 0.10,
            ..base.clone()
        },
    })
}

/// Peak resident set (VmHWM) in bytes, from `/proc/self/status`.
/// Inlined rather than taken from `tlb-bench` (which depends on this
/// crate); returns 0 off Linux.
fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

/// One line of the periodic obs stream: the epoch plus the full report.
fn write_obs_line(
    stream: &mut std::io::BufWriter<std::fs::File>,
    epoch: u64,
    sim: &OnlineSim,
) -> anyhow::Result<()> {
    let obs = sim.obs_report().expect("obs was enabled");
    std::io::Write::write_all(
        stream,
        format!("{{\"epoch\": {epoch}, \"report\": {}}}\n", obs.to_json()).as_bytes(),
    )?;
    Ok(())
}

/// Run [`OnlineSim::audit`], naming where the run stood on failure.
fn audit(sim: &OnlineSim, when: &str) -> anyhow::Result<()> {
    sim.audit()
        .map_err(|e| anyhow::anyhow!("audit failed {when} (epoch {}): {e}", sim.epoch()))
}

fn main() -> anyhow::Result<()> {
    let args = parse_args();
    let (cfg, base) = scenario(&args.scenario, args.quick, args.epochs, args.seed);
    let total = cfg.epochs;
    let n = base.num_nodes();

    let mut sim = match &args.restore {
        Some(path) => {
            let snap = SimSnapshot::load(path)?;
            let resumed = OnlineSim::restore(snap, base)?;
            audit(&resumed, "after restore")?;
            println!("restored from {path} at epoch {}", resumed.epoch());
            resumed
        }
        None => OnlineSim::new(base, cfg.clone()),
    };
    if let Some(path) = &args.metrics_out {
        // Service mode: stream the series, keep memory flat.
        sim.set_record_buffering(false);
        sim.set_sink(Some(Box::new(NdjsonSink::create(path)?)));
    }
    if args.obs_out.is_some() {
        // After a restore this logs the resume epoch in its start event.
        sim.enable_obs();
    }
    let mut obs_stream = match (&args.obs_every, &args.obs_out) {
        (Some(_), Some(path)) => Some(
            std::fs::File::create(path)
                .map(std::io::BufWriter::new)
                .map_err(|e| anyhow::anyhow!("cannot create {path}: {e}"))?,
        ),
        (Some(_), None) => anyhow::bail!("--obs-every requires --obs-out"),
        _ => None,
    };

    let started = std::time::Instant::now();
    let start_epoch = sim.epoch();
    let mut warmup_rss = 0u64;
    while sim.epoch() < total {
        let epoch = sim.epoch();
        if args.scenario == "soak" {
            if let Some(phase_cfg) = soak_phase(&cfg, args.quick, epoch) {
                sim.reconfigure(phase_cfg)?;
            }
        }
        sim.try_run_epoch()?;
        if epoch + 1 == total / 10 {
            warmup_rss = peak_rss_bytes();
        }
        if let Some(every) = args.checkpoint_every {
            let done = sim.epoch();
            if done % every == 0 && done < total {
                audit(&sim, "at checkpoint")?;
                sim.checkpoint()?.save(&args.checkpoint)?;
                println!("checkpoint at epoch {done} -> {}", args.checkpoint);
            }
        }
        if let (Some(every), Some(stream)) = (args.obs_every, obs_stream.as_mut()) {
            let done = sim.epoch();
            if done.is_multiple_of(every) && done < total {
                write_obs_line(stream, done, &sim)?;
            }
        }
    }
    let secs = started.elapsed().as_secs_f64();
    let segment_epochs = sim.epoch() - start_epoch;
    audit(&sim, "after the last epoch")?;
    if let Some(mut sink) = sim.set_sink(None) {
        sink.flush()?;
    }
    if args.checkpoint_every.is_some() && args.restore.is_none() && sim.epoch() == total {
        // A final snapshot so a follow-on segment can always resume.
        sim.checkpoint()?.save(&args.checkpoint)?;
    }

    let report = sim.report();
    let json = report.to_json()?;
    std::fs::write(&args.out, &json)
        .map_err(|e| anyhow::anyhow!("cannot write {}: {e}", args.out))?;

    println!(
        "scenario {} on {n} resources: {segment_epochs} epochs this segment in {secs:.2}s \
         ({:.0} epochs/s), {} epochs total",
        report.scenario,
        segment_epochs as f64 / secs.max(1e-9),
        sim.epoch()
    );
    println!(
        "  arrivals {} / departures {} / protocol migrations {}",
        report.total_arrivals, report.total_departures, report.total_migrations
    );
    println!(
        "  balanced epochs {:.1}% / peak load {:.1}",
        report.balanced_fraction * 100.0,
        report.peak_load,
    );
    for (name, rate) in report.tenants.iter().zip(&report.tenant_violation_rates) {
        println!("  tenant {name}: SLO violated in {:.1}% of epochs", rate * 100.0);
    }
    if let Some(last) = report.last() {
        println!(
            "  final epoch: {} live tasks on {} active resources, balanced = {} \
             (max load {:.1}, threshold {:.1})",
            last.live_tasks, last.active_resources, last.balanced, last.max_load, last.threshold
        );
    }
    println!("wrote {}", args.out);

    if let Some(bench_out) = &args.bench_out {
        let final_rss = peak_rss_bytes();
        // Flatness: how much the high-water mark grew after warmup. A
        // leaking record buffer shows up here as a ratio well above 1.
        let rss_growth = if warmup_rss > 0 { final_rss as f64 / warmup_rss as f64 } else { 1.0 };
        let bench = format!(
            "{{\n  \"bench\": \"soak\",\n  \"scenario\": \"{}\",\n  \"quick\": {},\n  \
             \"epochs\": {},\n  \"secs\": {secs:.4},\n  \"epochs_per_sec\": {:.2},\n  \
             \"peak_rss_bytes\": {final_rss},\n  \"rss_growth_after_warmup\": {rss_growth:.4}\n}}\n",
            report.scenario,
            args.quick,
            sim.epoch(),
            segment_epochs as f64 / secs.max(1e-9),
        );
        std::fs::write(bench_out, &bench)
            .map_err(|e| anyhow::anyhow!("cannot write {bench_out}: {e}"))?;
        println!("wrote {bench_out}");
    }

    if let Some(obs_out) = &args.obs_out {
        match obs_stream.as_mut() {
            // Streaming mode: close the cadence with a final line.
            Some(stream) => {
                write_obs_line(stream, sim.epoch(), &sim)?;
                std::io::Write::flush(stream)?;
                println!(
                    "wrote {obs_out} (obs NDJSON stream, every {} epochs)",
                    args.obs_every.unwrap_or(0)
                );
            }
            None => {
                let obs = sim.obs_report().expect("obs was enabled");
                std::fs::write(obs_out, format!("{}\n", obs.to_json()))
                    .map_err(|e| anyhow::anyhow!("cannot write {obs_out}: {e}"))?;
                println!("wrote {obs_out} (obs report: counters / timings / exec)");
            }
        }
    }

    // The convergence contract of the churn scenario: after arrivals stop
    // the system must settle back under the threshold.
    if report.scenario == "churn" {
        if let Some(last) = report.last() {
            assert!(last.balanced, "churn scenario must converge after arrivals stop");
            assert_eq!(last.arrivals, 0, "tail epochs must be arrival-free");
        }
    }
    Ok(())
}
