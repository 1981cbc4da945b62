//! Benchmark entry point.
//!
//! Usage: `perfbench --workload steady|hotspot|oneshot --seed N
//!                   --seconds S --trace 0|1 [--scale full|small] [--shards K]`
//!
//! Prints every metric by name and unit, then, as the last line, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! per-layer ones. A traced run reports every layer: the layers its own
//! workload does not run come from a short traced run of a companion
//! workload (`oneshot` for the online workloads, `hotspot` for `oneshot`).
//! A failed output check shows as `"correct": false`; a bad argument
//! exits with code 2.

use std::fmt::Write as _;

use perfbench::{oneshot, online, Opts, Outcome, Scale};

/// Seconds the companion workload measures in a traced run.
const COMPANION_SECONDS: f64 = 2.0;

fn main() {
    let mut workload = None;
    let mut trace = false;
    let mut opts = Opts { seed: 0, seconds: 10.0, scale: Scale::Full, shards: 2 };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| fail(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => opts.seed = parse(&flag, &value),
            "--seconds" => opts.seconds = parse(&flag, &value),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => fail(&format!("bad value {value:?} for --trace")),
                }
            }
            "--shards" => opts.shards = parse(&flag, &value),
            "--scale" => {
                opts.scale = match value.as_str() {
                    "full" => Scale::Full,
                    "small" => Scale::Small,
                    _ => fail(&format!("bad value {value:?} for --scale")),
                }
            }
            _ => fail(&format!("unknown argument {flag:?}")),
        }
    }
    if !(opts.seconds >= 0.0 && opts.shards >= 1) {
        fail("--seconds must be >= 0 and --shards >= 1");
    }
    let workload = workload.unwrap_or_else(|| fail("--workload is required"));
    if !["steady", "hotspot", "oneshot"].contains(&workload.as_str()) {
        fail(&format!("unknown workload {workload:?} (steady, hotspot, oneshot)"));
    }
    // An online epoch crosses the pool's barriers twice per rebalance round.
    // On a 2-vCPU virtual machine whose host is busy, a descheduled vCPU
    // stalls each barrier, and that noise swamped the epoch timings. So the
    // online workloads default to one thread; the one-shot trials are
    // independent and keep two.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = if workload == "oneshot" { cores.min(2) } else { 1 };
    if std::env::var_os("RAYON_NUM_THREADS").is_none() {
        std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
    }
    println!(
        "workload={workload} seed={} seconds={} trace={trace} threads={} shards={} cores={}",
        opts.seed,
        opts.seconds,
        rayon::current_num_threads(),
        opts.shards,
        cores,
    );

    let companion = Opts { seconds: COMPANION_SECONDS, ..opts.clone() };
    let out = match (workload.as_str(), trace) {
        ("steady", false) => online::run(&online::steady(&opts), &opts),
        ("hotspot", false) => online::run(&online::hotspot(&opts), &opts),
        ("oneshot", false) => oneshot::run(&opts),
        ("steady" | "hotspot", true) => {
            let spec =
                if workload == "steady" { online::steady(&opts) } else { online::hotspot(&opts) };
            let mut out = online::trace(&spec, &opts);
            absorb(&mut out, oneshot::trace(&companion));
            out
        }
        ("oneshot", true) => {
            let mut out = oneshot::trace(&opts);
            absorb(&mut out, online::trace(&online::hotspot(&companion), &companion));
            out
        }
        _ => unreachable!("workload validated above"),
    };
    report(&out);
}

/// Fold a companion run into `out`: its checks count, its metrics fill
/// only the layers `out` has not measured.
fn absorb(out: &mut Outcome, companion: Outcome) {
    out.attempted += companion.attempted;
    out.failed += companion.failed;
    out.metrics.fill_missing(companion.metrics);
}

fn report(out: &Outcome) {
    for (name, (value, unit)) in &out.metrics.0 {
        println!("{name:<42} {value:>16.6} {unit}");
    }
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "{:<42} {failed_frac:>16.6} ratio ({} of {})",
        "failed_frac", out.failed, out.attempted
    );
    println!("inputs_fingerprint {:016x}", out.inputs);
    let mut json = String::new();
    for (i, (name, (value, unit))) in out.metrics.0.iter().enumerate() {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        let sep = if i > 0 { "," } else { "" };
        write!(json, "{sep}\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}").expect("string");
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{json}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed
    );
}

fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> T {
    value
        .parse()
        .unwrap_or_else(|_| fail(&format!("bad value {value:?} for {flag}")))
}

fn fail(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(2);
}
