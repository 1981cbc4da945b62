//! Compare two `BENCH_*.json` snapshots and flag perf regressions.
//!
//! Both files are parsed as generic JSON trees; every numeric leaf is
//! flattened to a dotted path (`rows[3].epochs_per_sec`) and paths
//! present in both files are compared. The *direction* of each metric is
//! classified from its name:
//!
//! * higher-is-better — name contains `per_sec` or `speedup`;
//! * lower-is-better — name contains `secs`, `_ns`, `rss`, or `bytes`,
//!   or starts with `ns_` (`ns_per_task_epoch`)
//!   (unless the leaf is a `*_count` / `*_hits` tally, which stays
//!   informational — an observability counter named `route_ns_count`
//!   must never be read as a latency);
//! * informational — everything else (counts, sizes, thread counts):
//!   printed when it changed, never a failure.
//!
//! A directional metric regresses when it moves against its direction by
//! more than `--threshold` (a fraction; default 0.10 = 10%). The exit
//! code is nonzero iff at least one metric regressed, so CI can wire the
//! step soft-fail (`continue-on-error`) while still surfacing red.
//!
//! `--ignore PREFIX` (repeatable) drops every dotted path equal to the
//! prefix or nested under it (`PREFIX.`/`PREFIX[`) from both files
//! before comparing — the obs-overhead gate uses it to exclude the
//! `timings`/`exec`/`counters` subtrees an instrumented `BENCH_obs.json`
//! carries on top of the plain snapshot's shape.
//!
//! Usage: `bench_compare BASELINE.json FRESH.json [--threshold 0.10]
//! [--ignore PREFIX]...`

use std::process::ExitCode;

use serde_json::Value;

/// Flatten every numeric leaf of `v` into `(dotted.path, value)` rows.
fn flatten(v: &Value, prefix: &str, out: &mut Vec<(String, f64)>) {
    match v {
        Value::Object(pairs) => {
            for (k, child) in pairs {
                let path = if prefix.is_empty() { k.clone() } else { format!("{prefix}.{k}") };
                flatten(child, &path, out);
            }
        }
        Value::Array(items) => {
            for (i, child) in items.iter().enumerate() {
                flatten(child, &format!("{prefix}[{i}]"), out);
            }
        }
        Value::Number(_) => {
            if let Some(f) = v.as_f64() {
                out.push((prefix.to_string(), f));
            }
        }
        _ => {}
    }
}

/// The comparison direction a metric name implies.
#[derive(PartialEq, Clone, Copy)]
enum Direction {
    HigherBetter,
    LowerBetter,
    Informational,
}

fn direction(path: &str) -> Direction {
    // Classify on the leaf name only, so container keys like
    // "secs"-free row labels can't flip a metric's direction.
    let leaf = path.rsplit('.').next().unwrap_or(path);
    // Tallies first: a histogram leaf like `route_ns_count` is an event
    // count, not a latency, whatever substrings the name carries.
    if leaf.ends_with("_count") || leaf.ends_with("_hits") {
        Direction::Informational
    } else if leaf.contains("per_sec") || leaf.contains("speedup") {
        Direction::HigherBetter
    } else if leaf.contains("secs")
        || leaf.contains("_ns")
        || leaf.starts_with("ns_")
        || leaf.contains("rss")
        || leaf.contains("bytes")
    {
        Direction::LowerBetter
    } else {
        Direction::Informational
    }
}

/// Whether `path` equals `prefix` or lies nested under it (object child
/// `prefix.…` or array element `prefix[…`). Boundary-aware so
/// `--ignore timings` cannot swallow a sibling key `timings_v2`.
fn under_prefix(path: &str, prefix: &str) -> bool {
    path == prefix
        || path
            .strip_prefix(prefix)
            .is_some_and(|rest| rest.starts_with('.') || rest.starts_with('['))
}

fn load(path: &str) -> Vec<(String, f64)> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    let tree: Value =
        serde_json::from_str(&text).unwrap_or_else(|e| panic!("cannot parse {path}: {e:?}"));
    let mut rows = Vec::new();
    flatten(&tree, "", &mut rows);
    rows
}

fn main() -> ExitCode {
    let mut paths: Vec<String> = Vec::new();
    let mut threshold = 0.10f64;
    let mut ignored: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threshold" => {
                threshold = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--threshold needs a fraction, e.g. 0.10");
            }
            "--ignore" => {
                ignored.push(args.next().expect("--ignore needs a dotted-path prefix"));
            }
            other if !other.starts_with("--") => paths.push(other.to_string()),
            other => panic!(
                "unknown argument {other:?} \
                 (expected BASELINE FRESH [--threshold F] [--ignore PREFIX]...)"
            ),
        }
    }
    assert!(
        paths.len() == 2 && threshold >= 0.0,
        "usage: bench_compare BASELINE.json FRESH.json [--threshold 0.10] [--ignore PREFIX]..."
    );
    let keep = |rows: Vec<(String, f64)>| -> Vec<(String, f64)> {
        rows.into_iter()
            .filter(|(p, _)| !ignored.iter().any(|i| under_prefix(p, i)))
            .collect()
    };
    let baseline = keep(load(&paths[0]));
    let fresh = keep(load(&paths[1]));

    let mut regressions = 0usize;
    let mut improvements = 0usize;
    let mut compared = 0usize;
    println!(
        "comparing {} (baseline) vs {} (fresh), threshold {:.0}%",
        paths[0],
        paths[1],
        threshold * 100.0
    );
    if !ignored.is_empty() {
        println!("ignoring subtrees: {}", ignored.join(", "));
    }
    for (path, old) in &baseline {
        let Some((_, new)) = fresh.iter().find(|(p, _)| p == path) else {
            println!("  - {path}: dropped (baseline {old}, absent in fresh)");
            continue;
        };
        let dir = direction(path);
        if dir == Direction::Informational {
            if old != new {
                println!("  ~ {path}: {old} -> {new} (informational)");
            }
            continue;
        }
        compared += 1;
        if *old == 0.0 {
            continue;
        }
        // Positive ratio = moved in the good direction.
        let ratio = match dir {
            Direction::HigherBetter => new / old - 1.0,
            Direction::LowerBetter => old / new - 1.0,
            Direction::Informational => unreachable!(),
        };
        if ratio < -threshold {
            regressions += 1;
            println!("  ✗ {path}: {old:.4} -> {new:.4} ({:+.1}% — REGRESSION)", ratio * 100.0);
        } else if ratio > threshold {
            improvements += 1;
            println!("  ✓ {path}: {old:.4} -> {new:.4} ({:+.1}%)", ratio * 100.0);
        }
    }
    for (path, new) in &fresh {
        if !baseline.iter().any(|(p, _)| p == path) {
            println!("  + {path}: new metric ({new})");
        }
    }
    println!(
        "{compared} directional metrics compared: {regressions} regressions, \
         {improvements} improvements beyond {:.0}%",
        threshold * 100.0
    );
    if regressions > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tallies_are_informational_before_directional_substrings() {
        // `route_ns_count` contains `_ns` but is an event tally.
        assert!(direction("timings.route_ns_count") == Direction::Informational);
        assert!(direction("counters.fast_path_hits") == Direction::Informational);
        assert!(direction("timings.route_ns") == Direction::LowerBetter);
        assert!(direction("rows[0].epochs_per_sec") == Direction::HigherBetter);
        assert!(direction("rows[0].ns_per_task_epoch") == Direction::LowerBetter);
    }

    #[test]
    fn ignore_prefixes_respect_path_boundaries() {
        assert!(under_prefix("timings", "timings"));
        assert!(under_prefix("timings.route_ns", "timings"));
        assert!(under_prefix("rows[3].secs", "rows"));
        assert!(!under_prefix("timings_v2.route_ns", "timings"));
        assert!(!under_prefix("rows[3].secs", "rows[3].secs_b"));
    }
}
