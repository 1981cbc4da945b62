//! Determinism of the benchmark's deterministic metrics, on reduced sizes
//! of all three workloads: `rounds_geomean`, `balanced_epoch_frac`,
//! `migrations_per_task_epoch` and the failure count must be bit-identical
//! across reruns, `RAYON_NUM_THREADS` 1 vs 2, and `shards` 1 vs 2, and a
//! different seed must change the generated inputs.

use std::process::Command;

const WORKLOADS: [&str; 3] = ["steady", "hotspot", "oneshot"];
const DETERMINISTIC: [&str; 3] =
    ["rounds_geomean", "balanced_epoch_frac", "migrations_per_task_epoch"];

/// One reduced, fixed-size run: (deterministic values as printed, failed
/// count, inputs fingerprint).
fn run(workload: &str, seed: u64, threads: usize, shards: usize) -> (Vec<String>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string(), "--seconds", "0"])
        .args(["--trace", "0", "--scale", "small", "--shards", &shards.to_string()])
        .env("RAYON_NUM_THREADS", threads.to_string())
        .output()
        .expect("benchmark binary runs");
    assert!(out.status.success(), "{workload}: exit {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let result = stdout.lines().last().expect("a result line");
    assert!(result.starts_with("{\"correct\":true,"), "{workload}: {result}");
    // Values are compared as printed: Rust prints the shortest text that
    // round-trips, so equal text means equal bits.
    let field = |key: &str, end: char| {
        let start = result.find(key).unwrap_or_else(|| panic!("{key} missing")) + key.len();
        result[start..].split(end).next().expect("value").to_string()
    };
    let values = DETERMINISTIC
        .iter()
        .map(|m| field(&format!("\"{m}\":{{\"value\":"), ','))
        .collect();
    let inputs = stdout
        .lines()
        .find_map(|l| l.strip_prefix("inputs_fingerprint "))
        .expect("fingerprint line")
        .to_string();
    (values, field("\"failed\":", ','), inputs)
}

#[test]
fn deterministic_metrics_are_bit_identical_across_reruns_threads_and_shards() {
    for workload in WORKLOADS {
        let reference = run(workload, 7, 2, 2);
        assert_eq!(reference.1, "0", "{workload}: output checks failed");
        for (threads, shards) in [(2, 2), (1, 2), (2, 1), (1, 1)] {
            assert_eq!(
                run(workload, 7, threads, shards),
                reference,
                "{workload}: threads={threads} shards={shards}"
            );
        }
    }
}

#[test]
fn a_different_seed_changes_the_inputs() {
    for workload in WORKLOADS {
        let (_, _, a) = run(workload, 7, 2, 2);
        let (_, _, b) = run(workload, 8, 2, 2);
        assert_ne!(a, b, "{workload}: seeds 7 and 8 generated the same inputs");
    }
}
