//! The repository benchmark: three workloads that drive the public API of
//! the workspace crates and time every layer from outside.
//!
//! * [`online`] — `steady` and `hotspot`, an `OnlineSim` held at a steady
//!   population and timed one `run_epoch` call at a time;
//! * [`oneshot`] — the paper's Section-7 setting through
//!   `tlb_experiments::harness::run_protocol_sweep`;
//! * [`kernels`] — the two walk-step paths (`BatchWalker::step_batch` and
//!   the online engine's counter words) on a workload's own graph.
//!
//! A run either measures the end-to-end metrics (tracing off) or makes the
//! separate traced run that yields the per-layer metrics. README.md lists
//! every metric, its unit, and the end-to-end metric and workload each
//! per-layer metric should move.

pub mod kernels;
pub mod oneshot;
pub mod online;

use std::collections::BTreeMap;

/// Problem sizes: the benchmark's own, or the reduced sizes the
/// determinism test runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` is defined on.
    Full,
    /// Reduced sizes with the same structure (tests only).
    Small,
}

/// Options of one benchmark run.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload seed; every generated input derives from it.
    pub seed: u64,
    /// Measurement time in seconds (each workload still runs a fixed
    /// minimum of work, so `0` gives a run of fixed size).
    pub seconds: f64,
    /// Problem sizes.
    pub scale: Scale,
    /// Shard count of the online engine's rebalancing pass.
    pub shards: usize,
}

/// Metric name → (value, unit), in name order.
#[derive(Debug, Default)]
pub struct Metrics(pub BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    /// Set one metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (value, unit));
    }

    /// Take every metric of `other` that `self` does not have yet.
    pub fn fill_missing(&mut self, other: Metrics) {
        for (k, v) in other.0 {
            self.0.entry(k).or_insert(v);
        }
    }
}

/// What one run reports: the operations attempted and failed (an
/// operation is one epoch, one trial or one checkpoint restore, each
/// checked on its outputs), the metrics, and a fingerprint of the
/// generated inputs.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations run and checked.
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// The metrics.
    pub metrics: Metrics,
    /// Hash of the generated inputs (graphs, seeds, adversary spread).
    pub inputs: u64,
}

impl Outcome {
    /// Count one checked operation; a failure is reported on stderr.
    pub fn check(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = result {
            self.failed += 1;
            if self.failed <= 10 {
                eprintln!("check failed: {what}: {msg}");
            }
        }
    }
}

/// Linear-interpolated quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Indices of the samples a timing metric at quantile `q` uses: the
/// samples are cut into consecutive blocks of `block` (a shorter tail
/// joins the last block) and the half of the blocks whose own `q`-quantile
/// is lowest is kept (at least one block). Other load on a shared machine
/// slows a run in bursts; the quieter half of a run repeats far better
/// between runs than the whole run does.
fn quiet_half(ns: &[f64], block: usize, q: f64) -> Vec<usize> {
    let blocks = (ns.len() / block).max(1);
    let range = |b: usize| b * block..if b + 1 == blocks { ns.len() } else { (b + 1) * block };
    let mut order: Vec<(f64, usize)> =
        (0..blocks).map(|b| (quantile_of(&ns[range(b)], q), b)).collect();
    order.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut kept: Vec<usize> =
        order[..blocks.div_ceil(2)].iter().flat_map(|&(_, b)| range(b)).collect();
    kept.sort_unstable();
    kept
}

/// Timing metrics over the quiet half of a run (see [`quiet_half`]).
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Median over the blocks with the lowest medians, ns.
    pub p50_ns: f64,
    /// 90th percentile over the blocks with the lowest 90th percentiles,
    /// ns.
    pub p90_ns: f64,
    /// Wall time of the median-selected operations plus the time billed
    /// to them besides, ns.
    pub wall_ns: f64,
    /// Median-selected operations.
    pub ops: f64,
    /// Work units the median-selected operations covered.
    pub work: f64,
}

/// Timings of operations `ns[i]`, each with `extra[i]` ns billed to it
/// besides its own call (a checkpoint cycle, say) and covering `work[i]`
/// work units, over the quiet half in blocks of `block` operations.
pub fn quiet_timing(ns: &[f64], extra: &[f64], work: &[f64], block: usize) -> Timing {
    let pooled =
        |kept: &[usize], q| quantile_of(&kept.iter().map(|&i| ns[i]).collect::<Vec<_>>(), q);
    let kept = quiet_half(ns, block, 0.5);
    Timing {
        p50_ns: pooled(&kept, 0.5),
        p90_ns: pooled(&quiet_half(ns, block, 0.9), 0.9),
        wall_ns: kept.iter().map(|&i| ns[i] + extra[i]).sum(),
        ops: kept.len() as f64,
        work: kept.iter().map(|&i| work[i]).sum(),
    }
}

/// `q`-quantile of an unsorted sample.
pub fn quantile_of(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, q)
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    quantile_of(values, 0.5)
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of an empty sample");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// the platform does not report it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Fold one word into an input fingerprint (splitmix64 finalizer).
pub fn mix(acc: u64, word: u64) -> u64 {
    tlb_sim::epoch_seed(acc, word)
}

/// Fingerprint of a graph's adjacency.
pub fn graph_fingerprint(g: &tlb_graphs::Graph) -> u64 {
    g.neighbors_flat()
        .iter()
        .fold(g.num_nodes() as u64, |acc, &v| mix(acc, v as u64))
}
