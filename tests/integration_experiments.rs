//! Cross-crate integration: quick-scale runs of the figure/table drivers,
//! asserting the *shapes* the paper reports (not absolute numbers).

use tlb_experiments::cli::Experiment;
use tlb_experiments::figures::{figure1, figure2, obs8, table1};
use tlb_experiments::stats::linear_fit;

/// Figure-1 shape: balancing time ∝ log m, nearly independent of k.
#[test]
fn figure1_shape_log_m_and_k_independence() {
    let cfg = figure1::Config {
        n: 200,
        ks: vec![1, 20],
        w_totals: vec![2000.0, 4000.0, 6000.0, 8000.0, 10000.0],
        trials: 40,
        ..figure1::Config::default()
    };
    let (table, _) = figure1::run(&cfg);
    let fits = figure1::log_fit_per_k(&cfg, &table);
    assert_eq!(fits.len(), 2);
    for (k, slope, r2) in &fits {
        assert!(*slope > 0.0, "k={k}: rounds must grow with log m");
        assert!(*r2 > 0.5, "k={k}: log fit too poor (r^2 = {r2})");
    }
    // k-independence: mean rounds at the largest W differ by < 35% between
    // k = 1 and k = 20 (the paper's curves nearly coincide).
    let at_k = |k: usize| -> f64 {
        table
            .rows
            .iter()
            .filter(|r| r[1] == k.to_string() && r[0] == "10000")
            .map(|r| r[3].parse::<f64>().unwrap())
            .next()
            .unwrap()
    };
    let (a, b) = (at_k(1), at_k(20));
    let rel = (a - b).abs() / a.max(b);
    assert!(rel < 0.35, "k=1 ({a:.1}) vs k=20 ({b:.1}) differ by {:.0}%", rel * 100.0);
}

/// Figure-2 shape: rounds/log m flat in m, increasing (roughly linearly)
/// in w_max.
#[test]
fn figure2_shape_flat_in_m_linear_in_wmax() {
    let cfg = figure2::Config {
        n: 200,
        w_maxes: vec![1.0, 4.0, 16.0, 64.0],
        ms: vec![1000, 2000, 3000, 4000, 5000],
        trials: 40,
        ..figure2::Config::default()
    };
    let (table, _) = figure2::run(&cfg);
    let (flatness, (slope, r2)) = figure2::shape_checks(&cfg, &table);
    for (w, ratio) in &flatness {
        assert!(
            *ratio < 2.2,
            "normalized time should be flat-ish in m for w_max={w}: max/min = {ratio}"
        );
    }
    assert!(slope > 0.0, "plateau must grow with w_max");
    assert!(r2 > 0.9, "plateau growth should be close to linear (r^2 = {r2})");
}

/// Table-1 shape: hitting times grow ~linearly in n for complete /
/// expander / ER / hypercube, ~n log n for the grid.
#[test]
fn table1_hitting_time_shapes() {
    let cfg = table1::Config {
        sizes: vec![32, 64, 128],
        exact_hitting_cap: 200,
        mc_trials: 100,
        seed: 5,
    };
    let (t, _) = table1::run(&cfg);
    // For each family fit log H ~ a + b log n; complete graph must have
    // b ≈ 1, grid b > 1 (n log n), none should exceed ~1.6.
    use tlb_graphs::generators::Family;
    for family in Family::ALL {
        let mut lx = Vec::new();
        let mut ly = Vec::new();
        for row in &t.rows {
            if row[0] == family.name() {
                lx.push(row[1].parse::<f64>().unwrap().ln());
                ly.push(row[5].parse::<f64>().unwrap().ln());
            }
        }
        let (_, b, _) = linear_fit(&lx, &ly);
        match family {
            Family::Complete => {
                assert!((b - 1.0).abs() < 0.1, "complete-graph H exponent {b}")
            }
            Family::Grid => assert!(b > 1.0, "grid H should be superlinear, exponent {b}"),
            _ => assert!(
                (0.8..=1.6).contains(&b),
                "{} H exponent {b} outside near-linear band",
                family.name()
            ),
        }
    }
}

/// Observation-8 shape: rounds/(H·ln m) stays within a constant band while
/// H itself varies by ~an order of magnitude across k.
#[test]
fn obs8_ratio_stays_bounded() {
    let cfg = obs8::Config { n: 32, ks: vec![1, 4, 16], trials: 25, ..obs8::Config::default() };
    let (t, _) = obs8::run(&cfg);
    let hs = t.column_f64("H_exact");
    let ratios = t.column_f64("ratio");
    let h_spread =
        hs.iter().fold(f64::MIN, |a, &b| a.max(b)) / hs.iter().fold(f64::MAX, |a, &b| a.min(b));
    let ratio_spread = ratios.iter().fold(f64::MIN, |a, &b| a.max(b))
        / ratios.iter().fold(f64::MAX, |a, &b| a.min(b));
    assert!(h_spread > 5.0, "H should vary strongly with k (spread {h_spread})");
    assert!(
        ratio_spread < h_spread / 2.0,
        "normalized ratio (spread {ratio_spread:.2}) should collapse relative to H (spread {h_spread:.2})"
    );
}

/// Results directory artifacts round-trip (CSV + JSON written and parse).
#[test]
fn tables_persist_and_reload() {
    let cfg = table1::Config::quick();
    let (t, _) = table1::run(&cfg);
    let dir = std::env::temp_dir().join("tlb_integration_results");
    let csv = t.save(&dir).unwrap();
    assert!(csv.exists());
    let json: tlb_experiments::output::Table =
        serde_json::from_str(&std::fs::read_to_string(dir.join("table1.json")).unwrap()).unwrap();
    assert_eq!(json, t);
    let _ = std::fs::remove_dir_all(&dir);
}
