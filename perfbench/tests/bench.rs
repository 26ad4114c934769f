//! Tests of the benchmark itself: seeded inputs, metric names, and a
//! smoke-size run of every workload.

use std::time::Instant;

use serde_json::Value;
use supernpu_perfbench::inputs::{corner_walk, design_grid, mc_seeds, DESIGN_GRID_POINTS};
use supernpu_perfbench::runner::{self, Options};
use supernpu_perfbench::workloads::{Size, NAMES};

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.as_object()
        .and_then(|o| o.iter().find(|(k, _)| k == key))
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("missing `{key}`"))
}

/// Names listed under `section` of `BENCHMARK.json`.
fn names(section: &str) -> Vec<String> {
    field(&benchmark_json(), section)
        .as_array()
        .expect("a list")
        .iter()
        .map(|m| field(m, "name").as_str().expect("a name").to_owned())
        .collect()
}

fn valid_name(n: &str) -> bool {
    !n.is_empty()
        && n.len() <= 64
        && n.starts_with(|c: char| c.is_ascii_alphanumeric())
        && n.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

#[test]
fn inputs_are_pure_functions_of_the_seed() {
    assert_eq!(
        design_grid(7, DESIGN_GRID_POINTS),
        design_grid(7, DESIGN_GRID_POINTS)
    );
    assert_ne!(design_grid(7, 16), design_grid(8, 16));
    assert_eq!(mc_seeds(7, 4), mc_seeds(7, 4));
    assert_ne!(mc_seeds(7, 4), mc_seeds(8, 4));
    assert_eq!(corner_walk(7, 12), corner_walk(7, 12));
    assert_ne!(corner_walk(7, 12), corner_walk(8, 12));
}

#[test]
fn design_grid_points_are_unique_and_outnumber_the_estimator_memo() {
    let grid = design_grid(3, DESIGN_GRID_POINTS);
    assert!(grid.len() > 1024);
    for (i, a) in grid.iter().enumerate() {
        assert!(
            grid[i + 1..].iter().all(|b| b != a),
            "duplicate point {a:?}"
        );
    }
}

#[test]
fn corner_walk_steps_one_family_at_a_time() {
    let walk = corner_walk(11, 12);
    for pair in walk.windows(2) {
        let moved = [
            pair[0].jtl != pair[1].jtl,
            pair[0].dff != pair[1].dff,
            pair[0].and != pair[1].and,
        ];
        assert_eq!(moved.iter().filter(|m| **m).count(), 1, "{pair:?}");
    }
}

#[test]
fn every_name_is_well_formed() {
    let bench = benchmark_json();
    let mut all: Vec<String> = NAMES.iter().map(|s| (*s).to_owned()).collect();
    assert_eq!(names("workloads"), all);
    all.extend(names("end_to_end"));
    all.extend(names("per_layer"));
    for n in &all {
        assert!(valid_name(n), "bad name `{n}`");
    }
    let mut sorted = all.clone();
    sorted.sort();
    sorted.dedup();
    assert_eq!(sorted.len(), all.len(), "names repeat");
    for section in ["end_to_end", "per_layer"] {
        for m in field(&bench, section).as_array().expect("a list") {
            let unit = field(m, "unit").as_str().expect("a unit");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit `{unit}`"
            );
        }
    }
}

/// The runner holds process-wide state (thread count, memos, metric
/// gates), so every smoke run happens in this one test.
#[test]
fn smoke_runs_emit_every_named_metric() {
    let end_to_end = names("end_to_end");
    let per_layer = names("per_layer");
    for workload in NAMES {
        for trace in [false, true] {
            let opts = Options {
                workload: workload.to_owned(),
                seed: 5,
                seconds: 0.0,
                trace,
                size: Size::Smoke,
                program: env!("CARGO_BIN_EXE_supernpu-perfbench").into(),
            };
            let r = runner::run(&opts, Instant::now()).expect("known workload");
            assert!(r.correct, "{workload} trace={trace}: digests differ");
            assert_eq!(r.failed, 0, "{workload} trace={trace}");
            assert!(r.attempted > 0);
            let got: Vec<String> = r.metrics.iter().map(|m| m.name.to_owned()).collect();
            let want = if trace { &per_layer } else { &end_to_end };
            assert_eq!(&got, want, "{workload} trace={trace}");
            for m in &r.metrics {
                assert!(m.value.is_finite(), "{workload} {}", m.name);
            }
            if !trace {
                assert!(
                    r.metrics.iter().all(|m| m.value > 0.0),
                    "{workload}: {:?}",
                    r.metrics
                );
            }
        }
    }
}
