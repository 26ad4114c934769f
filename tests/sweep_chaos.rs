//! Zero lost points through the public sweep entry points. With the
//! chaos harness injecting panics, forced timeouts and stalls, every
//! plain sweep (Figs. 20–22, the Pareto grid, the bandwidth sweep)
//! still returns every point, valued bit-for-bit as a chaos-off run.
//!
//! The chaos switch is process-global, so this is its own test binary:
//! no other test can run while it is armed.

use serde::Serialize;
use sfq_guard::chaos::{self, ChaosAction};
use supernpu::{explore, pareto, sensitivity};

/// Injects a panic into the first attempt of Fig. 20 points 6 and 7,
/// and a second panic into point 7's first retry.
const SEED: u64 = 13;

/// A sweep's point count and JSON encoding (full f64 round-trip
/// precision, so string equality is bit equality).
fn summary<T: Serialize>(points: &[T]) -> (usize, String) {
    let json = serde_json::to_string(points).expect("sweep points serialize");
    (points.len(), json)
}

/// Every public sweep, summarized.
fn all_sweeps() -> Vec<(usize, String)> {
    vec![
        summary(&explore::fig20_buffer_sweep()),
        summary(&explore::fig21_resource_sweep()),
        summary(&explore::fig22_register_sweep()),
        summary(&pareto::evaluate_grid()),
        summary(&sensitivity::bandwidth_sweep()),
    ]
}

#[test]
fn public_sweeps_lose_no_points_under_chaos() {
    // The seed must actually hit a Fig. 20 division point, or this
    // test would pass vacuously.
    assert!(
        (1..8).any(|task| chaos::decide_seeded(SEED, task, 0) == Some(ChaosAction::Panic)),
        "seed {SEED} injects no panic into fig20"
    );

    let clean = all_sweeps();
    let counts: Vec<usize> = clean.iter().map(|(n, _)| *n).collect();
    assert_eq!(counts, vec![8, 5, 12, 24, 6], "chaos-off point counts");

    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    chaos::set_chaos(Some(SEED));
    let chaotic = std::panic::catch_unwind(all_sweeps);
    chaos::set_chaos(None);
    std::panic::set_hook(hook);

    let chaotic = chaotic.expect("chaos must not escape the sweep driver");
    let names = ["fig20", "fig21", "fig22", "pareto grid", "bandwidth"];
    for ((name, clean), chaotic) in names.iter().zip(&clean).zip(&chaotic) {
        assert_eq!(clean, chaotic, "{name}: chaos changed or dropped points");
    }
}
