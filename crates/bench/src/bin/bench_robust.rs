//! Robustness bench for the execution-guard layer: demonstrates the
//! two guarantees of [`supernpu::resilient::run_resilient`] (the
//! driver of every design-space sweep) on the real sweeps and writes
//! the evidence to `BENCH_robust.json`.
//!
//! 1. **Zero silent loss under chaos** — with the chaos harness
//!    injecting panics, forced timeouts and stalls into 3/16 of
//!    `(task, attempt)` draws, every point of every sweep still ends
//!    `Completed` or `Degraded` with a value; `lost()` is zero. The
//!    chaos records count the points whose first attempt was taken down
//!    (`retried`); if no chaos point was retried or degraded the record
//!    is vacuous and the run fails.
//! 2. **Bit-identical resume** — a sweep cancelled mid-flight leaves
//!    an atomic checkpoint whose resumed continuation reproduces the
//!    uninterrupted run's values byte-for-byte.
//!
//! Any violated invariant is reported on stderr and the binary exits
//! nonzero — but the report is written first, so the `bench_compare`
//! gate can show exactly which check regressed.
//!
//! `--smoke` shrinks the run (Fig. 20 only) for the
//! `scripts/check.sh --chaos` gate.

use std::time::{Duration, Instant};

use serde::Serialize;
use serde_json::Value;
use sfq_guard::{chaos, CancelToken, RunBudget};
use supernpu::explore::fig20_buffer_sweep_resilient;
use supernpu::resilient::{ResilientOpts, SweepReport};
use supernpu_bench::report::{die, to_json_pretty, write_report};

/// Seed for the chaos harness: deterministic, so the injected
/// failures (and therefore the retry/degrade counters) are the same
/// on every run. It takes down the first attempt of 3 Fig. 20 points
/// (panics at points 6 and 7) and 1 Fig. 21 point, so the chaos records
/// take the retry path; a seed that only stalls would leave them
/// vacuous.
const CHAOS_SEED: u64 = 13;

/// Tasks of the fault-tolerant pool whose first attempt panicked or
/// was forced to time out, so far. In these sweeps every such task is
/// a design point that went down the retry ladder. Needs metrics on.
fn first_attempts_failed() -> u64 {
    let m = sfq_obs::snapshot();
    ["par.task_panics", "guard.par.timed_out"]
        .iter()
        .map(|c| m.counter(c).unwrap_or(0))
        .sum()
}

fn json_of<T: Serialize>(what: &str, value: &T) -> String {
    serde_json::to_string(value).unwrap_or_else(|e| die(format!("serialize {what}: {e}")))
}

fn clear_caches() {
    sfq_estimator::clear_estimate_cache();
    sfq_chars::clear_measure_cache();
}

/// One `"robust"` report entry from a sweep report, plus the
/// invariant violations it contributes. `retried` (chaos sweeps only)
/// is the number of points whose first attempt failed.
fn sweep_entry<P: Serialize>(
    name: &str,
    report: &SweepReport<P>,
    ms: f64,
    retried: Option<u64>,
    failures: &mut Vec<String>,
) -> Value {
    let (completed, degraded, timed_out, cancelled, failed) = report.state_counts();
    let points = report.points.len();
    let lost = report.lost();
    if lost != 0 {
        failures.push(format!("{name}: {lost} point(s) silently lost"));
    }
    if completed + degraded + timed_out + cancelled + failed != points {
        failures.push(format!(
            "{name}: state counts do not cover all {points} points"
        ));
    }
    let mut fields = vec![
        ("name".into(), Value::Str(name.to_owned())),
        ("points".into(), Value::U64(points as u64)),
        ("completed".into(), Value::U64(completed as u64)),
        ("degraded".into(), Value::U64(degraded as u64)),
        ("timed_out".into(), Value::U64(timed_out as u64)),
        ("cancelled".into(), Value::U64(cancelled as u64)),
        ("failed".into(), Value::U64(failed as u64)),
        ("lost".into(), Value::U64(lost as u64)),
        ("restored".into(), Value::U64(report.restored as u64)),
    ];
    if let Some(r) = retried {
        fields.push(("retried".into(), Value::U64(r)));
    }
    fields.push(("ms".into(), Value::F64(ms)));
    Value::Object(fields)
}

fn resilient_fig20(opts: &ResilientOpts) -> SweepReport<supernpu::explore::BufferSweepPoint> {
    fig20_buffer_sweep_resilient(opts).unwrap_or_else(|e| die(format!("fig20 resilient: {e}")))
}

fn main() {
    let _session = supernpu_bench::session::begin("bench_robust");
    supernpu_bench::header("bench_robust", "execution-guard robustness gates");
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut failures: Vec<String> = Vec::new();
    let mut entries: Vec<Value> = Vec::new();

    // --------------------------------------------------- 1. chaos
    // Deterministic injected panics/timeouts/stalls; the ladder must
    // still label and value every point. The hook swap keeps the
    // injected panics from spraying backtraces over the report.
    // Metrics are on for the chaos sweeps only, to count the points
    // the chaos harness sent down the retry ladder.
    let metrics_were_on = sfq_obs::enabled();
    sfq_obs::set_enabled(true);
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    chaos::set_chaos(Some(CHAOS_SEED));
    let guarded = ResilientOpts::unguarded();
    clear_caches();
    let before = first_attempts_failed();
    let t0 = Instant::now();
    let chaos_fig20 = resilient_fig20(&guarded);
    let chaos_ms = t0.elapsed().as_secs_f64() * 1e3;
    let fig20_retried = first_attempts_failed() - before;
    let mut exercised = fig20_retried + chaos_fig20.state_counts().1 as u64;
    entries.push(sweep_entry(
        "fig20_chaos",
        &chaos_fig20,
        chaos_ms,
        Some(fig20_retried),
        &mut failures,
    ));
    if !smoke {
        clear_caches();
        let before = first_attempts_failed();
        let t0 = Instant::now();
        let chaos_fig21 = supernpu::explore::fig21_resource_sweep_resilient(&guarded)
            .unwrap_or_else(|e| die(format!("fig21 resilient: {e}")));
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let retried = first_attempts_failed() - before;
        exercised += retried + chaos_fig21.state_counts().1 as u64;
        entries.push(sweep_entry(
            "fig21_chaos",
            &chaos_fig21,
            ms,
            Some(retried),
            &mut failures,
        ));
    }
    chaos::set_chaos(None);
    std::panic::set_hook(hook);
    sfq_obs::set_enabled(metrics_were_on);
    if exercised == 0 {
        failures.push(format!(
            "chaos seed {CHAOS_SEED} retried or degraded no point: the chaos records are vacuous"
        ));
    }
    let (c, d, ..) = chaos_fig20.state_counts();
    println!(
        "chaos(seed={CHAOS_SEED}): fig20 {} pts -> {c} completed ({fig20_retried} retried), \
         {d} degraded, {} lost",
        chaos_fig20.points.len(),
        chaos_fig20.lost()
    );

    // ------------------------------------------------- 2. resume
    // Reference run (uninterrupted), a cancelled run that leaves an
    // atomic checkpoint, and a resumed run that must reproduce the
    // reference byte-for-byte.
    let dir = std::env::temp_dir().join("supernpu_bench_robust");
    let _ = std::fs::remove_dir_all(&dir);
    let ckpt = dir.join("fig20.ckpt.json");

    clear_caches();
    let t0 = Instant::now();
    let reference = resilient_fig20(&ResilientOpts::unguarded());
    let reference_ms = t0.elapsed().as_secs_f64() * 1e3;
    entries.push(sweep_entry(
        "fig20_unguarded",
        &reference,
        reference_ms,
        None,
        &mut failures,
    ));
    let reference_json = json_of("reference fig20", &reference.values());

    let token = CancelToken::new();
    let killer = {
        let token = token.clone();
        // Fire mid-sweep: roughly half of one uninterrupted pass.
        let delay = Duration::from_secs_f64((reference_ms / 2.0 / 1e3).max(5e-4));
        std::thread::spawn(move || {
            std::thread::sleep(delay);
            token.cancel();
        })
    };
    let killed_opts = ResilientOpts::unguarded()
        .with_budget(RunBudget::unlimited().with_cancel(token))
        .with_checkpoint(ckpt.clone(), 2, false);
    clear_caches();
    let killed = resilient_fig20(&killed_opts);
    killer
        .join()
        .unwrap_or_else(|_| die("cancel timer thread panicked"));
    let (killed_done, killed_degraded, _, killed_cancelled, _) = killed.state_counts();

    entries.push(sweep_entry(
        "fig20_killed",
        &killed,
        0.0,
        None,
        &mut failures,
    ));

    let resume_opts = ResilientOpts::unguarded().with_checkpoint(ckpt, 2, true);
    clear_caches();
    let t0 = Instant::now();
    let resumed = resilient_fig20(&resume_opts);
    let resume_ms = t0.elapsed().as_secs_f64() * 1e3;
    entries.push(sweep_entry(
        "fig20_resumed",
        &resumed,
        resume_ms,
        None,
        &mut failures,
    ));
    let restored = resumed.restored;
    let resume_identical = json_of("resumed fig20", &resumed.values()) == reference_json;
    if !resume_identical {
        failures.push("resumed sweep diverged from the uninterrupted reference".into());
    }
    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "resume: kill left {}/{} durable points ({killed_cancelled} cancelled), \
         resume restored {restored}, identical: {resume_identical}",
        killed_done + killed_degraded,
        killed.points.len()
    );

    // ------------------------------------------------- report
    let bench = Value::Object(vec![
        (
            "schema_version".into(),
            Value::U64(u64::from(sfq_obs::SCHEMA_VERSION)),
        ),
        ("robust".into(), Value::Array(entries)),
        ("chaos_seed".into(), Value::U64(CHAOS_SEED)),
        (
            "resume".into(),
            Value::Object(vec![
                ("resume_identical".into(), Value::Bool(resume_identical)),
                ("restored".into(), Value::U64(restored as u64)),
            ]),
        ),
    ]);
    let json = to_json_pretty("BENCH_robust", &bench).unwrap_or_else(|e| die(e));
    write_report("BENCH_robust.json", &json).unwrap_or_else(|e| die(e));
    println!("\nreport written to BENCH_robust.json");

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        supernpu_bench::session::fail(format!(
            "{} robustness invariant(s) violated",
            failures.len()
        ));
    }
    println!("all robustness invariants hold");
}
