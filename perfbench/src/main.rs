//! `perfbench --workload <name|all> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Prints a human-readable summary and the run's full record, then, as
//! the last line of standard output, one JSON object with exactly the
//! keys `correct`, `attempted`, `failed` and `metrics`.
//!
//! With `--setup-only <full|smoke>` the program only sets the workload
//! up and prints `<calibration ns> <warm-up digest>`; the runner starts
//! it that way to time the set-up of fresh processes.

use std::process::ExitCode;
use std::time::Instant;

use supernpu_perfbench::runner::{self, Options, Record};
use supernpu_perfbench::workloads::{Size, NAMES};
use supernpu_perfbench::{metrics_json, record_json, result_line};

const USAGE: &str =
    "usage: perfbench --workload <paper_repro|design_sweep|yield_mc|corners|all> --seed <n> \
     --seconds <n> --trace <0|1>";

/// Workload-specific names of the shared end-to-end metrics; the
/// benchmark reports them under the shared names `step_ms` and
/// `items_per_s` so that every workload prints every metric.
fn aliases(workload: &str) -> &'static [(&'static str, &'static str)] {
    match workload {
        "paper_repro" => &[("repro_ms", "step_ms")],
        "design_sweep" => &[("points_per_s", "items_per_s")],
        "yield_mc" => &[("samples_per_s", "items_per_s")],
        "corners" => &[("corners_per_s", "items_per_s")],
        _ => &[],
    }
}

/// The workloads to run, their options, and whether to set up only.
fn parse(args: &[String]) -> Result<(Vec<String>, Options, bool), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut setup_only = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: `{value}` is not {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("a seed"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|_| bad("a number of seconds"))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err(bad("within 0..=3600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--setup-only" => {
                setup_only = Some(match value.as_str() {
                    "full" => Size::Full,
                    "smoke" => Size::Smoke,
                    _ => return Err(bad("full or smoke")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let names = if workload == "all" {
        NAMES.iter().map(|s| (*s).to_owned()).collect()
    } else if NAMES.contains(&workload.as_str()) {
        vec![workload.clone()]
    } else {
        return Err(format!("unknown workload `{workload}`"));
    };
    let opts = Options {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        size: setup_only.unwrap_or(Size::Full),
        program: std::env::current_exe().map_err(|e| format!("cannot locate myself: {e}"))?,
    };
    Ok((names, opts, setup_only.is_some()))
}

fn print_summary(r: &Record) {
    let h = &r.host;
    println!(
        "workload {} seed {} trace {} | host: {} logical cores, {}, {}, {} threads",
        r.options.workload,
        r.options.seed,
        u8::from(r.options.trace),
        h.logical_cores,
        h.cpu_model,
        h.rustc,
        h.threads
    );
    println!(
        "  digest {:016x} correct {} attempted {} failed {}",
        r.digest, r.correct, r.attempted, r.failed
    );
    for m in r.metrics.iter().chain(&r.raw) {
        println!("  {:<36} {:>14.6} {}", m.name, m.value, m.unit);
    }
    for (alias, of) in aliases(&r.options.workload) {
        if let Some(m) = r.metrics.iter().find(|m| m.name == *of) {
            println!("  {:<36} {:>14.6} {}   (= {of})", alias, m.value, m.unit);
        }
    }
    if let Some(ok) = r.metrics.iter().find(|m| m.name == "ok_frac") {
        println!(
            "  {:<36} {:>14.6} frac   (= 1 - ok_frac)",
            "fail_frac",
            1.0 - ok.value
        );
    }
    for n in &r.notes {
        println!("  paper reference (not gated): {n}");
    }
    println!("{}", record_json(r));
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (names, opts, setup_only) = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if setup_only {
        return match runner::setup_only(&opts) {
            Ok(line) => {
                println!("{line}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }
    let mut records = Vec::new();
    for (i, name) in names.iter().enumerate() {
        let one = Options {
            workload: name.clone(),
            ..opts.clone()
        };
        eprintln!(
            "perfbench: {name} (seed {}, {} s, trace {})",
            one.seed, one.seconds, one.trace
        );
        // Only the first workload's set-up starts at process start.
        let t0 = if i == 0 { start } else { Instant::now() };
        match runner::run(&one, t0) {
            Ok(r) => {
                print_summary(&r);
                records.push(r);
            }
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let qualify = records.len() > 1;
    let metrics = metrics_json(records.iter().flat_map(|r| {
        r.metrics.iter().map(move |m| {
            let name = if qualify {
                format!("{}.{}", r.options.workload, m.name)
            } else {
                m.name.to_owned()
            };
            (name, m)
        })
    }));
    println!(
        "{}",
        result_line(
            records.iter().all(|r| r.correct),
            records.iter().map(|r| r.attempted).sum(),
            records.iter().map(|r| r.failed).sum(),
            metrics
        )
    );
    ExitCode::SUCCESS
}
