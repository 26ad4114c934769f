//! The closed-loop runner: set-up, measured phases, digest checks and
//! the metrics a run reports.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::calib;
use crate::host::{self, Fingerprint};
use crate::layers::{self, Layer};
use crate::workloads::{self, Size, Workload};

/// Fresh processes whose set-up `setup_s` is the median of.
const SETUP_PROCS: usize = 15;

/// Calibration kernel runs after a fresh set-up; their median scales it.
const SETUP_CALIBS: usize = 7;

/// Share of a traced run's seconds spent untraced at full width, traced,
/// and untraced on one thread.
const TRACE_SPLIT: [f64; 3] = [0.35, 0.35, 0.30];

/// What to run.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure (every phase still runs whole periods).
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Input size.
    pub size: Size,
    /// The benchmark program, started afresh for every timed set-up.
    pub program: PathBuf,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything one run found.
#[derive(Debug, Clone)]
pub struct Record {
    /// The options it ran with.
    pub options: Options,
    /// Where it ran.
    pub host: Fingerprint,
    /// Every repetition (and, traced, the 1-thread rerun) reproduced
    /// its step's digest.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed (errors, non-convergent or panicked samples,
    /// digest mismatches).
    pub failed: u64,
    /// Digest of one full period of outputs, in step order.
    pub digest: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Unscaled host timings and the calibration kernel's time.
    pub raw: Vec<Metric>,
    /// Paper references and other unchecked context.
    pub notes: Vec<String>,
}

/// Counters read around every traced step.
const COUNTERS: [&str; 19] = [
    "estimator.estimate.cache_hit",
    "estimator.estimate.cache_miss",
    "chars.measure.cache_hit",
    "chars.measure.cache_miss",
    "chars.bench.cache_hit",
    "chars.bench.cache_miss",
    "jjsim.solver.transient_runs",
    "jjsim.batch.groups",
    "jjsim.solver.convergence_failures",
    "jjsim.margins.probe_hits",
    "jjsim.margins.probe_misses",
    "faults.mc.pass",
    "faults.mc.fail",
    "faults.mc.non_convergent",
    "faults.mc.panicked",
    "par.tasks",
    "par.steals",
    "par.serial_fallback",
    "par.breakeven_serial",
];
const N_COUNTERS: usize = COUNTERS.len();

/// Current values of [`COUNTERS`]: the memo and transient counters
/// through the crates' own accessors, the rest from the `sfq-obs`
/// registry (recorded only while `sfq_obs` is enabled).
fn read_counters() -> [u64; N_COUNTERS] {
    let snap = sfq_obs::snapshot();
    let (est_hit, est_miss) = sfq_estimator::estimate_cache_stats();
    let (meas_hit, meas_miss) = sfq_chars::measure_cache_stats();
    COUNTERS.map(|name| match name {
        "estimator.estimate.cache_hit" => est_hit,
        "estimator.estimate.cache_miss" => est_miss,
        "chars.measure.cache_hit" => meas_hit,
        "chars.measure.cache_miss" => meas_miss,
        "jjsim.solver.transient_runs" => jjsim::transient_runs(),
        _ => snap.counter(name).unwrap_or(0),
    })
}

/// Time of one step.
#[derive(Debug, Clone, Copy)]
struct StepTime {
    /// Host wall time, ns.
    ns: u64,
    /// The calibration kernel's time just before the step, ns.
    calib_ns: u64,
    /// Operations the step attempted.
    items: u64,
}

impl StepTime {
    /// Wall time scaled to the reference host speed, ns.
    fn scaled_ns(self) -> f64 {
        self.ns as f64 * calib::REFERENCE_NS as f64 / self.calib_ns.max(1) as f64
    }
}

/// Timings of one phase.
#[derive(Debug, Default)]
struct Phase {
    steps: Vec<StepTime>,
    /// Steps per period of the workload's inputs.
    period: usize,
    /// Counter deltas summed over the steps (traced phases).
    counters: [u64; N_COUNTERS],
}

impl Phase {
    /// `(ns, items)` of every whole period, scaled or raw.
    fn periods(&self, scaled: bool) -> Vec<(f64, u64)> {
        self.steps
            .chunks_exact(self.period)
            .map(|p| {
                let ns = p
                    .iter()
                    .map(|s| if scaled { s.scaled_ns() } else { s.ns as f64 })
                    .sum();
                (ns, p.iter().map(|s| s.items).sum())
            })
            .collect()
    }

    /// Median over periods of the mean step time, ms.
    fn step_ms(&self, scaled: bool) -> f64 {
        let per = self.period as f64;
        median(
            &self
                .periods(scaled)
                .iter()
                .map(|&(ns, _)| ns / per / 1e6)
                .collect::<Vec<_>>(),
        )
    }

    /// Median over periods of operations per second.
    fn items_per_s(&self, scaled: bool) -> f64 {
        median(
            &self
                .periods(scaled)
                .iter()
                .map(|&(ns, n)| n as f64 / (ns / 1e9))
                .collect::<Vec<_>>(),
        )
    }

    /// Quantile `q` of the scaled step times, ms.
    fn step_quantile_ms(&self, q: f64) -> f64 {
        quantile(
            &self
                .steps
                .iter()
                .map(|s| s.scaled_ns() / 1e6)
                .collect::<Vec<_>>(),
            q,
        )
    }

    /// Median calibration kernel time, µs.
    fn calib_us(&self) -> f64 {
        median(
            &self
                .steps
                .iter()
                .map(|s| s.calib_ns as f64 / 1e3)
                .collect::<Vec<_>>(),
        )
    }

    /// Total host wall time of the steps, ns.
    fn wall_ns(&self) -> f64 {
        self.steps.iter().map(|s| s.ns as f64).sum()
    }
}

/// The workload plus its position and digest references.
struct Harness {
    w: Box<dyn Workload>,
    next: usize,
    refs: Vec<Option<u64>>,
    attempted: u64,
    failed: u64,
    mismatches: u64,
}

impl Harness {
    /// Calibrate, then run the next step.
    fn step(&mut self, counters: Option<&mut [u64; N_COUNTERS]>) -> StepTime {
        let calib_ns = calib::host_ns(if self.w.parallel() {
            sfq_par::threads()
        } else {
            1
        });
        if self.w.fresh_memos() {
            clear_memos();
        }
        let before = counters.is_some().then(read_counters);
        let t0 = Instant::now();
        let out = self.w.step(self.next);
        let ns = t0.elapsed().as_nanos() as u64;
        if let (Some(acc), Some(before)) = (counters, before) {
            for ((a, now), then) in acc.iter_mut().zip(read_counters()).zip(before) {
                *a += now.saturating_sub(then);
            }
        }
        let slot = self.next % self.w.period();
        let mut failed = out.failed;
        match self.refs[slot] {
            None => self.refs[slot] = Some(out.digest),
            Some(d) if d != out.digest => {
                self.mismatches += 1;
                failed = out.items;
            }
            Some(_) => {}
        }
        self.attempted += out.items;
        self.failed += failed.min(out.items);
        self.next += 1;
        StepTime {
            ns,
            calib_ns,
            items: out.items,
        }
    }

    /// Run whole periods until `seconds` have passed.
    fn phase(&mut self, seconds: f64, traced: bool) -> Phase {
        let mut ph = Phase {
            period: self.w.period(),
            ..Phase::default()
        };
        let mut counters = [0; N_COUNTERS];
        let t0 = Instant::now();
        loop {
            ph.steps.push(self.step(traced.then_some(&mut counters)));
            if ph.steps.len().is_multiple_of(ph.period) && t0.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
        ph.counters = counters;
        ph
    }

    /// Digest of one full period, in step order.
    fn digest(&self) -> u64 {
        let mut d = crate::digest::Digest::default();
        for r in &self.refs {
            d.u64(r.unwrap_or(0));
        }
        d.value()
    }
}

fn clear_memos() {
    sfq_estimator::clear_estimate_cache();
    sfq_chars::clear_measure_cache();
    jjsim::margins::clear_probe_cache();
}

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q` of `v` (0 when empty).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Set the thread count, clear memos, build the workload from the seed
/// and run its warm-up step: everything before the first timed
/// operation. Returns the harness and the warm-up step's calibration.
fn setup(opts: &Options) -> Result<(Harness, u64), String> {
    sfq_par::set_threads(host::logical_cores());
    sfq_obs::set_enabled(false);
    clear_memos();
    let w = workloads::build(&opts.workload, opts.seed, opts.size)?;
    let mut drv = Harness {
        refs: vec![None; w.period()],
        w,
        next: 0,
        attempted: 0,
        failed: 0,
        mismatches: 0,
    };
    let warm = drv.step(None);
    Ok((drv, warm.calib_ns))
}

/// The set-up alone, for [`fresh_setup`]: returns the line the child
/// reports, `<calibration ns> <warm-up digest>`. The calibration is
/// the median of [`SETUP_CALIBS`] kernel runs right after the set-up.
///
/// # Errors
///
/// Unknown workload name.
pub fn setup_only(opts: &Options) -> Result<String, String> {
    let (drv, _) = setup(opts)?;
    let threads = if drv.w.parallel() {
        sfq_par::threads()
    } else {
        1
    };
    let calibs: Vec<f64> = (0..SETUP_CALIBS)
        .map(|_| calib::host_ns(threads) as f64)
        .collect();
    Ok(format!(
        "{} {:016x}",
        median(&calibs) as u64,
        drv.refs[0].unwrap_or(0)
    ))
}

/// Start `opts.program` in set-up-only mode and time it from spawn to
/// its report: the set-up of a fresh process, from process start to
/// the first timed operation. Returns the seconds, the child's
/// calibration and its warm-up digest.
fn fresh_setup(opts: &Options) -> Result<(f64, u64, u64), String> {
    let size = match opts.size {
        Size::Full => "full",
        Size::Smoke => "smoke",
    };
    let seed = opts.seed.to_string();
    let args = [
        "--workload",
        &opts.workload,
        "--seed",
        &seed,
        "--seconds",
        "0",
        "--trace",
        "0",
        "--setup-only",
        size,
    ];
    let program = opts.program.display();
    let t0 = Instant::now();
    let mut child = Command::new(&opts.program)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start {program}: {e}"))?;
    let mut line = String::new();
    let read = child
        .stdout
        .take()
        .map(|out| BufReader::new(out).read_line(&mut line));
    let secs = t0.elapsed().as_secs_f64();
    let status = child.wait().map_err(|e| format!("{program}: {e}"))?;
    let parsed = line.split_once(' ').and_then(|(c, d)| {
        Some((
            c.parse::<u64>().ok()?,
            u64::from_str_radix(d.trim(), 16).ok()?,
        ))
    });
    match (read, status.success(), parsed) {
        (Some(Ok(_)), true, Some((calib_ns, digest))) => Ok((secs, calib_ns, digest)),
        _ => Err(format!("{program}: set-up failed ({status}): {line:?}")),
    }
}

/// Run one workload as `opts` says. `start` is process start, where
/// the in-process set-up's clock starts.
///
/// # Errors
///
/// Unknown workload name, or a fresh set-up process that fails.
pub fn run(opts: &Options, start: Instant) -> Result<Record, String> {
    let threads = host::logical_cores();
    let (mut drv, _) = setup(opts)?;
    let inproc_setup_s = start.elapsed().as_secs_f64();

    let mut setup_mismatch = false;
    let (metrics, raw) = if opts.trace {
        traced(&mut drv, &opts.workload, opts.seconds, threads)
    } else {
        // Set-ups of fresh processes, scaled like steps; each must
        // reproduce this process's warm-up digest.
        let (mut setup_raw, mut setup_scaled) = (Vec::new(), Vec::new());
        for _ in 0..SETUP_PROCS {
            let (secs, calib_ns, digest) = fresh_setup(opts)?;
            setup_raw.push(secs);
            setup_scaled.push(secs * calib::REFERENCE_NS as f64 / calib_ns.max(1) as f64);
            setup_mismatch |= drv.refs[0] != Some(digest);
        }
        let ph = drv.phase(opts.seconds, false);
        let failed = drv.failed as f64 / drv.attempted.max(1) as f64;
        (
            vec![
                metric("setup_s", median(&setup_scaled), "s"),
                metric("step_ms", ph.step_ms(true), "ms"),
                metric("items_per_s", ph.items_per_s(true), "1/s"),
                metric("peak_rss_mb", host::peak_rss_mb(), "MB"),
                metric("ok_frac", 1.0 - failed, "frac"),
            ],
            vec![
                metric("raw_setup_s", median(&setup_raw), "s"),
                metric("raw_inproc_setup_s", inproc_setup_s, "s"),
                metric("raw_step_ms", ph.step_ms(false), "ms"),
                metric("raw_items_per_s", ph.items_per_s(false), "1/s"),
                metric("calib_us", ph.calib_us(), "us"),
            ],
        )
    };
    Ok(Record {
        options: opts.clone(),
        host: Fingerprint::detect(threads),
        correct: drv.mismatches == 0 && !setup_mismatch && drv.refs.iter().all(Option::is_some),
        attempted: drv.attempted,
        failed: drv.failed,
        digest: drv.digest(),
        metrics,
        raw,
        notes: drv.w.notes(),
    })
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The traced run: untraced at full width, traced at full width, then
/// untraced on one thread (which must reproduce every digest). Returns
/// the per-layer metrics and the raw phase timings.
fn traced(
    drv: &mut Harness,
    workload: &str,
    seconds: f64,
    threads: usize,
) -> (Vec<Metric>, Vec<Metric>) {
    let untraced = drv.phase(seconds * TRACE_SPLIT[0], false);

    sfq_obs::set_enabled(true);
    layers::reset();
    let tr = drv.phase(seconds * TRACE_SPLIT[1], true);
    let clocks: Vec<layers::Totals> = Layer::ALL.iter().map(|&l| layers::totals(l)).collect();
    drv.w.trace_extra();
    let uncached = layers::totals(Layer::Uncached);
    sfq_obs::set_enabled(false);

    sfq_par::set_threads(1);
    let serial = drv.phase(seconds * TRACE_SPLIT[2], false);
    sfq_par::set_threads(threads);

    let steps = tr.steps.len() as f64;
    let wall_ns = tr.wall_ns();
    let lanes = if drv.w.parallel() {
        threads as f64
    } else {
        1.0
    };
    let clock = |l: Layer| clocks[l as usize];
    let ms_per_step = |l: Layer| clock(l).ns as f64 / steps / 1e6;
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let us_per_call = |t: layers::Totals| per(t.ns as f64 / 1e3, t.calls as f64);
    let c = |name: &str| {
        let i = COUNTERS
            .iter()
            .position(|n| *n == name)
            .expect("counter is listed");
        tr.counters[i] as f64
    };
    let ratio = |hit: &str, miss: &str| per(c(hit), c(hit) + c(miss));
    let attributed: f64 = clocks.iter().map(|t| t.ns as f64).sum();
    let npusim_ns = (clock(Layer::NpuSim).ns + clock(Layer::NpuSimB1).ns) as f64;
    let npusim_layers = (clock(Layer::NpuSim).units + clock(Layer::NpuSimB1).units) as f64;
    let jjsim_ns: f64 = Layer::JJSIM.iter().map(|&l| clock(l).ns as f64).sum();
    let faults_us = |l: Layer| per(clock(l).ns as f64 / 1e3, clock(l).units as f64);
    let repro_p95 = if workload == "paper_repro" {
        untraced.step_quantile_ms(0.95)
    } else {
        0.0
    };
    let raw = vec![
        metric("raw_untraced_step_ms", untraced.step_ms(false), "ms"),
        metric("raw_traced_step_ms", tr.step_ms(false), "ms"),
        metric("raw_serial_step_ms", serial.step_ms(false), "ms"),
        metric("calib_us", tr.calib_us(), "us"),
    ];

    let metrics = vec![
        metric("core.evaluator_ms", ms_per_step(Layer::Evaluator), "ms"),
        metric("core.explore_ms", ms_per_step(Layer::Explore), "ms"),
        metric("core.pareto_ms", ms_per_step(Layer::Pareto), "ms"),
        metric("core.ablations_ms", ms_per_step(Layer::Ablations), "ms"),
        metric("core.sensitivity_ms", ms_per_step(Layer::Sensitivity), "ms"),
        metric("core.summary_ms", ms_per_step(Layer::Summary), "ms"),
        metric("core.repro_p95_ms", repro_p95, "ms"),
        metric(
            "scalesim.network_us",
            us_per_call(clock(Layer::ScaleSimTpu)),
            "us",
        ),
        metric(
            "jjsim.validation_ms",
            ms_per_step(Layer::JjsimValidation),
            "ms",
        ),
        metric("chars.nominal_ms", ms_per_step(Layer::CharsNominal), "ms"),
        metric(
            "estimator.direct_ms",
            ms_per_step(Layer::EstimatorDirect),
            "ms",
        ),
        metric(
            "estimator.from_npu_us",
            us_per_call(clock(Layer::FromNpu)),
            "us",
        ),
        metric("estimator.uncached_us", us_per_call(uncached), "us"),
        metric(
            "estimator.memo_hit_ratio",
            ratio(
                "estimator.estimate.cache_hit",
                "estimator.estimate.cache_miss",
            ),
            "frac",
        ),
        metric("npusim.network_us", us_per_call(clock(Layer::NpuSim)), "us"),
        metric(
            "npusim.network_b1_us",
            us_per_call(clock(Layer::NpuSimB1)),
            "us",
        ),
        metric("npusim.ns_per_layer", per(npusim_ns, npusim_layers), "ns"),
        metric("npusim.share", per(npusim_ns, wall_ns * lanes), "frac"),
        metric("dnn.duplication_ms", ms_per_step(Layer::Dnn), "ms"),
        metric(
            "faults.us_per_sample.jtl",
            faults_us(Layer::FaultsJtl),
            "us",
        ),
        metric(
            "faults.us_per_sample.dff",
            faults_us(Layer::FaultsDff),
            "us",
        ),
        metric(
            "faults.us_per_sample.and",
            faults_us(Layer::FaultsAnd),
            "us",
        ),
        metric("faults.outcome.pass", c("faults.mc.pass") / steps, "count"),
        metric("faults.outcome.fail", c("faults.mc.fail") / steps, "count"),
        metric(
            "faults.outcome.non_convergent",
            c("faults.mc.non_convergent") / steps,
            "count",
        ),
        metric(
            "faults.outcome.panicked",
            c("faults.mc.panicked") / steps,
            "count",
        ),
        metric(
            "jjsim.transients",
            c("jjsim.solver.transient_runs") / steps,
            "count",
        ),
        metric(
            "jjsim.us_per_transient",
            per(jjsim_ns / 1e3, c("jjsim.solver.transient_runs")),
            "us",
        ),
        metric(
            "jjsim.batch.groups",
            c("jjsim.batch.groups") / steps,
            "count",
        ),
        metric(
            "jjsim.solver.convergence_failures",
            c("jjsim.solver.convergence_failures") / steps,
            "count",
        ),
        metric("jjsim.margins_ms", ms_per_step(Layer::Margins), "ms"),
        metric(
            "jjsim.margins.probe_hit_ratio",
            ratio("jjsim.margins.probe_hits", "jjsim.margins.probe_misses"),
            "frac",
        ),
        metric(
            "chars.characterize_ms",
            us_per_call(clock(Layer::CharsCorner)) / 1e3,
            "ms",
        ),
        metric(
            "chars.bench_hit_ratio",
            ratio("chars.bench.cache_hit", "chars.bench.cache_miss"),
            "frac",
        ),
        metric(
            "chars.measure_hit_ratio",
            ratio("chars.measure.cache_hit", "chars.measure.cache_miss"),
            "frac",
        ),
        metric(
            "par.speedup",
            per(serial.step_ms(true), untraced.step_ms(true)),
            "x",
        ),
        metric("par.tasks", c("par.tasks") / steps, "count"),
        metric("par.steals", c("par.steals") / steps, "count"),
        metric(
            "par.serial_fallback",
            c("par.serial_fallback") / steps,
            "count",
        ),
        metric(
            "par.breakeven_serial",
            c("par.breakeven_serial") / steps,
            "count",
        ),
        metric(
            "obs.trace_overhead_frac",
            per(tr.step_ms(true), untraced.step_ms(true)) - 1.0,
            "frac",
        ),
        metric(
            "unattributed_frac",
            1.0 - per(attributed, wall_ns * lanes),
            "frac",
        ),
        metric(
            "fail_frac",
            per(drv.failed as f64, drv.attempted as f64),
            "frac",
        ),
    ];
    (metrics, raw)
}
