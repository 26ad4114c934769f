//! Monte-Carlo yield estimation over perturbed stdlib cells, run
//! through a crash-isolated, checkpointing harness.
//!
//! For a cell and a variation strength σ, the estimator draws `samples`
//! independent perturbed parameter sets (one [`SplitMix64`] substream
//! per sample, derived from `(seed, cell, σ, index)`), simulates each
//! cell's functional testbench, and classifies every sample into a
//! discrete [`Outcome`]. The per-cell yield-vs-σ curve is the SFQ
//! analogue of a process corner report: it tells you how much parameter
//! spread a cell survives.
//!
//! ## Robustness contract
//!
//! * A sample that **panics** (whether injected via [`Injection`] or a
//!   genuine solver bug) is caught by `sfq_par::par_map_deadline` and
//!   recorded as [`Outcome::Panicked`] — it poisons only itself.
//! * A sample whose transient **errors** is retried up to
//!   `McOptions::retries` extra times, then recorded as
//!   [`Outcome::NonConvergent`].
//! * With `checkpoint_every > 0` and a `checkpoint_path`, the completed
//!   prefix of outcomes is persisted after each chunk; `resume` loads a
//!   matching checkpoint and continues. Because outcomes are discrete
//!   and every sample is a pure function of `(seed, cell, σ, index)`,
//!   a resumed run is **bit-identical** to an uninterrupted one, at any
//!   thread count.
//! * Every checkpoint a call needs is loaded before any sample runs,
//!   so a foreign one fails the call up front, having written nothing.
//!
//! A single σ ([`run_outcomes`]) and a whole curve ([`yield_curve`])
//! share one round-based engine that runs every (σ, lane group) task
//! of a checkpoint round in one parallel region; only the schedule
//! depends on that, never an outcome.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use jjsim::stdlib::{
    clocked_and, dff, jtl_chain, AndParams, AndProbes, DffParams, DffProbes, JtlParams,
};
use jjsim::{BatchedTransient, Circuit, ElementId, SimError, SimOptions, SimResult, Solver};
use serde::{Deserialize, Serialize};
use sfq_guard::checkpoint::{self, CheckpointError};
use sfq_obs::Counter;
use sfq_par::TaskOutcome;

use crate::rng::SplitMix64;
use crate::variation::{perturb_and, perturb_dff, perturb_jtl, Variation};

/// The stdlib cells the yield estimator knows how to probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Cell {
    /// 4-stage Josephson transmission line: one pulse in, one out per
    /// stage.
    Jtl,
    /// D flip-flop: store-then-release works and a clock without data
    /// stays silent.
    Dff,
    /// Clocked AND: fires with both inputs set, silent with one.
    ClockedAnd,
}

impl Cell {
    /// All probeable cells.
    pub fn all() -> [Cell; 3] {
        [Cell::Jtl, Cell::Dff, Cell::ClockedAnd]
    }

    /// Stable display name (also the checkpoint identity).
    pub fn name(self) -> &'static str {
        match self {
            Cell::Jtl => "jtl",
            Cell::Dff => "dff",
            Cell::ClockedAnd => "clocked_and",
        }
    }

    /// Stable substream tag: part of every sample's RNG derivation.
    fn tag(self) -> u64 {
        match self {
            Cell::Jtl => 1,
            Cell::Dff => 2,
            Cell::ClockedAnd => 3,
        }
    }
}

/// The verdict of one Monte-Carlo sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Outcome {
    /// The perturbed cell passed its functional testbench.
    Pass,
    /// The cell simulated fine but misbehaved (wrong pulse counts).
    Fail,
    /// Every attempt errored (solver divergence or an injected
    /// non-convergence); no functional verdict exists.
    NonConvergent,
    /// The probe panicked; the harness absorbed it.
    Panicked,
}

/// Injected failures for exercising the harness itself: the listed
/// sample indices panic / refuse to converge instead of simulating.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Injection {
    /// Samples that panic on every attempt.
    pub panic_at: Vec<usize>,
    /// Samples that return a typed non-convergence on every attempt.
    pub non_convergent_at: Vec<usize>,
}

/// Harness options for one Monte-Carlo run.
#[derive(Debug, Clone)]
pub struct McOptions {
    /// Number of samples to draw.
    pub samples: u32,
    /// Extra attempts after a sample's first erroring transient.
    pub retries: u32,
    /// Persist the completed prefix every this many samples
    /// (0 disables checkpointing).
    pub checkpoint_every: u32,
    /// Where to persist / look for the checkpoint.
    pub checkpoint_path: Option<PathBuf>,
    /// Load a matching checkpoint and continue from its prefix.
    pub resume: bool,
    /// Injected failures (empty in production runs).
    pub injection: Injection,
}

impl McOptions {
    /// Plain run: `samples` draws, one retry, no checkpointing.
    pub fn new(samples: u32) -> Self {
        McOptions {
            samples,
            retries: 1,
            checkpoint_every: 0,
            checkpoint_path: None,
            resume: false,
            injection: Injection::default(),
        }
    }
}

/// One point of a yield curve: the outcome tally at a single σ.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct YieldPoint {
    /// Which cell was probed.
    pub cell: String,
    /// Relative variation σ applied to every parameter family.
    pub sigma: f64,
    /// Samples drawn.
    pub samples: u32,
    /// Functional passes.
    pub pass: u32,
    /// Functional failures (simulated fine, wrong behaviour).
    pub fail: u32,
    /// Samples with no verdict after the retry budget.
    pub non_convergent: u32,
    /// Samples whose probe panicked.
    pub panicked: u32,
}

impl YieldPoint {
    /// Fraction of samples that passed. Samples without a verdict
    /// (non-convergent, panicked) count against yield — a cell you
    /// could not certify is not a working cell.
    pub fn yield_fraction(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            f64::from(self.pass) / f64::from(self.samples)
        }
    }
}

/// Errors of the harness itself (never of an individual sample).
#[derive(Debug)]
pub enum FaultError {
    /// Options are unusable (e.g. checkpointing without a path).
    InvalidOptions {
        /// What is wrong.
        what: &'static str,
    },
    /// A checkpoint could not be read, written or trusted.
    Checkpoint {
        /// The offending path.
        path: PathBuf,
        /// Why.
        message: String,
    },
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultError::InvalidOptions { what } => write!(f, "invalid Monte-Carlo options: {what}"),
            FaultError::Checkpoint { path, message } => {
                write!(f, "checkpoint {}: {message}", path.display())
            }
        }
    }
}

impl std::error::Error for FaultError {}

/// Persisted completed prefix of one (cell, σ, seed, samples) run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Checkpoint {
    cell: String,
    /// `sigma.to_bits()` — exact, no float round-trip ambiguity.
    sigma_bits: u64,
    seed: u64,
    samples: u32,
    outcomes: Vec<Outcome>,
}

/// `faults.mc.samples`, then one `faults.mc.*` counter per [`Outcome`]
/// in declaration order: handles resolved once. They record
/// unconditionally, so callers check [`sfq_obs::enabled`] first.
fn mc_counters() -> &'static [&'static Counter; 5] {
    static C: OnceLock<[&'static Counter; 5]> = OnceLock::new();
    C.get_or_init(|| {
        ["samples", "pass", "fail", "non_convergent", "panicked"]
            .map(|n| sfq_obs::counter(&format!("faults.mc.{n}")))
    })
}

/// One functional testbench of a cell: build it from the perturbed
/// parameters, simulate to `t_end`, judge the pulses. A draw passes
/// when it passes every bench of its cell in order; it fails at the
/// first bench it fails, and later benches do not run.
struct Bench<P, Q> {
    build: fn(&P) -> (Circuit, Q),
    t_end: f64,
    passed: fn(&SimResult, &Q) -> bool,
}

/// JTL: one pulse in, one out per stage.
const JTL_BENCHES: [Bench<JtlParams, Vec<ElementId>>; 1] = [Bench {
    build: |p| jtl_chain(4, p),
    t_end: 200e-12,
    passed: |out, stages| stages.iter().all(|j| out.pulse_count(*j) == 1),
}];

/// DFF: stores and releases a data pulse, then a clock without data
/// stays silent.
const DFF_BENCHES: [Bench<DffParams, DffProbes>; 2] = [
    Bench {
        build: |p| dff(&[60e-12], &[100e-12], p),
        t_end: 160e-12,
        passed: |out, q| out.pulse_count(q.input) == 1 && out.pulse_count(q.output) == 1,
    },
    Bench {
        build: |p| dff(&[], &[100e-12], p),
        t_end: 160e-12,
        passed: |out, q| out.pulse_count(q.output) == 0,
    },
];

/// Clocked AND: fires with both inputs set, stays silent with one.
const AND_BENCHES: [Bench<AndParams, AndProbes>; 2] = [
    Bench {
        build: |p| clocked_and(&[60e-12], &[60e-12], &[100e-12], p),
        t_end: 170e-12,
        passed: |out, q| out.pulse_count(q.output) == 1,
    },
    Bench {
        build: |p| clocked_and(&[60e-12], &[], &[100e-12], p),
        t_end: 170e-12,
        passed: |out, q| out.pulse_count(q.output) == 0,
    },
];

/// The substream of one sample: depends only on its identity.
fn sample_rng(seed: u64, cell: Cell, sigma: f64, idx: usize) -> SplitMix64 {
    SplitMix64::substream(seed, &[cell.tag(), sigma.to_bits(), idx as u64])
}

/// Scalar verdict of one perturbed draw over its cell's benches.
fn run_benches<P, Q>(p: &P, benches: &[Bench<P, Q>]) -> Result<bool, SimError> {
    for b in benches {
        let (ckt, q) = (b.build)(p);
        let out = Solver::new(ckt, SimOptions::adaptive())?.try_run(b.t_end)?;
        if !(b.passed)(&out, &q) {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Functional probe of one perturbed cell draw. Pure in `(cell, σ,
/// rng-state)`; runs one or two short transients.
fn probe_cell(cell: Cell, sigma: f64, rng: &mut SplitMix64) -> Result<bool, SimError> {
    let v = Variation::uniform(sigma);
    match cell {
        Cell::Jtl => run_benches(&perturb_jtl(&JtlParams::default(), &v, rng), &JTL_BENCHES),
        Cell::Dff => run_benches(&perturb_dff(&DffParams::default(), &v, rng), &DFF_BENCHES),
        Cell::ClockedAnd => run_benches(&perturb_and(&AndParams::default(), &v, rng), &AND_BENCHES),
    }
}

/// Run one sample to a verdict (everything but panic isolation, which
/// the caller's `par_map_deadline` provides).
fn run_sample(cell: Cell, sigma: f64, seed: u64, idx: usize, opts: &McOptions) -> Outcome {
    if opts.injection.panic_at.contains(&idx) {
        panic!("injected fault: sample {idx} of {} probe", cell.name());
    }
    for attempt in 0..=opts.retries {
        if attempt > 0 {
            sfq_obs::inc("faults.mc.retries");
        }
        if opts.injection.non_convergent_at.contains(&idx) {
            continue; // injected: this sample never converges
        }
        // The substream depends only on the sample identity — not the
        // attempt — so a retry reruns the identical computation. The
        // budget exists for injected and environmental failures; a
        // deterministic solver error will simply exhaust it.
        match probe_cell(cell, sigma, &mut sample_rng(seed, cell, sigma, idx)) {
            Ok(true) => return Outcome::Pass,
            Ok(false) => return Outcome::Fail,
            Err(_) => {}
        }
    }
    Outcome::NonConvergent
}

/// Batched verdicts of one lane group: each bench runs as one
/// [`BatchedTransient`] over the lanes that passed every earlier bench,
/// in lane order. A lane whose transient errs (the batch already tried
/// it on the scalar golden path) is re-run through `scalar`, so its
/// retry accounting and final [`Outcome`] match the scalar path
/// exactly. `None` when a batch cannot even be built (e.g. a perturbed
/// instance fails validation): the group then takes the per-sample
/// scalar path.
fn batched_verdicts<P, Q>(
    idxs: &[usize],
    ps: &[P],
    benches: &[Bench<P, Q>],
    scalar: impl Fn(usize) -> Outcome,
) -> Option<Vec<Outcome>> {
    let mut verdict: Vec<Option<Outcome>> = vec![None; idxs.len()];
    let mut alive: Vec<usize> = (0..idxs.len()).collect();
    for b in benches {
        if alive.is_empty() {
            break;
        }
        let mut probes = None;
        let ckts: Vec<Circuit> = alive
            .iter()
            .map(|&slot| {
                let (c, q) = (b.build)(&ps[slot]);
                probes = Some(q);
                c
            })
            .collect();
        let probes = probes?;
        let batch = BatchedTransient::new(ckts, SimOptions::adaptive()).ok()?;
        let mut next = Vec::with_capacity(alive.len());
        for (&slot, r) in alive.iter().zip(batch.try_run(b.t_end)) {
            match r {
                Ok(out) if (b.passed)(&out, &probes) => next.push(slot),
                Ok(_) => verdict[slot] = Some(Outcome::Fail),
                Err(_) => verdict[slot] = Some(scalar(idxs[slot])),
            }
        }
        alive = next;
    }
    for slot in alive {
        verdict[slot] = Some(Outcome::Pass);
    }
    verdict.into_iter().collect()
}

/// Batched verdicts for a lane group of samples without injections
/// (see [`batched_verdicts`]).
fn probe_group_batched(
    cell: Cell,
    sigma: f64,
    seed: u64,
    idxs: &[usize],
    opts: &McOptions,
) -> Option<Vec<Outcome>> {
    let v = Variation::uniform(sigma);
    let rngs = idxs.iter().map(|&i| sample_rng(seed, cell, sigma, i));
    let scalar = |i: usize| run_sample(cell, sigma, seed, i, opts);
    match cell {
        Cell::Jtl => {
            let ps: Vec<JtlParams> = rngs
                .map(|mut r| perturb_jtl(&JtlParams::default(), &v, &mut r))
                .collect();
            batched_verdicts(idxs, &ps, &JTL_BENCHES, scalar)
        }
        Cell::Dff => {
            let ps: Vec<DffParams> = rngs
                .map(|mut r| perturb_dff(&DffParams::default(), &v, &mut r))
                .collect();
            batched_verdicts(idxs, &ps, &DFF_BENCHES, scalar)
        }
        Cell::ClockedAnd => {
            let ps: Vec<AndParams> = rngs
                .map(|mut r| perturb_and(&AndParams::default(), &v, &mut r))
                .collect();
            batched_verdicts(idxs, &ps, &AND_BENCHES, scalar)
        }
    }
}

/// Per-sample scalar outcomes with individual panic isolation — the
/// pre-batching behavior, used directly for injected groups and as the
/// fallback when a batched group cannot run.
fn scalar_group(
    cell: Cell,
    sigma: f64,
    seed: u64,
    idxs: &[usize],
    opts: &McOptions,
) -> Vec<Outcome> {
    let unlimited = sfq_guard::RunBudget::unlimited();
    sfq_par::par_map_deadline(idxs, &unlimited, |&i| {
        run_sample(cell, sigma, seed, i, opts)
    })
    .into_iter()
    // Only a panic (or a chaos-forced timeout) leaves a task
    // uncompleted under an unlimited budget.
    .map(|r| r.completed().unwrap_or(Outcome::Panicked))
    .collect()
}

/// One lane group of a Monte-Carlo chunk. Injected groups keep the
/// scalar path (injection exercises the per-sample harness, which is
/// exactly what must stay observable); clean groups run batched, with
/// any genuine panic demoting the whole group to the per-sample scalar
/// path so panic isolation still holds sample-by-sample.
fn run_group(cell: Cell, sigma: f64, seed: u64, idxs: &[usize], opts: &McOptions) -> Vec<Outcome> {
    let injected = idxs.iter().any(|i| {
        opts.injection.panic_at.contains(i) || opts.injection.non_convergent_at.contains(i)
    });
    if idxs.len() < 2 || injected {
        return scalar_group(cell, sigma, seed, idxs, opts);
    }
    let batched = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        probe_group_batched(cell, sigma, seed, idxs, opts)
    }));
    match batched {
        Ok(Some(outcomes)) => {
            sfq_obs::inc("faults.mc.batched_groups");
            outcomes
        }
        _ => scalar_group(cell, sigma, seed, idxs, opts),
    }
}

fn checkpoint_error(path: &Path, e: &CheckpointError) -> FaultError {
    FaultError::Checkpoint {
        path: path.to_path_buf(),
        message: e.to_string(),
    }
}

fn load_checkpoint(
    path: &Path,
    cell: Cell,
    sigma: f64,
    seed: u64,
    samples: u32,
) -> Result<Vec<Outcome>, FaultError> {
    // A missing checkpoint is a cold start, not an error.
    let Some(cp) =
        checkpoint::load_json::<Checkpoint>(path).map_err(|e| checkpoint_error(path, &e))?
    else {
        return Ok(Vec::new());
    };
    let matches = cp.cell == cell.name()
        && cp.sigma_bits == sigma.to_bits()
        && cp.seed == seed
        && cp.samples == samples
        && cp.outcomes.len() <= samples as usize;
    if !matches {
        return Err(FaultError::Checkpoint {
            path: path.to_path_buf(),
            message: "checkpoint does not match this run's (cell, sigma, seed, samples)".into(),
        });
    }
    Ok(cp.outcomes)
}

fn write_checkpoint(
    path: &Path,
    cell: Cell,
    sigma: f64,
    seed: u64,
    samples: u32,
    outcomes: &[Outcome],
) -> Result<(), FaultError> {
    let cp = Checkpoint {
        cell: cell.name().to_owned(),
        sigma_bits: sigma.to_bits(),
        seed,
        samples,
        outcomes: outcomes.to_vec(),
    };
    // Atomic persistence (temp sibling + fsync + rename): a crash
    // mid-write can never leave a torn checkpoint where the old one
    // stood — the file either still holds the previous prefix or
    // already holds the new one, both resumable.
    checkpoint::atomic_write_json(path, &cp).map_err(|e| checkpoint_error(path, &e))?;
    sfq_obs::inc("faults.mc.checkpoints");
    Ok(())
}

/// Advance every σ of `sigmas` to `opts.samples` outcomes, round by
/// round: each round gives every σ whose prefix is still short its next
/// chunk, `[len, min(len + chunk, n))`, cut into lane groups, and runs
/// all (σ, group) tasks of the round in **one** `par_map_deadline`
/// region; then every σ that advanced persists its prefix to
/// `paths[k]`. Every checkpoint is loaded before any work, so a
/// foreign one fails the call before any σ runs.
fn run_rounds(
    cell: Cell,
    sigmas: &[f64],
    paths: &[Option<PathBuf>],
    seed: u64,
    opts: &McOptions,
) -> Result<Vec<Vec<Outcome>>, FaultError> {
    if opts.checkpoint_every > 0 && opts.checkpoint_path.is_none() {
        return Err(FaultError::InvalidOptions {
            what: "checkpoint_every > 0 requires checkpoint_path",
        });
    }
    let n = opts.samples as usize;
    let mut runs: Vec<Vec<Outcome>> = sigmas
        .iter()
        .zip(paths)
        .map(|(&sigma, path)| match (path, opts.resume) {
            (Some(p), true) => load_checkpoint(p, cell, sigma, seed, opts.samples),
            _ => Ok(Vec::new()),
        })
        .collect::<Result<_, _>>()?;

    let chunk = if opts.checkpoint_every == 0 {
        n.max(1)
    } else {
        opts.checkpoint_every as usize
    };
    let width = jjsim::batch_width();
    let unlimited = sfq_guard::RunBudget::unlimited();
    loop {
        let pending: Vec<usize> = (0..runs.len()).filter(|&k| runs[k].len() < n).collect();
        if pending.is_empty() {
            return Ok(runs);
        }
        // Lane groups keyed on the *absolute* sample index, so a
        // resumed run regroups exactly like an uninterrupted one. With
        // batching off every group is one sample, which `run_group`
        // sends down the per-sample scalar path.
        let tasks: Vec<(usize, Vec<usize>)> = pending
            .iter()
            .flat_map(|&k| {
                let start = runs[k].len();
                sfq_par::lane_groups(start, (start + chunk).min(n), width)
                    .into_iter()
                    .map(move |g| (k, g.collect()))
            })
            .collect();
        let per_group = sfq_par::par_map_deadline(&tasks, &unlimited, |(k, g)| {
            run_group(cell, sigmas[*k], seed, g, opts)
        });
        let counters = sfq_obs::enabled().then(mc_counters);
        for ((k, g), r) in tasks.iter().zip(per_group) {
            let outcomes = match r {
                TaskOutcome::Completed(outs) => outs,
                // A panic in the group *bookkeeping* (the probes
                // themselves are already contained): redo this group
                // sample-by-sample with panic isolation.
                _ => scalar_group(cell, sigmas[*k], seed, g, opts),
            };
            if let Some(c) = counters {
                c[0].add(outcomes.len() as u64);
                for &o in &outcomes {
                    c[1 + o as usize].inc();
                }
            }
            runs[*k].extend(outcomes);
        }
        if opts.checkpoint_every > 0 {
            for &k in &pending {
                if let Some(p) = &paths[k] {
                    write_checkpoint(p, cell, sigmas[k], seed, opts.samples, &runs[k])?;
                }
            }
        }
    }
}

/// Raw per-sample outcomes of one Monte-Carlo run (the basis of
/// [`estimate_yield`]; exposed so tests and the interrupted-resume
/// demo can compare runs sample-by-sample).
///
/// # Errors
///
/// Returns [`FaultError`] for unusable options or checkpoint trouble.
/// Individual sample failures are *outcomes*, not errors.
pub fn run_outcomes(
    cell: Cell,
    sigma: f64,
    seed: u64,
    opts: &McOptions,
) -> Result<Vec<Outcome>, FaultError> {
    let paths = std::slice::from_ref(&opts.checkpoint_path);
    let mut runs = run_rounds(cell, &[sigma], paths, seed, opts)?;
    Ok(runs.pop().unwrap_or_default())
}

/// The yield point at one σ from its outcomes.
fn tally(cell: Cell, sigma: f64, samples: u32, outcomes: &[Outcome]) -> YieldPoint {
    let mut point = YieldPoint {
        cell: cell.name().to_owned(),
        sigma,
        samples,
        pass: 0,
        fail: 0,
        non_convergent: 0,
        panicked: 0,
    };
    for o in outcomes {
        match o {
            Outcome::Pass => point.pass += 1,
            Outcome::Fail => point.fail += 1,
            Outcome::NonConvergent => point.non_convergent += 1,
            Outcome::Panicked => point.panicked += 1,
        }
    }
    point
}

/// Tally of [`run_outcomes`]: the yield point at one σ.
///
/// # Errors
///
/// Returns [`FaultError`] for unusable options or checkpoint trouble.
pub fn estimate_yield(
    cell: Cell,
    sigma: f64,
    seed: u64,
    opts: &McOptions,
) -> Result<YieldPoint, FaultError> {
    let outcomes = run_outcomes(cell, sigma, seed, opts)?;
    Ok(tally(cell, sigma, opts.samples, &outcomes))
}

/// Yield curve: one [`YieldPoint`] per σ, equal to [`estimate_yield`]
/// at each σ, with all σ run at once. When checkpointing is on, each σ
/// gets its own file (the configured path with the σ bits appended),
/// written round by round across σ, so an interrupted sweep loses at
/// most one chunk per point.
///
/// # Errors
///
/// Returns the first harness-level [`FaultError`]; a foreign checkpoint
/// on any σ fails the curve before any σ runs.
pub fn yield_curve(
    cell: Cell,
    sigmas: &[f64],
    seed: u64,
    opts: &McOptions,
) -> Result<Vec<YieldPoint>, FaultError> {
    let paths: Vec<Option<PathBuf>> = sigmas
        .iter()
        .map(|sigma| {
            opts.checkpoint_path.as_ref().map(|base| {
                let mut name = base.as_os_str().to_owned();
                name.push(format!(".s{:016x}", sigma.to_bits()));
                PathBuf::from(name)
            })
        })
        .collect();
    let runs = run_rounds(cell, sigmas, &paths, seed, opts)?;
    Ok(sigmas
        .iter()
        .zip(runs)
        .map(|(&sigma, outcomes)| tally(cell, sigma, opts.samples, &outcomes))
        .collect())
}
