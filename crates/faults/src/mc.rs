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

use std::path::{Path, PathBuf};

use jjsim::stdlib::{clocked_and, dff, jtl_chain, AndParams, DffParams, JtlParams};
use jjsim::{BatchedTransient, Circuit, SimError, SimOptions, SimResult, Solver};
use serde::{Deserialize, Serialize};
use sfq_guard::checkpoint::{self, CheckpointError};
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

/// Functional probe of one perturbed cell draw. Pure in `(cell, σ,
/// rng-state)`; runs one or two short transients.
fn probe_cell(cell: Cell, sigma: f64, rng: &mut SplitMix64) -> Result<bool, SimError> {
    let v = Variation::uniform(sigma);
    match cell {
        Cell::Jtl => {
            let p = perturb_jtl(&JtlParams::default(), &v, rng);
            let (ckt, stages) = jtl_chain(4, &p);
            let out = Solver::new(ckt, SimOptions::adaptive())?.try_run(200e-12)?;
            Ok(stages.iter().all(|j| out.pulse_count(*j) == 1))
        }
        Cell::Dff => {
            let p = perturb_dff(&DffParams::default(), &v, rng);
            let (ckt, probes) = dff(&[60e-12], &[100e-12], &p);
            let out = Solver::new(ckt, SimOptions::adaptive())?.try_run(160e-12)?;
            let stores = out.pulse_count(probes.input) == 1 && out.pulse_count(probes.output) == 1;
            if !stores {
                return Ok(false);
            }
            let (ckt, probes) = dff(&[], &[100e-12], &p);
            let out = Solver::new(ckt, SimOptions::adaptive())?.try_run(160e-12)?;
            Ok(out.pulse_count(probes.output) == 0)
        }
        Cell::ClockedAnd => {
            let p = perturb_and(&AndParams::default(), &v, rng);
            let (ckt, probes) = clocked_and(&[60e-12], &[60e-12], &[100e-12], &p);
            let out = Solver::new(ckt, SimOptions::adaptive())?.try_run(170e-12)?;
            let fires = out.pulse_count(probes.output) == 1;
            if !fires {
                return Ok(false);
            }
            let (ckt, probes) = clocked_and(&[60e-12], &[], &[100e-12], &p);
            let out = Solver::new(ckt, SimOptions::adaptive())?.try_run(170e-12)?;
            Ok(out.pulse_count(probes.output) == 0)
        }
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
        let mut rng = SplitMix64::substream(seed, &[cell.tag(), sigma.to_bits(), idx as u64]);
        match probe_cell(cell, sigma, &mut rng) {
            Ok(true) => return Outcome::Pass,
            Ok(false) => return Outcome::Fail,
            Err(_) => {}
        }
    }
    Outcome::NonConvergent
}

/// Batched transient for one phase of a group's testbenches: `None`
/// when the batch could not even be constructed (e.g. a perturbed
/// instance fails validation — rare, handled by the scalar path),
/// otherwise per-instance results where an `Err` lane already fell
/// back to the scalar golden path inside
/// [`BatchedTransient::try_run`].
fn batch_phase(ckts: Vec<Circuit>, t_end: f64) -> Option<Vec<Result<SimResult, SimError>>> {
    let batch = BatchedTransient::new(ckts, SimOptions::adaptive()).ok()?;
    Some(batch.try_run(t_end))
}

/// Batched verdicts for a lane group of samples without injections.
/// Returns `None` when the group has to take the per-sample scalar
/// path instead (batch construction failed). Individual erroring
/// samples are re-run through [`run_sample`] so the retry accounting
/// and final [`Outcome`] match the scalar path exactly.
#[allow(clippy::too_many_lines)]
fn probe_group_batched(
    cell: Cell,
    sigma: f64,
    seed: u64,
    idxs: &[usize],
    opts: &McOptions,
) -> Option<Vec<Outcome>> {
    let v = Variation::uniform(sigma);
    let rng_for = |i: usize| SplitMix64::substream(seed, &[cell.tag(), sigma.to_bits(), i as u64]);
    let scalar = |i: usize| run_sample(cell, sigma, seed, i, opts);
    match cell {
        Cell::Jtl => {
            let ps: Vec<JtlParams> = idxs
                .iter()
                .map(|&i| perturb_jtl(&JtlParams::default(), &v, &mut rng_for(i)))
                .collect();
            let mut stages = Vec::new();
            let ckts: Vec<Circuit> = ps
                .iter()
                .map(|p| {
                    let (c, s) = jtl_chain(4, p);
                    stages = s;
                    c
                })
                .collect();
            let runs = batch_phase(ckts, 200e-12)?;
            Some(
                idxs.iter()
                    .zip(runs)
                    .map(|(&i, r)| match r {
                        Ok(out) => {
                            if stages.iter().all(|j| out.pulse_count(*j) == 1) {
                                Outcome::Pass
                            } else {
                                Outcome::Fail
                            }
                        }
                        Err(_) => scalar(i),
                    })
                    .collect(),
            )
        }
        Cell::Dff => {
            let ps: Vec<DffParams> = idxs
                .iter()
                .map(|&i| perturb_dff(&DffParams::default(), &v, &mut rng_for(i)))
                .collect();
            let mut probes = None;
            let ckts: Vec<Circuit> = ps
                .iter()
                .map(|p| {
                    let (c, pr) = dff(&[60e-12], &[100e-12], p);
                    probes = Some(pr);
                    c
                })
                .collect();
            let probes = probes?;
            let runs = batch_phase(ckts, 160e-12)?;
            // Samples that store correctly advance to the silent-clock
            // bench; the rest already have their verdict.
            let mut verdict: Vec<Option<Outcome>> = Vec::with_capacity(idxs.len());
            let mut second: Vec<usize> = Vec::new();
            for (slot, (&i, r)) in idxs.iter().zip(runs).enumerate() {
                match r {
                    Ok(out) => {
                        let stores = out.pulse_count(probes.input) == 1
                            && out.pulse_count(probes.output) == 1;
                        if stores {
                            verdict.push(None);
                            second.push(slot);
                        } else {
                            verdict.push(Some(Outcome::Fail));
                        }
                    }
                    Err(_) => verdict.push(Some(scalar(i))),
                }
            }
            if !second.is_empty() {
                let mut probes2 = None;
                let ckts2: Vec<Circuit> = second
                    .iter()
                    .map(|&slot| {
                        let (c, pr) = dff(&[], &[100e-12], &ps[slot]);
                        probes2 = Some(pr);
                        c
                    })
                    .collect();
                let probes2 = probes2?;
                let runs2 = batch_phase(ckts2, 160e-12)?;
                for (&slot, r) in second.iter().zip(runs2) {
                    verdict[slot] = Some(match r {
                        Ok(out) => {
                            if out.pulse_count(probes2.output) == 0 {
                                Outcome::Pass
                            } else {
                                Outcome::Fail
                            }
                        }
                        Err(_) => scalar(idxs[slot]),
                    });
                }
            }
            verdict.into_iter().collect()
        }
        Cell::ClockedAnd => {
            let ps: Vec<AndParams> = idxs
                .iter()
                .map(|&i| perturb_and(&AndParams::default(), &v, &mut rng_for(i)))
                .collect();
            let mut probes = None;
            let ckts: Vec<Circuit> = ps
                .iter()
                .map(|p| {
                    let (c, pr) = clocked_and(&[60e-12], &[60e-12], &[100e-12], p);
                    probes = Some(pr);
                    c
                })
                .collect();
            let probes = probes?;
            let runs = batch_phase(ckts, 170e-12)?;
            let mut verdict: Vec<Option<Outcome>> = Vec::with_capacity(idxs.len());
            let mut second: Vec<usize> = Vec::new();
            for (slot, (&i, r)) in idxs.iter().zip(runs).enumerate() {
                match r {
                    Ok(out) => {
                        if out.pulse_count(probes.output) == 1 {
                            verdict.push(None);
                            second.push(slot);
                        } else {
                            verdict.push(Some(Outcome::Fail));
                        }
                    }
                    Err(_) => verdict.push(Some(scalar(i))),
                }
            }
            if !second.is_empty() {
                let mut probes2 = None;
                let ckts2: Vec<Circuit> = second
                    .iter()
                    .map(|&slot| {
                        let (c, pr) = clocked_and(&[60e-12], &[], &[100e-12], &ps[slot]);
                        probes2 = Some(pr);
                        c
                    })
                    .collect();
                let probes2 = probes2?;
                let runs2 = batch_phase(ckts2, 170e-12)?;
                for (&slot, r) in second.iter().zip(runs2) {
                    verdict[slot] = Some(match r {
                        Ok(out) => {
                            if out.pulse_count(probes2.output) == 0 {
                                Outcome::Pass
                            } else {
                                Outcome::Fail
                            }
                        }
                        Err(_) => scalar(idxs[slot]),
                    });
                }
            }
            verdict.into_iter().collect()
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
    if opts.checkpoint_every > 0 && opts.checkpoint_path.is_none() {
        return Err(FaultError::InvalidOptions {
            what: "checkpoint_every > 0 requires checkpoint_path",
        });
    }
    let n = opts.samples as usize;
    let mut outcomes: Vec<Outcome> = match (&opts.checkpoint_path, opts.resume) {
        (Some(p), true) => load_checkpoint(p, cell, sigma, seed, opts.samples)?,
        _ => Vec::new(),
    };
    outcomes.truncate(n);

    let chunk = if opts.checkpoint_every == 0 {
        n.max(1)
    } else {
        opts.checkpoint_every as usize
    };

    while outcomes.len() < n {
        let start = outcomes.len();
        let end = (start + chunk).min(n);
        let width = jjsim::batch_width();
        let results: Vec<Outcome> = if width < 2 {
            // Batching disabled: the historical per-sample path.
            let idxs: Vec<usize> = (start..end).collect();
            scalar_group(cell, sigma, seed, &idxs, opts)
        } else {
            // Lane groups keyed on the *absolute* sample index, so a
            // resumed run regroups exactly like an uninterrupted one.
            let groups: Vec<Vec<usize>> = sfq_par::lane_groups(start, end, width)
                .into_iter()
                .map(|r| r.collect())
                .collect();
            let unlimited = sfq_guard::RunBudget::unlimited();
            let per_group = sfq_par::par_map_deadline(&groups, &unlimited, |g| {
                run_group(cell, sigma, seed, g, opts)
            });
            groups
                .iter()
                .zip(per_group)
                .flat_map(|(g, r)| match r {
                    TaskOutcome::Completed(outs) => outs,
                    // A panic in the group *bookkeeping* (the probes
                    // themselves are already contained): redo this
                    // group sample-by-sample with panic isolation.
                    _ => scalar_group(cell, sigma, seed, g, opts),
                })
                .collect()
        };
        for outcome in results {
            if sfq_obs::enabled() {
                sfq_obs::inc("faults.mc.samples");
                sfq_obs::inc(match outcome {
                    Outcome::Pass => "faults.mc.pass",
                    Outcome::Fail => "faults.mc.fail",
                    Outcome::NonConvergent => "faults.mc.non_convergent",
                    Outcome::Panicked => "faults.mc.panicked",
                });
            }
            outcomes.push(outcome);
        }
        if opts.checkpoint_every > 0 {
            if let Some(p) = &opts.checkpoint_path {
                write_checkpoint(p, cell, sigma, seed, opts.samples, &outcomes)?;
            }
        }
    }
    Ok(outcomes)
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
    let mut point = YieldPoint {
        cell: cell.name().to_owned(),
        sigma,
        samples: opts.samples,
        pass: 0,
        fail: 0,
        non_convergent: 0,
        panicked: 0,
    };
    for o in &outcomes {
        match o {
            Outcome::Pass => point.pass += 1,
            Outcome::Fail => point.fail += 1,
            Outcome::NonConvergent => point.non_convergent += 1,
            Outcome::Panicked => point.panicked += 1,
        }
    }
    Ok(point)
}

/// Yield curve: one [`YieldPoint`] per σ. When checkpointing is on,
/// each σ gets its own file (the configured path with the σ bits
/// appended) so interrupting a sweep loses at most one chunk of one
/// point.
///
/// # Errors
///
/// Returns the first harness-level [`FaultError`].
pub fn yield_curve(
    cell: Cell,
    sigmas: &[f64],
    seed: u64,
    opts: &McOptions,
) -> Result<Vec<YieldPoint>, FaultError> {
    let mut points = Vec::with_capacity(sigmas.len());
    for &sigma in sigmas {
        let mut per_sigma = opts.clone();
        if let Some(base) = &opts.checkpoint_path {
            let mut name = base.as_os_str().to_owned();
            name.push(format!(".s{:016x}", sigma.to_bits()));
            per_sigma.checkpoint_path = Some(PathBuf::from(name));
        }
        points.push(estimate_yield(cell, sigma, seed, &per_sigma)?);
    }
    Ok(points)
}
