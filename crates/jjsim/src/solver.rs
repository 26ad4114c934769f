//! Transient MNA solver with trapezoidal integration and per-step
//! Newton iteration.
//!
//! Two stepping modes (see [`StepControl`]):
//!
//! * **Fixed** — the classic march at `SimOptions::dt`. This is the
//!   default and is bit-identical to the solver the workspace has
//!   always shipped.
//! * **Adaptive** — a local-truncation-error controller grows the step
//!   up to `dt_max` while the circuit is quiescent and shrinks it back
//!   to `dt_min` around events. An SFQ waveform is flat almost
//!   everywhere outside ~2 ps pulse windows, so this cuts step counts
//!   by an order of magnitude on the stdlib cells while keeping pulse
//!   counts identical and pulse times within a fraction of a
//!   picosecond (see `BENCH_solver.json`).
//!
//! The adaptive controller combines three refinement triggers:
//!
//! 1. **LTE rejection** — each converged step is compared against a
//!    linear extrapolation of the two previous accepted node-voltage
//!    vectors; a deviation above `lte_tol` rejects the step, rolls the
//!    state back and retries at half the step.
//! 2. **Phase-rate refinement** — if any junction phase moved more
//!    than [`PHASE_MAX_STEP`] radians in one step (a pulse in flight),
//!    the step is rejected and refined so switching events are always
//!    resolved at `dt_min` granularity.
//! 3. **Source-event refinement** — source waveforms publish
//!    [`crate::Waveform::refinement_windows`]; the controller never
//!    steps *across* a window start and caps the step inside a window,
//!    so a large quiescent step cannot jump over a trigger pulse the
//!    LTE estimator has no way of seeing.
//!
//! The banded-LU fast path survives adaptation: the factored matrix
//! (and the one-time linear-element stamp) is invalidated only when
//! the step size actually changes, and the controller grows/shrinks
//! `dt` in ×2 plateaus so chord-Newton reuse keeps paying off between
//! events.

use std::f64::consts::PI;
use std::sync::OnceLock;
use std::time::Instant;

use crate::circuit::Circuit;
use crate::error::SimError;
use crate::linalg::{band_width, factor_banded_packed, solve_dense, solve_factored_packed};
use crate::{ElementId, PHI0};

/// Pre-resolved matrix positions of one two-terminal element's
/// conductance stamp: the two diagonal entries and the symmetric
/// off-diagonal pair. `usize::MAX` marks a terminal on ground (no
/// matrix row). Resolving these once per run — in packed-band or
/// dense layout — turns every re-stamp into a branch-light replay
/// over flat index quadruples.
#[derive(Clone, Copy)]
struct StampIdx {
    da: usize,
    db: usize,
    ab: usize,
    ba: usize,
}

/// Add conductance `g` at the positions of `s`, in the same entry
/// order as the historical node-number stamp (diagonal a, diagonal b,
/// then the off-diagonal pair) so accumulated values are bit-identical.
#[inline]
fn apply_stamp(m: &mut [f64], s: StampIdx, g: f64) {
    if s.da != usize::MAX {
        m[s.da] += g;
    }
    if s.db != usize::MAX {
        m[s.db] += g;
    }
    if s.ab != usize::MAX {
        m[s.ab] -= g;
        m[s.ba] -= g;
    }
}

/// The always-on `jjsim.solver.transient_runs` counter: every
/// [`Solver::try_run`] call increments it, metrics enabled or not,
/// exactly like the ad-hoc static it replaced. Lets characterization
/// caches prove, in tests, that a repeated request performed no new
/// transient work.
fn transient_counter() -> &'static sfq_obs::Counter {
    static C: OnceLock<&'static sfq_obs::Counter> = OnceLock::new();
    C.get_or_init(|| sfq_obs::counter("jjsim.solver.transient_runs"))
}

/// Number of transient analyses started by this process so far.
///
/// Deprecated alias: this is now a thin wrapper over the
/// `jjsim.solver.transient_runs` counter in the [`sfq_obs`] registry;
/// prefer `sfq_obs::counter("jjsim.solver.transient_runs").get()` (or
/// [`sfq_obs::snapshot`]) in new code.
pub fn transient_runs() -> u64 {
    transient_counter().get()
}

/// Largest per-step junction phase advance the adaptive controller
/// accepts before rejecting and refining, radians. A 2π slip takes
/// ~2–4 ps, so this pins the step near `dt_min` for the whole flight
/// of a pulse — the same resolution the fixed 0.1 ps march gives it.
const PHASE_MAX_STEP: f64 = 0.35;

/// Phase advance below which a step counts toward growing the
/// plateau, radians: the step only doubles while every junction is
/// essentially static.
const PHASE_SLOW: f64 = 0.05;

/// Accepted steps (quiet on both the LTE and phase criteria) required
/// before the plateau doubles. Amortizes the LU refactorization a
/// step-size change forces.
const GROW_AFTER: u32 = 4;

/// Fraction of `lte_tol` a step must stay under to count toward
/// growth.
const GROW_MARGIN: f64 = 0.3;

/// Per-run metric accumulators, flushed into the [`sfq_obs`] registry
/// in one batch at every exit of [`Solver::try_run`]. The counters are
/// plain locals while the run is in flight, so the per-iteration cost
/// is a register increment whether metrics are on or off; the flush
/// itself is gated on [`sfq_obs::enabled`].
#[derive(Default)]
struct RunMetrics {
    started: Option<Instant>,
    steps: u64,
    newton_iters: u64,
    lu_factor: u64,
    lu_reuse: u64,
    dense_solves: u64,
    reject_lte: u64,
    reject_phase: u64,
    reject_newton: u64,
    refine_source: u64,
    restamps: u64,
}

impl RunMetrics {
    fn start() -> Self {
        RunMetrics {
            started: sfq_obs::enabled().then(Instant::now),
            ..Self::default()
        }
    }

    fn rejected(&self) -> u64 {
        self.reject_lte + self.reject_phase + self.reject_newton
    }

    fn flush(&self, error: Option<&SimError>) {
        if !sfq_obs::enabled() {
            return;
        }
        sfq_obs::add("jjsim.solver.steps", self.steps);
        sfq_obs::add("jjsim.solver.newton_iters", self.newton_iters);
        sfq_obs::add("jjsim.solver.lu_factor", self.lu_factor);
        sfq_obs::add("jjsim.solver.lu_reuse", self.lu_reuse);
        sfq_obs::add("jjsim.solver.dense_solves", self.dense_solves);
        sfq_obs::add("jjsim.solver.steps_rejected", self.rejected());
        sfq_obs::add("jjsim.solver.reject_lte", self.reject_lte);
        sfq_obs::add("jjsim.solver.reject_phase", self.reject_phase);
        sfq_obs::add("jjsim.solver.reject_newton", self.reject_newton);
        sfq_obs::add("jjsim.solver.refine_source", self.refine_source);
        sfq_obs::add("jjsim.solver.restamps", self.restamps);
        match error {
            Some(SimError::NoConvergence { .. }) => {
                sfq_obs::inc("jjsim.solver.convergence_failures");
            }
            Some(SimError::SingularMatrix { .. }) => {
                sfq_obs::inc("jjsim.solver.singular_matrix");
            }
            _ => {}
        }
        if let Some(t0) = self.started {
            sfq_obs::observe("jjsim.solver.run_ms", t0.elapsed().as_secs_f64() * 1e3);
        }
    }
}

/// Kernel slots of [`KernelProf`], in stamp order.
const K_RESTAMP: usize = 0;
const K_STAMP: usize = 1;
const K_JJ_STAMP_RHS: usize = 2;
const K_LU_FACTOR: usize = 3;
const K_LU_SOLVE: usize = 4;
const K_DENSE_SOLVE: usize = 5;
const K_NEWTON: usize = 6;
const K_LTE: usize = 7;
const K_COMMIT: usize = 8;
const K_SLOTS: usize = 9;

/// Per-run kernel-time accumulators for the hierarchical profiler,
/// merged under the open `solver.run` frame in one batch at every exit
/// of [`Solver::try_run`] — the same local-accumulate/flush-once
/// pattern as [`RunMetrics`], so the per-iteration cost with profiling
/// off is a branch on a cached bool. Sections share boundary
/// timestamps ([`KernelProf::lap`] ends one section and starts the
/// next with a single clock read), so consecutive kernels leave no
/// unattributed gap between them — that is what keeps profiled
/// self-time coverage of `solver.run` above the bench gate's floor.
struct KernelProf {
    on: bool,
    mark: Instant,
    ns: [u64; K_SLOTS],
}

impl KernelProf {
    fn start() -> Self {
        KernelProf {
            on: sfq_obs::prof::enabled(),
            mark: Instant::now(),
            ns: [0; K_SLOTS],
        }
    }

    /// Start a section at the current time.
    #[inline]
    fn mark(&mut self) {
        if self.on {
            self.mark = Instant::now();
        }
    }

    /// Close the current section into `slot` and start the next one.
    #[inline]
    fn lap(&mut self, slot: usize) {
        if self.on {
            let now = Instant::now();
            #[allow(clippy::cast_possible_truncation)]
            {
                self.ns[slot] += (now - self.mark).as_nanos() as u64;
            }
            self.mark = now;
        }
    }

    /// Merge the accumulated kernel times under the innermost open
    /// profile frame (`solver.run`) and attach the run's unit
    /// counters. `newton`'s children carry their own self time, so its
    /// own self is only the convergence-check remainder.
    fn flush(&self, m: &RunMetrics) {
        if !self.on {
            return;
        }
        use sfq_obs::prof;
        let attempts = m.steps + m.rejected();
        let newton_children = self.ns[K_JJ_STAMP_RHS]
            + self.ns[K_LU_FACTOR]
            + self.ns[K_LU_SOLVE]
            + self.ns[K_DENSE_SOLVE];
        let merge = |path: &[&str], calls: u64, incl: u64, self_ns: u64| {
            if calls > 0 || incl > 0 {
                prof::record_path(path, calls, incl, self_ns);
            }
        };
        merge(
            &["restamp"],
            m.restamps,
            self.ns[K_RESTAMP],
            self.ns[K_RESTAMP],
        );
        merge(&["stamp"], attempts, self.ns[K_STAMP], self.ns[K_STAMP]);
        merge(
            &["newton"],
            m.newton_iters,
            newton_children + self.ns[K_NEWTON],
            self.ns[K_NEWTON],
        );
        merge(
            &["newton", "jj_stamp_rhs"],
            m.newton_iters,
            self.ns[K_JJ_STAMP_RHS],
            self.ns[K_JJ_STAMP_RHS],
        );
        merge(
            &["newton", "lu_factor"],
            m.lu_factor,
            self.ns[K_LU_FACTOR],
            self.ns[K_LU_FACTOR],
        );
        merge(
            &["newton", "lu_solve"],
            m.lu_factor + m.lu_reuse,
            self.ns[K_LU_SOLVE],
            self.ns[K_LU_SOLVE],
        );
        merge(
            &["newton", "dense_solve"],
            m.dense_solves,
            self.ns[K_DENSE_SOLVE],
            self.ns[K_DENSE_SOLVE],
        );
        merge(&["lte_control"], attempts, self.ns[K_LTE], self.ns[K_LTE]);
        merge(&["commit"], m.steps, self.ns[K_COMMIT], self.ns[K_COMMIT]);
        prof::count("steps", m.steps);
        prof::count("newton_iters", m.newton_iters);
        prof::count("lu_factor", m.lu_factor);
        prof::count("lu_reuse", m.lu_reuse);
        prof::count("steps_rejected", m.rejected());
    }
}

/// Timestep policy of a transient run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum StepControl {
    /// March at the fixed `SimOptions::dt`. The default; results are
    /// bit-identical to the historical fixed-step solver.
    #[default]
    Fixed,
    /// Local-truncation-error controlled stepping with event-aware
    /// refinement. The step starts at `dt_min`, doubles (up to
    /// `dt_max`) after a streak of quiet accepted steps, and halves
    /// back toward `dt_min` whenever the LTE estimate exceeds
    /// `lte_tol`, a junction phase moves fast, Newton fails to
    /// converge, or a source waveform has an edge inside the step.
    Adaptive {
        /// Smallest step taken, seconds. Pulses are resolved at this
        /// granularity; matching the fixed-mode `dt` (0.1 ps) keeps
        /// adaptive pulse times within a fraction of a picosecond of
        /// fixed-step results.
        dt_min: f64,
        /// Largest step taken during quiescent intervals, seconds.
        dt_max: f64,
        /// Local-truncation-error tolerance on node voltages, volts:
        /// the maximum deviation of a step from the linear
        /// extrapolation of the previous two accepted solutions.
        lte_tol: f64,
    },
}

/// Solver options.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOptions {
    /// Timestep in seconds (default 0.1 ps — SFQ pulses are ~2 ps wide
    /// so this resolves them comfortably). Used directly by
    /// [`StepControl::Fixed`]; ignored in adaptive mode.
    pub dt: f64,
    /// Absolute Newton convergence tolerance on node voltages, volts.
    pub tol_v: f64,
    /// Maximum Newton iterations per step.
    pub max_newton: usize,
    /// Nodes whose voltage traces should be recorded (empty = none).
    pub record_nodes: Vec<crate::NodeId>,
    /// Timestep policy (default [`StepControl::Fixed`], so existing
    /// callers keep bit-identical results).
    pub step: StepControl,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            dt: 0.1e-12,
            tol_v: 1.0e-9,
            max_newton: 50,
            record_nodes: Vec::new(),
            step: StepControl::Fixed,
        }
    }
}

impl SimOptions {
    /// The workspace's standard adaptive configuration: `dt_min` equal
    /// to the fixed-mode default step (0.1 ps) so events are resolved
    /// at the same granularity, `dt_max` 20× larger for quiescent
    /// intervals, and a 1 µV LTE tolerance (SFQ pulse peaks are a few
    /// hundred µV).
    pub fn adaptive() -> Self {
        SimOptions {
            step: StepControl::Adaptive {
                dt_min: 0.1e-12,
                dt_max: 2.0e-12,
                lte_tol: 1.0e-6,
            },
            ..Default::default()
        }
    }
}

/// A refinement interval on the simulated time axis, merged from the
/// source waveforms' [`crate::Waveform::refinement_windows`].
#[derive(Debug, Clone, Copy)]
struct Window {
    start: f64,
    end: f64,
    /// Largest step allowed while inside the window.
    cap: f64,
}

/// Collect, sort and merge the refinement windows of every source.
fn merge_windows(ckt: &Circuit) -> Vec<Window> {
    let mut raw: Vec<Window> = Vec::new();
    for s in &ckt.sources {
        for (start, end, cap) in s.waveform.refinement_windows() {
            if end > 0.0 {
                raw.push(Window { start, end, cap });
            }
        }
    }
    raw.sort_by(|a, b| a.start.total_cmp(&b.start));
    let mut merged: Vec<Window> = Vec::with_capacity(raw.len());
    for w in raw {
        match merged.last_mut() {
            Some(last) if w.start <= last.end => {
                last.end = last.end.max(w.end);
                last.cap = last.cap.min(w.cap);
            }
            _ => merged.push(w),
        }
    }
    merged
}

/// Result of a transient run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Base timestep of the run: `SimOptions::dt` in fixed mode, the
    /// controller's `dt_min` in adaptive mode.
    pub dt: f64,
    /// Final simulation time.
    pub t_end: f64,
    pub(crate) pulse_times: Vec<Vec<f64>>,
    pub(crate) final_phases: Vec<f64>,
    /// Total energy dissipated in all resistive elements, joules.
    pub dissipated_j: f64,
    /// Energy dissipated per junction shunt, joules (indexed like the
    /// circuit's junctions).
    pub jj_dissipated_j: Vec<f64>,
    /// Recorded voltage traces, parallel to `SimOptions::record_nodes`;
    /// one sample per accepted timestep. In adaptive mode the samples
    /// are non-uniformly spaced — pair them with [`SimResult::trace_times`]
    /// or resample through [`SimResult::trace_at`].
    pub traces: Vec<Vec<f64>>,
    /// Times corresponding to trace samples (only filled when traces
    /// are recorded).
    pub trace_times: Vec<f64>,
    /// Accepted solver steps.
    pub accepted_steps: u64,
    /// Steps rejected and retried at a smaller dt (always 0 in fixed
    /// mode).
    pub rejected_steps: u64,
}

impl SimResult {
    /// Times (seconds) at which junction `jj` emitted an SFQ pulse
    /// (completed a forward 2π phase slip).
    ///
    /// In fixed mode a pulse is stamped at the end of the step that
    /// crossed the 2π boundary (historical behavior, bit-identical);
    /// in adaptive mode the crossing is interpolated inside the step,
    /// so consumers see sub-step timing accuracy regardless of how
    /// large the surrounding steps were.
    pub fn pulse_times(&self, jj: ElementId) -> &[f64] {
        &self.pulse_times[jj.index()]
    }

    /// Number of pulses emitted by junction `jj`.
    pub fn pulse_count(&self, jj: ElementId) -> usize {
        self.pulse_times[jj.index()].len()
    }

    /// Final superconducting phase of junction `jj`, radians.
    pub fn final_phase(&self, jj: ElementId) -> f64 {
        self.final_phases[jj.index()]
    }

    /// Linearly interpolated voltage of recorded trace `slot` at time
    /// `t`, clamping outside the recorded range. Gives adaptive-mode
    /// consumers a uniform view of the non-uniform samples.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range or nothing was recorded.
    pub fn trace_at(&self, slot: usize, t: f64) -> f64 {
        let times = &self.trace_times;
        let vs = &self.traces[slot];
        assert!(!vs.is_empty(), "no samples recorded for slot {slot}");
        match times.partition_point(|&x| x < t) {
            0 => vs[0],
            i if i >= times.len() => vs[times.len() - 1],
            i => {
                let (t0, t1) = (times[i - 1], times[i]);
                let w = if t1 > t0 { (t - t0) / (t1 - t0) } else { 0.0 };
                vs[i - 1] + w * (vs[i] - vs[i - 1])
            }
        }
    }
}

/// The transient solver. Construct with [`Solver::new`], then call
/// [`Solver::run`].
#[derive(Debug)]
pub struct Solver {
    ckt: Circuit,
    opts: SimOptions,
}

impl Solver {
    /// Wrap a circuit, validating it.
    ///
    /// # Errors
    ///
    /// Returns the circuit's validation error, or
    /// [`SimError::InvalidParameter`] for a non-positive timestep,
    /// tolerance or adaptive step bound, a `dt_max` below `dt_min`,
    /// or a zero Newton iteration budget.
    pub fn new(ckt: Circuit, opts: SimOptions) -> Result<Self, SimError> {
        ckt.validate()?;
        let check = |field: &'static str, value: f64| -> Result<(), SimError> {
            if !value.is_finite() || value <= 0.0 {
                return Err(SimError::InvalidParameter {
                    element: "options",
                    field,
                    value,
                });
            }
            Ok(())
        };
        check("dt", opts.dt)?;
        check("tol_v", opts.tol_v)?;
        if opts.max_newton == 0 {
            return Err(SimError::InvalidParameter {
                element: "options",
                field: "max_newton",
                value: 0.0,
            });
        }
        if let StepControl::Adaptive {
            dt_min,
            dt_max,
            lte_tol,
        } = opts.step
        {
            check("dt_min", dt_min)?;
            check("dt_max", dt_max)?;
            check("lte_tol", lte_tol)?;
            if dt_max < dt_min {
                return Err(SimError::InvalidParameter {
                    element: "options",
                    field: "dt_max",
                    value: dt_max,
                });
            }
        }
        Ok(Solver { ckt, opts })
    }

    /// Run the transient analysis from t = 0 to `t_end` seconds.
    ///
    /// # Panics
    ///
    /// Panics on Newton non-convergence or a singular matrix (usually
    /// a floating node). Sweep and fault-injection code should call
    /// [`Solver::try_run`] and record the typed [`SimError`] instead.
    #[allow(clippy::too_many_lines)]
    pub fn run(&self, t_end: f64) -> SimResult {
        match self.try_run(t_end) {
            Ok(out) => out,
            Err(e) => panic!("transient analysis failed: {e}; check circuit topology"),
        }
    }

    /// Fallible variant of [`Solver::run`].
    ///
    /// # Errors
    ///
    /// See [`Solver::run`].
    #[allow(clippy::too_many_lines)]
    pub fn try_run(&self, t_end: f64) -> Result<SimResult, SimError> {
        transient_counter().inc();
        let mut metrics = RunMetrics::start();
        // One wall-clock slice per transient run (records on every
        // exit path, including errors); the per-step accept/reject/
        // restamp markers below are only recorded under the
        // SUPERNPU_TRACE_DETAIL verbosity knob, resolved once per run.
        let _trace_run = sfq_obs::trace::span("jjsim", "solver.run");
        let trace_detail = sfq_obs::trace::detail_enabled();
        // Kernel-level profile attribution under one frame per run;
        // `kprof` accumulates section times in locals and merges them
        // under this frame at every exit, so the frame's self time is
        // only the un-kerneled loop control.
        let _prof_run = sfq_obs::prof::frame("solver.run");
        let mut kprof = KernelProf::start();
        let ckt = &self.ckt;
        let n_unknown = ckt.node_count - 1; // ground excluded
        let h = self.opts.dt;
        let (adaptive, dt_min, dt_max, lte_tol) = match self.opts.step {
            StepControl::Fixed => (false, h, h, f64::INFINITY),
            StepControl::Adaptive {
                dt_min,
                dt_max,
                lte_tol,
            } => (true, dt_min, dt_max, lte_tol),
        };
        // Ambient execution guard (one relaxed load when never used):
        // an optional budget polled once per step attempt.
        let budget = sfq_guard::active().filter(|b| !b.is_unlimited());
        // Fixed-mode step count; also the trace capacity hint.
        let fixed_steps = (t_end / h).ceil() as usize;
        let steps_hint = if adaptive {
            (t_end / dt_max).ceil() as usize
        } else {
            fixed_steps
        };
        // Per-accepted-step dt histogram, resolved once per run so the
        // hot loop pays a pointer deref, not a registry lookup.
        let dt_hist = sfq_obs::enabled().then(|| sfq_obs::histogram("jjsim.solver.dt_ps"));

        // State.
        let mut v = vec![0.0f64; ckt.node_count]; // index 0 = ground, always 0
        let mut phase: Vec<f64> = vec![0.0; ckt.jjs.len()];
        let mut pulse_count: Vec<usize> = vec![0; ckt.jjs.len()];
        let mut pulse_times: Vec<Vec<f64>> = vec![Vec::new(); ckt.jjs.len()];
        let mut i_cap = vec![0.0f64; ckt.capacitors.len()];
        let mut i_jj_cap = vec![0.0f64; ckt.jjs.len()];
        let mut i_ind = vec![0.0f64; ckt.inductors.len()];
        let mut dissipated = 0.0f64;
        let mut jj_dissipated = vec![0.0f64; ckt.jjs.len()];
        let record = !self.opts.record_nodes.is_empty();
        let mut traces: Vec<Vec<f64>> = self
            .opts
            .record_nodes
            .iter()
            .map(|_| Vec::with_capacity(steps_hint))
            .collect();
        let mut trace_times: Vec<f64> = Vec::with_capacity(if record { steps_hint } else { 0 });

        let vbr = |v: &[f64], a: usize, b: usize| v[a] - v[b];

        // Half-bandwidth of the conductance matrix under the builder's
        // natural node ordering; chain-structured circuits (JTLs,
        // shift registers) are narrow-banded, letting the O(n·bw²)
        // solver replace the O(n³) dense one.
        let bandwidth = {
            let mut bw = 0usize;
            let mut visit = |a: usize, b: usize| {
                if a > 0 && b > 0 {
                    bw = bw.max(a.abs_diff(b));
                }
            };
            for e in &ckt.resistors {
                visit(e.a, e.b);
            }
            for e in &ckt.capacitors {
                visit(e.a, e.b);
            }
            for e in &ckt.inductors {
                visit(e.a, e.b);
            }
            for e in &ckt.jjs {
                visit(e.a, e.b);
            }
            bw
        };
        let use_banded = n_unknown > 24 && bandwidth * 3 < n_unknown;

        // Conductance stamp into a row-major dense matrix (current
        // a -> b: i = g*(va-vb) + i_hist; the i_hist part goes to the
        // rhs). Only the banded path's pivoting fallback still stamps
        // through node numbers; the hot paths replay pre-resolved
        // [`StampIdx`] quadruples instead.
        let stamp_g = |m: &mut [f64], a: usize, b: usize, g: f64| {
            if a > 0 {
                m[(a - 1) * n_unknown + (a - 1)] += g;
            }
            if b > 0 {
                m[(b - 1) * n_unknown + (b - 1)] += g;
            }
            if a > 0 && b > 0 {
                m[(a - 1) * n_unknown + (b - 1)] -= g;
                m[(b - 1) * n_unknown + (a - 1)] -= g;
            }
        };
        let stamp_i = |rhs: &mut [f64], a: usize, b: usize, i_hist: f64| {
            if a > 0 {
                rhs[a - 1] -= i_hist;
            }
            if b > 0 {
                rhs[b - 1] += i_hist;
            }
        };

        // Flattened stamp kernel: every element's matrix positions are
        // fixed for the whole run, so resolve them once into flat
        // index quadruples — in packed-band layout on the banded path,
        // dense row-major otherwise. Linear elements keep their stamp
        // order (resistors, capacitors, inductors).
        let band_w = band_width(bandwidth);
        let stamp_idx = |a: usize, b: usize, banded: bool| -> StampIdx {
            let pos = |i: usize, j: usize| {
                if banded {
                    i * band_w + (bandwidth + j) - i
                } else {
                    i * n_unknown + j
                }
            };
            StampIdx {
                da: if a > 0 { pos(a - 1, a - 1) } else { usize::MAX },
                db: if b > 0 { pos(b - 1, b - 1) } else { usize::MAX },
                ab: if a > 0 && b > 0 {
                    pos(a - 1, b - 1)
                } else {
                    usize::MAX
                },
                ba: if a > 0 && b > 0 {
                    pos(b - 1, a - 1)
                } else {
                    usize::MAX
                },
            }
        };
        let lin_idx: Vec<StampIdx> = ckt
            .resistors
            .iter()
            .map(|e| (e.a, e.b))
            .chain(ckt.capacitors.iter().map(|e| (e.a, e.b)))
            .chain(ckt.inductors.iter().map(|e| (e.a, e.b)))
            .map(|(a, b)| stamp_idx(a, b, use_banded))
            .collect();
        let jj_idx: Vec<StampIdx> = ckt
            .jjs
            .iter()
            .map(|e| stamp_idx(e.a, e.b, use_banded))
            .collect();

        // Per-plateau companion conductances, recomputed only when the
        // step size changes — exactly the expressions the inner loops
        // used to evaluate per element per iteration, so every value
        // is bit-identical: resistor 1/R and junction shunt 1/Rj are
        // step-independent; capacitor 2C/h, inductor h/2L and the
        // junction's capacitive companion 2Cj/h are the trapezoid
        // companions; `phi_coef` is the phase integration coefficient
        // π·h/Φ₀.
        let g_res: Vec<f64> = ckt.resistors.iter().map(|r| 1.0 / r.value).collect();
        let g_shunt: Vec<f64> = ckt.jjs.iter().map(|jj| 1.0 / jj.p.r).collect();
        let mut g_cap_lin = vec![0.0f64; ckt.capacitors.len()];
        let mut g_ind = vec![0.0f64; ckt.inductors.len()];
        let mut g_jjcap = vec![0.0f64; ckt.jjs.len()];
        let mut phi_coef = 0.0f64;

        // The linear elements' conductances (R, C, L companions) do not
        // depend on time or on the Newton iterate — only on the step
        // size. Stamp them once per dt *plateau* (into packed band
        // storage on the banded path) and start every Newton assembly
        // from this matrix; the stamp (and the LU built on top of it)
        // is invalidated only when dt actually changes.
        let mut a_lin = vec![
            0.0f64;
            if use_banded {
                n_unknown * band_w
            } else {
                n_unknown * n_unknown
            }
        ];
        let mut h_stamped = f64::NAN;

        // Work buffers, allocated once and reused across every step and
        // Newton iteration.
        let mut a_mat = vec![0.0f64; n_unknown * n_unknown];
        let mut rhs_base = vec![0.0f64; n_unknown];
        let mut rhs = vec![0.0f64; n_unknown];
        let mut v_prev = vec![0.0f64; ckt.node_count];
        let mut v_iter = vec![0.0f64; ckt.node_count];
        let mut g_now = vec![0.0f64; ckt.jjs.len()];
        let mut ihist_now = vec![0.0f64; ckt.jjs.len()];

        // Reusable banded LU: while every junction's linearized
        // conductance is quasi-static (relative drift below
        // `G_REUSE_RTOL` since the last factorization — true between
        // pulses, i.e. most of the simulated time), the factorization
        // is reused across Newton iterations AND timesteps, turning the
        // per-iteration O(n·bw²) elimination into an O(n·bw) pair of
        // triangular solves (chord-Newton / SPICE LU-reuse). The rhs
        // history currents are computed against the factored
        // conductances (`lu_g`), so a converged iterate satisfies KCL
        // exactly — reuse changes the iteration path, never the fixed
        // point.
        const G_REUSE_RTOL: f64 = 1e-8;
        let mut lu = vec![0.0f64; if use_banded { n_unknown * band_w } else { 0 }];
        let mut lu_g = vec![0.0f64; ckt.jjs.len()];
        let mut lu_valid = false;

        // Adaptive controller state. `h_cur` is the plateau step; the
        // per-step `h_step` may be temporarily smaller (window caps,
        // landing on a window start or on t_end).
        //
        // The LTE predictor extrapolates the *trapezoid-filtered*
        // voltage v̄ₙ = (vₙ + vₙ₋₁)/2 (midpoint samples at tₙ − h/2)
        // rather than the raw node voltage: the trapezoidal rule is
        // only marginally stable on stiff modes, so a switching event
        // leaves behind an undamped period-2 (+a, −a, …) numerical
        // ringing of a few µV on storage-loop nodes. The raw-voltage
        // LTE would see that ringing as a permanent error and pin dt
        // at dt_min forever; the two-sample average cancels the
        // alternating mode exactly while representing the smooth
        // solution to the same O(h²). (The phase-rate guard uses
        // vb_new + vb_prev and is ring-immune for the same reason.)
        let windows = if adaptive {
            merge_windows(ckt)
        } else {
            Vec::new()
        };
        let mut win_idx = 0usize;
        let mut h_cur = if adaptive { dt_min } else { h };
        let mut vbar_prev = v.clone();
        let mut vbar_prev2 = v.clone();
        let mut vbar_new = v.clone();
        let mut tbar_prev = 0.0f64;
        let mut tbar_prev2 = -dt_min;
        let mut good_streak = 0u32;

        let mut t = 0.0f64; // last accepted time
        let mut step_idx = 0usize; // accepted steps

        loop {
            // Termination.
            if adaptive {
                if t_end - t < 1e-18 {
                    break;
                }
            } else if step_idx >= fixed_steps {
                break;
            }

            // Execution guard: poll the ambient budget once per step
            // *attempt* (accepted or rejected, so a runaway reject
            // loop is still bounded). No ambient budget → no cost.
            if let Some(b) = budget.as_ref() {
                if let Some(stop) = b.poll(metrics.steps + metrics.rejected(), metrics.newton_iters)
                {
                    let e = match stop {
                        sfq_guard::BudgetStop::Cancelled => SimError::Cancelled { time: t },
                        other => SimError::BudgetExceeded {
                            what: other.label(),
                            time: t,
                        },
                    };
                    kprof.flush(&metrics);
                    metrics.flush(Some(&e));
                    return Err(e);
                }
            }

            // Effective step for this attempt.
            let h_step = if adaptive {
                while win_idx < windows.len() && windows[win_idx].end <= t {
                    win_idx += 1;
                }
                let mut hh = h_cur;
                if let Some(w) = windows.get(win_idx) {
                    if t >= w.start {
                        // Inside a source-event window: cap the step so
                        // the waveform edge is resolved.
                        if hh > w.cap {
                            hh = w.cap;
                            metrics.refine_source += 1;
                        }
                    } else if hh > w.start - t {
                        // Land on the window start instead of stepping
                        // across the event.
                        hh = w.start - t;
                        metrics.refine_source += 1;
                    }
                }
                // A window-boundary truncation may go degenerate from
                // floating-point dust; overshooting a window start by
                // less than dt_min is harmless (windows carry slack).
                hh = hh.max(dt_min).min(t_end - t);
                hh
            } else {
                h
            };
            let t_next = if adaptive {
                t + h_step
            } else {
                (step_idx + 1) as f64 * h
            };

            // Refresh the per-plateau conductances and re-stamp the
            // linear-element matrix only when dt actually changed; this
            // also invalidates the banded LU (its values embed the
            // companion conductances of the old step).
            if h_step != h_stamped {
                kprof.mark();
                phi_coef = PI * h_step / PHI0;
                for (k, c) in ckt.capacitors.iter().enumerate() {
                    g_cap_lin[k] = 2.0 * c.value / h_step;
                }
                for (k, l) in ckt.inductors.iter().enumerate() {
                    g_ind[k] = h_step / (2.0 * l.value);
                }
                for (k, jj) in ckt.jjs.iter().enumerate() {
                    g_jjcap[k] = 2.0 * jj.p.c / h_step;
                }
                a_lin.iter_mut().for_each(|x| *x = 0.0);
                let nr = ckt.resistors.len();
                let nc = ckt.capacitors.len();
                for (s, g) in lin_idx[..nr].iter().zip(&g_res) {
                    apply_stamp(&mut a_lin, *s, *g);
                }
                for (s, g) in lin_idx[nr..nr + nc].iter().zip(&g_cap_lin) {
                    apply_stamp(&mut a_lin, *s, *g);
                }
                for (s, g) in lin_idx[nr + nc..].iter().zip(&g_ind) {
                    apply_stamp(&mut a_lin, *s, *g);
                }
                h_stamped = h_step;
                lu_valid = false;
                metrics.restamps += 1;
                kprof.lap(K_RESTAMP);
                if trace_detail {
                    sfq_obs::trace::instant("jjsim", "restamp");
                }
            }

            v_prev.copy_from_slice(&v);
            v_iter.copy_from_slice(&v);

            // Per-step rhs: C/L history currents (fixed within the
            // step's Newton loop) and the source currents at t_next.
            kprof.mark();
            rhs_base.iter_mut().for_each(|x| *x = 0.0);
            for (k, c) in ckt.capacitors.iter().enumerate() {
                let i_hist = -g_cap_lin[k] * vbr(&v_prev, c.a, c.b) - i_cap[k];
                stamp_i(&mut rhs_base, c.a, c.b, i_hist);
            }
            for (k, l) in ckt.inductors.iter().enumerate() {
                let i_hist = i_ind[k] + g_ind[k] * vbr(&v_prev, l.a, l.b);
                stamp_i(&mut rhs_base, l.a, l.b, i_hist);
            }
            for s in &ckt.sources {
                let i = s.waveform.value(t_next);
                if s.into > 0 {
                    rhs_base[s.into - 1] += i;
                }
                if s.from > 0 {
                    rhs_base[s.from - 1] -= i;
                }
            }
            kprof.lap(K_STAMP);

            // Newton iteration on node voltages at t_next.
            let mut converged = false;
            for _ in 0..self.opts.max_newton {
                metrics.newton_iters += 1;
                kprof.mark();
                // Linearize every junction around v_iter and decide
                // whether the existing factorization still applies.
                let mut reuse = use_banded && lu_valid;
                for (k, jj) in ckt.jjs.iter().enumerate() {
                    let vb_prev = vbr(&v_prev, jj.a, jj.b);
                    let vb_k = vbr(&v_iter, jj.a, jj.b);
                    let phi_k = phase[k] + phi_coef * (vb_k + vb_prev);
                    let g_cap = g_jjcap[k];
                    let i_at_vk = jj.p.ic * phi_k.sin() + vb_k / jj.p.r + g_cap * (vb_k - vb_prev)
                        - i_jj_cap[k];
                    let g = jj.p.ic * phi_k.cos() * phi_coef + g_shunt[k] + g_cap;
                    g_now[k] = g;
                    if reuse && (g - lu_g[k]).abs() > G_REUSE_RTOL * lu_g[k].abs() {
                        reuse = false;
                    }
                    // The matrix conductance this junction will solve
                    // against (old on reuse); using it in the history
                    // current keeps the converged iterate exact.
                    let g_mat = if reuse { lu_g[k] } else { g };
                    ihist_now[k] = i_at_vk - g_mat * vb_k;
                }
                // A junction after the first may have vetoed reuse;
                // recompute earlier history currents against the fresh
                // conductances so matrix and rhs agree.
                if !reuse && use_banded && lu_valid {
                    for (k, jj) in ckt.jjs.iter().enumerate() {
                        let vb_k = vbr(&v_iter, jj.a, jj.b);
                        let vb_prev = vbr(&v_prev, jj.a, jj.b);
                        let phi_k = phase[k] + phi_coef * (vb_k + vb_prev);
                        let g_cap = g_jjcap[k];
                        let i_at_vk =
                            jj.p.ic * phi_k.sin() + vb_k / jj.p.r + g_cap * (vb_k - vb_prev)
                                - i_jj_cap[k];
                        ihist_now[k] = i_at_vk - g_now[k] * vb_k;
                    }
                }

                kprof.lap(K_JJ_STAMP_RHS);
                rhs.copy_from_slice(&rhs_base);
                let mut solved_in_rhs = false;
                if use_banded {
                    if !reuse {
                        metrics.lu_factor += 1;
                        lu.copy_from_slice(&a_lin);
                        // Fused stamp+RHS pass: one sweep over the
                        // junctions lands each conductance in the
                        // packed band and its history current in the
                        // rhs. Matrix and rhs entries still accumulate
                        // in the historical per-array order, so the
                        // fusion cannot move a bit.
                        for (k, jj) in ckt.jjs.iter().enumerate() {
                            apply_stamp(&mut lu, jj_idx[k], g_now[k]);
                            stamp_i(&mut rhs, jj.a, jj.b, ihist_now[k]);
                        }
                        if factor_banded_packed(&mut lu, n_unknown, bandwidth) {
                            lu_g.copy_from_slice(&g_now);
                            lu_valid = true;
                        } else {
                            lu_valid = false;
                        }
                        kprof.lap(K_LU_FACTOR);
                    } else {
                        metrics.lu_reuse += 1;
                        for (k, jj) in ckt.jjs.iter().enumerate() {
                            stamp_i(&mut rhs, jj.a, jj.b, ihist_now[k]);
                        }
                        kprof.lap(K_JJ_STAMP_RHS);
                    }
                    if lu_valid {
                        solve_factored_packed(&lu, &mut rhs, n_unknown, bandwidth);
                        solved_in_rhs = true;
                        kprof.lap(K_LU_SOLVE);
                    }
                } else {
                    for (k, jj) in ckt.jjs.iter().enumerate() {
                        stamp_i(&mut rhs, jj.a, jj.b, ihist_now[k]);
                    }
                    kprof.lap(K_JJ_STAMP_RHS);
                }
                if !solved_in_rhs {
                    metrics.dense_solves += 1;
                    // Dense elimination with pivoting: small circuits,
                    // and the fallback when the no-pivot banded
                    // factorization hits a tiny pivot.
                    if use_banded {
                        // `a_lin` is packed band storage here; rebuild
                        // the dense matrix by re-stamping in the
                        // original element order (resistors,
                        // capacitors, inductors, junctions), which
                        // reproduces the historical dense assembly
                        // bit-for-bit.
                        a_mat.iter_mut().for_each(|x| *x = 0.0);
                        for (r, g) in ckt.resistors.iter().zip(&g_res) {
                            stamp_g(&mut a_mat, r.a, r.b, *g);
                        }
                        for (c, g) in ckt.capacitors.iter().zip(&g_cap_lin) {
                            stamp_g(&mut a_mat, c.a, c.b, *g);
                        }
                        for (l, g) in ckt.inductors.iter().zip(&g_ind) {
                            stamp_g(&mut a_mat, l.a, l.b, *g);
                        }
                        for (k, jj) in ckt.jjs.iter().enumerate() {
                            stamp_g(&mut a_mat, jj.a, jj.b, g_now[k]);
                        }
                    } else {
                        a_mat.copy_from_slice(&a_lin);
                        for (s, g) in jj_idx.iter().zip(&g_now) {
                            apply_stamp(&mut a_mat, *s, *g);
                        }
                    }
                    let Some(sol) = solve_dense(&mut a_mat, &mut rhs, n_unknown) else {
                        let e = SimError::SingularMatrix { time: t_next };
                        kprof.lap(K_DENSE_SOLVE);
                        kprof.flush(&metrics);
                        metrics.flush(Some(&e));
                        return Err(e);
                    };
                    rhs.copy_from_slice(&sol);
                    kprof.lap(K_DENSE_SOLVE);
                }

                let mut max_dv = 0.0f64;
                for (i, s) in rhs.iter().enumerate() {
                    let dv = (s - v_iter[i + 1]).abs();
                    if dv > max_dv {
                        max_dv = dv;
                    }
                    v_iter[i + 1] = *s;
                }
                kprof.lap(K_NEWTON);
                if max_dv < self.opts.tol_v {
                    converged = true;
                    break;
                }
            }
            if !converged {
                // Adaptive mode treats a Newton failure as one more
                // reason to refine: nothing was committed, so halving
                // and retrying is a clean rollback.
                if adaptive && h_step > dt_min {
                    metrics.reject_newton += 1;
                    if trace_detail {
                        sfq_obs::trace::instant("jjsim", "reject (newton)");
                    }
                    h_cur = (h_step * 0.5).max(dt_min);
                    good_streak = 0;
                    continue;
                }
                let e = SimError::NoConvergence { time: t_next };
                kprof.flush(&metrics);
                metrics.flush(Some(&e));
                return Err(e);
            }

            // Accept/reject the converged step (adaptive only; nothing
            // has been committed yet, so a reject is a pure retry).
            kprof.mark();
            let mut dphi_max = 0.0f64;
            if adaptive {
                for jj in &ckt.jjs {
                    let vb_prev = vbr(&v_prev, jj.a, jj.b);
                    let vb_new = vbr(&v_iter, jj.a, jj.b);
                    let dphi = (phi_coef * (vb_new + vb_prev)).abs();
                    if dphi > dphi_max {
                        dphi_max = dphi;
                    }
                }
                // LTE estimate: deviation of the trapezoid-filtered
                // voltage from the linear extrapolation of its two
                // previous accepted samples. Exact for any linearly-
                // evolving interval (bias ramps) and blind to the
                // period-2 trapezoidal ringing mode; ~h²·|v″| on real
                // dynamics.
                let tbar_new = t + 0.5 * h_step;
                let span = tbar_prev - tbar_prev2;
                let scale = if span > 0.0 {
                    (tbar_new - tbar_prev) / span
                } else {
                    1.0
                };
                let mut lte = 0.0f64;
                for i in 1..ckt.node_count {
                    vbar_new[i] = 0.5 * (v_iter[i] + v_prev[i]);
                    let pred = vbar_prev[i] + (vbar_prev[i] - vbar_prev2[i]) * scale;
                    let e = (vbar_new[i] - pred).abs();
                    if e > lte {
                        lte = e;
                    }
                }
                if h_step > dt_min && (lte > lte_tol || dphi_max > PHASE_MAX_STEP) {
                    if lte > lte_tol {
                        metrics.reject_lte += 1;
                        if trace_detail {
                            sfq_obs::trace::instant("jjsim", "reject (lte)");
                        }
                    } else {
                        metrics.reject_phase += 1;
                        if trace_detail {
                            sfq_obs::trace::instant("jjsim", "reject (phase)");
                        }
                    }
                    h_cur = (h_step * 0.5).max(dt_min);
                    good_streak = 0;
                    kprof.lap(K_LTE);
                    continue;
                }
                // Plateau growth: double only after a streak of steps
                // that were quiet on both criteria, so the LU
                // refactorization a dt change forces is amortized.
                if lte < GROW_MARGIN * lte_tol && dphi_max < PHASE_SLOW {
                    good_streak += 1;
                    if good_streak >= GROW_AFTER && h_cur < dt_max {
                        h_cur = (h_cur * 2.0).min(dt_max);
                        good_streak = 0;
                    }
                } else {
                    good_streak = 0;
                }
            }

            kprof.lap(K_LTE);

            // Commit state updates.
            metrics.steps += 1;
            if trace_detail {
                sfq_obs::trace::instant("jjsim", "accept");
            }
            for (k, jj) in ckt.jjs.iter().enumerate() {
                let vb_prev = vbr(&v_prev, jj.a, jj.b);
                let vb_new = vbr(&v_iter, jj.a, jj.b);
                let old_phase = phase[k];
                let new_phase = old_phase + phi_coef * (vb_new + vb_prev);
                phase[k] = new_phase;
                // Forward 2π slips: pulse recorded when phase passes
                // (2k+1)π going up. Fixed mode stamps the end of the
                // crossing step (bit-identical to the historical
                // solver); adaptive mode interpolates the crossing
                // inside the step for sub-step timing accuracy.
                while new_phase > (2 * pulse_count[k] + 1) as f64 * PI {
                    let t_pulse = if adaptive && new_phase > old_phase {
                        let threshold = (2 * pulse_count[k] + 1) as f64 * PI;
                        t + h_step * ((threshold - old_phase) / (new_phase - old_phase))
                    } else {
                        t_next
                    };
                    pulse_times[k].push(t_pulse);
                    pulse_count[k] += 1;
                }
                i_jj_cap[k] = g_jjcap[k] * (vb_new - vb_prev) - i_jj_cap[k];
                let p_shunt = vb_new * vb_new / jj.p.r;
                jj_dissipated[k] += p_shunt * h_step;
                dissipated += p_shunt * h_step;
            }
            for (k, c) in ckt.capacitors.iter().enumerate() {
                i_cap[k] =
                    g_cap_lin[k] * (vbr(&v_iter, c.a, c.b) - vbr(&v_prev, c.a, c.b)) - i_cap[k];
            }
            for (k, l) in ckt.inductors.iter().enumerate() {
                i_ind[k] += g_ind[k] * (vbr(&v_iter, l.a, l.b) + vbr(&v_prev, l.a, l.b));
            }
            for r in &ckt.resistors {
                let vb = vbr(&v_iter, r.a, r.b);
                dissipated += vb * vb / r.value * h_step;
            }
            if adaptive {
                std::mem::swap(&mut vbar_prev2, &mut vbar_prev);
                std::mem::swap(&mut vbar_prev, &mut vbar_new);
                tbar_prev2 = tbar_prev;
                tbar_prev = t + 0.5 * h_step;
            }
            v.copy_from_slice(&v_iter);
            t = t_next;
            step_idx += 1;
            if let Some(hist) = dt_hist {
                hist.observe(h_step * 1e12);
            }

            if record {
                trace_times.push(t_next);
                for (slot, node) in self.opts.record_nodes.iter().enumerate() {
                    traces[slot].push(v[node.index()]);
                }
            }
            kprof.lap(K_COMMIT);
        }

        kprof.flush(&metrics);
        metrics.flush(None);
        Ok(SimResult {
            dt: dt_min,
            t_end,
            pulse_times,
            final_phases: phase,
            dissipated_j: dissipated,
            jj_dissipated_j: jj_dissipated,
            traces,
            trace_times,
            accepted_steps: metrics.steps,
            rejected_steps: metrics.rejected(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::{JjParams, NodeId};
    use crate::waveform::Waveform;

    /// RC low-pass driven by DC current: v settles to I*R.
    #[test]
    fn rc_settles_to_ir() {
        let mut c = Circuit::new();
        let n = c.node();
        c.add_resistor(n, NodeId::GROUND, 2.0).unwrap();
        c.add_capacitor(n, NodeId::GROUND, 1e-12).unwrap();
        c.add_source(n, Waveform::Dc(1e-3)).unwrap();
        let res = Solver::new(c, SimOptions::default()).unwrap();
        let out = res.try_run(100e-12).unwrap();
        assert!(out.t_end == 100e-12);
        // Check final node voltage through a recorded trace instead:
        let mut c = Circuit::new();
        let n = c.node();
        c.add_resistor(n, NodeId::GROUND, 2.0).unwrap();
        c.add_capacitor(n, NodeId::GROUND, 1e-12).unwrap();
        c.add_source(n, Waveform::Dc(1e-3)).unwrap();
        let opts = SimOptions {
            record_nodes: vec![n],
            ..Default::default()
        };
        let out = Solver::new(c, opts).unwrap().try_run(100e-12).unwrap();
        let last = *out.traces[0].last().unwrap();
        assert!((last - 2e-3).abs() < 1e-5, "v = {last}");
    }

    /// A DC-biased junction below Ic stays superconducting (no pulses,
    /// zero average voltage).
    #[test]
    fn subcritical_jj_stays_quiet() {
        let mut c = Circuit::new();
        let n = c.node();
        let jj = c.add_jj(n, NodeId::GROUND, JjParams::default()).unwrap();
        c.add_bias(n, 0.7e-4).unwrap(); // 0.7 Ic
        let out = Solver::new(c, SimOptions::default())
            .unwrap()
            .try_run(200e-12)
            .unwrap();
        assert_eq!(out.pulse_count(jj), 0);
        // Phase settles near asin(0.7).
        let expect = (0.7f64).asin();
        assert!(
            (out.final_phase(jj) - expect).abs() < 0.05,
            "phase = {}",
            out.final_phase(jj)
        );
    }

    /// A junction driven above Ic runs away: continuous phase slips
    /// (Josephson oscillation) at roughly f = V/Φ0.
    #[test]
    fn overdriven_jj_oscillates() {
        let mut c = Circuit::new();
        let n = c.node();
        let jj = c.add_jj(n, NodeId::GROUND, JjParams::default()).unwrap();
        c.add_bias(n, 2.0e-4).unwrap(); // 2 Ic
        let out = Solver::new(c, SimOptions::default())
            .unwrap()
            .try_run(200e-12)
            .unwrap();
        assert!(out.pulse_count(jj) > 10, "pulses = {}", out.pulse_count(jj));
        assert!(out.dissipated_j > 0.0);
    }

    /// A single trigger pulse on a biased junction produces exactly one
    /// 2π slip, dissipating on the order of Ic·Φ0 (~2×10⁻¹⁹ J).
    #[test]
    fn single_sfq_switching_event() {
        let mut c = Circuit::new();
        let n = c.node();
        let jj = c.add_jj(n, NodeId::GROUND, JjParams::default()).unwrap();
        c.add_bias(n, 0.7e-4).unwrap();
        c.add_source(n, Waveform::sfq_pulse(60e-12, 1.5e-4))
            .unwrap();
        let out = Solver::new(c, SimOptions::default())
            .unwrap()
            .try_run(120e-12)
            .unwrap();
        assert_eq!(out.pulse_count(jj), 1, "want exactly one phase slip");
        let t = out.pulse_times(jj)[0];
        assert!((t - 60e-12).abs() < 5e-12, "pulse at {t:e}");
        // Switching energy within an order of magnitude of Ic·Φ0.
        let e = out.jj_dissipated_j[0];
        let scale = 1.0e-4 * PHI0;
        assert!(e > 0.05 * scale && e < 20.0 * scale, "energy {e:e}");
    }

    #[test]
    fn invalid_dt_rejected() {
        let mut c = Circuit::new();
        let _ = c.node();
        let opts = SimOptions {
            dt: 0.0,
            ..Default::default()
        };
        assert!(Solver::new(c, opts).is_err());
    }

    #[test]
    fn invalid_tolerance_and_newton_budget_rejected() {
        let build = || {
            let mut c = Circuit::new();
            let _ = c.node();
            c
        };
        for tol_v in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let opts = SimOptions {
                tol_v,
                ..Default::default()
            };
            assert!(
                matches!(
                    Solver::new(build(), opts),
                    Err(SimError::InvalidParameter { field: "tol_v", .. })
                ),
                "tol_v = {tol_v} must be rejected"
            );
        }
        let opts = SimOptions {
            max_newton: 0,
            ..Default::default()
        };
        assert!(matches!(
            Solver::new(build(), opts),
            Err(SimError::InvalidParameter {
                field: "max_newton",
                ..
            })
        ));
    }

    #[test]
    fn invalid_adaptive_bounds_rejected() {
        let build = || {
            let mut c = Circuit::new();
            let _ = c.node();
            c
        };
        let cases = [
            ("dt_min", 0.0, 1e-12, 1e-6),
            ("dt_max", 1e-13, f64::NAN, 1e-6),
            ("lte_tol", 1e-13, 1e-12, -1.0),
            // dt_max below dt_min.
            ("dt_max", 1e-12, 1e-13, 1e-6),
        ];
        for (field, dt_min, dt_max, lte_tol) in cases {
            let opts = SimOptions {
                step: StepControl::Adaptive {
                    dt_min,
                    dt_max,
                    lte_tol,
                },
                ..Default::default()
            };
            let got = Solver::new(build(), opts);
            assert!(
                matches!(got, Err(SimError::InvalidParameter { field: f, .. }) if f == field),
                "expected InvalidParameter for {field}"
            );
        }
    }

    /// Adaptive mode on the single-junction switching testbench: same
    /// pulse count, pulse time within half a picosecond, and a large
    /// reduction in accepted steps.
    #[test]
    fn adaptive_matches_fixed_on_single_switch() {
        let build = || {
            let mut c = Circuit::new();
            let n = c.node();
            let jj = c.add_jj(n, NodeId::GROUND, JjParams::default()).unwrap();
            c.add_bias(n, 0.7e-4).unwrap();
            c.add_source(n, Waveform::sfq_pulse(60e-12, 1.5e-4))
                .unwrap();
            (c, jj)
        };
        let (c, jj) = build();
        let fixed = Solver::new(c, SimOptions::default())
            .unwrap()
            .try_run(120e-12)
            .unwrap();
        let (c, _) = build();
        let adapt = Solver::new(c, SimOptions::adaptive())
            .unwrap()
            .try_run(120e-12)
            .unwrap();
        assert_eq!(fixed.pulse_count(jj), 1);
        assert_eq!(adapt.pulse_count(jj), 1);
        let dt = (fixed.pulse_times(jj)[0] - adapt.pulse_times(jj)[0]).abs();
        assert!(dt < 0.5e-12, "pulse time delta {dt:e}");
        assert!(
            adapt.accepted_steps * 3 <= fixed.accepted_steps,
            "adaptive {} vs fixed {} steps",
            adapt.accepted_steps,
            fixed.accepted_steps
        );
        // Energy agrees to a few percent.
        let rel = (adapt.dissipated_j - fixed.dissipated_j).abs() / fixed.dissipated_j;
        assert!(rel < 0.05, "energy delta {rel}");
    }

    /// The adaptive controller must not sail over a trigger pulse that
    /// arrives deep inside a quiescent interval.
    #[test]
    fn adaptive_does_not_skip_late_pulse() {
        let mut c = Circuit::new();
        let n = c.node();
        let jj = c.add_jj(n, NodeId::GROUND, JjParams::default()).unwrap();
        c.add_bias(n, 0.7e-4).unwrap();
        // 180 ps of nothing before the trigger.
        c.add_source(n, Waveform::sfq_pulse(200e-12, 1.5e-4))
            .unwrap();
        let out = Solver::new(c, SimOptions::adaptive())
            .unwrap()
            .try_run(260e-12)
            .unwrap();
        assert_eq!(out.pulse_count(jj), 1, "late pulse must be caught");
        let t = out.pulse_times(jj)[0];
        assert!((t - 200e-12).abs() < 5e-12, "pulse at {t:e}");
    }

    /// Interpolated traces: `trace_at` reproduces a recorded RC charge
    /// curve between (non-uniform) adaptive samples.
    #[test]
    fn adaptive_trace_interpolation_is_consistent() {
        let mut c = Circuit::new();
        let n = c.node();
        c.add_resistor(n, NodeId::GROUND, 2.0).unwrap();
        c.add_capacitor(n, NodeId::GROUND, 1e-12).unwrap();
        c.add_source(n, Waveform::Dc(1e-3)).unwrap();
        let opts = SimOptions {
            record_nodes: vec![n],
            ..SimOptions::adaptive()
        };
        let out = Solver::new(c, opts).unwrap().try_run(100e-12).unwrap();
        assert!((out.trace_at(0, 100e-12) - 2e-3).abs() < 1e-5);
        // Interpolation at a recorded sample returns the sample.
        let mid = out.trace_times.len() / 2;
        let t_mid = out.trace_times[mid];
        assert_eq!(out.trace_at(0, t_mid), out.traces[0][mid]);
        // Before the first sample: clamps.
        assert_eq!(out.trace_at(0, -1.0), out.traces[0][0]);
    }
}

#[cfg(test)]
mod banded_path_tests {
    use super::*;
    use crate::stdlib::{jtl_chain, JtlParams};

    /// A long JTL takes the banded path (>24 nodes, bandwidth 1) and
    /// must behave identically to short (dense-path) chains.
    #[test]
    fn long_chain_uses_banded_and_propagates() {
        let p = JtlParams::default();
        let (c, stages) = jtl_chain(40, &p);
        assert!(c.node_count() > 25, "banded path engaged");
        let out = Solver::new(c, SimOptions::default())
            .unwrap()
            .try_run(400e-12)
            .unwrap();
        for (k, jj) in stages.iter().enumerate() {
            assert_eq!(out.pulse_count(*jj), 1, "stage {k}");
        }
        // Monotone arrival down the whole line.
        let times: Vec<f64> = stages.iter().map(|j| out.pulse_times(*j)[0]).collect();
        for w in times.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    /// The same long chain under the adaptive controller: banded-LU
    /// reuse across dt plateaus, identical pulse counts and sub-0.5 ps
    /// pulse times. A 40-stage chain keeps a pulse in flight for most
    /// of the run (the phase-rate guard correctly pins dt near dt_min
    /// the whole time), so the step reduction here is modest — the
    /// ≥3× wins on the mostly-quiescent characterization cells are
    /// asserted in `tests/adaptive.rs` and `BENCH_solver.json`.
    #[test]
    fn long_chain_adaptive_matches_fixed() {
        let p = JtlParams::default();
        let (c, stages) = jtl_chain(40, &p);
        let fixed = Solver::new(c, SimOptions::default())
            .unwrap()
            .try_run(400e-12)
            .unwrap();
        let (c, _) = jtl_chain(40, &p);
        let adapt = Solver::new(c, SimOptions::adaptive())
            .unwrap()
            .try_run(400e-12)
            .unwrap();
        for (k, jj) in stages.iter().enumerate() {
            assert_eq!(adapt.pulse_count(*jj), fixed.pulse_count(*jj), "stage {k}");
            let dt = (adapt.pulse_times(*jj)[0] - fixed.pulse_times(*jj)[0]).abs();
            assert!(dt < 0.5e-12, "stage {k} pulse delta {dt:e}");
        }
        assert!(
            adapt.accepted_steps * 3 <= fixed.accepted_steps * 2,
            "adaptive {} vs fixed {}",
            adapt.accepted_steps,
            fixed.accepted_steps
        );
    }
}
