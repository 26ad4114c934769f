//! Lane-batched transient solving: advance up to [`LANES`]
//! parameter-perturbed instances of one netlist in SoA form, sharing
//! one adaptive-stepping/factorization schedule across all lanes.
//!
//! The consumers that dominate transient counts — `sfq_faults`
//! Monte-Carlo yield, margins bisection probes, family
//! re-characterization sweeps — all solve *structure-identical*
//! circuits that differ only in element values. [`BatchedTransient`]
//! exploits that: one topology analysis (bandwidth, stamp-index plan,
//! source-event windows), one Newton/controller schedule, and every
//! per-entry kernel (linear restamp, jj stamp + RHS, banded LU
//! factor/solve, LTE control, commit) runs over contiguous
//! `[f64; LANES]` lanes from [`crate::lanes`].
//!
//! # Stepping discipline and the scalar golden reference
//!
//! The scalar [`Solver`](crate::Solver) is byte-for-byte untouched and
//! remains the golden reference. The batch shares one adaptive
//! controller across the group: the step is accepted only when *every*
//! active lane passes the LTE and phase-rate criteria, Newton iterates
//! until every active lane converges, and a rejection refines the step
//! for the whole group. Shared control is therefore only ever *more*
//! conservative than any lane's solo schedule — pulse counts match the
//! scalar run exactly and pulse times agree within the BENCH_solver
//! tolerance (0.5 ps), which the batch equivalence suite asserts.
//!
//! # Masked retirement
//!
//! Lanes are arithmetically independent (no horizontal reductions feed
//! back into lane values), so a diverging lane cannot perturb its
//! siblings by an ULP. A lane is *retired* when its Newton iteration
//! fails to converge at `dt_min`, when the no-pivot banded
//! factorization hits a tiny pivot in its lane, or when a test hook
//! injects a failure. A retired lane's state is overwritten by
//! mirroring a healthy sibling (keeping every lane finite) and its
//! instance is finished from t = 0 on the scalar path — the golden
//! behavior for hard instances, at scalar cost, paid only for the rare
//! divergent lane.
//!
//! # Knobs
//!
//! * `SUPERNPU_BATCH=0` disables batching (consumers fall back to the
//!   scalar path, and [`BatchedTransient::try_run`] degrades to a
//!   scalar loop).
//! * `SUPERNPU_LANES=k` clamps the effective group width to
//!   `min(k, LANES)`.
//! * [`set_batch_width`] overrides both programmatically (used by
//!   `bench_batch` to time scalar vs batched in one process).

use std::f64::consts::PI;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use crate::circuit::Circuit;
use crate::error::SimError;
use crate::lanes::{
    band_width, factor_banded_packed_lanes, sin_cos_rot, solve_factored_packed_lanes, splat, Lane,
    LANES, ROT_MAX, ZERO,
};
use crate::solver::{SimOptions, SimResult, Solver, StepControl};
use crate::PHI0;

/// Adaptive-controller constants, shared with the scalar solver (same
/// values; duplicated so the scalar module stays untouched).
const PHASE_MAX_STEP: f64 = 0.35;
const PHASE_SLOW: f64 = 0.05;
const GROW_AFTER: u32 = 4;
const GROW_MARGIN: f64 = 0.3;

/// Relative junction-conductance drift below which the lane LU
/// factorization is reused (chord Newton). Looser than the scalar
/// banded path's 1e-8: the batch refactors only when *some* lane's
/// linearization genuinely moved, because with `LANES` instances any
/// refactor is `LANES`× the work. Correctness is unchanged either
/// way — the RHS history currents are computed against the factored
/// conductances (`lu_g`), so reuse changes the Newton iteration path,
/// never the fixed point it converges to (still `tol_v`-accurate);
/// near a pulse `cos φ` swings far beyond this tolerance and the
/// batch refactors exactly like the scalar path.
const G_REUSE_RTOL: f64 = 1e-4;

/// Accepted steps between libm re-anchors of the committed-phase
/// sin/cos. Between anchors the commit refreshes them by rotating
/// through the step's phase increment (which the adaptive controller
/// caps at `PHASE_MAX_STEP` < `ROT_MAX`), so the per-step polynomial
/// error (< 2e-11) is bounded at ~1e-9 instead of paying
/// `2 · LANES · n_jj` libm calls on every accepted step.
const TRIG_REANCHOR: usize = 64;

/// Sentinel for "no programmatic override" in [`WIDTH_OVERRIDE`].
const NO_OVERRIDE: usize = usize::MAX;

/// Programmatic batch-width override (see [`set_batch_width`]).
static WIDTH_OVERRIDE: AtomicUsize = AtomicUsize::new(NO_OVERRIDE);

/// Env-resolved default width, parsed once per process.
fn env_width() -> usize {
    static W: OnceLock<usize> = OnceLock::new();
    *W.get_or_init(|| {
        if matches!(
            std::env::var("SUPERNPU_BATCH").as_deref(),
            Ok("0") | Ok("off") | Ok("false")
        ) {
            return 1;
        }
        match std::env::var("SUPERNPU_LANES") {
            Ok(s) => s
                .trim()
                .parse::<usize>()
                .map_or(LANES, |k| k.clamp(1, LANES)),
            Err(_) => LANES,
        }
    })
}

/// Effective batch group width: 1 means "batching disabled" (every
/// consumer, including [`BatchedTransient::try_run`], runs the scalar
/// path). Resolves the [`set_batch_width`] override first, then the
/// `SUPERNPU_BATCH` / `SUPERNPU_LANES` environment knobs, defaulting
/// to [`LANES`].
#[must_use]
pub fn batch_width() -> usize {
    match WIDTH_OVERRIDE.load(Ordering::Relaxed) {
        NO_OVERRIDE => env_width(),
        w => w.clamp(1, LANES),
    }
}

/// Override (or with `None`, restore) the effective [`batch_width`].
/// Benches use this to time the scalar and batched paths in one
/// process without re-reading the environment.
pub fn set_batch_width(w: Option<usize>) {
    WIDTH_OVERRIDE.store(
        w.map_or(NO_OVERRIDE, |w| w.clamp(1, LANES)),
        Ordering::Relaxed,
    );
}

/// The always-on `jjsim.solver.transient_runs` counter (same registry
/// slot the scalar solver bumps), incremented once per batched
/// instance so characterization caches can keep proving "no new
/// transient work" regardless of which path served a probe.
fn transient_counter() -> &'static sfq_obs::Counter {
    static C: OnceLock<&'static sfq_obs::Counter> = OnceLock::new();
    C.get_or_init(|| sfq_obs::counter("jjsim.solver.transient_runs"))
}

/// Why a lane left the batch before `t_end`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Retire {
    /// Newton failed to converge at `dt_min` (or a test hook fired).
    Newton,
    /// The no-pivot banded factorization hit a tiny pivot in this lane.
    Singular,
    /// The ambient execution budget ran out mid-batch; the lanes fall
    /// back to the scalar path, which re-checks the (monotone) budget
    /// and surfaces the typed error.
    Budget,
}

/// Pre-resolved packed-band stamp positions of one element
/// (`usize::MAX` = terminal on ground), mirroring the scalar solver's
/// index plan.
#[derive(Clone, Copy)]
struct Idx4 {
    da: usize,
    db: usize,
    ab: usize,
    ba: usize,
}

/// Lane-batched conductance stamp, same entry order as the scalar
/// stamp (diagonal a, diagonal b, off-diagonal pair).
#[inline]
fn apply_stamp_lanes(m: &mut [Lane], s: Idx4, g: Lane) {
    if s.da != usize::MAX {
        for l in 0..LANES {
            m[s.da][l] += g[l];
        }
    }
    if s.db != usize::MAX {
        for l in 0..LANES {
            m[s.db][l] += g[l];
        }
    }
    if s.ab != usize::MAX {
        for l in 0..LANES {
            m[s.ab][l] -= g[l];
            m[s.ba][l] -= g[l];
        }
    }
}

/// Lane-batched history-current stamp into the RHS.
#[inline]
fn stamp_i_lanes(rhs: &mut [Lane], a: usize, b: usize, i_hist: Lane) {
    if a > 0 {
        for l in 0..LANES {
            rhs[a - 1][l] -= i_hist[l];
        }
    }
    if b > 0 {
        for l in 0..LANES {
            rhs[b - 1][l] += i_hist[l];
        }
    }
}

/// A refinement interval merged from the *union* of every lane's
/// source waveforms — a superset of each lane's own windows, so shared
/// refinement is only ever more conservative than a solo run.
#[derive(Clone, Copy)]
struct Window {
    start: f64,
    end: f64,
    cap: f64,
}

fn merge_windows_union(ckts: &[&Circuit]) -> Vec<Window> {
    let mut raw: Vec<Window> = Vec::new();
    for ckt in ckts {
        for s in &ckt.sources {
            for (start, end, cap) in s.waveform.refinement_windows() {
                if end > 0.0 {
                    raw.push(Window { start, end, cap });
                }
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

/// Per-group metric accumulators (local while the group is in flight,
/// one registry flush at exit — the scalar solver's pattern).
#[derive(Default)]
struct GroupMetrics {
    steps: u64,
    newton_iters: u64,
    lu_factor: u64,
    lu_reuse: u64,
    reject_lte: u64,
    reject_phase: u64,
    reject_newton: u64,
    refine_source: u64,
    restamps: u64,
    retired_newton: u64,
    retired_singular: u64,
}

impl GroupMetrics {
    fn rejected(&self) -> u64 {
        self.reject_lte + self.reject_phase + self.reject_newton
    }

    fn flush(&self, lanes_live: u64, lanes_final: u64) {
        if !sfq_obs::enabled() {
            return;
        }
        sfq_obs::inc("jjsim.batch.groups");
        sfq_obs::add("jjsim.batch.lanes", lanes_live);
        sfq_obs::add("jjsim.batch.steps", self.steps);
        sfq_obs::add("jjsim.batch.newton_iters", self.newton_iters);
        sfq_obs::add("jjsim.batch.lu_factor", self.lu_factor);
        sfq_obs::add("jjsim.batch.lu_reuse", self.lu_reuse);
        sfq_obs::add("jjsim.batch.steps_rejected", self.rejected());
        sfq_obs::add("jjsim.batch.restamps", self.restamps);
        sfq_obs::add("jjsim.batch.refine_source", self.refine_source);
        sfq_obs::add("jjsim.batch.retired_newton", self.retired_newton);
        sfq_obs::add("jjsim.batch.retired_singular", self.retired_singular);
        sfq_obs::observe("jjsim.batch.occupancy", lanes_final as f64);
    }
}

/// Kernel slots for the batched profiler laps (same names/shape as the
/// scalar solver's `KernelProf`, so batch coverage merges under
/// `solver.run` with identical kernel paths).
const K_RESTAMP: usize = 0;
const K_STAMP: usize = 1;
const K_JJ_STAMP_RHS: usize = 2;
const K_LU_FACTOR: usize = 3;
const K_LU_SOLVE: usize = 4;
const K_NEWTON: usize = 5;
const K_LTE: usize = 6;
const K_COMMIT: usize = 7;
const K_SLOTS: usize = 8;

struct BatchKProf {
    on: bool,
    mark: Instant,
    ns: [u64; K_SLOTS],
}

impl BatchKProf {
    fn start() -> Self {
        BatchKProf {
            on: sfq_obs::prof::enabled(),
            mark: Instant::now(),
            ns: [0; K_SLOTS],
        }
    }

    #[inline]
    fn mark(&mut self) {
        if self.on {
            self.mark = Instant::now();
        }
    }

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

    /// Merge kernel times under the open `solver.run` frame using the
    /// scalar solver's path names, so the PR 7 coverage accounting
    /// sees the batch path as ordinary solver work.
    fn flush(&self, m: &GroupMetrics) {
        if !self.on {
            return;
        }
        use sfq_obs::prof;
        let attempts = m.steps + m.rejected();
        let newton_children = self.ns[K_JJ_STAMP_RHS] + self.ns[K_LU_FACTOR] + self.ns[K_LU_SOLVE];
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
        merge(&["lte_control"], attempts, self.ns[K_LTE], self.ns[K_LTE]);
        merge(&["commit"], m.steps, self.ns[K_COMMIT], self.ns[K_COMMIT]);
        prof::count("steps", m.steps);
        prof::count("newton_iters", m.newton_iters);
        prof::count("lu_factor", m.lu_factor);
        prof::count("lu_reuse", m.lu_reuse);
        prof::count("steps_rejected", m.rejected());
    }
}

/// K parameter-perturbed instances of one netlist, solved in
/// SIMD-lane-batched groups. See the module docs for the stepping
/// discipline and retirement rules.
pub struct BatchedTransient {
    circuits: Vec<Circuit>,
    opts: SimOptions,
    /// Test hook: `(instance, t_after)` pairs forcing a Newton-failure
    /// retirement of that instance's lane at the first step boundary
    /// past `t_after`.
    newton_faults: Vec<(usize, f64)>,
}

impl BatchedTransient {
    /// Wrap K structure-identical circuits, validating each and
    /// checking that all share the first instance's topology (node
    /// count, element terminal pairs, source terminals — element
    /// *values* are free to differ; that is the point).
    ///
    /// # Errors
    ///
    /// Returns the first circuit's or the options' validation error
    /// (see [`Solver::new`]), or [`SimError::InvalidParameter`] with
    /// `element: "batch"` naming the first instance whose topology
    /// deviates.
    pub fn new(circuits: Vec<Circuit>, opts: SimOptions) -> Result<Self, SimError> {
        if let Some(first) = circuits.first() {
            // Solver::new validates both the circuit and the options.
            Solver::new(first.clone(), opts.clone())?;
            for (i, c) in circuits.iter().enumerate().skip(1) {
                c.validate()?;
                if !same_topology(first, c) {
                    #[allow(clippy::cast_precision_loss)]
                    return Err(SimError::InvalidParameter {
                        element: "batch",
                        field: "topology",
                        value: i as f64,
                    });
                }
            }
        }
        Ok(BatchedTransient {
            circuits,
            opts,
            newton_faults: Vec::new(),
        })
    }

    /// Number of instances in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.circuits.len()
    }

    /// Whether the batch holds no instances.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.circuits.is_empty()
    }

    /// Test hook: force a Newton-failure retirement of `instance`'s
    /// lane at the first step boundary at or past `t_after` seconds.
    /// The instance is finished on the scalar path like any organic
    /// retirement; siblings must be (and are, see the equivalence
    /// suite) unaffected.
    #[doc(hidden)]
    pub fn inject_newton_failure(&mut self, instance: usize, t_after: f64) {
        self.newton_faults.push((instance, t_after));
    }

    /// Run every instance from t = 0 to `t_end`, in groups of up to
    /// [`batch_width`] lanes; per-instance results in input order.
    /// Retired instances (and every instance when batching is
    /// disabled) are solved by the scalar golden path.
    #[must_use]
    pub fn try_run(&self, t_end: f64) -> Vec<Result<SimResult, SimError>> {
        let k = self.circuits.len();
        let width = batch_width();
        let mut out: Vec<Result<SimResult, SimError>> = Vec::with_capacity(k);
        let mut idx = 0usize;
        while idx < k {
            let end = (idx + width).min(k);
            if end - idx < 2 {
                out.push(scalar_run(&self.circuits[idx], &self.opts, t_end));
                idx += 1;
                continue;
            }
            let group = &self.circuits[idx..end];
            let faults: Vec<(usize, f64)> = self
                .newton_faults
                .iter()
                .filter(|(i, _)| (idx..end).contains(i))
                .map(|&(i, t)| (i - idx, t))
                .collect();
            let partial = run_group(group, &self.opts, t_end, &faults);
            for (j, r) in partial.into_iter().enumerate() {
                out.push(match r {
                    Some(sim) => Ok(sim),
                    None => scalar_run(&group[j], &self.opts, t_end),
                });
            }
            idx = end;
        }
        out
    }
}

/// One scalar golden-path run (used for disabled batching, width-1
/// tails, and retired lanes).
fn scalar_run(ckt: &Circuit, opts: &SimOptions, t_end: f64) -> Result<SimResult, SimError> {
    Solver::new(ckt.clone(), opts.clone())?.try_run(t_end)
}

/// Structural equality of two circuits: same node count, same element
/// counts, same terminal pairs in the same order, same source
/// terminals. Values (R/L/C, jj parameters, waveform amplitudes and
/// times) are free to differ.
fn same_topology(a: &Circuit, b: &Circuit) -> bool {
    a.node_count == b.node_count
        && a.jjs.len() == b.jjs.len()
        && a.resistors.len() == b.resistors.len()
        && a.capacitors.len() == b.capacitors.len()
        && a.inductors.len() == b.inductors.len()
        && a.sources.len() == b.sources.len()
        && a.jjs
            .iter()
            .zip(&b.jjs)
            .all(|(x, y)| x.a == y.a && x.b == y.b)
        && a.resistors
            .iter()
            .zip(&b.resistors)
            .all(|(x, y)| x.a == y.a && x.b == y.b)
        && a.capacitors
            .iter()
            .zip(&b.capacitors)
            .all(|(x, y)| x.a == y.a && x.b == y.b)
        && a.inductors
            .iter()
            .zip(&b.inductors)
            .all(|(x, y)| x.a == y.a && x.b == y.b)
        && a.sources
            .iter()
            .zip(&b.sources)
            .all(|(x, y)| x.into == y.into && x.from == y.from)
}

/// All mutable per-lane state of a running group, gathered so
/// retirement can mirror one lane onto another in a single place.
struct LaneState {
    /// Node voltages, index 0 = ground (always zero in every lane).
    v: Vec<Lane>,
    v_prev: Vec<Lane>,
    v_iter: Vec<Lane>,
    phase: Vec<Lane>,
    sin_ph: Vec<Lane>,
    cos_ph: Vec<Lane>,
    i_cap: Vec<Lane>,
    i_jj_cap: Vec<Lane>,
    i_ind: Vec<Lane>,
    vbar_prev: Vec<Lane>,
    vbar_prev2: Vec<Lane>,
    vbar_new: Vec<Lane>,
    /// Per-lane element values (params mirror on retirement too, so a
    /// retired lane tracks its healthy twin bit-for-bit and stays
    /// finite).
    g_res: Vec<Lane>,
    res_r: Vec<Lane>,
    cap_c: Vec<Lane>,
    ind_l: Vec<Lane>,
    jj_ic: Vec<Lane>,
    jj_r: Vec<Lane>,
    jj_g_shunt: Vec<Lane>,
    jj_c: Vec<Lane>,
    /// Per-plateau companions (functions of the per-lane values above
    /// and the shared step size).
    g_cap_lin: Vec<Lane>,
    g_ind: Vec<Lane>,
    g_jjcap: Vec<Lane>,
}

impl LaneState {
    /// Overwrite lane `dst` with lane `src` in every per-lane array.
    fn mirror(&mut self, dst: usize, src: usize) {
        let copy = |v: &mut Vec<Lane>| {
            for lane in v.iter_mut() {
                lane[dst] = lane[src];
            }
        };
        copy(&mut self.v);
        copy(&mut self.v_prev);
        copy(&mut self.v_iter);
        copy(&mut self.phase);
        copy(&mut self.sin_ph);
        copy(&mut self.cos_ph);
        copy(&mut self.i_cap);
        copy(&mut self.i_jj_cap);
        copy(&mut self.i_ind);
        copy(&mut self.vbar_prev);
        copy(&mut self.vbar_prev2);
        copy(&mut self.vbar_new);
        copy(&mut self.g_res);
        copy(&mut self.res_r);
        copy(&mut self.cap_c);
        copy(&mut self.ind_l);
        copy(&mut self.jj_ic);
        copy(&mut self.jj_r);
        copy(&mut self.jj_g_shunt);
        copy(&mut self.jj_c);
        copy(&mut self.g_cap_lin);
        copy(&mut self.g_ind);
        copy(&mut self.g_jjcap);
    }
}

/// Advance one group of 2..=LANES instances; `Some(result)` per
/// instance that ran to `t_end` in the batch, `None` for retired
/// instances (caller falls back to the scalar path).
#[allow(clippy::too_many_lines)]
fn run_group(
    ckts: &[Circuit],
    opts: &SimOptions,
    t_end: f64,
    faults: &[(usize, f64)],
) -> Vec<Option<SimResult>> {
    let k = ckts.len();
    debug_assert!((2..=LANES).contains(&k));
    for _ in 0..k {
        transient_counter().inc();
    }
    let mut metrics = GroupMetrics::default();
    // Frames: `solver.batch` carries the lane bookkeeping counters;
    // the nested `solver.run` carries the kernel laps under the same
    // path names as the scalar solver, so profiler coverage accounting
    // attributes batch work as solver work.
    let prof_batch = sfq_obs::prof::frame("solver.batch");
    let prof_run = sfq_obs::prof::frame("solver.run");
    let mut kprof = BatchKProf::start();

    let topo = &ckts[0];
    let n_unknown = topo.node_count - 1;
    let node_count = topo.node_count;
    let n_jj = topo.jjs.len();
    let n_cap = topo.capacitors.len();
    let n_ind = topo.inductors.len();
    let n_res = topo.resistors.len();

    // Lane `l` simulates instance `min(l, k-1)`; lanes past `k` are
    // ghost duplicates of the last instance (they keep the SIMD
    // kernels full and are never counted).
    let lane_ckt = |l: usize| &ckts[l.min(k - 1)];
    let mut counted = [false; LANES];
    for (l, c) in counted.iter_mut().enumerate() {
        *c = l < k;
    }
    let mut retired: [Option<Retire>; LANES] = [None; LANES];

    let h = opts.dt;
    let (adaptive, dt_min, dt_max, lte_tol) = match opts.step {
        StepControl::Fixed => (false, h, h, f64::INFINITY),
        StepControl::Adaptive {
            dt_min,
            dt_max,
            lte_tol,
        } => (true, dt_min, dt_max, lte_tol),
    };
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let fixed_steps = (t_end / h).ceil() as usize;

    // Per-lane element values, SoA.
    let gather = |n: usize, f: &dyn Fn(&Circuit, usize) -> f64| -> Vec<Lane> {
        (0..n)
            .map(|e| {
                let mut lane = ZERO;
                for (l, slot) in lane.iter_mut().enumerate() {
                    *slot = f(lane_ckt(l), e);
                }
                lane
            })
            .collect()
    };
    let mut st = LaneState {
        v: vec![ZERO; node_count],
        v_prev: vec![ZERO; node_count],
        v_iter: vec![ZERO; node_count],
        phase: vec![ZERO; n_jj],
        sin_ph: vec![ZERO; n_jj],
        cos_ph: vec![splat(1.0); n_jj],
        i_cap: vec![ZERO; n_cap],
        i_jj_cap: vec![ZERO; n_jj],
        i_ind: vec![ZERO; n_ind],
        vbar_prev: vec![ZERO; node_count],
        vbar_prev2: vec![ZERO; node_count],
        vbar_new: vec![ZERO; node_count],
        g_res: gather(n_res, &|c, e| 1.0 / c.resistors[e].value),
        res_r: gather(n_res, &|c, e| c.resistors[e].value),
        cap_c: gather(n_cap, &|c, e| c.capacitors[e].value),
        ind_l: gather(n_ind, &|c, e| c.inductors[e].value),
        jj_ic: gather(n_jj, &|c, e| c.jjs[e].p.ic),
        jj_r: gather(n_jj, &|c, e| c.jjs[e].p.r),
        jj_g_shunt: gather(n_jj, &|c, e| 1.0 / c.jjs[e].p.r),
        jj_c: gather(n_jj, &|c, e| c.jjs[e].p.c),
        g_cap_lin: vec![ZERO; n_cap],
        g_ind: vec![ZERO; n_ind],
        g_jjcap: vec![ZERO; n_jj],
    };

    // Per-lane result accumulators (instance lanes only).
    let mut pulse_count = vec![[0usize; LANES]; n_jj];
    let mut pulse_times: Vec<Vec<Vec<f64>>> = (0..k).map(|_| vec![Vec::new(); n_jj]).collect();
    let mut dissipated = ZERO;
    let mut jj_dissipated = vec![ZERO; n_jj];
    let record = !opts.record_nodes.is_empty();
    let mut traces: Vec<Vec<Vec<f64>>> = (0..k)
        .map(|_| opts.record_nodes.iter().map(|_| Vec::new()).collect())
        .collect();
    let mut trace_times: Vec<f64> = Vec::new();

    // Topology plan: bandwidth + packed stamp indices. The batch
    // always uses the packed-band lane kernels — even for cells below
    // the scalar path's banded threshold — because the lane LU is the
    // kernel the SIMD win comes from; near-singular systems retire to
    // the scalar path and its pivoting fallback.
    let bandwidth = {
        let mut bw = 0usize;
        let mut visit = |a: usize, b: usize| {
            if a > 0 && b > 0 {
                bw = bw.max(a.abs_diff(b));
            }
        };
        for e in &topo.resistors {
            visit(e.a, e.b);
        }
        for e in &topo.capacitors {
            visit(e.a, e.b);
        }
        for e in &topo.inductors {
            visit(e.a, e.b);
        }
        for e in &topo.jjs {
            visit(e.a, e.b);
        }
        bw
    };
    let band_w = band_width(bandwidth);
    let stamp_idx = |a: usize, b: usize| -> Idx4 {
        let pos = |i: usize, j: usize| i * band_w + (bandwidth + j) - i;
        Idx4 {
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
    let lin_idx: Vec<Idx4> = topo
        .resistors
        .iter()
        .map(|e| (e.a, e.b))
        .chain(topo.capacitors.iter().map(|e| (e.a, e.b)))
        .chain(topo.inductors.iter().map(|e| (e.a, e.b)))
        .map(|(a, b)| stamp_idx(a, b))
        .collect();
    let jj_idx: Vec<Idx4> = topo.jjs.iter().map(|e| stamp_idx(e.a, e.b)).collect();
    let jj_ab: Vec<(usize, usize)> = topo.jjs.iter().map(|e| (e.a, e.b)).collect();
    let cap_ab: Vec<(usize, usize)> = topo.capacitors.iter().map(|e| (e.a, e.b)).collect();
    let ind_ab: Vec<(usize, usize)> = topo.inductors.iter().map(|e| (e.a, e.b)).collect();
    let res_ab: Vec<(usize, usize)> = topo.resistors.iter().map(|e| (e.a, e.b)).collect();
    let src_ab: Vec<(usize, usize)> = topo.sources.iter().map(|s| (s.into, s.from)).collect();

    // Work buffers.
    let mut a_lin = vec![ZERO; n_unknown * band_w];
    let mut lu = vec![ZERO; n_unknown * band_w];
    let mut lu_g = vec![ZERO; n_jj];
    let mut lu_valid = false;
    let mut rhs_base = vec![ZERO; n_unknown];
    let mut rhs = vec![ZERO; n_unknown];
    let mut g_now = vec![ZERO; n_jj];
    let mut ihist_now = vec![ZERO; n_jj];
    let mut i_at_vk = vec![ZERO; n_jj];
    let mut vb_k_buf = vec![ZERO; n_jj];
    let mut h_stamped = f64::NAN;
    let mut phi_coef = 0.0f64;

    // Shared adaptive-controller state (scalar semantics, maxima over
    // counted lanes).
    let refs: Vec<&Circuit> = ckts.iter().collect();
    let windows = if adaptive {
        merge_windows_union(&refs)
    } else {
        Vec::new()
    };
    let mut win_idx = 0usize;
    let mut h_cur = if adaptive { dt_min } else { h };
    let mut tbar_prev = 0.0f64;
    let mut tbar_prev2 = -dt_min;
    let mut good_streak = 0u32;
    let mut t = 0.0f64;
    let mut step_idx = 0usize;
    let mut fault_armed: Vec<(usize, f64)> = faults.to_vec();

    let any_counted = |counted: &[bool; LANES]| counted.iter().any(|&c| c);
    let first_counted = |counted: &[bool; LANES]| counted.iter().position(|&c| c);

    // Ambient execution guard, sampled once per group (one relaxed
    // load when never used). On a stop the still-live lanes retire to
    // the scalar golden path, which re-checks the budget (deadline and
    // cancel are monotone) and surfaces the typed error.
    let budget = sfq_guard::active().filter(|b| !b.is_unlimited());

    'time: loop {
        // Termination.
        if adaptive {
            if t_end - t < 1e-18 {
                break;
            }
        } else if step_idx >= fixed_steps {
            break;
        }

        // Execution guard: poll once per step attempt.
        if let Some(b) = budget.as_ref() {
            if b.poll(metrics.steps + metrics.rejected(), metrics.newton_iters)
                .is_some()
            {
                sfq_obs::inc("guard.batch_stop");
                for (l, r) in retired.iter_mut().enumerate() {
                    if counted[l] {
                        *r = Some(Retire::Budget);
                        counted[l] = false;
                    }
                }
                break 'time;
            }
        }

        // Test-hook retirements at step boundaries.
        if !fault_armed.is_empty() {
            let mut fired = false;
            fault_armed.retain(|&(lane, t_after)| {
                if t >= t_after && counted[lane] {
                    retired[lane] = Some(Retire::Newton);
                    counted[lane] = false;
                    metrics.retired_newton += 1;
                    fired = true;
                    false
                } else {
                    t < t_after
                }
            });
            if fired {
                if let Some(src) = first_counted(&counted) {
                    for (l, r) in retired.iter().enumerate() {
                        if r.is_some() {
                            st.mirror(l, src);
                        }
                    }
                }
                if !any_counted(&counted) {
                    break 'time;
                }
            }
        }

        // Effective step for this attempt (scalar controller logic;
        // windows are the union over lanes).
        let h_step = if adaptive {
            while win_idx < windows.len() && windows[win_idx].end <= t {
                win_idx += 1;
            }
            let mut hh = h_cur;
            if let Some(w) = windows.get(win_idx) {
                if t >= w.start {
                    if hh > w.cap {
                        hh = w.cap;
                        metrics.refine_source += 1;
                    }
                } else if hh > w.start - t {
                    hh = w.start - t;
                    metrics.refine_source += 1;
                }
            }
            hh.max(dt_min).min(t_end - t)
        } else {
            h
        };
        #[allow(clippy::cast_precision_loss)]
        let t_next = if adaptive {
            t + h_step
        } else {
            (step_idx + 1) as f64 * h
        };

        // Per-plateau companions + linear restamp when dt changed.
        if h_step != h_stamped {
            kprof.mark();
            phi_coef = PI * h_step / PHI0;
            for (e, c) in st.cap_c.iter().enumerate() {
                for (l, &cl) in c.iter().enumerate() {
                    st.g_cap_lin[e][l] = 2.0 * cl / h_step;
                }
            }
            for (e, lv) in st.ind_l.iter().enumerate() {
                for (l, &ll) in lv.iter().enumerate() {
                    st.g_ind[e][l] = h_step / (2.0 * ll);
                }
            }
            for (e, c) in st.jj_c.iter().enumerate() {
                for (l, &cl) in c.iter().enumerate() {
                    st.g_jjcap[e][l] = 2.0 * cl / h_step;
                }
            }
            a_lin.iter_mut().for_each(|x| *x = ZERO);
            for (s, g) in lin_idx[..n_res].iter().zip(&st.g_res) {
                apply_stamp_lanes(&mut a_lin, *s, *g);
            }
            for (s, g) in lin_idx[n_res..n_res + n_cap].iter().zip(&st.g_cap_lin) {
                apply_stamp_lanes(&mut a_lin, *s, *g);
            }
            for (s, g) in lin_idx[n_res + n_cap..].iter().zip(&st.g_ind) {
                apply_stamp_lanes(&mut a_lin, *s, *g);
            }
            h_stamped = h_step;
            lu_valid = false;
            metrics.restamps += 1;
            kprof.lap(K_RESTAMP);
        }

        st.v_prev.copy_from_slice(&st.v);
        st.v_iter.copy_from_slice(&st.v);

        // Per-step rhs: C/L history currents + per-lane source values.
        kprof.mark();
        rhs_base.iter_mut().for_each(|x| *x = ZERO);
        for (e, &(a, b)) in cap_ab.iter().enumerate() {
            let mut i_hist = ZERO;
            for (l, ih) in i_hist.iter_mut().enumerate() {
                let vb = st.v_prev[a][l] - st.v_prev[b][l];
                *ih = -st.g_cap_lin[e][l] * vb - st.i_cap[e][l];
            }
            stamp_i_lanes(&mut rhs_base, a, b, i_hist);
        }
        for (e, &(a, b)) in ind_ab.iter().enumerate() {
            let mut i_hist = ZERO;
            for (l, ih) in i_hist.iter_mut().enumerate() {
                let vb = st.v_prev[a][l] - st.v_prev[b][l];
                *ih = st.i_ind[e][l] + st.g_ind[e][l] * vb;
            }
            stamp_i_lanes(&mut rhs_base, a, b, i_hist);
        }
        for (s, &(into, from)) in src_ab.iter().enumerate() {
            let mut iv = ZERO;
            for (l, slot) in iv.iter_mut().enumerate() {
                *slot = lane_ckt(l).sources[s].waveform.value(t_next);
            }
            if into > 0 {
                for l in 0..LANES {
                    rhs_base[into - 1][l] += iv[l];
                }
            }
            if from > 0 {
                for l in 0..LANES {
                    rhs_base[from - 1][l] -= iv[l];
                }
            }
        }
        kprof.lap(K_STAMP);

        // Newton iteration until every counted lane converges.
        let mut conv_lane = [false; LANES];
        let mut converged = false;
        'newton: for _ in 0..opts.max_newton {
            metrics.newton_iters += 1;
            kprof.mark();
            // Linearize every junction in every lane: φₖ = phase + Δ
            // with sin/cos(Δ) by branch-free polynomial (per-lane libm
            // beyond ROT_MAX) rotated against the committed
            // sin/cos(phase).
            let mut reuse = lu_valid;
            for e in 0..n_jj {
                let (a, b) = jj_ab[e];
                let mut delta = ZERO;
                let mut vb_k = ZERO;
                let mut vb_prev = ZERO;
                for l in 0..LANES {
                    vb_prev[l] = st.v_prev[a][l] - st.v_prev[b][l];
                    vb_k[l] = st.v_iter[a][l] - st.v_iter[b][l];
                    delta[l] = phi_coef * (vb_k[l] + vb_prev[l]);
                }
                let (sin_d, cos_d) = sin_cos_rot(delta);
                let mut sin_phi = ZERO;
                let mut cos_phi = ZERO;
                for l in 0..LANES {
                    sin_phi[l] = st.sin_ph[e][l] * cos_d[l] + st.cos_ph[e][l] * sin_d[l];
                    cos_phi[l] = st.cos_ph[e][l] * cos_d[l] - st.sin_ph[e][l] * sin_d[l];
                }
                if delta.iter().any(|x| x.abs() > ROT_MAX) {
                    for l in 0..LANES {
                        if delta[l].abs() > ROT_MAX {
                            let phi = st.phase[e][l] + delta[l];
                            sin_phi[l] = phi.sin();
                            cos_phi[l] = phi.cos();
                        }
                    }
                }
                let mut g = ZERO;
                for l in 0..LANES {
                    let g_cap = st.g_jjcap[e][l];
                    i_at_vk[e][l] = st.jj_ic[e][l] * sin_phi[l]
                        + vb_k[l] * st.jj_g_shunt[e][l]
                        + g_cap * (vb_k[l] - vb_prev[l])
                        - st.i_jj_cap[e][l];
                    g[l] = st.jj_ic[e][l] * cos_phi[l] * phi_coef + st.jj_g_shunt[e][l] + g_cap;
                }
                if reuse {
                    for l in 0..LANES {
                        if counted[l] && (g[l] - lu_g[e][l]).abs() > G_REUSE_RTOL * lu_g[e][l].abs()
                        {
                            reuse = false;
                        }
                    }
                }
                g_now[e] = g;
                vb_k_buf[e] = vb_k;
            }
            // History currents against the conductance each lane will
            // actually solve with (factored-in values on reuse), so a
            // converged iterate satisfies KCL exactly — the scalar
            // solver's chord-Newton identity, lane-wise.
            for e in 0..n_jj {
                let g_mat = if reuse { lu_g[e] } else { g_now[e] };
                for l in 0..LANES {
                    ihist_now[e][l] = i_at_vk[e][l] - g_mat[l] * vb_k_buf[e][l];
                }
            }
            kprof.lap(K_JJ_STAMP_RHS);

            if reuse {
                metrics.lu_reuse += 1;
                rhs.copy_from_slice(&rhs_base);
                for (e, &(a, b)) in jj_ab.iter().enumerate() {
                    stamp_i_lanes(&mut rhs, a, b, ihist_now[e]);
                }
                kprof.lap(K_JJ_STAMP_RHS);
            } else {
                // Factor; a tiny pivot retires that lane (mirrored
                // from a healthy sibling) and the factorization is
                // redone — bounded by the lane count, and in practice
                // never taken on these diagonally-dominant systems.
                loop {
                    metrics.lu_factor += 1;
                    lu.copy_from_slice(&a_lin);
                    rhs.copy_from_slice(&rhs_base);
                    for (e, &(a, b)) in jj_ab.iter().enumerate() {
                        apply_stamp_lanes(&mut lu, jj_idx[e], g_now[e]);
                        stamp_i_lanes(&mut rhs, a, b, ihist_now[e]);
                    }
                    let ok = factor_banded_packed_lanes(&mut lu, n_unknown, bandwidth);
                    let mut newly_retired = false;
                    for l in 0..LANES {
                        if counted[l] && !ok[l] {
                            retired[l] = Some(Retire::Singular);
                            counted[l] = false;
                            metrics.retired_singular += 1;
                            newly_retired = true;
                        }
                    }
                    if !any_counted(&counted) {
                        kprof.lap(K_LU_FACTOR);
                        break 'time;
                    }
                    if !newly_retired {
                        break;
                    }
                    let Some(src) = first_counted(&counted) else {
                        break;
                    };
                    for (l, r) in retired.iter().enumerate() {
                        if r.is_some() {
                            st.mirror(l, src);
                        }
                    }
                    // Re-linearized values for mirrored lanes equal the
                    // source lane's; copy them directly.
                    for e in 0..n_jj {
                        for l in 0..LANES {
                            if retired[l].is_some() {
                                g_now[e][l] = g_now[e][src];
                                ihist_now[e][l] = ihist_now[e][src];
                                i_at_vk[e][l] = i_at_vk[e][src];
                                vb_k_buf[e][l] = vb_k_buf[e][src];
                            }
                        }
                    }
                }
                lu_g.copy_from_slice(&g_now);
                lu_valid = true;
                kprof.lap(K_LU_FACTOR);
            }
            solve_factored_packed_lanes(&lu, &mut rhs, n_unknown, bandwidth);
            kprof.lap(K_LU_SOLVE);

            // Per-lane update + convergence (reduction over counted
            // lanes only; a NaN never satisfies `< tol`).
            let mut max_dv = ZERO;
            for (i, s) in rhs.iter().enumerate() {
                for l in 0..LANES {
                    let dv = (s[l] - st.v_iter[i + 1][l]).abs();
                    if dv > max_dv[l] {
                        max_dv[l] = dv;
                    }
                    st.v_iter[i + 1][l] = s[l];
                }
            }
            let mut all = true;
            for l in 0..LANES {
                conv_lane[l] = max_dv[l] < opts.tol_v;
                if counted[l] && !conv_lane[l] {
                    all = false;
                }
            }
            kprof.lap(K_NEWTON);
            if all {
                converged = true;
                break 'newton;
            }
        }
        if !converged {
            if adaptive && h_step > dt_min {
                metrics.reject_newton += 1;
                h_cur = (h_step * 0.5).max(dt_min);
                good_streak = 0;
                continue;
            }
            // At dt_min (or in fixed mode): retire the unconverged
            // lanes; converged siblings carry on.
            for l in 0..LANES {
                if counted[l] && !conv_lane[l] {
                    retired[l] = Some(Retire::Newton);
                    counted[l] = false;
                    metrics.retired_newton += 1;
                }
            }
            if !any_counted(&counted) {
                break 'time;
            }
            if let Some(src) = first_counted(&counted) {
                for (l, r) in retired.iter().enumerate() {
                    if r.is_some() {
                        st.mirror(l, src);
                    }
                }
            }
        }

        // Accept/reject on the counted-lane maxima (adaptive only).
        kprof.mark();
        if adaptive {
            let mut dphi_l = ZERO;
            for &(a, b) in &jj_ab {
                for (l, dp) in dphi_l.iter_mut().enumerate() {
                    let vb_prev = st.v_prev[a][l] - st.v_prev[b][l];
                    let vb_new = st.v_iter[a][l] - st.v_iter[b][l];
                    let dphi = (phi_coef * (vb_new + vb_prev)).abs();
                    if dphi > *dp {
                        *dp = dphi;
                    }
                }
            }
            let tbar_new = t + 0.5 * h_step;
            let span = tbar_prev - tbar_prev2;
            let scale = if span > 0.0 {
                (tbar_new - tbar_prev) / span
            } else {
                1.0
            };
            let mut lte_l = ZERO;
            for i in 1..node_count {
                for (l, le) in lte_l.iter_mut().enumerate() {
                    st.vbar_new[i][l] = 0.5 * (st.v_iter[i][l] + st.v_prev[i][l]);
                    let pred =
                        st.vbar_prev[i][l] + (st.vbar_prev[i][l] - st.vbar_prev2[i][l]) * scale;
                    let e = (st.vbar_new[i][l] - pred).abs();
                    if e > *le {
                        *le = e;
                    }
                }
            }
            let mut lte = 0.0f64;
            let mut dphi_max = 0.0f64;
            for l in 0..LANES {
                if counted[l] {
                    if lte_l[l] > lte {
                        lte = lte_l[l];
                    }
                    if dphi_l[l] > dphi_max {
                        dphi_max = dphi_l[l];
                    }
                }
            }
            if h_step > dt_min && (lte > lte_tol || dphi_max > PHASE_MAX_STEP) {
                if lte > lte_tol {
                    metrics.reject_lte += 1;
                } else {
                    metrics.reject_phase += 1;
                }
                h_cur = (h_step * 0.5).max(dt_min);
                good_streak = 0;
                kprof.lap(K_LTE);
                continue;
            }
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

        // Commit.
        metrics.steps += 1;
        let reanchor = step_idx.is_multiple_of(TRIG_REANCHOR);
        for (e, &(a, b)) in jj_ab.iter().enumerate() {
            let mut new_phase = ZERO;
            let mut vb_new = ZERO;
            let mut vb_prev = ZERO;
            let mut d = ZERO;
            for l in 0..LANES {
                vb_prev[l] = st.v_prev[a][l] - st.v_prev[b][l];
                vb_new[l] = st.v_iter[a][l] - st.v_iter[b][l];
                d[l] = phi_coef * (vb_new[l] + vb_prev[l]);
                new_phase[l] = st.phase[e][l] + d[l];
            }
            // Pulse detection per counted instance lane (scalar
            // formula, including adaptive in-step interpolation).
            for (inst, times) in pulse_times.iter_mut().enumerate() {
                if !counted[inst] {
                    continue;
                }
                let old_phase = st.phase[e][inst];
                let np = new_phase[inst];
                #[allow(clippy::cast_precision_loss)]
                while np > (2 * pulse_count[e][inst] + 1) as f64 * PI {
                    #[allow(clippy::cast_precision_loss)]
                    let threshold = (2 * pulse_count[e][inst] + 1) as f64 * PI;
                    let t_pulse = if adaptive && np > old_phase {
                        t + h_step * ((threshold - old_phase) / (np - old_phase))
                    } else {
                        t_next
                    };
                    times[e].push(t_pulse);
                    pulse_count[e][inst] += 1;
                }
            }
            // Refresh the committed-phase sin/cos the Newton rotations
            // build on: rotate the previous anchor through the step's
            // increment (vectorizable; the adaptive controller caps
            // |Δφ| at `PHASE_MAX_STEP` < `ROT_MAX`), falling back to
            // libm every `TRIG_REANCHOR` steps — and whenever a lane
            // exceeds `ROT_MAX`, as fixed-mode steps can — so the
            // polynomial error is re-zeroed instead of accumulating.
            if reanchor || d.iter().any(|x| x.abs() > ROT_MAX) {
                for (l, &np) in new_phase.iter().enumerate() {
                    st.sin_ph[e][l] = np.sin();
                    st.cos_ph[e][l] = np.cos();
                }
            } else {
                let (sin_d, cos_d) = sin_cos_rot(d);
                for l in 0..LANES {
                    let (s, c) = (st.sin_ph[e][l], st.cos_ph[e][l]);
                    st.sin_ph[e][l] = s * cos_d[l] + c * sin_d[l];
                    st.cos_ph[e][l] = c * cos_d[l] - s * sin_d[l];
                }
            }
            for (l, diss) in dissipated.iter_mut().enumerate() {
                st.phase[e][l] = new_phase[l];
                st.i_jj_cap[e][l] = st.g_jjcap[e][l] * (vb_new[l] - vb_prev[l]) - st.i_jj_cap[e][l];
                let p_shunt = vb_new[l] * vb_new[l] / st.jj_r[e][l];
                jj_dissipated[e][l] += p_shunt * h_step;
                *diss += p_shunt * h_step;
            }
        }
        for (e, &(a, b)) in cap_ab.iter().enumerate() {
            for l in 0..LANES {
                let d = (st.v_iter[a][l] - st.v_iter[b][l]) - (st.v_prev[a][l] - st.v_prev[b][l]);
                st.i_cap[e][l] = st.g_cap_lin[e][l] * d - st.i_cap[e][l];
            }
        }
        for (e, &(a, b)) in ind_ab.iter().enumerate() {
            for l in 0..LANES {
                let s = (st.v_iter[a][l] - st.v_iter[b][l]) + (st.v_prev[a][l] - st.v_prev[b][l]);
                st.i_ind[e][l] += st.g_ind[e][l] * s;
            }
        }
        for (e, &(a, b)) in res_ab.iter().enumerate() {
            for (l, diss) in dissipated.iter_mut().enumerate() {
                let vb = st.v_iter[a][l] - st.v_iter[b][l];
                *diss += vb * vb / st.res_r[e][l] * h_step;
            }
        }
        if adaptive {
            std::mem::swap(&mut st.vbar_prev2, &mut st.vbar_prev);
            std::mem::swap(&mut st.vbar_prev, &mut st.vbar_new);
            tbar_prev2 = tbar_prev;
            tbar_prev = t + 0.5 * h_step;
        }
        st.v.copy_from_slice(&st.v_iter);
        t = t_next;
        step_idx += 1;
        if record {
            trace_times.push(t_next);
            for (inst, tr) in traces.iter_mut().enumerate() {
                for (slot, node) in opts.record_nodes.iter().enumerate() {
                    tr[slot].push(st.v[node.index()][inst]);
                }
            }
        }
        kprof.lap(K_COMMIT);
    }

    kprof.flush(&metrics);
    drop(prof_run);
    if sfq_obs::prof::enabled() {
        sfq_obs::prof::count("batch_lanes", k as u64);
        sfq_obs::prof::count("batch_retired_newton", metrics.retired_newton);
        sfq_obs::prof::count("batch_retired_singular", metrics.retired_singular);
        sfq_obs::prof::count(
            "batch_occupancy_final",
            counted.iter().filter(|&&c| c).count() as u64,
        );
    }
    drop(prof_batch);
    metrics.flush(k as u64, counted.iter().filter(|&&c| c).count() as u64);

    // Assemble per-instance results; retired instances fall back to
    // the scalar golden path in the caller.
    (0..k)
        .map(|inst| {
            if retired[inst].is_some() {
                return None;
            }
            Some(SimResult {
                dt: dt_min,
                t_end,
                pulse_times: std::mem::take(&mut pulse_times[inst]),
                final_phases: st.phase.iter().map(|p| p[inst]).collect(),
                dissipated_j: dissipated[inst],
                jj_dissipated_j: jj_dissipated.iter().map(|p| p[inst]).collect(),
                traces: std::mem::take(&mut traces[inst]),
                trace_times: trace_times.clone(),
                accepted_steps: metrics.steps,
                rejected_steps: metrics.rejected(),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stdlib::{jtl_chain, JtlParams};

    fn perturbed(scale: f64) -> (Circuit, Vec<crate::ElementId>) {
        let p = JtlParams {
            ic: 1.0e-4 * scale,
            ..JtlParams::default()
        };
        jtl_chain(6, &p)
    }

    #[test]
    fn batched_matches_scalar_on_perturbed_chains() {
        let scales = [1.0, 0.97, 1.03, 0.97, 1.06];
        let t_end = 200e-12;
        let circuits: Vec<Circuit> = scales.iter().map(|&s| perturbed(s).0).collect();
        let probes = perturbed(1.0).1;
        let batch =
            BatchedTransient::new(circuits.clone(), SimOptions::adaptive()).expect("valid batch");
        set_batch_width(Some(LANES));
        let batched = batch.try_run(t_end);
        set_batch_width(None);
        for (i, c) in circuits.iter().enumerate() {
            let scalar = Solver::new(c.clone(), SimOptions::adaptive())
                .expect("valid circuit")
                .try_run(t_end)
                .expect("scalar converges");
            let b = batched[i].as_ref().expect("batched converges");
            for &jj in &probes {
                assert_eq!(
                    b.pulse_count(jj),
                    scalar.pulse_count(jj),
                    "instance {i} pulse count"
                );
                for (tb, ts) in b.pulse_times(jj).iter().zip(scalar.pulse_times(jj)) {
                    assert!(
                        (tb - ts).abs() <= 0.5e-12,
                        "instance {i}: pulse at {ts:e} vs batched {tb:e}"
                    );
                }
            }
            let e_rel = (b.dissipated_j - scalar.dissipated_j).abs() / scalar.dissipated_j;
            assert!(e_rel < 0.05, "instance {i} dissipation off by {e_rel:.3}");
        }
    }

    #[test]
    fn topology_mismatch_is_typed_error() {
        let (a, _) = perturbed(1.0);
        let (b, _) = jtl_chain(7, &JtlParams::default());
        let err = BatchedTransient::new(vec![a, b], SimOptions::adaptive());
        assert!(matches!(
            err,
            Err(SimError::InvalidParameter {
                element: "batch",
                field: "topology",
                ..
            })
        ));
    }

    #[test]
    fn injected_retirement_does_not_disturb_siblings() {
        let scales = [1.0, 0.97, 1.03, 1.06];
        let t_end = 200e-12;
        let circuits: Vec<Circuit> = scales.iter().map(|&s| perturbed(s).0).collect();
        let probes = perturbed(1.0).1;
        let mut batch =
            BatchedTransient::new(circuits.clone(), SimOptions::adaptive()).expect("valid batch");
        batch.inject_newton_failure(1, 60e-12);
        set_batch_width(Some(LANES));
        let batched = batch.try_run(t_end);
        set_batch_width(None);
        for (i, c) in circuits.iter().enumerate() {
            let scalar = Solver::new(c.clone(), SimOptions::adaptive())
                .expect("valid circuit")
                .try_run(t_end)
                .expect("scalar converges");
            let b = batched[i].as_ref().expect("batched converges");
            for &jj in &probes {
                assert_eq!(b.pulse_count(jj), scalar.pulse_count(jj), "instance {i}");
                for (tb, ts) in b.pulse_times(jj).iter().zip(scalar.pulse_times(jj)) {
                    assert!((tb - ts).abs() <= 0.5e-12, "instance {i}");
                }
            }
        }
        // The injected instance fell back to the scalar path, so its
        // result is the scalar result *exactly*.
        let scalar1 = Solver::new(circuits[1].clone(), SimOptions::adaptive())
            .expect("valid circuit")
            .try_run(t_end)
            .expect("scalar converges");
        let b1 = batched[1].as_ref().expect("fallback converges");
        for &jj in &probes {
            assert_eq!(b1.pulse_times(jj), scalar1.pulse_times(jj));
        }
    }

    #[test]
    fn width_one_is_the_scalar_path() {
        let (c, probes) = perturbed(1.0);
        set_batch_width(Some(1));
        let batch =
            BatchedTransient::new(vec![c.clone()], SimOptions::adaptive()).expect("valid batch");
        let out = batch.try_run(150e-12);
        set_batch_width(None);
        let scalar = Solver::new(c, SimOptions::adaptive())
            .expect("valid circuit")
            .try_run(150e-12)
            .expect("scalar converges");
        let b = out[0].as_ref().expect("batch-of-one converges");
        for &jj in &probes {
            assert_eq!(b.pulse_times(jj), scalar.pulse_times(jj));
        }
        assert_eq!(
            b.final_phase(probes[0]).to_bits(),
            scalar.final_phase(probes[0]).to_bits()
        );
    }
}
