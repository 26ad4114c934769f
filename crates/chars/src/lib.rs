//! # sfq-chars
//!
//! Closes the loop between the circuit level and the architecture
//! level: characterize a [`sfq_cells::CellLibrary`] *from transient
//! simulation*, exactly how the paper's flow derives its gate
//! parameters from JSIM runs (§IV-A.1: "we extract all gate parameters
//! by running JSIM simulations").
//!
//! The measured cells are the ones `jjsim` implements (JTL, splitter,
//! DFF, clocked AND, shift register); the remaining library rows are
//! scaled from the measured AND using the shipped library's relative
//! proportions — the standard practice when only a subset of a family
//! has silicon-grade characterization.
//!
//! # Example
//!
//! ```no_run
//! let lib = sfq_chars::characterize().expect("transient runs converge");
//! assert!(lib.gate(sfq_cells::GateKind::Jtl).delay_ps > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::Instant;

use jjsim::extract::{
    and_clock_to_q, and_clock_to_q_many, and_cycle_energy, and_cycle_energy_many, dff_clock_to_q,
    dff_clock_to_q_many, dff_cycle_energy, dff_cycle_energy_many, jtl_characteristics,
    jtl_characteristics_many, max_shift_frequency, splitter_delay, splitter_delay_many,
};
use jjsim::stdlib::{AndParams, DffParams, JtlParams};
use jjsim::SimError;
use parking_lot::RwLock;
use sfq_cells::{CellLibrary, DeviceParams, GateKind, GateParams};

/// Bias-network recharge energy per switched junction, attojoules
/// (Φ₀·I_b at the default 0.5·I_c bias point) — added to the shunt
/// dissipation the transient solver measures.
fn bias_recharge_aj(bias_a: f64) -> f64 {
    bias_a * jjsim::PHI0 * 1e18
}

/// Raw measurements backing a characterization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurements {
    /// JTL per-stage delay, ps.
    pub jtl_delay_ps: f64,
    /// JTL per-switching shunt energy, aJ.
    pub jtl_energy_aj: f64,
    /// Splitter delay, ps.
    pub splitter_delay_ps: f64,
    /// DFF clock-to-Q, ps.
    pub dff_delay_ps: f64,
    /// DFF store+release shunt energy, aJ.
    pub dff_energy_aj: f64,
    /// Clocked-AND clock-to-Q, ps.
    pub and_delay_ps: f64,
    /// Clocked-AND evaluate shunt energy, aJ.
    pub and_energy_aj: f64,
    /// Maximum functional shift-register clock, GHz.
    pub sr_max_ghz: f64,
}

// ------------------------------------------------------- measurement cache

/// JTL chain length used by the JTL testbench.
const JTL_STAGES: usize = 8;
/// Shift-register frequency-bisection bounds, GHz.
const SR_BISECT_LO_GHZ: f64 = 5.0;
const SR_BISECT_HI_GHZ: f64 = 50.0;

/// Bit-exact fingerprint of every input feeding the testbenches: the
/// three cell parameter sets (as `f64::to_bits`) plus the testbench
/// scalars. Two keys are equal iff the transient runs would be
/// bit-identical, so a cache hit can never change a result.
type MeasureKey = [u64; 21];

fn measure_key(jtl: &JtlParams, dff: &DffParams, and: &AndParams) -> MeasureKey {
    [
        jtl.ic.to_bits(),
        jtl.bias_frac.to_bits(),
        jtl.l.to_bits(),
        jtl.input_amplitude.to_bits(),
        jtl.input_time.to_bits(),
        dff.ic_in.to_bits(),
        dff.ic_out.to_bits(),
        dff.l_store.to_bits(),
        dff.bias_store.to_bits(),
        dff.bias_out.to_bits(),
        dff.pulse_amplitude.to_bits(),
        and.ic_store.to_bits(),
        and.ic_out.to_bits(),
        and.l_store.to_bits(),
        and.bias_store.to_bits(),
        and.bias_out.to_bits(),
        and.pulse_amplitude.to_bits(),
        and.clock_amplitude.to_bits(),
        JTL_STAGES as u64,
        SR_BISECT_LO_GHZ.to_bits(),
        SR_BISECT_HI_GHZ.to_bits(),
    ]
}

/// Process-wide memo of completed measurement runs. A linear scan is
/// fine: there is one key per distinct parameter set, a handful per
/// process at most.
static MEASURE_CACHE: RwLock<Vec<(MeasureKey, Measurements)>> = RwLock::new(Vec::new());

// ------------------------------------------------ per-testbench memoization
//
// A sweep that perturbs one cell family's parameters (a margins probe,
// a Fig. 21/22 design point) used to re-run *every* testbench because
// the monolithic `MeasureKey` fingerprints all three parameter sets at
// once. The measurement is therefore split along testbench boundaries
// — the JTL benches depend only on `JtlParams`, the DFF benches only
// on `DffParams`, the AND benches only on `AndParams` — each with its
// own bit-exact key and memo, generalizing the margins probe memo of
// `jjsim::margins` to the whole characterization layer. Only the
// testbenches whose parameters actually changed between sweep points
// re-run their transients (observable via [`jjsim::transient_runs`]).

/// JTL-family raw measurements (JTL chain + splitter testbenches).
#[derive(Debug, Clone, Copy)]
struct JtlMeas {
    jtl_delay_ps: f64,
    jtl_energy_aj: f64,
    splitter_delay_ps: f64,
}

/// DFF-family raw measurements (clock-to-Q, cycle energy, and the
/// shift-register frequency bisection, which is built from DFFs).
#[derive(Debug, Clone, Copy)]
struct DffMeas {
    dff_delay_ps: f64,
    dff_energy_aj: f64,
    sr_max_ghz: f64,
}

/// Clocked-AND raw measurements.
#[derive(Debug, Clone, Copy)]
struct AndMeas {
    and_delay_ps: f64,
    and_energy_aj: f64,
}

type JtlKey = [u64; 6];
type DffKey = [u64; 8];
type AndKey = [u64; 7];

fn jtl_bench_key(p: &JtlParams) -> JtlKey {
    [
        p.ic.to_bits(),
        p.bias_frac.to_bits(),
        p.l.to_bits(),
        p.input_amplitude.to_bits(),
        p.input_time.to_bits(),
        JTL_STAGES as u64,
    ]
}

fn dff_bench_key(p: &DffParams) -> DffKey {
    [
        p.ic_in.to_bits(),
        p.ic_out.to_bits(),
        p.l_store.to_bits(),
        p.bias_store.to_bits(),
        p.bias_out.to_bits(),
        p.pulse_amplitude.to_bits(),
        SR_BISECT_LO_GHZ.to_bits(),
        SR_BISECT_HI_GHZ.to_bits(),
    ]
}

fn and_bench_key(p: &AndParams) -> AndKey {
    [
        p.ic_store.to_bits(),
        p.ic_out.to_bits(),
        p.l_store.to_bits(),
        p.bias_store.to_bits(),
        p.bias_out.to_bits(),
        p.pulse_amplitude.to_bits(),
        p.clock_amplitude.to_bits(),
    ]
}

static JTL_BENCH_CACHE: RwLock<Vec<(JtlKey, JtlMeas)>> = RwLock::new(Vec::new());
static DFF_BENCH_CACHE: RwLock<Vec<(DffKey, DffMeas)>> = RwLock::new(Vec::new());
static AND_BENCH_CACHE: RwLock<Vec<(AndKey, AndMeas)>> = RwLock::new(Vec::new());

fn bench_cache_hit() {
    sfq_obs::inc("chars.bench.cache_hit");
}

fn bench_cache_miss() {
    sfq_obs::inc("chars.bench.cache_miss");
}

fn jtl_measurements(p: &JtlParams) -> Result<JtlMeas, SimError> {
    let key = jtl_bench_key(p);
    if let Some((_, m)) = JTL_BENCH_CACHE.read().iter().find(|(k, _)| *k == key) {
        bench_cache_hit();
        sfq_obs::prof::count("bench_cache_hit", 1);
        return Ok(*m);
    }
    bench_cache_miss();
    let _pf = sfq_obs::prof::frame("jtl_bench");
    let jtl = jtl_characteristics(JTL_STAGES, p)?;
    let m = JtlMeas {
        jtl_delay_ps: jtl.delay_s * 1e12,
        jtl_energy_aj: jtl.energy_j * 1e18,
        splitter_delay_ps: splitter_delay(p)? * 1e12,
    };
    let mut cache = JTL_BENCH_CACHE.write();
    if !cache.iter().any(|(k, _)| *k == key) {
        cache.push((key, m));
    }
    Ok(m)
}

fn dff_measurements(p: &DffParams) -> Result<DffMeas, SimError> {
    let key = dff_bench_key(p);
    if let Some((_, m)) = DFF_BENCH_CACHE.read().iter().find(|(k, _)| *k == key) {
        bench_cache_hit();
        sfq_obs::prof::count("bench_cache_hit", 1);
        return Ok(*m);
    }
    bench_cache_miss();
    let _pf = sfq_obs::prof::frame("dff_bench");
    let m = DffMeas {
        dff_delay_ps: dff_clock_to_q(p)? * 1e12,
        dff_energy_aj: dff_cycle_energy(p)? * 1e18,
        sr_max_ghz: max_shift_frequency(p, SR_BISECT_LO_GHZ, SR_BISECT_HI_GHZ)? / 1e9,
    };
    let mut cache = DFF_BENCH_CACHE.write();
    if !cache.iter().any(|(k, _)| *k == key) {
        cache.push((key, m));
    }
    Ok(m)
}

fn and_measurements(p: &AndParams) -> Result<AndMeas, SimError> {
    let key = and_bench_key(p);
    if let Some((_, m)) = AND_BENCH_CACHE.read().iter().find(|(k, _)| *k == key) {
        bench_cache_hit();
        sfq_obs::prof::count("bench_cache_hit", 1);
        return Ok(*m);
    }
    bench_cache_miss();
    let _pf = sfq_obs::prof::frame("and_bench");
    let m = AndMeas {
        and_delay_ps: and_clock_to_q(p)? * 1e12,
        and_energy_aj: and_cycle_energy(p)? * 1e18,
    };
    let mut cache = AND_BENCH_CACHE.write();
    if !cache.iter().any(|(k, _)| *k == key) {
        cache.push((key, m));
    }
    Ok(m)
}

/// Always-on `chars.measure.cache_hit` / `chars.measure.cache_miss`
/// counters in the [`sfq_obs`] registry (the former ad-hoc statics):
/// they record whether or not `SUPERNPU_METRICS` is set, so the
/// [`measure_cache_stats`] alias keeps its pre-registry behavior.
fn cache_counters() -> (&'static sfq_obs::Counter, &'static sfq_obs::Counter) {
    static C: OnceLock<(&'static sfq_obs::Counter, &'static sfq_obs::Counter)> = OnceLock::new();
    *C.get_or_init(|| {
        (
            sfq_obs::counter("chars.measure.cache_hit"),
            sfq_obs::counter("chars.measure.cache_miss"),
        )
    })
}

/// `(hits, misses)` of the measurement cache since process start (or
/// the last [`clear_measure_cache`]).
///
/// Deprecated alias: thin wrapper over the `chars.measure.cache_hit` /
/// `chars.measure.cache_miss` counters in the [`sfq_obs`] registry;
/// prefer reading those (or [`sfq_obs::snapshot`]) in new code.
pub fn measure_cache_stats() -> (u64, u64) {
    let (hits, misses) = cache_counters();
    (hits.get(), misses.get())
}

/// Drop all cached measurements (the assembled-measurement memo and
/// every per-testbench memo) and reset the hit/miss counters.
pub fn clear_measure_cache() {
    MEASURE_CACHE.write().clear();
    JTL_BENCH_CACHE.write().clear();
    DFF_BENCH_CACHE.write().clear();
    AND_BENCH_CACHE.write().clear();
    let (hits, misses) = cache_counters();
    hits.reset();
    misses.reset();
}

/// Run every transient testbench and collect the raw numbers.
///
/// Results are memoized process-wide on a bit-exact fingerprint of the
/// testbench inputs: repeated calls (the library is re-characterized by
/// every sweep that wants transient-grounded gate parameters) return
/// the cached [`Measurements`] without re-running any `jjsim`
/// transient — observable via [`jjsim::transient_runs`].
///
/// # Errors
///
/// Propagates any transient-solver failure. Errors are not cached.
pub fn measure() -> Result<Measurements, SimError> {
    measure_with(
        &JtlParams::default(),
        &DffParams::default(),
        &AndParams::default(),
    )
}

/// [`measure`] for explicit (possibly perturbed) cell parameters — the
/// entry point for sweeps that move a subset of the parameter space.
///
/// Memoization is two-level: an outer memo on the full parameter
/// fingerprint returns an assembled [`Measurements`] without touching
/// any testbench, and on an outer miss each testbench family (JTL,
/// DFF, clocked AND) consults its own memo keyed only on the
/// parameters that feed it. A sweep point that perturbs, say, the AND
/// parameters re-runs *only* the AND transients; the JTL and DFF
/// numbers are reused bit-identically from the previous point.
///
/// # Errors
///
/// Propagates any transient-solver failure. Errors are not cached.
pub fn measure_with(
    jtl_p: &JtlParams,
    dff_p: &DffParams,
    and_p: &AndParams,
) -> Result<Measurements, SimError> {
    let key = measure_key(jtl_p, dff_p, and_p);

    let _pf = sfq_obs::prof::frame("chars.measure");
    let (cache_hits, cache_misses) = cache_counters();
    if let Some((_, m)) = MEASURE_CACHE.read().iter().find(|(k, _)| *k == key) {
        cache_hits.inc();
        sfq_obs::prof::count("cache_hit", 1);
        return Ok(*m);
    }
    cache_misses.inc();
    sfq_obs::prof::count("cache_miss", 1);
    let fill_started = sfq_obs::enabled().then(Instant::now);
    let fill_frame = sfq_obs::prof::frame("fill");

    let jtl = jtl_measurements(jtl_p)?;
    let dff = dff_measurements(dff_p)?;
    let and = and_measurements(and_p)?;
    let m = Measurements {
        jtl_delay_ps: jtl.jtl_delay_ps,
        jtl_energy_aj: jtl.jtl_energy_aj,
        splitter_delay_ps: jtl.splitter_delay_ps,
        dff_delay_ps: dff.dff_delay_ps,
        dff_energy_aj: dff.dff_energy_aj,
        and_delay_ps: and.and_delay_ps,
        and_energy_aj: and.and_energy_aj,
        sr_max_ghz: dff.sr_max_ghz,
    };
    drop(fill_frame);
    if let Some(t0) = fill_started {
        sfq_obs::observe("chars.measure.fill_ms", t0.elapsed().as_secs_f64() * 1e3);
    }

    let mut cache = MEASURE_CACHE.write();
    if !cache.iter().any(|(k, _)| *k == key) {
        cache.push((key, m));
    }
    Ok(m)
}

/// Prefill one family's bench memo from lane-batched extractions.
/// Dedups the requested parameter sets against the memo (and within
/// the request) so each distinct point runs its transients exactly
/// once, batched [`jjsim::LANES`]-wide.
fn prefill_jtl_benches(ps: &[&JtlParams]) -> Result<(), SimError> {
    let mut missing: Vec<JtlParams> = Vec::new();
    let mut keys: Vec<JtlKey> = Vec::new();
    {
        let cache = JTL_BENCH_CACHE.read();
        for p in ps {
            let key = jtl_bench_key(p);
            if !keys.contains(&key) && !cache.iter().any(|(k, _)| *k == key) {
                keys.push(key);
                missing.push(**p);
            }
        }
    }
    if missing.is_empty() {
        return Ok(());
    }
    let _pf = sfq_obs::prof::frame("jtl_bench_batch");
    let chains = jtl_characteristics_many(JTL_STAGES, &missing)?;
    let splits = splitter_delay_many(&missing)?;
    let mut cache = JTL_BENCH_CACHE.write();
    for ((key, ex), split) in keys.into_iter().zip(chains).zip(splits) {
        if !cache.iter().any(|(k, _)| *k == key) {
            cache.push((
                key,
                JtlMeas {
                    jtl_delay_ps: ex.delay_s * 1e12,
                    jtl_energy_aj: ex.energy_j * 1e18,
                    splitter_delay_ps: split * 1e12,
                },
            ));
        }
    }
    Ok(())
}

fn prefill_dff_benches(ps: &[&DffParams]) -> Result<(), SimError> {
    let mut missing: Vec<DffParams> = Vec::new();
    let mut keys: Vec<DffKey> = Vec::new();
    {
        let cache = DFF_BENCH_CACHE.read();
        for p in ps {
            let key = dff_bench_key(p);
            if !keys.contains(&key) && !cache.iter().any(|(k, _)| *k == key) {
                keys.push(key);
                missing.push(**p);
            }
        }
    }
    if missing.is_empty() {
        return Ok(());
    }
    let _pf = sfq_obs::prof::frame("dff_bench_batch");
    let delays = dff_clock_to_q_many(&missing)?;
    let energies = dff_cycle_energy_many(&missing)?;
    // The shift-register search is a sequential bisection (each trial
    // period depends on the previous verdict) — it stays scalar per
    // point; the batched benches above already carry the bulk of the
    // transient load.
    let mut srs = Vec::with_capacity(missing.len());
    for p in &missing {
        srs.push(max_shift_frequency(p, SR_BISECT_LO_GHZ, SR_BISECT_HI_GHZ)? / 1e9);
    }
    let mut cache = DFF_BENCH_CACHE.write();
    for (((key, delay), energy), sr) in keys.into_iter().zip(delays).zip(energies).zip(srs) {
        if !cache.iter().any(|(k, _)| *k == key) {
            cache.push((
                key,
                DffMeas {
                    dff_delay_ps: delay * 1e12,
                    dff_energy_aj: energy * 1e18,
                    sr_max_ghz: sr,
                },
            ));
        }
    }
    Ok(())
}

fn prefill_and_benches(ps: &[&AndParams]) -> Result<(), SimError> {
    let mut missing: Vec<AndParams> = Vec::new();
    let mut keys: Vec<AndKey> = Vec::new();
    {
        let cache = AND_BENCH_CACHE.read();
        for p in ps {
            let key = and_bench_key(p);
            if !keys.contains(&key) && !cache.iter().any(|(k, _)| *k == key) {
                keys.push(key);
                missing.push(**p);
            }
        }
    }
    if missing.is_empty() {
        return Ok(());
    }
    let _pf = sfq_obs::prof::frame("and_bench_batch");
    let delays = and_clock_to_q_many(&missing)?;
    let energies = and_cycle_energy_many(&missing)?;
    let mut cache = AND_BENCH_CACHE.write();
    for ((key, delay), energy) in keys.into_iter().zip(delays).zip(energies) {
        if !cache.iter().any(|(k, _)| *k == key) {
            cache.push((
                key,
                AndMeas {
                    and_delay_ps: delay * 1e12,
                    and_energy_aj: energy * 1e18,
                },
            ));
        }
    }
    Ok(())
}

/// [`measure_with`] over many design points at once — the family
/// re-characterization entry point for sweeps.
///
/// Each cell family's testbenches run as [`jjsim::BatchedTransient`]
/// groups over all points whose parameters for that family are not
/// already memoized (distinct points only — duplicated parameter sets
/// are deduplicated first), then every point is assembled through the
/// ordinary [`measure_with`] memo path. With batching disabled
/// (`SUPERNPU_BATCH=0`), this degrades to exactly the per-point scalar
/// measurement.
///
/// # Errors
///
/// Propagates the first transient-solver failure. Errors are not
/// cached.
pub fn measure_many(
    points: &[(JtlParams, DffParams, AndParams)],
) -> Result<Vec<Measurements>, SimError> {
    if jjsim::batch_width() >= 2 && points.len() > 1 {
        let _pf = sfq_obs::prof::frame("chars.measure_many");
        prefill_jtl_benches(&points.iter().map(|p| &p.0).collect::<Vec<_>>())?;
        prefill_dff_benches(&points.iter().map(|p| &p.1).collect::<Vec<_>>())?;
        prefill_and_benches(&points.iter().map(|p| &p.2).collect::<Vec<_>>())?;
    }
    points
        .iter()
        .map(|(jtl_p, dff_p, and_p)| measure_with(jtl_p, dff_p, and_p))
        .collect()
}

/// Turn measurements into a full cell library.
///
/// Measured rows (JTL, splitter, DFF, AND) use their transient delays
/// and bias-corrected energies; the DFF's setup/hold split is derived
/// from the measured shift-register clock limit
/// (`setup + hold = 1/f_max − data/clock transit`), and the other
/// clocked gates inherit the reference library's proportions relative
/// to its AND row. JJ counts and static power keep the reference
/// values (they are structural, not timing, properties).
pub fn library_from(m: &Measurements) -> CellLibrary {
    let reference = CellLibrary::aist_10um();
    let ref_and = reference.gate(GateKind::And);

    // Timing scale factor for unmeasured clocked gates.
    let delay_scale = m.and_delay_ps / ref_and.delay_ps;
    // Setup + hold window from the SR functional limit: the counter-
    // flow cycle covers setup + hold + data + clock transit; transit is
    // roughly the measured DFF delay plus half a JTL.
    let sr_cct_ps = 1000.0 / m.sr_max_ghz;
    let window = (sr_cct_ps - m.dff_delay_ps - 0.5 * m.jtl_delay_ps).max(2.0);
    let ref_dff = reference.gate(GateKind::Dff);
    let ref_window = ref_dff.setup_ps + ref_dff.hold_ps;
    let window_scale = window / ref_window;

    let mut gates = BTreeMap::new();
    for (kind, r) in reference.iter() {
        let g = match kind {
            GateKind::Jtl => GateParams {
                delay_ps: m.jtl_delay_ps,
                energy_aj: 2.0 * (m.jtl_energy_aj + bias_recharge_aj(0.7e-4)),
                ..*r
            },
            GateKind::Splitter => GateParams {
                delay_ps: m.splitter_delay_ps,
                // The splitter's hub junction has doubled critical
                // current: twice the per-switching energy of a JTL
                // junction at the same bias fraction.
                energy_aj: 2.0 * (m.jtl_energy_aj + bias_recharge_aj(0.7e-4)),
                ..*r
            },
            GateKind::Dff => GateParams {
                delay_ps: m.dff_delay_ps.max(1.0),
                setup_ps: r.setup_ps * window_scale,
                hold_ps: r.hold_ps * window_scale,
                energy_aj: 0.5 * (m.dff_energy_aj + bias_recharge_aj(1.0e-4)),
                ..*r
            },
            GateKind::And => GateParams {
                delay_ps: m.and_delay_ps,
                setup_ps: r.setup_ps * window_scale,
                hold_ps: r.hold_ps * window_scale,
                energy_aj: m.and_energy_aj + bias_recharge_aj(1.5e-4),
                ..*r
            },
            // Unmeasured gates: scale timing from the reference's
            // proportions against its AND row.
            _ => GateParams {
                delay_ps: r.delay_ps * delay_scale,
                setup_ps: r.setup_ps * window_scale,
                hold_ps: r.hold_ps * window_scale,
                ..*r
            },
        };
        gates.insert(kind, g);
    }
    CellLibrary::new(DeviceParams::aist_10um(), gates)
        .unwrap_or_else(|e| unreachable!("characterized parameters are positive and complete: {e}"))
}

/// Measure and build in one call.
///
/// # Errors
///
/// Propagates any transient-solver failure.
pub fn characterize() -> Result<CellLibrary, SimError> {
    Ok(library_from(&measure()?))
}

/// [`characterize`] for explicit cell parameters, with
/// [`measure_with`]'s incremental per-testbench memoization.
///
/// # Errors
///
/// Propagates any transient-solver failure.
pub fn characterize_with(
    jtl_p: &JtlParams,
    dff_p: &DffParams,
    and_p: &AndParams,
) -> Result<CellLibrary, SimError> {
    Ok(library_from(&measure_with(jtl_p, dff_p, and_p)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurements_are_physical() {
        let m = measure().expect("transients converge");
        assert!(m.jtl_delay_ps > 1.0 && m.jtl_delay_ps < 15.0);
        assert!(m.splitter_delay_ps > 1.0 && m.splitter_delay_ps < 20.0);
        assert!(m.dff_delay_ps > 0.5 && m.dff_delay_ps < 20.0);
        assert!(m.and_delay_ps > 1.0 && m.and_delay_ps < 25.0);
        assert!(m.sr_max_ghz > 20.0 && m.sr_max_ghz < 220.0);
        assert!(m.jtl_energy_aj > 0.05 && m.jtl_energy_aj < 5.0);
    }

    #[test]
    fn batched_measure_many_tracks_scalar_extraction() {
        // Perturbed (non-default) parameter sets so this test's cache
        // keys never collide with the other tests'.
        let points: Vec<(JtlParams, DffParams, AndParams)> = [0.96, 0.99, 1.02, 1.04, 1.07]
            .iter()
            .map(|&s| {
                let jtl = JtlParams {
                    ic: 1.0e-4 * s,
                    ..JtlParams::default()
                };
                // The shift-register bench only works within roughly
                // −0.2%..+1% of the nominal readout Ic; keep the DFF
                // perturbation inside that window.
                let dff = DffParams {
                    ic_out: DffParams::default().ic_out * (1.0 + 0.03 * (s - 1.0)),
                    ..DffParams::default()
                };
                // The clocked AND stops firing ~6% above nominal
                // readout Ic; stay within ±2%.
                let and = AndParams {
                    ic_out: AndParams::default().ic_out * (1.0 + 0.3 * (s - 1.0)),
                    ..AndParams::default()
                };
                (jtl, dff, and)
            })
            .collect();
        let many = measure_many(&points).expect("batched characterization runs");
        assert_eq!(many.len(), points.len());
        for (m, (jtl_p, dff_p, and_p)) in many.iter().zip(&points) {
            // Delays agree with fresh scalar extraction to the batch
            // contract's pulse-time tolerance (each delay is a
            // difference of two pulse times, 0.5 ps each).
            let jtl = jtl_characteristics(JTL_STAGES, jtl_p).expect("scalar jtl");
            assert!(
                (m.jtl_delay_ps - jtl.delay_s * 1e12).abs() <= 1.0,
                "jtl delay {} vs scalar {}",
                m.jtl_delay_ps,
                jtl.delay_s * 1e12
            );
            let dffd = dff_clock_to_q(dff_p).expect("scalar dff") * 1e12;
            assert!(
                (m.dff_delay_ps - dffd).abs() <= 1.0,
                "dff delay {} vs scalar {dffd}",
                m.dff_delay_ps
            );
            let andd = and_clock_to_q(and_p).expect("scalar and") * 1e12;
            assert!(
                (m.and_delay_ps - andd).abs() <= 1.0,
                "and delay {} vs scalar {andd}",
                m.and_delay_ps
            );
            // Energies are integrals over near-identical trajectories.
            let ande = and_cycle_energy(and_p).expect("scalar and energy") * 1e18;
            let rel = (m.and_energy_aj - ande).abs() / ande;
            assert!(
                rel < 0.05,
                "and energy {} vs scalar {ande}",
                m.and_energy_aj
            );
        }
        // A second pass over the same points is served entirely from
        // the memo: no new transients.
        let runs = jjsim::transient_runs();
        let again = measure_many(&points).expect("memoized");
        assert_eq!(
            jjsim::transient_runs(),
            runs,
            "second pass must be memoized"
        );
        for (a, b) in many.iter().zip(&again) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn measured_library_is_complete_and_valid() {
        let lib = characterize().expect("characterization runs");
        for (k, g) in lib.iter() {
            assert!(g.delay_ps > 0.0, "{k:?}");
            assert!(g.energy_aj > 0.0, "{k:?}");
        }
    }

    #[test]
    fn measured_library_tracks_reference_within_2x() {
        // The independent transient testbenches and the shipped
        // (paper-calibrated) library agree on every measured quantity
        // to within a factor of two.
        let measured = characterize().expect("characterization runs");
        let reference = CellLibrary::aist_10um();
        for kind in [GateKind::Jtl, GateKind::Splitter, GateKind::And] {
            let ratio = measured.gate(kind).delay_ps / reference.gate(kind).delay_ps;
            assert!(
                (0.5..2.0).contains(&ratio),
                "{kind:?} delay ratio {ratio:.2}"
            );
            let e_ratio = measured.gate(kind).energy_aj / reference.gate(kind).energy_aj;
            assert!(
                (0.4..2.5).contains(&e_ratio),
                "{kind:?} energy ratio {e_ratio:.2}"
            );
        }
    }

    #[test]
    fn architecture_estimate_from_measured_library_is_same_regime() {
        // End-to-end: transient physics -> cell library -> NPU clock.
        // The measured library must put the SuperNPU clock within 2x
        // of the paper's 52.6 GHz.
        let measured = characterize().expect("characterization runs");
        let est = sfq_estimator::estimate(&sfq_estimator::NpuConfig::paper_supernpu(), &measured);
        assert!(
            est.frequency_ghz > 26.0 && est.frequency_ghz < 105.0,
            "measured-library clock {:.1} GHz",
            est.frequency_ghz
        );
        assert!(est.static_w > 0.0);
    }
}
