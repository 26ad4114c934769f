//! Layer clocks: host time the benchmark spends inside its own calls
//! into each crate, recorded only while `sfq_obs` is enabled. No span
//! is added inside any crate; the clocks wrap the public calls from
//! here.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The layer calls the workloads time. Calls never nest, so the clocks
/// add up to the attributed share of a step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `supernpu::evaluator` (Figs. 15, 17, 23, Tables I–III).
    Evaluator,
    /// `supernpu::explore` (Figs. 20–22).
    Explore,
    /// `supernpu::pareto` and `supernpu::latency` (the Pareto study).
    Pareto,
    /// `supernpu::ablations`.
    Ablations,
    /// `supernpu::sensitivity`.
    Sensitivity,
    /// `supernpu::summary` and `supernpu::export`.
    Summary,
    /// `scale_sim::simulate_network` on the TPU core.
    ScaleSimTpu,
    /// `scale_sim::simulate_network` on the other CMOS machines.
    ScaleSimOther,
    /// `jjsim::extract` validation transients (Figs. 7 and 13).
    JjsimValidation,
    /// `sfq_chars::characterize` of the nominal library.
    CharsNominal,
    /// `sfq_chars::characterize_with` of a process corner.
    CharsCorner,
    /// Direct estimator calls (`estimate`, `netdesign`, `clocking`).
    EstimatorDirect,
    /// `SimConfig::try_from_npu` (estimator behind its memo).
    FromNpu,
    /// `sfq_estimator::estimate_uncached` on the same points.
    Uncached,
    /// `sfq_npu_sim::simulate_network` (largest batch).
    NpuSim,
    /// `sfq_npu_sim::simulate_network_with_batch(.., 1)`.
    NpuSimB1,
    /// `dnn_models::duplication`.
    Dnn,
    /// `sfq_faults::yield_curve` on the JTL.
    FaultsJtl,
    /// `sfq_faults::yield_curve` on the DFF.
    FaultsDff,
    /// `sfq_faults::yield_curve` on the clocked AND.
    FaultsAnd,
    /// `jjsim::margins` bias-margin searches.
    Margins,
}

impl Layer {
    /// Every layer, in index order.
    pub const ALL: [Layer; 21] = [
        Layer::Evaluator,
        Layer::Explore,
        Layer::Pareto,
        Layer::Ablations,
        Layer::Sensitivity,
        Layer::Summary,
        Layer::ScaleSimTpu,
        Layer::ScaleSimOther,
        Layer::JjsimValidation,
        Layer::CharsNominal,
        Layer::CharsCorner,
        Layer::EstimatorDirect,
        Layer::FromNpu,
        Layer::Uncached,
        Layer::NpuSim,
        Layer::NpuSimB1,
        Layer::Dnn,
        Layer::FaultsJtl,
        Layer::FaultsDff,
        Layer::FaultsAnd,
        Layer::Margins,
    ];

    /// Layers whose calls run `jjsim` transients.
    pub const JJSIM: [Layer; 7] = [
        Layer::JjsimValidation,
        Layer::CharsNominal,
        Layer::CharsCorner,
        Layer::FaultsJtl,
        Layer::FaultsDff,
        Layer::FaultsAnd,
        Layer::Margins,
    ];
}

struct Clock {
    ns: AtomicU64,
    calls: AtomicU64,
    units: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)]
const IDLE: Clock = Clock {
    ns: AtomicU64::new(0),
    calls: AtomicU64::new(0),
    units: AtomicU64::new(0),
};

static CLOCKS: [Clock; Layer::ALL.len()] = [IDLE; Layer::ALL.len()];
/// Run `f` as one call into `layer` that does `units` units of work
/// (networks' layers, samples); with `sfq_obs` disabled this is just
/// `f()`.
pub fn timed<R>(layer: Layer, units: u64, f: impl FnOnce() -> R) -> R {
    if !sfq_obs::enabled() {
        return f();
    }
    let t0 = Instant::now();
    let out = f();
    let ns = t0.elapsed().as_nanos() as u64;
    let c = &CLOCKS[layer as usize];
    c.ns.fetch_add(ns, Ordering::Relaxed);
    c.calls.fetch_add(1, Ordering::Relaxed);
    c.units.fetch_add(units, Ordering::Relaxed);
    out
}

/// Totals of one layer's clock.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Host nanoseconds inside the layer's calls (summed over threads).
    pub ns: u64,
    /// Calls made.
    pub calls: u64,
    /// Work units the calls covered.
    pub units: u64,
}

/// Current totals of `layer`.
pub fn totals(layer: Layer) -> Totals {
    let c = &CLOCKS[layer as usize];
    Totals {
        ns: c.ns.load(Ordering::Relaxed),
        calls: c.calls.load(Ordering::Relaxed),
        units: c.units.load(Ordering::Relaxed),
    }
}

/// Zero every clock.
pub fn reset() {
    for c in &CLOCKS {
        c.ns.store(0, Ordering::Relaxed);
        c.calls.store(0, Ordering::Relaxed);
        c.units.store(0, Ordering::Relaxed);
    }
}
