//! The four workloads. Each one is a closed loop of steps: the runner
//! starts step `k + 1` when step `k` returns. Inputs repeat with a
//! period, so every repetition of a step must reproduce its digest.

use dnn_models::{duplication::network_duplication, zoo, zoo_ext, Network};
use jjsim::extract::{
    and_clock_to_q, and_cycle_energy, dff_clock_to_q, dff_cycle_energy, jtl_characteristics,
    max_shift_frequency, splitter_delay,
};
use jjsim::margins::{dff_bias_margin, jtl_bias_margin};
use jjsim::stdlib::{AndParams, DffParams, JtlParams};
use scale_sim::CmosNpuConfig;
use sfq_cells::{BiasScheme, CellLibrary};
use sfq_estimator::clocking::feedback_comparison;
use sfq_estimator::netdesign::fig5_sweep;
use sfq_estimator::{estimate, estimate_uncached, NpuConfig};
use sfq_faults::{yield_curve, Cell, McOptions};
use sfq_npu_sim::{simulate_network, simulate_network_with_batch, SimConfig};
use supernpu::designs::DesignPoint;
use supernpu::evaluator::average_speedup;

use crate::digest::Digest;
use crate::inputs::{self, Corner, DesignInput};
use crate::layers::{timed, Layer};

/// Workload names, in presentation order.
pub const NAMES: [&str; 4] = ["paper_repro", "design_sweep", "yield_mc", "corners"];

/// Input sizes: the measured size, or a tiny one for smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The size the benchmark measures.
    Full,
    /// A few milliseconds per step.
    Smoke,
}

/// What one step did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepOut {
    /// Operations attempted (passes, points, samples, corners).
    pub items: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Digest of everything the step simulated.
    pub digest: u64,
}

/// One workload.
pub trait Workload {
    /// Distinct steps before the inputs repeat.
    fn period(&self) -> usize;
    /// Whether every step starts with empty estimator, chars and
    /// margin-probe memos, as a fresh process would.
    fn fresh_memos(&self) -> bool {
        false
    }
    /// Whether a step keeps every `sfq-par` worker busy: its layer
    /// clocks then run on the workers (adding up to threads × wall
    /// time) and the host is calibrated on every thread, not just the
    /// calling one.
    fn parallel(&self) -> bool {
        false
    }
    /// Run step `k`; its inputs are those of step `k % period()`.
    fn step(&mut self, k: usize) -> StepOut;
    /// Traced-run measurements made outside the steps.
    fn trace_extra(&mut self) {}
    /// Reference values to print beside the numbers (never gated).
    fn notes(&self) -> Vec<String> {
        Vec::new()
    }
}

/// Build workload `name` from `seed`: inputs, network zoo and cell
/// libraries. The warm-up step is the runner's.
///
/// # Errors
///
/// Unknown workload name.
pub fn build(name: &str, seed: u64, size: Size) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "paper_repro" => Box::new(PaperRepro::new()),
        "design_sweep" => Box::new(DesignSweep::new(seed, size)),
        "yield_mc" => Box::new(YieldMc::new(seed, size)),
        "corners" => Box::new(Corners::new(seed, size)),
        _ => {
            return Err(format!(
                "unknown workload `{name}` (known: {})",
                NAMES.join(", ")
            ))
        }
    })
}

fn fold<T: std::fmt::Debug, E: std::fmt::Display>(
    d: &mut Digest,
    failed: &mut u64,
    r: Result<T, E>,
) {
    match r {
        Ok(v) => d.debug(&v),
        Err(e) => {
            *failed += 1;
            d.bytes(e.to_string().as_bytes());
        }
    }
}

// ------------------------------------------------------------ paper_repro

/// One in-process pass of the 20 experiment binaries: the same public
/// calls, with the estimator and chars memos cleared first because
/// every binary starts in a fresh process. Rows go into the digest
/// instead of being printed.
struct PaperRepro {
    lib: CellLibrary,
    nets: Vec<Network>,
    all_nets: Vec<Network>,
    notes: Vec<String>,
}

impl PaperRepro {
    fn new() -> Self {
        let nets = zoo::all();
        let mut all_nets = nets.clone();
        all_nets.extend(zoo_ext::all_extensions());
        PaperRepro {
            lib: CellLibrary::aist_10um(),
            nets,
            all_nets,
            notes: Vec::new(),
        }
    }
}

impl Workload for PaperRepro {
    fn period(&self) -> usize {
        1
    }

    fn fresh_memos(&self) -> bool {
        true
    }

    fn step(&mut self, _k: usize) -> StepOut {
        use supernpu::{ablations, evaluator, explore, export, latency, pareto, sensitivity};
        let lib = &self.lib;
        let mut d = Digest::default();
        let mut failed = 0;

        // fig05_network
        d.debug(&timed(Layer::EstimatorDirect, 0, || fig5_sweep(8, lib)));
        // fig07_feedback
        d.debug(&timed(Layer::EstimatorDirect, 0, || {
            feedback_comparison(lib)
        }));
        let sr = timed(Layer::JjsimValidation, 0, || {
            max_shift_frequency(&DffParams::default(), 5.0, 50.0)
        });
        fold(&mut d, &mut failed, sr);
        // fig08_duplication
        for net in &self.nets {
            d.debug(&timed(Layer::Dnn, 0, || network_duplication(net)));
        }
        // fig13_validation
        let (jtl_p, dff_p, and_p) = (
            JtlParams::default(),
            DffParams::default(),
            AndParams::default(),
        );
        let golden = timed(Layer::JjsimValidation, 0, || {
            Ok::<_, jjsim::SimError>((
                jtl_characteristics(8, &jtl_p)?,
                splitter_delay(&jtl_p)?,
                dff_clock_to_q(&dff_p)?,
                dff_cycle_energy(&dff_p)?,
                max_shift_frequency(&dff_p, 5.0, 50.0)?,
                and_clock_to_q(&and_p)?,
                and_cycle_energy(&and_p)?,
            ))
        });
        fold(&mut d, &mut failed, golden);
        d.debug(&timed(Layer::EstimatorDirect, 0, || {
            let tiny = NpuConfig {
                name: "2x2 4-bit NPU".into(),
                array_height: 2,
                array_width: 2,
                bits: 4,
                regs_per_pe: 1,
                ifmap_buf_bytes: 64,
                output_buf_bytes: 64,
                psum_buf_bytes: 64,
                weight_buf_bytes: 16,
                division: 1,
                integrated_output: false,
            };
            (
                feedback_comparison(lib).sr_feedback_ghz,
                estimate(&tiny, lib),
            )
        }));
        // fig15, fig17, fig23, table1-3
        let fig23 = timed(Layer::Evaluator, 0, || {
            d.debug(&evaluator::fig15_cycle_breakdown());
            d.debug(&evaluator::fig17_roofline());
            let fig23 = evaluator::fig23_performance();
            d.debug(&fig23);
            let t1 = evaluator::table1_setup();
            d.debug(&t1);
            d.debug(&evaluator::table2_batches());
            d.debug(&evaluator::table3_power());
            (fig23, t1)
        });
        // fig20-22
        timed(Layer::Explore, 0, || {
            d.debug(&explore::fig20_buffer_sweep());
            d.debug(&explore::fig21_resource_sweep());
            d.debug(&explore::fig22_register_sweep());
        });
        // ablations
        d.debug(&timed(Layer::Ablations, 0, ablations::all_ablations));
        // ext_sensitivity
        timed(Layer::Sensitivity, 0, || {
            d.debug(&sensitivity::bandwidth_sweep());
            d.debug(&sensitivity::process_sweep());
            d.debug(&sensitivity::cooling_sweep(2.3, 16.7));
        });
        // ext_accelerators
        let cmos = [
            CmosNpuConfig::eyeriss(),
            CmosNpuConfig::tpu_core(),
            CmosNpuConfig::datacenter_big(),
        ];
        let sfq = timed(Layer::EstimatorDirect, 0, || {
            DesignPoint::SuperNpu.sim_config()
        });
        for (i, net) in self.all_nets.iter().enumerate() {
            let layers = net.layers().len() as u64;
            for (c, cfg) in cmos.iter().enumerate() {
                let clock = if c == 1 && i < self.nets.len() {
                    Layer::ScaleSimTpu
                } else {
                    Layer::ScaleSimOther
                };
                let s = timed(clock, layers, || scale_sim::simulate_network(cfg, net));
                d.f64(s.effective_tmacs());
            }
            let s = timed(Layer::NpuSim, layers, || simulate_network(&sfq, net));
            d.f64(s.effective_tmacs());
            let big = timed(Layer::ScaleSimOther, layers, || {
                scale_sim::simulate_network(&cmos[2], net)
            });
            d.f64(s.effective_tmacs() / big.effective_tmacs());
        }
        // ext_characterize
        let measured = timed(Layer::CharsNominal, 0, sfq_chars::characterize);
        match measured {
            Ok(measured) => timed(Layer::EstimatorDirect, 0, || {
                let cfg = NpuConfig::paper_supernpu();
                d.debug(&measured);
                d.debug(&estimate(&cfg, &measured));
                d.debug(&estimate(&cfg, lib));
            }),
            Err(e) => fold::<(), _>(&mut d, &mut failed, Err(e)),
        }
        // ext_pareto
        timed(Layer::Pareto, 0, || {
            let grid = pareto::evaluate_grid();
            d.debug(&pareto::pareto_front(&grid));
            d.u64(grid.len() as u64);
            let cfg = DesignPoint::SuperNpu.sim_config();
            let curve = latency::latency_curve(&cfg, &zoo::resnet50());
            d.debug(&curve);
            d.debug(latency::knee(&curve, 0.5));
        });
        // export_csv, full_report
        timed(Layer::Summary, 0, || {
            for set in export::all_datasets() {
                d.bytes(set.name.as_bytes());
                d.bytes(set.csv.as_bytes());
            }
            d.bytes(supernpu::summary::full_report().as_bytes());
        });

        if self.notes.is_empty() {
            let (rows, t1) = &fig23;
            let geomean = average_speedup(rows, DesignPoint::SuperNpu);
            let swing = geomean / average_speedup(rows, DesignPoint::Baseline);
            let clock = t1
                .iter()
                .find(|r| r.design == DesignPoint::SuperNpu.label())
                .map_or(f64::NAN, |r| r.frequency_ghz);
            self.notes = vec![
                format!("fig23_supernpu_geomean_x measured={geomean:.2} paper=23"),
                format!("optimization_swing_x measured={swing:.1} paper=60"),
                format!("table1_clock_ghz measured={clock:.1} paper=52.6"),
            ];
        }
        StepOut {
            items: 1,
            failed: failed.min(1),
            digest: d.value(),
        }
    }

    fn notes(&self) -> Vec<String> {
        self.notes.clone()
    }
}

// ----------------------------------------------------------- design_sweep

/// Unique design points, 50 per step, spread over the threads with
/// `sfq_par::par_map`. Each point is estimated and then simulated on
/// the six paper CNNs at the largest batch and at batch 1.
struct DesignSweep {
    grid: Vec<DesignInput>,
    chunk: usize,
    nets: Vec<Network>,
    rsfq: CellLibrary,
    ersfq: CellLibrary,
}

impl DesignSweep {
    fn new(seed: u64, size: Size) -> Self {
        let (points, chunk) = match size {
            Size::Full => (inputs::DESIGN_GRID_POINTS, 50),
            Size::Smoke => (8, 4),
        };
        let rsfq = CellLibrary::aist_10um();
        DesignSweep {
            grid: inputs::design_grid(seed, points),
            chunk,
            nets: zoo::all(),
            ersfq: rsfq.with_bias(BiasScheme::Ersfq),
            rsfq,
        }
    }

    fn chunk(&self, k: usize) -> &[DesignInput] {
        let start = (k % self.period()) * self.chunk;
        &self.grid[start..(start + self.chunk).min(self.grid.len())]
    }

    fn lib(&self, bias: BiasScheme) -> &CellLibrary {
        match bias {
            BiasScheme::Rsfq => &self.rsfq,
            BiasScheme::Ersfq => &self.ersfq,
        }
    }
}

impl Workload for DesignSweep {
    fn period(&self) -> usize {
        self.grid.len().div_ceil(self.chunk)
    }

    fn parallel(&self) -> bool {
        true
    }

    fn step(&mut self, k: usize) -> StepOut {
        let chunk = self.chunk(k);
        let per_point = sfq_par::par_map(chunk, |p| {
            let npu = p.npu.clone();
            let lib = self.lib(p.bias);
            let cfg = timed(Layer::FromNpu, 0, || SimConfig::try_from_npu(npu, lib));
            let mut d = Digest::default();
            let cfg = match cfg {
                Ok(cfg) => cfg,
                Err(e) => {
                    d.bytes(e.to_string().as_bytes());
                    return (1, d.value());
                }
            };
            for net in &self.nets {
                let layers = net.layers().len() as u64;
                let s = timed(Layer::NpuSim, layers, || simulate_network(&cfg, net));
                d.u64(s.total_cycles());
                d.f64(s.effective_tmacs());
                let s1 = timed(Layer::NpuSimB1, layers, || {
                    simulate_network_with_batch(&cfg, net, 1)
                });
                d.u64(s1.total_cycles());
                d.f64(s1.effective_tmacs());
            }
            (0, d.value())
        });
        let mut d = Digest::default();
        let mut failed = 0;
        for (f, v) in per_point {
            failed += f;
            d.u64(v);
        }
        StepOut {
            items: chunk.len() as u64,
            failed,
            digest: d.value(),
        }
    }

    /// `estimate_uncached` on every grid point, for the memo's cost.
    fn trace_extra(&mut self) {
        for k in 0..self.period() {
            sfq_par::par_map(self.chunk(k), |p| {
                let lib = self.lib(p.bias);
                timed(Layer::Uncached, 0, || estimate_uncached(&p.npu, lib))
            });
        }
    }
}

// --------------------------------------------------------------- yield_mc

/// `sfq_faults::yield_curve` for every cell over the σ grid: lane-batched
/// jjsim transients in coarse `sfq-par` tasks, no checkpointing, no
/// fault injection. Each step of the period draws from its own
/// Monte-Carlo seed.
struct YieldMc {
    seeds: Vec<u64>,
    sigmas: Vec<f64>,
    samples: u32,
}

impl YieldMc {
    fn new(seed: u64, size: Size) -> Self {
        let (period, sigmas, samples) = match size {
            Size::Full => (4, inputs::SIGMAS.to_vec(), 32),
            Size::Smoke => (1, vec![inputs::SIGMAS[0], inputs::SIGMAS[4]], 4),
        };
        YieldMc {
            seeds: inputs::mc_seeds(seed, period),
            sigmas,
            samples,
        }
    }
}

impl Workload for YieldMc {
    fn period(&self) -> usize {
        self.seeds.len()
    }

    fn step(&mut self, k: usize) -> StepOut {
        let seed = self.seeds[k % self.period()];
        let opts = McOptions::new(self.samples);
        let per_cell = u64::from(self.samples) * self.sigmas.len() as u64;
        let mut d = Digest::default();
        let mut failed = 0;
        for cell in Cell::all() {
            let clock = match cell {
                Cell::Jtl => Layer::FaultsJtl,
                Cell::Dff => Layer::FaultsDff,
                Cell::ClockedAnd => Layer::FaultsAnd,
            };
            match timed(clock, per_cell, || {
                yield_curve(cell, &self.sigmas, seed, &opts)
            }) {
                Ok(points) => {
                    // A non-convergent sample is an outcome of the
                    // yield study (the cell could not be certified),
                    // tallied in the digest; a panicked probe fails.
                    for p in &points {
                        failed += u64::from(p.panicked);
                        d.debug(p);
                    }
                }
                Err(e) => {
                    failed += per_cell;
                    d.bytes(e.to_string().as_bytes());
                }
            }
        }
        StepOut {
            items: 3 * per_cell,
            failed,
            digest: d.value(),
        }
    }
}

// ---------------------------------------------------------------- corners

/// A seeded walk of process corners, re-characterized with scalar
/// transients and the per-family memo, each followed by an estimate of
/// SuperNPU under the corner's library; then the JTL and DFF bias
/// margins. Memos start empty every pass.
struct Corners {
    walk: Vec<Corner>,
    supernpu: NpuConfig,
}

impl Corners {
    fn new(seed: u64, size: Size) -> Self {
        let n = match size {
            Size::Full => 12,
            Size::Smoke => 3,
        };
        Corners {
            walk: inputs::corner_walk(seed, n),
            supernpu: NpuConfig::paper_supernpu(),
        }
    }
}

impl Workload for Corners {
    fn period(&self) -> usize {
        1
    }

    fn fresh_memos(&self) -> bool {
        true
    }

    fn step(&mut self, _k: usize) -> StepOut {
        let mut d = Digest::default();
        let mut failed = 0;
        for c in &self.walk {
            match timed(Layer::CharsCorner, 1, || {
                sfq_chars::characterize_with(&c.jtl, &c.dff, &c.and)
            }) {
                Ok(lib) => {
                    for (kind, g) in lib.iter() {
                        d.debug(&kind);
                        d.f64(g.delay_ps);
                        d.f64(g.energy_aj);
                    }
                    let est = timed(Layer::EstimatorDirect, 0, || estimate(&self.supernpu, &lib));
                    d.f64(est.frequency_ghz);
                    d.f64(est.static_w);
                }
                Err(e) => {
                    failed += 1;
                    d.bytes(e.to_string().as_bytes());
                }
            }
        }
        let margins = timed(Layer::Margins, 0, || {
            Ok::<_, jjsim::SimError>((jtl_bias_margin()?, dff_bias_margin()?))
        });
        fold(&mut d, &mut failed, margins);
        StepOut {
            items: self.walk.len() as u64,
            failed,
            digest: d.value(),
        }
    }
}
