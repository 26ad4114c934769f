//! Seeded input generators. Every function here is a pure function of
//! its arguments: the same seed gives the same inputs, and the crates
//! under test only ever see the generated values, never the seed.

use jjsim::stdlib::{AndParams, DffParams, JtlParams};
use sfq_cells::BiasScheme;
use sfq_estimator::NpuConfig;

/// SplitMix64: a tiny, well-mixed generator owned by the benchmark so
/// that its inputs do not change when a crate's RNG does.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Generator for one input family: `tag` separates the streams that
    /// different workloads draw from the same seed.
    pub fn new(seed: u64, tag: u64) -> Self {
        let mut r = Rng(seed ^ tag.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }

    /// Standard normal draw (Box-Muller).
    pub fn normal(&mut self) -> f64 {
        let u1 = 1.0 - self.unit();
        let u2 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// One corner-to-corner step of `v`: a multiplicative draw, kept
    /// within the corner window around `nominal`.
    fn walk(&mut self, v: &mut f64, nominal: f64) {
        let step = *v * (1.0 + CORNER_SIGMA * self.normal());
        *v = step.clamp(
            nominal * (1.0 - CORNER_WINDOW),
            nominal * (1.0 + CORNER_WINDOW),
        );
    }
}

const MB: u64 = 1024 * 1024;
const KB: u64 = 1024;

/// One design point of the `design_sweep` grid.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignInput {
    /// The architecture handed to the estimator and simulator.
    pub npu: NpuConfig,
    /// Which cell library biasing the point is estimated under.
    pub bias: BiasScheme,
}

const WIDTHS: [u32; 5] = [16, 32, 64, 128, 256];
const REGS: [u32; 5] = [1, 2, 4, 8, 16];
const BUFFER_MB: [u64; 5] = [6, 12, 18, 24, 30];
const DIVISIONS: [u32; 5] = [1, 4, 16, 64, 256];
const BIASES: [BiasScheme; 2] = [BiasScheme::Rsfq, BiasScheme::Ersfq];

/// Number of points in the full design grid: more than the estimator
/// memo's 1024-entry cap, so a sweep over it never hits the memo.
pub const DESIGN_GRID_POINTS: usize =
    WIDTHS.len() * REGS.len() * BUFFER_MB.len() * DIVISIONS.len() * BIASES.len();

/// The `design_sweep` grid: every combination of array width, weight
/// registers per PE, buffer size, division degree and bias scheme,
/// each buffer jittered by a seeded multiple of 64 KB (so every seed
/// has its own unique points) and the whole grid shuffled. `points`
/// truncates the shuffled grid (smoke runs).
pub fn design_grid(seed: u64, points: usize) -> Vec<DesignInput> {
    let mut rng = Rng::new(seed, 1);
    let mut grid = Vec::with_capacity(DESIGN_GRID_POINTS);
    for &width in &WIDTHS {
        for &regs in &REGS {
            for &mb in &BUFFER_MB {
                for &division in &DIVISIONS {
                    for &bias in &BIASES {
                        let buf = mb * MB + rng.below(16) as u64 * 64 * KB;
                        let npu = NpuConfig {
                            name: format!("w{width}r{regs}b{mb}d{division}"),
                            array_width: width,
                            regs_per_pe: regs,
                            ifmap_buf_bytes: buf,
                            output_buf_bytes: buf,
                            psum_buf_bytes: 0,
                            weight_buf_bytes: 16 * KB * u64::from(regs),
                            division,
                            integrated_output: true,
                            ..NpuConfig::paper_baseline()
                        };
                        grid.push(DesignInput { npu, bias });
                    }
                }
            }
        }
    }
    for i in (1..grid.len()).rev() {
        grid.swap(i, rng.below(i + 1));
    }
    grid.truncate(points);
    grid
}

/// The σ grid of the `yield_mc` workload, the one the repository's
/// yield bench sweeps. At 0.20 and 0.35 some samples leave the
/// lane-batched solver for the per-sample scalar path, and some of
/// those end non-convergent.
pub const SIGMAS: [f64; 5] = [0.02, 0.05, 0.10, 0.20, 0.35];

/// Monte-Carlo seeds of the `yield_mc` workload, one per step of its
/// period.
pub fn mc_seeds(seed: u64, n: usize) -> Vec<u64> {
    let mut rng = Rng::new(seed, 2);
    (0..n).map(|_| rng.next_u64()).collect()
}

/// One process corner: the full parameter set of the three
/// characterized cell families.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Corner {
    /// JTL and splitter parameters.
    pub jtl: JtlParams,
    /// DFF and shift-register parameters.
    pub dff: DffParams,
    /// Clocked-AND parameters.
    pub and: AndParams,
}

/// Relative σ of one corner-to-corner step.
const CORNER_SIGMA: f64 = 0.01;

/// Largest relative distance from nominal a walking parameter reaches.
const CORNER_WINDOW: f64 = 0.03;

/// A seeded walk of `n` process corners. Corner 0 is nominal; corner
/// `k` re-draws the device parameters of one family (JTL, DFF, clocked
/// AND in rotation) relative to corner `k - 1` and keeps the other two.
///
/// Parameters stay within 3% of nominal, where every family still
/// characterizes. The nominal DFF sits on the edge of its
/// shift-register test (1% less output critical current and the
/// register fails at every clock, which characterization reports as an
/// error), so its output junction and bias are re-drawn inside the
/// working window (critical current +1..+5%, bias -1..-5% of nominal)
/// instead of walking.
pub fn corner_walk(seed: u64, n: usize) -> Vec<Corner> {
    let mut rng = Rng::new(seed, 3);
    let (jtl0, dff0, and0) = (
        JtlParams::default(),
        DffParams::default(),
        AndParams::default(),
    );
    let mut c = Corner {
        jtl: jtl0,
        dff: dff0,
        and: and0,
    };
    let mut walk = Vec::with_capacity(n);
    for k in 0..n {
        match k % 3 {
            _ if k == 0 => {}
            1 => {
                rng.walk(&mut c.jtl.ic, jtl0.ic);
                rng.walk(&mut c.jtl.bias_frac, jtl0.bias_frac);
                rng.walk(&mut c.jtl.l, jtl0.l);
            }
            2 => {
                rng.walk(&mut c.dff.ic_in, dff0.ic_in);
                rng.walk(&mut c.dff.l_store, dff0.l_store);
                rng.walk(&mut c.dff.bias_store, dff0.bias_store);
                c.dff.ic_out = dff0.ic_out * (1.01 + 0.04 * rng.unit());
                c.dff.bias_out = dff0.bias_out * (0.99 - 0.04 * rng.unit());
            }
            _ => {
                rng.walk(&mut c.and.ic_store, and0.ic_store);
                rng.walk(&mut c.and.ic_out, and0.ic_out);
                rng.walk(&mut c.and.l_store, and0.l_store);
                rng.walk(&mut c.and.bias_store, and0.bias_store);
                rng.walk(&mut c.and.bias_out, and0.bias_out);
            }
        }
        walk.push(c);
    }
    walk
}
