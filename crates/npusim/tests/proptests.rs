//! Property-based tests of the mapping and cycle models.

use dnn_models::Layer;
use proptest::prelude::*;
use sfq_estimator::NpuConfig;
use sfq_npu_sim::{
    enumerate_mappings, simulate_layer, DramModel, EnergyBreakdown, LayerStats, SimConfig,
};

fn conv_layer() -> impl Strategy<Value = Layer> {
    (
        4u32..=56,
        1u32..=128,
        1u32..=512,
        prop_oneof![Just(1u32), Just(3), Just(5)],
        1u32..=2,
    )
        .prop_map(|(hw, c, k, kernel, stride)| {
            Layer::conv("p", (hw, hw), c, k, kernel, stride, kernel / 2)
        })
}

fn npu_config() -> impl Strategy<Value = NpuConfig> {
    (
        prop_oneof![Just(16u32), Just(64), Just(128), Just(256)], // width
        prop_oneof![Just(1u32), Just(2), Just(8)],                // regs
        prop_oneof![Just(1u32), Just(16), Just(256)],             // division
        any::<bool>(),                                            // integrated
    )
        .prop_map(|(width, regs, division, integrated)| NpuConfig {
            name: "prop".into(),
            array_width: width,
            regs_per_pe: regs,
            division,
            integrated_output: integrated,
            psum_buf_bytes: if integrated { 0 } else { 8 * 1024 * 1024 },
            ..NpuConfig::paper_baseline()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Mapping enumeration conserves MACs exactly for every layer and
    /// machine shape.
    #[test]
    fn mapping_macs_conserved(l in conv_layer(), npu in npu_config(), batch in 1u32..=8) {
        let total: u64 = enumerate_mappings(&l, &npu)
            .iter()
            .map(|m| m.macs(l.output_pixels(), batch))
            .sum();
        prop_assert_eq!(total, l.macs(batch));
    }

    /// Mappings respect the physical array bounds.
    #[test]
    fn mapping_bounds(l in conv_layer(), npu in npu_config()) {
        for m in enumerate_mappings(&l, &npu) {
            prop_assert!(m.active_rows >= 1 && m.active_rows <= npu.array_height);
            prop_assert!(m.active_cols >= 1 && m.active_cols <= npu.array_width);
            prop_assert!(m.reuse_per_pe >= 1 && m.reuse_per_pe <= npu.regs_per_pe);
            prop_assert!(u64::from(m.active_filters)
                <= u64::from(npu.array_width) * u64::from(npu.regs_per_pe));
        }
    }

    /// Exactly the first row group of each column group starts a fresh
    /// accumulation.
    #[test]
    fn accumulation_flags(l in conv_layer(), npu in npu_config()) {
        let maps = enumerate_mappings(&l, &npu);
        for m in &maps {
            prop_assert_eq!(m.accumulates, m.row_group > 0);
        }
        let col_groups = maps.iter().map(|m| m.col_group).max().unwrap() + 1;
        let fresh = maps.iter().filter(|m| !m.accumulates).count() as u32;
        prop_assert_eq!(fresh, col_groups);
    }

    /// Layer simulation invariants: positive cycles, conserved MACs,
    /// finite energy.
    #[test]
    fn layer_sim_invariants(l in conv_layer(), batch in 1u32..=4) {
        let cfg = SimConfig::paper_supernpu();
        let s = simulate_layer(&cfg, &l, batch, true);
        prop_assert!(s.compute_cycles > 0);
        prop_assert_eq!(s.macs, l.macs(batch));
        let e = s.energy.total_j();
        prop_assert!(e.is_finite() && e > 0.0);
        prop_assert!(s.dram_bytes >= l.weight_bytes());
    }

    /// Dividing the buffers more never makes preparation slower.
    #[test]
    fn division_never_hurts_prep(l in conv_layer()) {
        let lib = sfq_cells::CellLibrary::aist_10um();
        let mut prev = u64::MAX;
        for division in [1u32, 4, 16, 64, 256] {
            let npu = NpuConfig {
                division,
                integrated_output: division > 1,
                psum_buf_bytes: if division > 1 { 0 } else { 8 * 1024 * 1024 },
                ..NpuConfig::paper_baseline()
            };
            let cfg = SimConfig::from_npu(npu, &lib);
            let s = simulate_layer(&cfg, &l, 1, true);
            prop_assert!(s.prep_cycles <= prev, "division {} prep {}", division, s.prep_cycles);
            prev = s.prep_cycles;
        }
    }
}

/// Per-mapping reference of the layer cycle model: walks
/// [`enumerate_mappings`] one mapping at a time, charging each exactly
/// as the model's formulas state (DESIGN.md §5). The simulator costs
/// each mapping shape once instead; the two must agree bit for bit.
fn reference_layer(cfg: &SimConfig, layer: &Layer, batch: u32, ifmap_resident: bool) -> LayerStats {
    let npu = &cfg.npu;
    let dram = DramModel::new(cfg.mem_bandwidth_gbs, cfg.frequency_ghz);
    let mappings = enumerate_mappings(layer, npu);
    let out_px = layer.output_pixels();
    let height = u64::from(npu.array_height);
    let width = u64::from(npu.array_width);
    let fill = height + width + u64::from(sfq_estimator::units::pe_pipeline_depth(npu.bits));
    let monolithic = npu.division <= 1;
    let ifmap_shift_per_map = if monolithic {
        npu.ifmap_buf_bytes / height
    } else {
        npu.ifmap_buffer().chunk_entries()
    };
    let psum_move = if npu.integrated_output {
        0
    } else {
        (npu.output_buf_bytes + npu.psum_buf_bytes) / width
    };

    let (mut prep, mut compute, mut macs_total, mut dram_bytes) = (0u64, 0u64, 0u64, 0u64);
    let mut energy = EnergyBreakdown::default();
    let b = u64::from(batch);
    let col_groups = mappings.iter().map(|m| m.col_group).max().unwrap_or(0) + 1;
    for m in &mappings {
        let stream = b * out_px * u64::from(m.reuse_per_pe);
        compute += stream + fill;
        let weight_load = u64::from(m.active_rows) * u64::from(m.reuse_per_pe);
        let psum = if m.accumulates { psum_move } else { 0 };
        prep += weight_load + ifmap_shift_per_map + psum;
        dram_bytes += u64::from(m.active_rows) * u64::from(m.active_filters);
        if monolithic && col_groups > 1 {
            dram_bytes += b * out_px * u64::from(m.active_filters);
        }
        let macs = m.macs(out_px, batch);
        macs_total += macs;
        let e = &cfg.energy;
        energy.pe_j += macs as f64 * e.pe_mac_j;
        energy.nw_j += macs as f64 * e.nw_hop_j;
        energy.dau_j += (stream * u64::from(m.active_rows)) as f64 * e.dau_j;
        let shift_events = ifmap_shift_per_map * height
            + psum * 2 * width
            + stream * (u64::from(m.active_rows) + u64::from(m.active_cols))
            + weight_load * u64::from(m.active_cols);
        energy.buffer_j += shift_events as f64 * e.buffer_shift_j;
    }

    let if_bytes = layer.ifmap_bytes(batch);
    if !ifmap_resident || if_bytes > npu.ifmap_buf_bytes {
        dram_bytes += if_bytes;
    }
    let of_bytes = layer.ofmap_bytes(batch);
    if of_bytes > npu.output_buf_bytes + npu.psum_buf_bytes {
        dram_bytes += of_bytes;
    }
    let stall = dram.cycles_for(dram_bytes).saturating_sub(prep);
    energy.clock_j += (prep + compute + stall) as f64 * cfg.energy.clock_per_cycle_j;

    LayerStats {
        name: layer.name().to_owned(),
        prep_cycles: prep,
        compute_cycles: compute,
        stall_cycles: stall,
        macs: macs_total,
        dram_bytes,
        mappings: mappings.len() as u64,
        energy,
        faults: Default::default(),
    }
}

/// Every [`LayerStats`] field equal, energies compared bit for bit.
fn assert_same_stats(got: &LayerStats, want: &LayerStats) {
    let bits =
        |e: &EnergyBreakdown| [e.pe_j, e.buffer_j, e.dau_j, e.nw_j, e.clock_j].map(f64::to_bits);
    assert_eq!(
        bits(&got.energy),
        bits(&want.energy),
        "energy of {}",
        want.name
    );
    assert_eq!(got, want);
}

fn depthwise_layer() -> impl Strategy<Value = Layer> {
    (
        4u32..=56,
        1u32..=1024,
        prop_oneof![Just(3u32), Just(5)],
        1u32..=2,
    )
        .prop_map(|(hw, c, kernel, stride)| Layer::depthwise("dw", (hw, hw), c, kernel, stride))
}

fn fc_layer() -> impl Strategy<Value = Layer> {
    (1u32..=9216, 1u32..=4096).prop_map(|(i, o)| Layer::fully_connected("fc", i, o))
}

fn any_layer() -> impl Strategy<Value = Layer> {
    prop_oneof![conv_layer(), depthwise_layer(), fc_layer()]
}

/// A machine with the given shape, its estimator-derived clock and
/// energies, and a memory link slow enough that some layers stall.
fn shaped_config(height: u32, width: u32, regs: u32, division: u32, integrated: bool) -> SimConfig {
    let npu = NpuConfig {
        name: "shape".into(),
        array_height: height,
        array_width: width,
        regs_per_pe: regs,
        division,
        integrated_output: integrated,
        psum_buf_bytes: if integrated { 0 } else { 8 * 1024 * 1024 },
        ..NpuConfig::paper_baseline()
    };
    let mut cfg = SimConfig::from_npu(npu, &sfq_cells::CellLibrary::aist_10um());
    cfg.mem_bandwidth_gbs = 100.0;
    cfg
}

#[test]
fn shape_classes_match_per_mapping_walk() {
    // Fixed grid over every shape class: 1, 2 and many row groups
    // (contraction 9, 270 and 4608 on 256 rows) × 1 and many column
    // groups, on conv, depthwise and FC layers.
    let layers = [
        Layer::conv("c1", (14, 14), 1, 64, 3, 1, 1),
        Layer::conv("c2", (14, 14), 30, 700, 3, 1, 1),
        Layer::conv("c3", (7, 7), 512, 2000, 3, 1, 1),
        Layer::depthwise("dw", (28, 28), 1000, 3, 1),
        Layer::fully_connected("f2", 500, 100),
        Layer::fully_connected("f3", 9216, 4096),
    ];
    for layer in &layers {
        for (division, integrated) in [(1, false), (1, true), (16, false), (16, true)] {
            for (width, regs) in [(16, 1), (64, 8), (256, 1)] {
                let cfg = shaped_config(256, width, regs, division, integrated);
                for batch in [1, 7, 30] {
                    for resident in [true, false] {
                        let got = simulate_layer(&cfg, layer, batch, resident);
                        let want = reference_layer(&cfg, layer, batch, resident);
                        assert_same_stats(&got, &want);
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Costing each mapping shape once reproduces the per-mapping walk
    /// on every field, energy included to the bit.
    #[test]
    fn shape_classes_equal_per_mapping_reference(
        l in any_layer(),
        height in prop_oneof![Just(16u32), Just(64), Just(256)],
        width in prop_oneof![Just(16u32), Just(64), Just(256)],
        regs in prop_oneof![Just(1u32), Just(2), Just(8)],
        division in prop_oneof![Just(1u32), Just(4), Just(64)],
        integrated in any::<bool>(),
        batch in 1u32..=30,
        resident in any::<bool>(),
    ) {
        let cfg = shaped_config(height, width, regs, division, integrated);
        let got = simulate_layer(&cfg, &l, batch, resident);
        let want = reference_layer(&cfg, &l, batch, resident);
        assert_same_stats(&got, &want);
    }
}

mod functional_equivalence {
    use super::*;
    use sfq_npu_sim::functional::{golden_conv, run_conv_ws, Tensor3, Tensor4};

    fn small_conv() -> impl Strategy<Value = Layer> {
        (
            2u32..=6,
            1u32..=4,
            1u32..=9,
            prop_oneof![Just(1u32), Just(3)],
            1u32..=2,
        )
            .prop_map(|(hw, c, k, kernel, stride)| {
                Layer::conv(
                    "p",
                    (hw.max(kernel), hw.max(kernel)),
                    c,
                    k,
                    kernel,
                    stride,
                    kernel / 2,
                )
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The cycle-stepped weight-stationary array computes exactly
        /// the golden convolution for arbitrary small layers and array
        /// geometries — rows, columns and registers all tiling.
        #[test]
        fn systolic_equals_golden(
            l in small_conv(),
            height in prop_oneof![Just(4u32), Just(8), Just(16)],
            width in prop_oneof![Just(2u32), Just(3), Just(8)],
            regs in prop_oneof![Just(1u32), Just(2), Just(4)],
            seed in 0u64..1000,
        ) {
            let (h, w) = l.input_hw();
            let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).max(1);
            let mut gen = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                ((state >> 32) as i32 % 13) - 6
            };
            let ifmap = Tensor3::from_fn(h as usize, w as usize, l.in_channels() as usize, |_, _, _| gen());
            let weights = Tensor4::from_fn(
                l.out_channels() as usize,
                l.kernel() as usize,
                l.kernel() as usize,
                l.in_channels() as usize,
                |_, _, _, _| gen(),
            );
            let golden = golden_conv(&l, &ifmap, &weights);
            let systolic = run_conv_ws(&l, &ifmap, &weights, height, width, regs);
            prop_assert_eq!(systolic, golden);
        }
    }
}
