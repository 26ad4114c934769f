//! Per-layer cycle simulation.
//!
//! A layer tiles into `Gr` row groups × `Gc` column groups (see
//! [`enumerate_mappings`](crate::enumerate_mappings)), and every
//! mapping has one of at most six shapes: first, middle or last row
//! group × full or last column group. The per-mapping charges depend
//! only on the shape, so each shape is costed once and scaled by how
//! many mappings share it. The integer totals are exact products; the
//! `f64` energy totals add the shapes' per-mapping energies in the
//! enumeration order (column group outer, row group inner), so they
//! round exactly as a mapping-by-mapping walk does.

use std::sync::OnceLock;

use dnn_models::{Layer, LayerKind};
use sfq_estimator::units::pe_pipeline_depth;
use sfq_obs::Counter;

use crate::config::SimConfig;
use crate::faults::PulseFaults;
use crate::memory::DramModel;
use crate::stats::{EnergyBreakdown, FaultCounts, LayerStats};

/// Mappings of one row-group class.
struct RowClass {
    /// Row groups in the class.
    count: u64,
    /// Contraction elements mapped.
    rows: u64,
    /// Whether the group re-accumulates a previous group's psums.
    accumulates: bool,
}

/// Mappings of one column-group class.
struct ColClass {
    /// Column groups in the class.
    count: u64,
    /// Filters mapped.
    filters: u64,
    /// Physical columns occupied.
    cols: u64,
    /// Filters resident per PE (ifmap stream repetitions).
    reuse: u64,
}

/// Row-group classes in enumeration order: the first group, the full
/// middle groups and the (possibly partial) last group. A class no
/// group falls in has count 0.
fn row_classes(contraction: u64, height: u64) -> [RowClass; 3] {
    let groups = contraction.div_ceil(height);
    let last_rows = contraction - groups.saturating_sub(1) * height;
    let class = |count, rows, accumulates| RowClass {
        count,
        rows,
        accumulates,
    };
    [
        class(groups.min(1), contraction.min(height), false),
        class(groups.saturating_sub(2), height, true),
        class(u64::from(groups >= 2), last_rows, true),
    ]
}

/// Column-group classes in enumeration order: the full groups, then
/// the (possibly partial) last group.
fn col_classes(filters: u64, width: u64, regs: u64) -> [ColClass; 2] {
    let capacity = width * regs;
    let groups = filters.div_ceil(capacity);
    let last_filters = filters - groups.saturating_sub(1) * capacity;
    let class = |count, filters: u64| {
        // Spread filters across physical columns first; only stack
        // into the per-PE registers when the width is exhausted.
        let cols = filters.min(width);
        ColClass {
            count,
            filters,
            cols,
            reuse: filters.div_ceil(cols.max(1)),
        }
    };
    [
        class(groups.saturating_sub(1), capacity),
        class(groups.min(1), last_filters),
    ]
}

/// `npusim.layer.*` counter handles, resolved from the registry once.
struct LayerCounters {
    count: &'static Counter,
    prep_cycles: &'static Counter,
    compute_cycles: &'static Counter,
    stall_cycles: &'static Counter,
    dram_bytes: &'static Counter,
    macs: &'static Counter,
    mappings: &'static Counter,
}

fn layer_counters() -> &'static LayerCounters {
    static C: OnceLock<LayerCounters> = OnceLock::new();
    C.get_or_init(|| LayerCounters {
        count: sfq_obs::counter("npusim.layer.count"),
        prep_cycles: sfq_obs::counter("npusim.layer.prep_cycles"),
        compute_cycles: sfq_obs::counter("npusim.layer.compute_cycles"),
        stall_cycles: sfq_obs::counter("npusim.layer.stall_cycles"),
        dram_bytes: sfq_obs::counter("npusim.layer.dram_bytes"),
        macs: sfq_obs::counter("npusim.layer.macs"),
        mappings: sfq_obs::counter("npusim.layer.mappings"),
    })
}

/// `npusim.faults.*` counter handles; registered only once a faulty
/// layer is seen, so clean runs do not list them.
fn fault_counters() -> &'static [&'static Counter; 3] {
    static C: OnceLock<[&'static Counter; 3]> = OnceLock::new();
    C.get_or_init(|| {
        [
            sfq_obs::counter("npusim.faults.dropped_pulses"),
            sfq_obs::counter("npusim.faults.timing_violations"),
            sfq_obs::counter("npusim.faults.stuck_macs"),
        ]
    })
}

/// Simulate one layer at the given batch.
///
/// `ifmap_resident` says whether the layer's input is already on chip
/// (produced by the previous layer and small enough to have stayed);
/// when false the ifmap is fetched from DRAM.
pub fn simulate_layer(
    cfg: &SimConfig,
    layer: &Layer,
    batch: u32,
    ifmap_resident: bool,
) -> LayerStats {
    simulate_layer_with_faults(cfg, layer, batch, ifmap_resident, &PulseFaults::none())
}

/// Simulate one layer under an injected pulse-fault description.
///
/// Timing and energy are charged exactly as in the fault-free run (a
/// dropped pulse still consumed its clock edges); the returned
/// [`LayerStats::faults`] reports the deterministic expected number of
/// corrupted MACs so the caller can judge the degradation instead of
/// the simulator aborting.
pub fn simulate_layer_with_faults(
    cfg: &SimConfig,
    layer: &Layer,
    batch: u32,
    ifmap_resident: bool,
    faults: &PulseFaults,
) -> LayerStats {
    let _pf = sfq_obs::prof::frame(match layer.kind() {
        LayerKind::Conv => "npusim.layer.conv",
        LayerKind::Depthwise => "npusim.layer.depthwise",
        LayerKind::FullyConnected => "npusim.layer.fc",
    });
    let npu = &cfg.npu;
    let dram = DramModel::new(cfg.mem_bandwidth_gbs, cfg.frequency_ghz);
    let out_px = layer.output_pixels();

    let height = u64::from(npu.array_height);
    let width = u64::from(npu.array_width);
    let fill = height + width + u64::from(pe_pipeline_depth(npu.bits));

    // Shift distances (entries; one entry shifts per row per cycle).
    let monolithic = npu.division <= 1;
    let ifmap_shift_per_map: u64 = if monolithic {
        // Full row pass: the whole (row-dedicated) register must rotate
        // tail-to-head before the next mapping can stream (Fig. 16 ②).
        npu.ifmap_buf_bytes / height
    } else {
        npu.ifmap_buffer().chunk_entries()
    };
    let psum_move: u64 = if npu.integrated_output {
        // Chunk-pointer swap (Fig. 19 ①): free.
        0
    } else {
        // Drain ofmap buffer into psum buffer through their full
        // lengths (the paper's 65,536-cycle example, Fig. 16 ①).
        (npu.output_buf_bytes + npu.psum_buf_bytes) / width
    };

    let rows = row_classes(layer.contraction_len(), height);
    let cols = col_classes(layer.filter_count(), width, u64::from(npu.regs_per_pe));
    let row_groups: u64 = rows.iter().map(|r| r.count).sum();
    let col_groups: u64 = cols.iter().map(|c| c.count).sum();
    let mappings = row_groups * col_groups;

    let mut prep_cycles = 0u64;
    let mut compute_cycles = 0u64;
    let mut macs_total = 0u64;
    let mut dram_bytes = 0u64;
    // Per-mapping energy addends [pe, nw, dau, buffer] of each shape.
    let mut addends = [[[0f64; 4]; 3]; 2];

    let b = u64::from(batch);
    let e = &cfg.energy;
    for (ci, c) in cols.iter().enumerate() {
        for (ri, r) in rows.iter().enumerate() {
            let n = c.count * r.count;
            let stream = b * out_px * c.reuse;
            compute_cycles += n * (stream + fill);

            let weight_load = r.rows * c.reuse;
            let psum = if r.accumulates { psum_move } else { 0 };
            prep_cycles += n * (weight_load + ifmap_shift_per_map + psum);

            // Weights always stream from DRAM, once per mapping.
            dram_bytes += n * (r.rows * c.filters);

            // Monolithic output buffers flush between column groups
            // (Fig. 18(a)): the partial ofmap goes out and comes back.
            if monolithic && col_groups > 1 {
                dram_bytes += n * (b * out_px * c.filters);
            }

            let macs = out_px * b * r.rows * c.filters;
            macs_total += n * macs;

            // Dynamic energy.
            let shift_events = ifmap_shift_per_map * height
                + psum * 2 * width
                + stream * (r.rows + c.cols)
                + weight_load * c.cols;
            addends[ci][ri] = [
                macs as f64 * e.pe_mac_j,
                macs as f64 * e.nw_hop_j,
                (stream * r.rows) as f64 * e.dau_j,
                shift_events as f64 * e.buffer_shift_j,
            ];
        }
    }

    // Float addition is not associative: add one mapping at a time, in
    // enumeration order, so the totals round as a per-mapping walk's.
    let mut energy = EnergyBreakdown::default();
    for (c, shapes) in cols.iter().zip(&addends) {
        for _ in 0..c.count {
            for (r, [pe, nw, dau, buffer]) in rows.iter().zip(shapes) {
                for _ in 0..r.count {
                    energy.pe_j += pe;
                    energy.nw_j += nw;
                    energy.dau_j += dau;
                    energy.buffer_j += buffer;
                }
            }
        }
    }

    // Layer-level ifmap traffic.
    let if_bytes = layer.ifmap_bytes(batch);
    if !ifmap_resident || if_bytes > npu.ifmap_buf_bytes {
        dram_bytes += if_bytes;
    }
    // Ofmap writeback when it cannot stay on chip.
    let of_bytes = layer.ofmap_bytes(batch);
    let out_cap = npu.output_buf_bytes + npu.psum_buf_bytes;
    if of_bytes > out_cap {
        dram_bytes += of_bytes;
    }

    // DRAM transfers overlap with on-chip shifting; any excess stalls.
    let dram_cycles = dram.cycles_for(dram_bytes);
    let stall_cycles = dram_cycles.saturating_sub(prep_cycles);

    // The clock tree fires every cycle the chip is active, gated or
    // not (SFQ gates have no clock gating).
    energy.clock_j +=
        (prep_cycles + compute_cycles + stall_cycles) as f64 * cfg.energy.clock_per_cycle_j;

    // Pulse-level fault accounting: deterministic expected values over
    // the layer's MAC total, independent of schedule or sampling.
    let fault_counts = if faults.is_clean() {
        FaultCounts::default()
    } else {
        faults.counts_for(macs_total, npu.array_height, npu.array_width)
    };

    // One gated flush per layer: where this layer's time and traffic
    // went, funneled into the shared registry.
    if sfq_obs::prof::enabled() {
        sfq_obs::prof::count("prep_cycles", prep_cycles);
        sfq_obs::prof::count("compute_cycles", compute_cycles);
        sfq_obs::prof::count("stall_cycles", stall_cycles);
        sfq_obs::prof::count("macs", macs_total);
        sfq_obs::prof::count("dram_bytes", dram_bytes);
    }
    if sfq_obs::enabled() {
        let c = layer_counters();
        c.count.inc();
        c.prep_cycles.add(prep_cycles);
        c.compute_cycles.add(compute_cycles);
        c.stall_cycles.add(stall_cycles);
        c.dram_bytes.add(dram_bytes);
        c.macs.add(macs_total);
        c.mappings.add(mappings);
        if fault_counts.total() > 0 {
            let [dropped, timing, stuck] = fault_counters();
            dropped.add(fault_counts.dropped_pulses);
            timing.add(fault_counts.timing_violations);
            stuck.add(fault_counts.stuck_macs);
        }
    }

    LayerStats {
        name: layer.name().to_owned(),
        prep_cycles,
        compute_cycles,
        stall_cycles,
        macs: macs_total,
        dram_bytes,
        mappings,
        energy,
        faults: fault_counts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnn_models::Layer;

    fn conv() -> Layer {
        Layer::conv("c", (56, 56), 64, 64, 3, 1, 1)
    }

    #[test]
    fn shape_classes_count_every_group() {
        let rows = |n, h| row_classes(n, h).map(|r| r.count);
        assert_eq!(rows(0, 256), [0, 0, 0]);
        assert_eq!(rows(144, 256), [1, 0, 0]);
        assert_eq!(rows(300, 256), [1, 0, 1]);
        assert_eq!(rows(4608, 256), [1, 16, 1]);
        assert_eq!(row_classes(300, 256)[2].rows, 44);
        let cols = |k, w, r| col_classes(k, w, r).map(|c| c.count);
        assert_eq!(cols(0, 64, 8), [0, 0]);
        assert_eq!(cols(512, 64, 8), [0, 1]);
        assert_eq!(cols(1000, 64, 8), [1, 1]);
        let last = &col_classes(1000, 64, 8)[1];
        assert_eq!((last.filters, last.cols, last.reuse), (488, 64, 8));
    }

    #[test]
    fn macs_match_layer_accounting() {
        let cfg = SimConfig::paper_baseline();
        let l = conv();
        let s = simulate_layer(&cfg, &l, 4, true);
        assert_eq!(s.macs, l.macs(4));
    }

    #[test]
    fn baseline_is_prep_dominated() {
        // Fig. 15: >90% of Baseline cycles are preparation.
        let cfg = SimConfig::paper_baseline();
        let s = simulate_layer(&cfg, &conv(), 1, true);
        let prep = s.prep_cycles + s.stall_cycles;
        assert!(
            prep as f64 / s.total_cycles() as f64 > 0.8,
            "prep fraction {:.2}",
            prep as f64 / s.total_cycles() as f64
        );
    }

    #[test]
    fn chunked_design_slashes_prep() {
        let base = SimConfig::paper_baseline();
        let opt = SimConfig::paper_buffer_opt();
        let l = conv();
        let s0 = simulate_layer(&base, &l, 1, true);
        let s1 = simulate_layer(&opt, &l, 1, true);
        assert!(
            s1.prep_cycles * 4 < s0.prep_cycles,
            "chunked prep {} vs monolithic {}",
            s1.prep_cycles,
            s0.prep_cycles
        );
    }

    #[test]
    fn nonresident_ifmap_adds_traffic() {
        let cfg = SimConfig::paper_supernpu();
        let l = conv();
        let resident = simulate_layer(&cfg, &l, 1, true);
        let cold = simulate_layer(&cfg, &l, 1, false);
        assert_eq!(cold.dram_bytes - resident.dram_bytes, l.ifmap_bytes(1));
    }

    #[test]
    fn fc_layers_stall_on_weights() {
        // FC weights dwarf on-chip prep: stalls dominate.
        let cfg = SimConfig::paper_supernpu();
        let l = Layer::fully_connected("fc", 9216, 4096);
        let s = simulate_layer(&cfg, &l, 1, true);
        assert!(
            s.stall_cycles > s.prep_cycles,
            "stall {} prep {}",
            s.stall_cycles,
            s.prep_cycles
        );
        assert!(s.dram_bytes >= l.weight_bytes());
    }

    #[test]
    fn batch_amortizes_prep() {
        let cfg = SimConfig::paper_supernpu();
        let l = conv();
        let s1 = simulate_layer(&cfg, &l, 1, true);
        let s30 = simulate_layer(&cfg, &l, 30, true);
        // Compute scales ~30x, prep is constant per mapping.
        assert!(s30.compute_cycles > 25 * s1.compute_cycles);
        assert_eq!(s30.prep_cycles, s1.prep_cycles);
    }

    #[test]
    fn energy_positive_and_pe_dominated_for_conv() {
        let cfg = SimConfig::paper_supernpu();
        let s = simulate_layer(&cfg, &conv(), 8, true);
        let e = s.energy;
        assert!(e.pe_j > 0.0 && e.buffer_j > 0.0 && e.dau_j > 0.0 && e.nw_j > 0.0);
        assert!(e.pe_j > e.nw_j, "MAC energy should dominate NW hops");
    }
}
