//! The fetch-on-demand dataflow (Section 2.2.2).
//!
//! Gather, MMA and scatter fuse into one kernel: features are fetched on
//! demand into shared memory, partial sums live in registers and are
//! scattered straight to DRAM — atomically, because different offsets
//! (now parallel thread blocks in the block-fused form) may write the
//! same output. Zero redundant computation, overlapped memory access,
//! but `sum(|M_δ|)/N_out` (4–10x) amplified atomic write-back traffic.

use ts_gpusim::{KernelDesc, KernelTrace};
use ts_kernelgen::GeneratedDataflow;
use ts_kernelmap::KernelMap;

use crate::{DataflowConfig, ExecCtx};

/// Simulated trace of the per-offset or block-fused form (the
/// functional path is the shared host kernel,
/// [`crate::forward_prepared`]).
pub(crate) fn trace(
    c_in: usize,
    c_out: usize,
    map: &KernelMap,
    fused: bool,
    cfg: &DataflowConfig,
    ctx: &ExecCtx,
) -> KernelTrace {
    if fused {
        trace_fused(c_in as u64, c_out as u64, map, cfg, ctx)
    } else {
        trace_per_offset(c_in as u64, c_out as u64, map, cfg, ctx)
    }
}

/// Per-offset fetch-on-demand (MinkowskiEngine): one fused kernel per
/// kernel offset, K³ launches.
fn trace_per_offset(
    c_in: u64,
    c_out: u64,
    map: &KernelMap,
    cfg: &DataflowConfig,
    ctx: &ExecCtx,
) -> KernelTrace {
    let mut trace = KernelTrace::new();
    let b = ctx.elem_bytes();
    for k in 0..map.kernel_volume() {
        let m = map.pairs(k).len() as u64;
        if m == 0 {
            continue;
        }
        let tile = cfg
            .tile_policy
            .tile_for(m, c_out, c_in, ctx.device(), ctx.precision);
        let pen = ctx
            .gen_flags
            .penalties(GeneratedDataflow::FetchOnDemand, tile, ctx.precision);
        let util = crate::implicit_gemm::mma_pipe_utilization(tile, m, c_out, c_in, 1, ctx);
        let ctas = m.div_ceil(tile.cta_m as u64) * c_out.div_ceil(tile.cta_n as u64);
        let stretch = crate::implicit_gemm::occupancy_stretch(ctas, tile, ctx);
        let desc = KernelDesc::gemm(format!("fod[{k}]"), m, c_out, c_in, ctx.precision)
            .with_tile(tile)
            .with_traffic(m * c_in * b * 2 + c_in * c_out * b + m * 8, 0)
            .with_atomic_write(m * c_out * b)
            .with_overlap(ts_gpusim::Overlap::None)
            .with_util(util)
            .with_latency_stretch(stretch)
            .with_addr_overhead(pen.addr * ctx.system_eff)
            .with_ctrl_overhead(pen.ctrl);
        ctx.cost.record(&mut trace, desc);
    }
    trace
}

/// Block-fused fetch-on-demand (PCEngine / TorchSparse++): the host loop
/// over offsets becomes a thread-block dimension; a single launch covers
/// every offset.
fn trace_fused(
    c_in: u64,
    c_out: u64,
    map: &KernelMap,
    cfg: &DataflowConfig,
    ctx: &ExecCtx,
) -> KernelTrace {
    let mut trace = KernelTrace::new();
    let b = ctx.elem_bytes();
    let pairs = map.total_pairs();
    if pairs == 0 {
        return trace;
    }
    let kvol = map.kernel_volume() as u64;
    let tile = cfg
        .tile_policy
        .tile_for(pairs, c_out, c_in, ctx.device(), ctx.precision);
    let pen = ctx
        .gen_flags
        .penalties(GeneratedDataflow::FetchOnDemand, tile, ctx.precision);
    // The K loop is only C_in long (no offset dimension in K), so the
    // MMA pipeline drains constantly; occupancy comes from the row
    // dimension over all offsets.
    let util = crate::implicit_gemm::mma_pipe_utilization(tile, pairs, c_out, c_in, 1, ctx);
    let ctas = pairs.div_ceil(tile.cta_m as u64) * c_out.div_ceil(tile.cta_n as u64);
    let stretch = crate::implicit_gemm::occupancy_stretch(ctas, tile, ctx);
    let desc = KernelDesc::gemm("fod(block-fused)", pairs, c_out, c_in, ctx.precision)
        .with_tile(tile)
        .with_traffic(
            pairs * c_in * b * 2 + kvol * c_in * c_out * b + pairs * 8,
            0,
        )
        .with_atomic_write(pairs * c_out * b)
        .with_overlap(ts_gpusim::Overlap::None)
        .with_util(util)
        .with_latency_stretch(stretch)
        .with_addr_overhead(pen.addr * ctx.system_eff)
        .with_ctrl_overhead(pen.ctrl);
    ctx.cost.record(&mut trace, desc);
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_gpusim::Device;
    use ts_kernelmap::{build_submanifold_map, Coord, KernelOffsets};
    use ts_tensor::Precision;

    fn map() -> KernelMap {
        let coords: Vec<Coord> = (0..50)
            .map(|i| Coord::new(0, i % 10, (i / 10) % 5, i % 3))
            .collect();
        let coords = ts_kernelmap::unique_coords(&coords);
        build_submanifold_map(&coords, &KernelOffsets::cube(3))
    }

    /// The trace of a 6 -> 4 channel layer.
    fn fod(map: &KernelMap, fused: bool, ctx: &ExecCtx) -> KernelTrace {
        trace(
            6,
            4,
            map,
            fused,
            &DataflowConfig::fetch_on_demand(fused),
            ctx,
        )
    }

    #[test]
    fn block_fusion_reduces_launches_to_one() {
        let map = map();
        let ctx = ExecCtx::simulate(Device::rtx2080ti(), Precision::Fp32);
        let per = fod(&map, false, &ctx);
        let fused = fod(&map, true, &ctx);
        assert_eq!(fused.launch_count(), 1);
        assert!(per.launch_count() >= 5, "launches = {}", per.launch_count());
        assert!(fused.total_us() < per.total_us());
    }

    #[test]
    fn write_back_is_atomic_and_amplified() {
        let map = map();
        let ctx = ExecCtx::simulate(Device::rtx3090(), Precision::Fp16);
        let t = fod(&map, true, &ctx);
        let e = &t.entries()[0].desc;
        // Atomic write traffic is total_pairs * c_out, several times the
        // theoretical minimum n_out * c_out.
        let min_write = map.n_out() as u64 * 4 * 2;
        assert!(
            e.atomic_write > min_write * 2,
            "atomic {} min {min_write}",
            e.atomic_write
        );
        assert_eq!(e.dram_write, 0);
    }

    #[test]
    fn zero_redundant_computation() {
        let map = map();
        let ctx = ExecCtx::simulate(Device::rtx3090(), Precision::Fp16);
        assert_eq!(fod(&map, true, &ctx).total_macs(), map.effective_macs(6, 4));
    }
}
