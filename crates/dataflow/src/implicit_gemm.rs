//! The output-stationary implicit GEMM dataflow (Sections 2.2.3 and 4.1).
//!
//! The convolution becomes one dense GEMM `X_out = X_im2col x W` whose
//! A-operand is never materialised: the sparse iterator reads through the
//! output-stationary map. Write-back is dense and minimal, but warps
//! execute in lockstep, so empty neighbor slots waste cycles whenever any
//! lane in the group is non-empty. The split plan (0 = unsorted,
//! 1 = sorted, s >= 2 = mask splits with a final reduction) trades this
//! redundancy against mapping overhead and partial-sum traffic.

use ts_gpusim::{KernelClass, KernelDesc, KernelTrace};
use ts_kernelgen::GeneratedDataflow;
use ts_kernelmap::{pad_to_multiple, KernelMap, SplitPlan};
use ts_tensor::Matrix;

use crate::{ConvWeights, DataflowConfig, ExecCtx, ReorderMode};

/// Compute-time multiplier the extra indirection of *online* reordering
/// costs inside forward/dgrad kernels (Figure 19: ~4 % end-to-end).
pub(crate) const ONLINE_REORDER_FWD_PENALTY: f64 = 1.06;

/// DRAM-sector waste when gathering sparse feature rows: rows land on
/// random addresses, so 32-byte sectors are only partially used.
const GATHER_COALESCE_FACTOR: f64 = 1.2;

/// Functional path: each split range accumulates into its own partial
/// buffer (mirroring the separate DRAM buffers on GPU); a final reduction
/// sums them in range order. Within a range the kernel runs offset-outer
/// over the pair lists: without multi-edges (asserted) they hold exactly
/// the neighbor matrix's entries, and each output element still adds its
/// offsets in ascending order.
pub(crate) fn compute(x: &Matrix, w: &ConvWeights, map: &KernelMap, plan: &SplitPlan) -> Matrix {
    assert!(
        map.has_dense_repr() && !map.has_multi_edges(),
        "implicit GEMM requires a dense output-stationary map without multi-edges"
    );
    let mut out = Matrix::zeros(map.n_out(), w.c_out());
    for range in plan.ranges() {
        out.add_assign(&crate::kernel::conv(x, w, map, range.k_begin..range.k_end));
    }
    out
}

/// Simulated trace under `plan` (the plan [`crate::prepare`] built).
pub(crate) fn trace(
    c_in_usize: usize,
    c_out_usize: usize,
    map: &KernelMap,
    plan: &SplitPlan,
    cfg: &DataflowConfig,
    ctx: &ExecCtx,
) -> KernelTrace {
    let mut trace = KernelTrace::new();
    let b = ctx.elem_bytes();
    let (c_in, c_out) = (c_in_usize as u64, c_out_usize as u64);
    let n_out = map.n_out() as u64;
    if n_out == 0 {
        return trace;
    }

    // All splits execute inside one kernel launch (the split index is a
    // CTA grid dimension, like split-K GEMM): splits multiply the CTA
    // count, improving occupancy on small workloads — the Table 5 effect.
    let scale = (c_in_usize * c_out_usize) as u64;
    let unit_counts = plan.unit_counts(map);
    let total_macs: u64 = unit_counts.iter().map(|u| u.total * scale).sum();
    let eff_pairs: u64 = unit_counts.iter().map(|u| u.effective).sum();
    let k_dim_total = map.kernel_volume() as u64 * c_in;

    let tile = cfg
        .tile_policy
        .tile_for(n_out, c_out, k_dim_total, ctx.device(), ctx.precision);
    let m_rows = if ctx.gen_flags.padded_map {
        pad_to_multiple(map.n_out(), tile.cta_m as usize) as u64
    } else {
        n_out
    };

    let mut pen = ctx
        .gen_flags
        .penalties(GeneratedDataflow::ImplicitGemm, tile, ctx.precision);
    if plan.is_sorted() && ctx.reorder == ReorderMode::Online {
        pen.addr *= ONLINE_REORDER_FWD_PENALTY;
    }

    let ranges = plan.ranges().len() as u64;
    let tiles_m = m_rows.div_ceil(tile.cta_m as u64);
    let tiles_n = c_out.div_ceil(tile.cta_n as u64);

    // Memory traffic: gathered features (poorly coalesced), weights with
    // L2-discounted re-reads, the map itself, and one output write (or
    // one partial buffer per split range).
    let a_read = (eff_pairs * c_in * b) as f64 * GATHER_COALESCE_FACTOR;
    let a_total = (a_read * (1.0 + 0.3 * tiles_n.saturating_sub(1) as f64)) as u64;
    let w_read = k_dim_total * c_out * b;
    let w_total = w_read + (w_read as f64 * 0.3 * (tiles_m.saturating_sub(1)) as f64) as u64;
    let map_read = m_rows * map.kernel_volume() as u64 * 4;
    let write = ranges * n_out * c_out * b;

    // The MMA pipe runs near its intrinsic tile efficiency; occupancy
    // effects appear as a wall-clock stretch instead, and compute and
    // memory phases serialise (sparse kernels are latency-bound).
    let util = mma_pipe_utilization(tile, m_rows, c_out, k_dim_total, ranges, ctx);
    let stretch = occupancy_stretch(tiles_m * tiles_n * ranges, tile, ctx);

    let desc = KernelDesc::gemm("implicit-gemm", m_rows, c_out, k_dim_total, ctx.precision)
        .with_macs(total_macs)
        .with_tile(tile)
        .with_traffic(a_total + w_total + map_read, write)
        .with_overlap(ts_gpusim::Overlap::None)
        .with_util(util)
        .with_latency_stretch(stretch)
        .with_addr_overhead(pen.addr * ctx.system_eff)
        .with_ctrl_overhead(pen.ctrl);
    ctx.cost.record(&mut trace, desc);

    if plan.partial_buffers() > 1 {
        let s = plan.partial_buffers() as u64;
        let reduce = KernelDesc::memory("splitk-reduce", s * n_out * c_out * b, n_out * c_out * b)
            .with_class(KernelClass::Reduction);
        ctx.cost.record(&mut trace, reduce);
    }

    trace
}

/// Intrinsic MMA-pipe efficiency of a generated sparse kernel: tile
/// quality, edge-tile quantization (lanes idle when `m`/`n` do not fill
/// the CTA tile) and the K-loop pipeline-drain factor (each split range
/// drains its own pipeline).
pub(crate) fn mma_pipe_utilization(
    tile: ts_gpusim::TileShape,
    m: u64,
    n: u64,
    k_dim_total: u64,
    ranges: u64,
    ctx: &ExecCtx,
) -> f64 {
    let _ = ctx;
    // Per-instruction MMA throughput degrades only mildly with tile size
    // (operand reuse); occupancy effects are modelled separately.
    let area = (tile.cta_m * tile.cta_n) as f64;
    let base = 0.95 * area / (area + 300.0);
    let quant_m = m as f64 / (m.div_ceil(tile.cta_m as u64) * tile.cta_m as u64).max(1) as f64;
    let quant_n = n as f64 / (n.div_ceil(tile.cta_n as u64) * tile.cta_n as u64).max(1) as f64;
    let k_iters = k_dim_total.div_ceil(tile.cta_k as u64).max(1) as f64;
    let drains = (ranges * tile.stages as u64) as f64;
    (base * quant_m * quant_n * (k_iters / (k_iters + drains))).clamp(1e-4, 1.0)
}

/// Baseline exposed-latency factor of indirectly-addressed kernels:
/// even at full occupancy, gather-heavy sparse kernels cannot fully hide
/// the pointer-chasing latency behind MMA work (real sparse-conv kernels
/// run far below both the bandwidth and the compute roofline; the
/// residual scales with the SM domain, per Section 6.3's ablation).
const LATENCY_EXPOSURE_FLOOR: f64 = 1.8;

/// Latency stretch of a standalone gather/scatter kernel (full grid,
/// purely random access): the irreducible exposure floor.
pub(crate) fn gather_kernel_stretch() -> f64 {
    1.0 + LATENCY_EXPOSURE_FLOOR
}

/// Wall-clock stretch from exposed memory latency: a floor for the
/// irreducible pointer-chasing exposure plus an SM under-occupancy term
/// (too few CTAs cannot hide latency; sub-linear and capped).
pub(crate) fn occupancy_stretch(ctas: u64, tile: ts_gpusim::TileShape, ctx: &ExecCtx) -> f64 {
    let device = ctx.device();
    let smem_limit = (device.smem_kib_per_sm as u64 * 1024) / tile.smem_bytes(ctx.precision).max(1);
    let reg_limit = (256 * 256) / (tile.cta_m as u64 * tile.cta_n as u64).max(1);
    let ctas_per_sm = smem_limit.min(reg_limit).clamp(1, 8);
    let slots = (device.sm_count as u64 * ctas_per_sm).max(1);
    let occupancy = (ctas as f64 / slots as f64).min(1.0);
    // More CTAs (e.g. from mask splits) improve latency hiding across
    // the whole exposure, not just the tail.
    ((1.0 + LATENCY_EXPOSURE_FLOOR) / occupancy.sqrt()).clamp(1.0, 5.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{forward, forward_trace, prepare, reference_forward, DataflowConfig};
    use ts_gpusim::Device;
    use ts_kernelmap::{build_submanifold_map, Coord, KernelOffsets};
    use ts_tensor::{rng_from_seed, uniform_matrix, Precision};

    fn setup(n: i32) -> (Matrix, ConvWeights, KernelMap) {
        let coords: Vec<Coord> = (0..n)
            .map(|i| Coord::new(0, i % 12, (i * 7) % 9, (i * 3) % 4))
            .collect();
        let coords = ts_kernelmap::unique_coords(&coords);
        let map = build_submanifold_map(&coords, &KernelOffsets::cube(3));
        let mut rng = rng_from_seed(41);
        let x = uniform_matrix(&mut rng, coords.len(), 8, -1.0, 1.0);
        let w = ConvWeights::random(&mut rng, 27, 8, 6);
        (x, w, map)
    }

    /// The trace of an 8 -> 6 channel layer under `cfg`.
    fn priced(map: &KernelMap, cfg: &DataflowConfig, ctx: &ExecCtx) -> KernelTrace {
        forward_trace(8, 6, map, &prepare(map, cfg, ctx), cfg, ctx)
    }

    #[test]
    fn all_split_counts_match_reference() {
        let (x, w, map) = setup(80);
        let expected = reference_forward(&x, &w, &map);
        let ctx = ExecCtx::functional(Device::rtx3090(), Precision::Fp32);
        for s in 0..=4 {
            let out = forward(&x, &w, &map, &DataflowConfig::implicit_gemm(s), &ctx);
            let got = out.features.unwrap();
            assert!(got.approx_eq(&expected, 1e-4), "splits={s}");
        }
    }

    #[test]
    fn sorted_kernel_has_fewer_macs_than_unsorted() {
        let (_, _, map) = setup(200);
        let ctx = ExecCtx::simulate(Device::rtx3090(), Precision::Fp16);
        let unsorted = priced(&map, &DataflowConfig::implicit_gemm(0), &ctx);
        let sorted = priced(&map, &DataflowConfig::implicit_gemm(1), &ctx);
        assert!(sorted.total_macs() <= unsorted.total_macs());
        assert!(unsorted.total_macs() > map.effective_macs(8, 6));
    }

    #[test]
    fn splits_add_a_reduction_kernel() {
        let (_, _, map) = setup(100);
        let ctx = ExecCtx::simulate(Device::rtx3090(), Precision::Fp16);
        let s1 = priced(&map, &DataflowConfig::implicit_gemm(1), &ctx);
        assert!(!s1
            .entries()
            .iter()
            .any(|e| e.desc.class == KernelClass::Reduction));
        let s3 = priced(&map, &DataflowConfig::implicit_gemm(3), &ctx);
        assert!(s3
            .entries()
            .iter()
            .any(|e| e.desc.class == KernelClass::Reduction));
    }

    #[test]
    fn write_traffic_is_output_minimal_per_range() {
        let (_, _, map) = setup(100);
        let ctx = ExecCtx::simulate(Device::rtx3090(), Precision::Fp16);
        let out = priced(&map, &DataflowConfig::implicit_gemm(0), &ctx);
        let compute = out
            .entries()
            .iter()
            .find(|e| e.desc.class == KernelClass::Compute)
            .unwrap();
        assert_eq!(compute.desc.dram_write, map.n_out() as u64 * 6 * 2);
        assert_eq!(compute.desc.atomic_write, 0);
    }

    #[test]
    fn online_reordering_slows_compute_kernels() {
        let (_, _, map) = setup(150);
        let base = ExecCtx::simulate(Device::rtx3090(), Precision::Fp16);
        let online = base.clone().with_reorder(ReorderMode::Online);
        let t_off = priced(&map, &DataflowConfig::implicit_gemm(1), &base);
        let t_on = priced(&map, &DataflowConfig::implicit_gemm(1), &online);
        let c_off = t_off.class_us(KernelClass::Compute);
        let c_on = t_on.class_us(KernelClass::Compute);
        assert!(c_on > c_off, "online {c_on} <= offline {c_off}");
    }

    #[test]
    fn padded_rows_are_a_tile_multiple() {
        let (_, _, map) = setup(90);
        let ctx = ExecCtx::simulate(Device::rtx3090(), Precision::Fp16);
        let out = priced(&map, &DataflowConfig::implicit_gemm(0), &ctx);
        let e = &out.entries()[0].desc;
        let (m, _, _) = e.gemm_shape.unwrap();
        let cta_m = e.tile.unwrap().cta_m as u64;
        assert_eq!(m % cta_m, 0);
        assert!(m >= map.n_out() as u64);
    }
}
