//! Weight-gradient (`wgrad`) kernels.
//!
//! `dW_δ = X_gathered^T x dY_gathered` per offset. The GEMM shape is
//! `C_in x C_out` with the *output-point* dimension as the long K loop —
//! which is why online map reordering hurts wgrad badly (Figure 19): the
//! extra indirection lands in the innermost loop of a long reduction.

use ts_gpusim::{KernelDesc, KernelTrace, Overlap};
use ts_kernelgen::GeneratedDataflow;
use ts_kernelmap::KernelMap;
use ts_tensor::Matrix;

use crate::{ConvWeights, DataflowConfig, DataflowKind, ExecCtx, ReorderMode};

/// Compute-time multiplier online reordering costs inside the fused
/// wgrad kernel (Figure 19: ~12 % end-to-end training regression, borne
/// mostly by wgrad).
pub(crate) const ONLINE_REORDER_WGRAD_PENALTY: f64 = 1.30;

/// Weight gradients computed by a wgrad pass.
#[derive(Debug, Clone)]
pub struct WgradOutput {
    /// Per-offset weight gradients (`None` in simulate-only mode).
    pub dw: Option<ConvWeights>,
}

/// Computes weight gradients through `map` with dataflow `cfg`.
/// Computes and never prices; [`wgrad_trace`] prices it.
///
/// # Panics
///
/// Panics if `x` / `dy` shapes disagree with the map.
pub fn wgrad(
    x: &Matrix,
    dy: &Matrix,
    map: &KernelMap,
    cfg: &DataflowConfig,
    ctx: &ExecCtx,
) -> WgradOutput {
    assert_eq!(x.rows(), map.n_in(), "wgrad input rows");
    assert_eq!(dy.rows(), map.n_out(), "wgrad output-grad rows");
    // Every dataflow computes the same per-offset sums: `cfg` selects
    // only the kernels `wgrad_trace` prices (and the `mutate` hook).
    let _ = cfg;
    #[allow(unused_mut)]
    let mut dw = ctx.functional.then(|| compute(x, dy, map));
    #[cfg(feature = "mutate")]
    crate::mutate::apply_wgrad(&mut dw, cfg);
    WgradOutput { dw }
}

/// Prices the kernels [`wgrad`] launches for a `c_in -> c_out` layer
/// through `map`, without any feature data.
pub fn wgrad_trace(
    c_in: usize,
    c_out: usize,
    map: &KernelMap,
    cfg: &DataflowConfig,
    ctx: &ExecCtx,
) -> KernelTrace {
    match cfg.kind {
        // Only the naive gather-scatter library (SpConv v1 style) runs
        // per-offset wgrad; the fused variant batches it like forward.
        DataflowKind::GatherScatter { fused: false } => {
            trace_gather(c_in as u64, c_out as u64, map, ctx)
        }
        _ => trace_fused(c_in as u64, c_out as u64, map, cfg, ctx),
    }
}

/// Functional path: per-offset gathered `X^T * dY` (identical math to
/// `reference_wgrad`, expressed as GEMMs).
fn compute(x: &Matrix, dy: &Matrix, map: &KernelMap) -> ConvWeights {
    let mut dw = ConvWeights::zeros(map.kernel_volume(), x.cols(), dy.cols());
    for k in 0..map.kernel_volume() {
        let pairs = map.pairs(k);
        if pairs.is_empty() {
            continue;
        }
        let mut xg = Matrix::zeros(pairs.len(), x.cols());
        let mut yg = Matrix::zeros(pairs.len(), dy.cols());
        for (r, &(i, o)) in pairs.iter().enumerate() {
            xg.row_mut(r).copy_from_slice(x.row(i as usize));
            yg.row_mut(r).copy_from_slice(dy.row(o as usize));
        }
        *dw.offset_mut(k) = ts_tensor::gemm_tn(&xg, &yg);
    }
    dw
}

/// Weight-stationary wgrad: gather + vendor GEMM per offset.
fn trace_gather(c_in: u64, c_out: u64, map: &KernelMap, ctx: &ExecCtx) -> KernelTrace {
    let mut trace = KernelTrace::new();
    let b = ctx.elem_bytes();
    for k in 0..map.kernel_volume() {
        let m = map.pairs(k).len() as u64;
        if m == 0 {
            continue;
        }
        let gather = KernelDesc::memory(
            format!("wgrad-gather[{k}]"),
            m * (c_in + c_out) * b + m * 8,
            m * (c_in + c_out) * b,
        )
        .with_latency_stretch(crate::implicit_gemm::gather_kernel_stretch());
        ctx.cost.record(&mut trace, gather);
        let mut gemm = KernelDesc::gemm(format!("wgrad-gemm[{k}]"), c_in, c_out, m, ctx.precision);
        gemm.dram_read = m * (c_in + c_out) * b;
        gemm.dram_write = c_in * c_out * b;
        gemm.overlap = Overlap::None;
        gemm.addr_overhead = ctx.system_eff;
        ctx.cost.record(&mut trace, gemm);
    }
    trace
}

/// Fused wgrad (implicit-GEMM / fetch-on-demand families): one kernel,
/// all offsets batched, output points forming the long K loop.
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
    let k_dim = map.n_out() as u64;
    // The wgrad GEMM is C_in*K^3 x C_out with the *output points* as the
    // long K loop. Mask splits partition that K loop (split-K style):
    // more CTAs (better occupancy on small layers), shorter pipelines and
    // one partial gradient buffer per split.
    let ranges = match cfg.kind {
        DataflowKind::ImplicitGemm { splits } => splits.max(1) as u64,
        _ => 1,
    };
    let tile = cfg
        .tile_policy
        .tile_for(c_in * kvol, c_out, k_dim, ctx.device(), ctx.precision);
    let util =
        crate::implicit_gemm::mma_pipe_utilization(tile, c_in * kvol, c_out, k_dim, ranges, ctx);
    let ctas =
        (c_in * kvol).div_ceil(tile.cta_m as u64) * c_out.div_ceil(tile.cta_n as u64) * ranges;
    let stretch = crate::implicit_gemm::occupancy_stretch(ctas, tile, ctx);
    let mut pen = ctx
        .gen_flags
        .penalties(GeneratedDataflow::ImplicitGemm, tile, ctx.precision);
    let sorted = matches!(cfg.kind, DataflowKind::ImplicitGemm { splits } if splits >= 1);
    if sorted && ctx.reorder == ReorderMode::Online {
        // Online reordering adds an indirection inside the long K loop
        // and destroys the contiguous access pattern (Section 6.2).
        pen.addr *= ONLINE_REORDER_WGRAD_PENALTY;
    }
    let desc = KernelDesc::gemm("wgrad(fused)", c_in * kvol, c_out, k_dim, ctx.precision)
        .with_macs(pairs * c_in * c_out)
        .with_tile(tile)
        .with_traffic(
            pairs * (c_in + c_out) * b * 2 + pairs * 8,
            ranges * kvol * c_in * c_out * b,
        )
        .with_overlap(ts_gpusim::Overlap::None)
        .with_util(util)
        .with_latency_stretch(stretch)
        .with_addr_overhead(pen.addr * ctx.system_eff)
        .with_ctrl_overhead(pen.ctrl);
    ctx.cost.record(&mut trace, desc);
    if ranges > 1 {
        let reduce = KernelDesc::memory(
            "wgrad-splitk-reduce",
            ranges * kvol * c_in * c_out * b,
            kvol * c_in * c_out * b,
        );
        ctx.cost.record(&mut trace, reduce);
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference_wgrad;
    use ts_gpusim::Device;
    use ts_kernelmap::{build_submanifold_map, Coord, KernelOffsets};
    use ts_tensor::{rng_from_seed, uniform_matrix, Precision};

    fn setup() -> (Matrix, Matrix, KernelMap) {
        let coords: Vec<Coord> = (0..30).map(|i| Coord::new(0, i % 6, i / 6, 0)).collect();
        let map = build_submanifold_map(&coords, &KernelOffsets::cube(3));
        let mut rng = rng_from_seed(51);
        let x = uniform_matrix(&mut rng, 30, 4, -1.0, 1.0);
        let dy = uniform_matrix(&mut rng, 30, 5, -1.0, 1.0);
        (x, dy, map)
    }

    #[test]
    fn functional_matches_reference() {
        let (x, dy, map) = setup();
        let expected = reference_wgrad(&x, &dy, &map);
        let got = compute(&x, &dy, &map);
        for k in 0..map.kernel_volume() {
            assert!(
                got.offset(k).approx_eq(expected.offset(k), 1e-4),
                "offset {k}"
            );
        }
    }

    #[test]
    fn fused_wgrad_is_one_launch() {
        let (_, _, map) = setup();
        let ctx = ExecCtx::simulate(Device::a100(), Precision::Fp16);
        let t = wgrad_trace(4, 5, &map, &DataflowConfig::implicit_gemm(1), &ctx);
        assert_eq!(t.launch_count(), 1);
    }

    #[test]
    fn gather_wgrad_launches_per_offset() {
        let (_, _, map) = setup();
        let ctx = ExecCtx::simulate(Device::a100(), Precision::Fp16);
        let t = wgrad_trace(4, 5, &map, &DataflowConfig::gather_scatter(false), &ctx);
        let nonempty = map.pairs_per_offset().iter().filter(|&&s| s > 0).count() as u64;
        assert_eq!(t.launch_count(), 2 * nonempty);
    }

    #[test]
    fn online_reorder_hurts_wgrad_more_than_forward() {
        let (_, _, map) = setup();
        let off = ExecCtx::simulate(Device::a100(), Precision::Fp16);
        let on = off.clone().with_reorder(ReorderMode::Online);
        let cfg = DataflowConfig::implicit_gemm(1);
        let t_off = wgrad_trace(4, 5, &map, &cfg, &off).total_us();
        let t_on = wgrad_trace(4, 5, &map, &cfg, &on).total_us();
        assert!(t_on > t_off);
    }

    #[test]
    fn functional_mode_returns_gradients() {
        let (x, dy, map) = setup();
        let ctx = ExecCtx::functional(Device::a100(), Precision::Fp32);
        let out = wgrad(&x, &dy, &map, &DataflowConfig::implicit_gemm(0), &ctx);
        assert!(out.dw.is_some());
        let sim = ExecCtx::simulate(Device::a100(), Precision::Fp32);
        assert!(
            wgrad(&x, &dy, &map, &DataflowConfig::implicit_gemm(0), &sim)
                .dw
                .is_none()
        );
    }
}
