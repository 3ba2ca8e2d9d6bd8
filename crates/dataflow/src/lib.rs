//! Sparse-convolution dataflow executors.
//!
//! Implements every dataflow of the TorchSparse++ design space
//! (Section 2.2 and Figure 9 of the paper), each with a *functional* path
//! (real `f32` arithmetic, so all dataflows can be cross-checked against
//! the direct evaluation of Equation 1) and a *simulated* path (a
//! [`ts_gpusim::KernelTrace`] of the kernels the dataflow launches on a
//! GPU):
//!
//! * [`DataflowKind::GatherScatter`] — weight-stationary
//!   gather-GEMM-scatter, naive (SparseConvNet / SpConv v1: three kernel
//!   launches per offset) or fused with adaptive grouping (TorchSparse
//!   MLSys'22);
//! * [`DataflowKind::FetchOnDemand`] — kernel-fused gather/MMA/scatter,
//!   per-offset (MinkowskiEngine) or block-fused (PCEngine /
//!   TorchSparse++), paying atomic write-back;
//! * [`DataflowKind::ImplicitGemm`] — output-stationary implicit GEMM
//!   with the paper's split encoding (0 = unsorted, 1 = sorted,
//!   s >= 2 = mask splits), paying warp-lockstep redundant computation
//!   counted *exactly* from the kernel map.
//!
//! Backward kernels: `dgrad` is a forward pass over the transposed map
//! with transposed weights; [`wgrad`] reduces over output points per
//! offset. Both honor the offline/online reordering distinction of
//! Figure 19.
//!
//! # Examples
//!
//! ```
//! use ts_dataflow::{forward, ConvWeights, DataflowConfig, ExecCtx};
//! use ts_gpusim::Device;
//! use ts_kernelmap::{build_submanifold_map, Coord, KernelOffsets};
//! use ts_tensor::{uniform_matrix, rng_from_seed, Precision};
//!
//! let coords: Vec<Coord> = (0..10).map(|i| Coord::new(0, i, 0, 0)).collect();
//! let map = build_submanifold_map(&coords, &KernelOffsets::cube(3));
//! let mut rng = rng_from_seed(1);
//! let x = uniform_matrix(&mut rng, 10, 4, -1.0, 1.0);
//! let w = ConvWeights::random(&mut rng, 27, 4, 8);
//! let ctx = ExecCtx::functional(Device::rtx3090(), Precision::Fp32);
//!
//! let out = forward(&x, &w, &map, &DataflowConfig::implicit_gemm(1), &ctx);
//! assert_eq!(out.features.unwrap().shape(), (10, 8));
//! assert!(out.trace.total_us() > 0.0);
//! ```

mod config;
mod ctx;
mod fetch_on_demand;
mod gather_scatter;
mod implicit_gemm;
mod kernel;
mod prepare;
mod reference;
mod weights;
mod wgrad;

pub use config::{ConfigError, DataflowConfig, DataflowKind, MAX_SPLITS};
pub use ctx::{ConvOutput, ExecCtx, GenFlags, ReorderMode};
pub use prepare::{prepare, Prepared};
pub use reference::{reference_dgrad, reference_forward, reference_wgrad};
pub use weights::ConvWeights;
pub use wgrad::{wgrad, wgrad_trace, WgradOutput};

use ts_gpusim::KernelTrace;
use ts_kernelmap::KernelMap;
use ts_tensor::Matrix;

/// Runs a sparse convolution forward pass through `map` with dataflow
/// `cfg`.
///
/// Returns the output features (when the context is functional) and the
/// kernel trace. Per-group preparation cost (bitmask build, sorting,
/// reordering) is **not** included — call [`prepare`] once per layer
/// group and merge its trace, exactly as the layer runner in `ts-core`
/// does.
///
/// # Panics
///
/// Panics if `x` has a different row count than `map.n_in()` or channel
/// count than `w.c_in()`.
pub fn forward(
    x: &Matrix,
    w: &ConvWeights,
    map: &KernelMap,
    cfg: &DataflowConfig,
    ctx: &ExecCtx,
) -> ConvOutput {
    let prepared = prepare(map, cfg, ctx);
    forward_prepared(x, w, map, &prepared, cfg, ctx)
}

/// [`forward`] with an explicit prepared plan (no preparation cost).
pub fn forward_prepared(
    x: &Matrix,
    w: &ConvWeights,
    map: &KernelMap,
    prepared: &Prepared,
    cfg: &DataflowConfig,
    ctx: &ExecCtx,
) -> ConvOutput {
    assert_eq!(x.rows(), map.n_in(), "input rows must match map inputs");
    assert_eq!(x.cols(), w.c_in(), "input channels must match weights");
    #[allow(unused_mut)]
    let mut out = match cfg.kind {
        DataflowKind::GatherScatter { fused } => gather_scatter::run(x, w, map, fused, cfg, ctx),
        DataflowKind::FetchOnDemand { fused } => fetch_on_demand::run(x, w, map, fused, cfg, ctx),
        DataflowKind::ImplicitGemm { .. } => implicit_gemm::run(x, w, map, prepared, cfg, ctx),
    };
    #[cfg(feature = "mutate")]
    mutate::apply(&mut out, cfg);
    out
}

/// Deliberate fault injection for mutation testing of the conformance
/// harness (`mutate` feature only). With `TS_MUTATE=sign-flip` in the
/// environment, the fused gather-scatter dataflow's first output element
/// has its sign flipped — a defect any differential check must catch.
/// `TS_MUTATE=wgrad-sign-flip` plants the same defect in the fused
/// gather-scatter *weight-gradient* kernel, which only a training-step
/// harness exercising the backward path can catch.
#[cfg(feature = "mutate")]
mod mutate {
    use crate::{ConvOutput, ConvWeights, DataflowConfig, DataflowKind};

    pub(crate) fn apply(out: &mut ConvOutput, cfg: &DataflowConfig) {
        if !matches!(cfg.kind, DataflowKind::GatherScatter { fused: true }) {
            return;
        }
        if std::env::var("TS_MUTATE").as_deref() != Ok("sign-flip") {
            return;
        }
        if let Some(y) = out.features.as_mut() {
            if let Some(v) = y.as_mut_slice().iter_mut().find(|v| **v != 0.0) {
                *v = -*v;
            }
        }
    }

    pub(crate) fn apply_wgrad(dw: &mut Option<ConvWeights>, cfg: &DataflowConfig) {
        if !matches!(cfg.kind, DataflowKind::GatherScatter { fused: true }) {
            return;
        }
        if std::env::var("TS_MUTATE").as_deref() != Ok("wgrad-sign-flip") {
            return;
        }
        if let Some(w) = dw.as_mut() {
            for k in 0..w.kernel_volume() {
                let off = w.offset_mut(k);
                if let Some(v) = off.as_mut_slice().iter_mut().find(|v| **v != 0.0) {
                    *v = -*v;
                    return;
                }
            }
        }
    }
}

/// Simulated forward trace for a convolution of `c_in -> c_out` channels
/// through `map`, without any feature data.
///
/// This is what the layer runner and autotuner call when sweeping
/// configurations: it prices the exact kernels [`forward`] would launch
/// (preparation cost excluded — merge [`prepare`]'s trace per group).
pub fn forward_trace(
    c_in: usize,
    c_out: usize,
    map: &KernelMap,
    prepared: &Prepared,
    cfg: &DataflowConfig,
    ctx: &ExecCtx,
) -> KernelTrace {
    match cfg.kind {
        DataflowKind::GatherScatter { fused } => {
            gather_scatter::trace_only(c_in, c_out, map, fused, ctx)
        }
        DataflowKind::FetchOnDemand { fused } => {
            fetch_on_demand::trace_only(c_in, c_out, map, fused, cfg, ctx)
        }
        DataflowKind::ImplicitGemm { .. } => {
            implicit_gemm::trace_only(c_in, c_out, map, prepared, cfg, ctx)
        }
    }
}

/// Computes the input gradient (`dgrad`): a forward pass over the
/// transposed map with per-offset transposed weights.
///
/// `map_t` must be `map.transposed()` of the forward map (cached by the
/// layer runner so its cost is charged once per group).
pub fn dgrad(
    dy: &Matrix,
    w: &ConvWeights,
    map_t: &KernelMap,
    cfg: &DataflowConfig,
    ctx: &ExecCtx,
) -> ConvOutput {
    let wt = w.transposed();
    let mut out = forward(dy, &wt, map_t, cfg, ctx);
    relabel(&mut out.trace, "dgrad");
    out
}

fn relabel(trace: &mut KernelTrace, prefix: &str) {
    let entries: Vec<_> = trace
        .entries()
        .iter()
        .map(|e| {
            let mut d = e.desc.clone();
            d.name = format!("{prefix}:{}", d.name);
            ts_gpusim::TraceEntry {
                desc: d,
                time_us: e.time_us,
            }
        })
        .collect();
    *trace = entries.into_iter().collect();
}
