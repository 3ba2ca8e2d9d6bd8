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
//! Compute calls and pricing calls are separate, and no call does both.
//! [`prepare`], [`forward`], [`forward_prepared`], [`dgrad`] and
//! [`wgrad`] compute and never price; [`prepare_trace`],
//! [`forward_trace`] and [`wgrad_trace`] price and never compute. A
//! plan from [`prepare`] is context-free, so one plan per group serves
//! both the feature math and the pricing of every context.
//!
//! Backward kernels: `dgrad` is a forward pass over the transposed map
//! with transposed weights, so a dgrad of a `c_in -> c_out` layer is
//! priced as `forward_trace(c_out, c_in, map_t, ..)`; [`wgrad`] reduces
//! over output points per offset. Both honor the offline/online
//! reordering distinction of Figure 19.
//!
//! # Examples
//!
//! ```
//! use ts_dataflow::{forward_prepared, forward_trace, prepare, prepare_trace};
//! use ts_dataflow::{ConvWeights, DataflowConfig, ExecCtx};
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
//! let cfg = DataflowConfig::implicit_gemm(1);
//!
//! let plan = prepare(&map, &cfg, &ctx);
//! let out = forward_prepared(&x, &w, &map, &plan, &cfg, &ctx);
//! assert_eq!(out.features.unwrap().shape(), (10, 8));
//! let mapping = prepare_trace(&map, &plan, &cfg, &ctx);
//! let conv = forward_trace(4, 8, &map, &plan, &cfg, &ctx);
//! assert!(mapping.total_us() > 0.0 && conv.total_us() > 0.0);
//! ```

#![deny(unsafe_code)]
#![warn(clippy::undocumented_unsafe_blocks)]

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
pub use prepare::{prepare, prepare_trace, Prepared};
pub use reference::{reference_dgrad, reference_forward, reference_wgrad};
pub use weights::ConvWeights;
pub use wgrad::{wgrad, wgrad_trace, WgradOutput};

use ts_gpusim::KernelTrace;
use ts_kernelmap::KernelMap;
use ts_tensor::Matrix;

/// Runs a sparse convolution forward pass through `map` with dataflow
/// `cfg`: [`prepare`], then [`forward_prepared`]. Computes and never
/// prices.
///
/// # Panics
///
/// As [`forward_prepared`].
pub fn forward(
    x: &Matrix,
    w: &ConvWeights,
    map: &KernelMap,
    cfg: &DataflowConfig,
    ctx: &ExecCtx,
) -> ConvOutput {
    forward_prepared(x, w, map, &prepare(map, cfg, ctx), cfg, ctx)
}

/// [`forward`] with a plan [`prepare`] built for `map` and `cfg`: the
/// output features when the context is functional, `None` otherwise.
/// Computes and never prices; [`forward_trace`] prices it.
///
/// Every dataflow runs one host kernel. Gather-scatter and
/// fetch-on-demand run it over all offsets straight into the output;
/// implicit GEMM runs it once per split range.
///
/// # Panics
///
/// Panics if `x` has a different row count than `map.n_in()` or channel
/// count than `w.c_in()`, or if `prepared` was not prepared for `cfg`.
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
    let mut features = ctx.functional.then(|| match cfg.kind {
        DataflowKind::ImplicitGemm { splits } => {
            implicit_gemm::compute(x, w, map, prepared.split_plan(splits))
        }
        _ => kernel::conv(x, w, map, 0..map.kernel_volume()),
    });
    #[cfg(feature = "mutate")]
    mutate::apply(&mut features, cfg);
    ConvOutput { features }
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
    use crate::{ConvWeights, DataflowConfig, DataflowKind};
    use ts_tensor::Matrix;

    pub(crate) fn apply(features: &mut Option<Matrix>, cfg: &DataflowConfig) {
        if !matches!(cfg.kind, DataflowKind::GatherScatter { fused: true }) {
            return;
        }
        if std::env::var("TS_MUTATE").as_deref() != Ok("sign-flip") {
            return;
        }
        if let Some(y) = features.as_mut() {
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

/// Prices the kernels [`forward_prepared`] launches for a `c_in ->
/// c_out` convolution through `map`, without any feature data.
/// Preparation cost is excluded: [`prepare_trace`] prices it once per
/// group. A dgrad of a `c_in -> c_out` layer is priced as
/// `forward_trace(c_out, c_in, map_t, ..)`.
///
/// # Panics
///
/// Panics if `prepared` was not prepared for `cfg`.
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
            gather_scatter::trace(c_in, c_out, map, fused, ctx)
        }
        DataflowKind::FetchOnDemand { fused } => {
            fetch_on_demand::trace(c_in, c_out, map, fused, cfg, ctx)
        }
        DataflowKind::ImplicitGemm { splits } => {
            implicit_gemm::trace(c_in, c_out, map, prepared.split_plan(splits), cfg, ctx)
        }
    }
}

/// Computes the input gradient (`dgrad`): a [`forward`] over the
/// transposed map with per-offset transposed weights. Computes and
/// never prices.
///
/// `map_t` must be `map.transposed()` of the forward map.
pub fn dgrad(
    dy: &Matrix,
    w: &ConvWeights,
    map_t: &KernelMap,
    cfg: &DataflowConfig,
    ctx: &ExecCtx,
) -> ConvOutput {
    forward(dy, &w.transposed(), map_t, cfg, ctx)
}
