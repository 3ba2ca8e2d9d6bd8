//! Baseline system emulations.
//!
//! The paper compares TorchSparse++ against four sparse-convolution
//! libraries, a vendor dense-GEMM library, and an ASIC accelerator. Each
//! is re-implemented here by its *documented dataflow and mapping
//! strategy* (not stubbed): every baseline runs real kernel maps through
//! the same executors and cost model, differing only in the dataflow
//! family, design space, precision support and measured kernel/mapping
//! efficiency the paper attributes to it.
//!
//! | System | Dataflow | Notes |
//! |---|---|---|
//! | MinkowskiEngine 0.5.4 | per-offset fetch-on-demand | FP32 only, slow coordinate manager |
//! | SpConv 1.2.1 | naive gather-GEMM-scatter | three launches per offset |
//! | TorchSparse (MLSys'22) | fused gather-scatter | adaptive grouping |
//! | SpConv 2.3.5 | sorted implicit GEMM | splits in {1,2}, bound training params, 1.1–1.2x slower kernels |
//! | TorchSparse++ | full design space | Sparse Autotuner, device-specific training binding |
//!
//! Plus [`cublas`] (the equivalent-GEMM yardstick of Figure 8),
//! [`pointacc`] (the scaled-ASIC projection of Table 2), and
//! [`flatformer`] (the point-cloud-transformer comparison of
//! Section 5.2).

#![forbid(unsafe_code)]

pub mod cublas;
pub mod flatformer;
pub mod pointacc;
mod systems;

pub use systems::{System, ALL_SYSTEMS};
