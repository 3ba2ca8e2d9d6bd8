//! Analytical GPU execution model for the TorchSparse++ reproduction.
//!
//! The paper's artifact is CUDA running on real NVIDIA GPUs. This crate
//! replaces that hardware with a first-principles performance model:
//!
//! * [`Device`] — per-GPU specifications (SM count, clock, per-precision
//!   peak throughput, DRAM bandwidth, launch overhead) with presets for
//!   every GPU the paper evaluates (A100, RTX 3090, RTX 2080 Ti,
//!   GTX 1080 Ti, Jetson AGX Orin).
//! * [`KernelDesc`] — a workload descriptor for one GPU kernel launch:
//!   MACs (including warp-lockstep waste), scalar CUDA-core work, DRAM
//!   read/write bytes, atomic traffic and overlap semantics.
//! * [`CostModel`] — prices a kernel on a device using a roofline with
//!   tile/wave quantization, occupancy and pipelining effects — exactly
//!   the effects the paper's evaluation hinges on (overlapped vs.
//!   sequential dataflows, mapping overhead vs. tensor-core throughput,
//!   redundant computation from warp lockstep).
//! * [`KernelTrace`] — the sequence of kernels a dataflow "launches",
//!   with per-category aggregation (mapping vs. compute vs. reduction),
//!   which is how Table 3 vs. Table 4 of the paper is reproduced.
//!
//! # Examples
//!
//! ```
//! use ts_gpusim::{CostModel, Device, KernelDesc, Precision};
//!
//! let model = CostModel::new(Device::rtx3090());
//! let gemm = KernelDesc::gemm("example", 4096, 256, 256, Precision::Fp16);
//! assert!(model.kernel_time_us(&gemm) > 0.0);
//! ```

#![forbid(unsafe_code)]

mod cost;
mod device;
mod kernel;
mod trace;

pub use cost::{best_tile_for, gemm_dram_traffic, gemm_utilization, CostModel};
pub use device::{Arch, Device};
pub use kernel::{KernelClass, KernelDesc, Overlap, TileShape};
pub use trace::{KernelTrace, TraceEntry};

/// Numeric precision selecting which peak throughput a kernel uses
/// (re-exported from `ts-tensor`, the single definition in the workspace).
pub use ts_tensor::Precision;
