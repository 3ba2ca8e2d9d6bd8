//! The **Sparse Kernel Generator** (Section 3 of the TorchSparse++
//! paper).
//!
//! The paper's key systems idea: a dense, fixed-shape tensor-compiler
//! GEMM template can be turned into *sparse, dynamic-shape* convolution
//! kernels by replacing only the global-memory iterators with
//! indirectly-addressed ones — at less than a tenth of the engineering
//! cost of SpConv v2's 40k-line metaprogrammer. Two source-level
//! transforms recover fixed-shape performance:
//!
//! * **loop-invariant hoisting** of address arithmetic (the div/mod on
//!   `C_in` moves out of the innermost `ldA` loop), closing an up-to-1.7x
//!   gap (Figure 20);
//! * **map padding** to a multiple of `cta_m`, removing the boundary
//!   check on map loads, closing an up-to-1.35x gap (Figure 21).
//!
//! This crate reproduces the generator: [`KernelSpec`] describes the
//! requested kernel, [`generate`] emits CUDA-like source from the
//! three-part template of Figure 7 (constant / sparse-iterator /
//! tile-size-specialised MMA) and returns [`SourceStats`] counting the
//! address operations and branches left in the inner loop. Those counts
//! drive the performance penalties priced by `ts-gpusim`, and
//! [`generator_loc`] accounts the lines-of-code claim.
//!
//! # Examples
//!
//! ```
//! use ts_kernelgen::{generate, GeneratedDataflow, KernelSpec};
//! use ts_gpusim::{Precision, TileShape};
//!
//! let spec = KernelSpec::new(GeneratedDataflow::ImplicitGemm, TileShape::large(), Precision::Fp16);
//! let kernel = generate(&spec);
//! assert!(kernel.source.contains("__global__"));
//! assert_eq!(kernel.stats.inner_loop_branches, 0); // padded by default
//! ```

#![forbid(unsafe_code)]

mod analysis;
mod codegen;
mod engineering;
mod spec;
mod tensorir;
mod tiling;

pub use analysis::{addr_overhead_factor, ctrl_overhead_factor, PenaltyFactors};
pub use codegen::{generate, GeneratedKernel, SourceStats};
pub use engineering::{generator_loc, EngineeringCost, SPCONV_V2_METAPROGRAMMER_LOC};
pub use spec::{GeneratedDataflow, KernelSpec, ShapeMode};
pub use tensorir::{emit_tensorir, TensorIrTemplate};
pub use tiling::{adaptive_tile, TilePolicy, ADAPTIVE_MAC_THRESHOLD};
