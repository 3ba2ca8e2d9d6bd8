//! # torchsparse
//!
//! Umbrella crate for the Rust reproduction of **TorchSparse++** (MICRO
//! 2023): an efficient training and inference framework for sparse
//! convolution, rebuilt on a simulated GPU substrate.
//!
//! Re-exports every workspace crate under a stable module name. See the
//! repository `README.md` for a tour and `examples/` for runnable entry
//! points.
//!
//! ```
//! use torchsparse::tensor::Matrix;
//!
//! let m = Matrix::identity(3);
//! assert_eq!(m.rows(), 3);
//! ```

#![forbid(unsafe_code)]

pub use ts_autotune as autotune;
pub use ts_baselines as baselines;
pub use ts_cache as cache;
pub use ts_core as core;
pub use ts_dataflow as dataflow;
pub use ts_fleet as fleet;
pub use ts_gpusim as gpusim;
pub use ts_graph as graph;
pub use ts_kernelgen as kernelgen;
pub use ts_kernelmap as kernelmap;
pub use ts_obs as obs;
pub use ts_serve as serve;
pub use ts_tensor as tensor;
pub use ts_trace as trace;
pub use ts_train as train;
pub use ts_workloads as workloads;
