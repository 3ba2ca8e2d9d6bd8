//! Dense `f32` matrix substrate for the TorchSparse++ reproduction.
//!
//! Sparse convolution decomposes into dense matrix multiplications over
//! gathered feature rows. This crate provides the minimal dense linear
//! algebra that the dataflow executors in `ts-dataflow` are built on:
//! a row-major [`Matrix`], GEMM with transpose flags, element-wise kernels
//! used by layers (bias, ReLU, batch-norm), and deterministic random
//! initialisation.
//!
//! Numeric behaviour of reduced precisions is modelled by [`Precision`]:
//! functional execution always computes in `f32`, while FP16 storage
//! rounding can be applied explicitly with [`Precision::quantize`] when a
//! test wants to observe precision loss.
//!
//! # Examples
//!
//! ```
//! use ts_tensor::{Matrix, gemm};
//!
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let b = Matrix::identity(2);
//! let c = gemm(&a, &b);
//! assert_eq!(c, a);
//! ```

#![forbid(unsafe_code)]

mod matrix;
mod ops;
mod precision;
mod rng;

pub use matrix::{
    gemm, gemm_accumulate, gemm_nt, gemm_tn, gemm_tn_naive, Matrix, MatrixShapeError, GEMM_TN_BLOCK,
};
pub use ops::{add_bias, batch_norm, relu, relu_backward, BatchNormParams};
pub use precision::{unscale_grad, ErrorBudget, Precision};
pub use rng::{rng_from_seed, uniform_matrix, xavier_matrix};
