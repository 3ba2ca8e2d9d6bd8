//! Coordinate management and kernel-map construction for sparse
//! convolution.
//!
//! A sparse convolution layer first builds *kernel maps*: for every
//! kernel offset δ, the set of (input, output) pairs with
//! `p_in = stride * q_out + δ` (Equation 1 of the TorchSparse++ paper).
//! This crate implements the full mapping pipeline of the paper:
//!
//! * [`Coord`] — quantized 4D (batch, x, y, z) coordinates with packed
//!   64-bit keys;
//! * [`CoordHashMap`] — an open-addressing hash table (the GPU hash-table
//!   analog) used for neighbor queries;
//! * [`KernelOffsets`] — the neighborhood Δ³(K) with a stable offset
//!   ordering and mirror lookup;
//! * [`KernelMap`] — the *weight-stationary* pair lists per offset, which
//!   every host dataflow runs from, and the per-output bitmasks of the
//!   *output-stationary* view, which implicit GEMM's split plans read
//!   (builders fill the neighbor matrix only while building), with
//!   transposition for backward data gradients;
//! * [`build_submanifold_map`] / [`build_strided_map`] — map builders for
//!   the two convolution kinds in MinkUNet/CenterPoint;
//! * [`SplitPlan`] — arbitrary *mask splits* (Figure 10), with exact
//!   redundant-computation accounting under warp lockstep for bitmask-
//!   sorted and unsorted rows (Figures 5, 6, 11);
//! * [`IncrementalMap`] — temporal delta-patching of submanifold maps
//!   across streaming frames, with churn-thresholded fallback to a full
//!   rebuild.
//!
//! # Examples
//!
//! ```
//! use ts_kernelmap::{build_submanifold_map, Coord, KernelOffsets};
//!
//! let coords = vec![Coord::new(0, 0, 0, 0), Coord::new(0, 1, 0, 0)];
//! let offsets = KernelOffsets::cube(3);
//! let map = build_submanifold_map(&coords, &offsets);
//! assert_eq!(map.n_out(), 2);
//! // Each point sees itself plus its one neighbor.
//! assert_eq!(map.total_pairs(), 4);
//! ```

#![forbid(unsafe_code)]

mod build;
mod check;
mod coord;
mod delta;
mod hashmap;
mod map;
mod offsets;
mod split;

pub use build::{
    build_strided_map, build_strided_map_with_stats, build_submanifold_map,
    build_submanifold_map_with_stats, downsample_coords, unique_coords, MapStats,
};
pub use check::{check_map, check_plan, MapViolation};
pub use coord::Coord;
pub use delta::{DeltaConfig, IncrementalMap, MapUpdate, UpdateOutcome};
pub use hashmap::CoordHashMap;
pub use map::KernelMap;
pub use offsets::KernelOffsets;
pub use split::{
    mac_counts, mac_counts_range, pad_to_multiple, MacCounts, SplitPlan, SplitRange, LOCKSTEP_ROWS,
};
