//! Workloads: synthetic LiDAR scenes, benchmark dataset presets, model
//! architectures and heterogeneous graph generators.
//!
//! The paper evaluates on SemanticKITTI, nuScenes and Waymo — real
//! datasets that are not available here. Sparse-convolution performance
//! depends on the *statistics* of the point cloud (point count, spatial
//! sparsity, neighbor counts), not its semantic content, so this crate
//! substitutes a deterministic LiDAR simulator: a rotating 64- or
//! 32-beam sensor ray-cast against a procedurally generated scene
//! (ground plane, boxes, walls, occlusion), with each dataset preset
//! matched to the real sensor's beam count, range, and voxel size.
//!
//! The module also provides:
//!
//! * [`models`] — MinkUNet (0.5x / 1x width) and the CenterPoint sparse
//!   backbone as [`ts_core::Network`] graphs;
//! * [`Workload`] — the paper's seven evaluation workloads
//!   (Section 5.1), each pairing a dataset preset with a model;
//! * [`graphs`] — heterogeneous graph generators for the five R-GCN
//!   benchmarks of Figure 16;
//! * [`masked_image`] — MAE-style sparse image inputs (the paper's
//!   Section 6.3 "future applications", implemented);
//! * [`arrivals`] — open-loop Poisson arrival traces for fleet-scale
//!   load generation.

#![forbid(unsafe_code)]

pub mod arrivals;
mod benchmarks;
pub mod graphs;
mod lidar;
pub mod masked_image;
pub mod models;

pub use arrivals::{Arrival, ArrivalConfig, ArrivalTrace};
pub use benchmarks::{Workload, WorkloadKind, ALL_WORKLOADS};
pub use lidar::{FrameDelta, LidarConfig, LidarScene, LidarStream, SceneStats};
pub use masked_image::{masked_image_batch, masked_image_encoder, MaskedImageConfig};
