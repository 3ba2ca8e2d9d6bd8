//! TorchSparse++ end-to-end training harness (ts-train).
//!
//! Reproduces the training half of the TorchSparse++ story: each
//! training step is compiled once into a fused step plan — forward →
//! loss → dgrad → wgrad → optimizer update — over a multi-frame
//! batched LiDAR scene, with:
//!
//! * **incremental kernel maps** patched across temporally coherent
//!   steps: each step compiles through `ts_core::compile_stream`, the
//!   function `Engine::infer_stream` uses, advancing a
//!   `ts_core::StreamState` over the training window;
//! * **binding-scheme tuning**: fwd / dgrad / wgrad dataflows tuned
//!   jointly under a per-device-class binding policy (fwd+dgrad bound
//!   on low-parallelism devices, dgrad+wgrad on A100-class parts,
//!   paper Fig. 22), warm-started through the training-schedule cache;
//! * **gradient accumulation** over micro-batches, exact up to
//!   floating-point summation order because sparse convolution never
//!   crosses batch boundaries;
//! * **mixed-precision loss scaling** with dynamic overflow backoff,
//!   checked against `ts_tensor::ErrorBudget` by the conformance suite
//!   in ts-verify (`verify --train`).
//!
//! # Examples
//!
//! ```
//! use ts_train::{Trainer, TrainerConfig};
//! use ts_core::NetworkBuilder;
//! use ts_dataflow::ExecCtx;
//! use ts_gpusim::Device;
//! use ts_tensor::Precision;
//! use ts_workloads::{LidarConfig, LidarStream};
//!
//! let mut b = NetworkBuilder::new("tiny", 4);
//! let c = b.conv_block("stem", NetworkBuilder::INPUT, 8, 3, 1);
//! let _ = b.conv_block("head", c, 4, 3, 1);
//! let net = b.build();
//!
//! let ctx = ExecCtx::simulate(Device::a100(), Precision::Fp16);
//! let cfg = TrainerConfig {
//!     batch_frames: 2,
//!     micro_batches: 2,
//!     ..TrainerConfig::default()
//! };
//! let mut trainer = Trainer::new(&net, 7, &ctx, cfg);
//! let lidar = LidarConfig {
//!     beams: 8,
//!     azimuth_steps: 90,
//!     elevation_min_deg: -25.0,
//!     elevation_max_deg: 3.0,
//!     max_range_m: 40.0,
//!     voxel_size_m: 0.2,
//!     obstacles: 6,
//!     dropout: 0.05,
//! };
//! let mut stream = LidarStream::new(lidar, 7).with_motion(0.4, 0.01);
//! let reports = trainer.run_stream(&mut stream, 3).unwrap();
//! assert_eq!(reports.len(), 3);
//! assert!(reports.iter().all(|r| r.loss.is_finite()));
//! ```

#![forbid(unsafe_code)]

mod plan;
mod trainer;

pub use plan::StepSim;
pub use trainer::{weights_digest, StepReport, TrainError, TrainRun, Trainer, TrainerConfig};
