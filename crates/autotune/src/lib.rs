//! The **Sparse Autotuner** (Section 4 of the TorchSparse++ paper).
//!
//! Layers sharing kernel maps form *groups*; all layers in a group must
//! run the same dataflow (building maps for several dataflows would cost
//! the latency of 3–4 convolution layers, Section 4.2). The tuner
//! searches the enlarged design space of Figure 9 *group by group*,
//! greedily, against **end-to-end** simulated latency — not per-kernel
//! latency, which the paper shows is a misleading proxy (Tables 3/4).
//!
//! For training, the three kernel families (forward / dgrad / wgrad) can
//! be partially *bound* (Figure 13): binding all three is cheapest to
//! tune but loses up to 10 %; binding forward+dgrad suits
//! low-parallelism devices; binding dgrad+wgrad minimises mapping
//! overhead and suits high-parallelism devices.
//!
//! # Examples
//!
//! ```
//! use ts_autotune::{tune_inference, TunerOptions};
//! use ts_core::Session;
//! use ts_dataflow::ExecCtx;
//! use ts_gpusim::Device;
//! use ts_kernelmap::Coord;
//! use ts_tensor::Precision;
//! use ts_workloads::Workload;
//!
//! let w = Workload::NuScenesMinkUNet1f;
//! let net = w.network();
//! let scene = w.scene_scaled(1, 0.05);
//! let session = Session::new(&net, scene.coords());
//! let ctx = ExecCtx::simulate(Device::rtx3090(), Precision::Fp16);
//! let result = tune_inference(&[session], &ctx, &TunerOptions::default());
//! assert!(result.tuned_latency_us <= result.default_latency_us);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod inference;
mod search;
mod training;

pub use inference::{tune_inference, tune_inference_warm, EvalMode, TuneResult, TunerOptions};
pub use search::{TunerStats, WarmStart};
pub use training::{
    default_scheme_for, tune_training, tune_training_warm, BindingScheme, TrainTuneResult,
    TrainWarmStart,
};
