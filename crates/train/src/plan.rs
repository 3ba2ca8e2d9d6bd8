//! The fused step plan's simulated cost: one priced artifact per
//! training step.
//!
//! Each step resolves, before any feature math runs, the compiled
//! `Session` (kernel maps patched incrementally across temporally
//! coherent steps through `ts_core::compile_stream`), the tuned
//! per-family `TrainConfigs` pulled through the training-schedule
//! cache, and the simulated per-phase cost ([`StepSim`]).

use serde::{Deserialize, Serialize};

use ts_dataflow::ExecCtx;
use ts_gpusim::{KernelDesc, KernelTrace};

/// Simulated per-phase cost of one training step, bucketed from the
/// session's training simulation plus a separately priced optimizer
/// update.
///
/// A step with `micro_batches = k` runs the mapping phase once, the
/// compute phases (forward, dgrad, wgrad) once per micro-batch, and
/// the optimizer once — [`StepSim::step_us`] composes the phases
/// accordingly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StepSim {
    /// Kernel-map construction / patch / reordering cost (µs).
    pub map_us: f64,
    /// Forward kernels (µs, one micro-batch).
    pub fwd_us: f64,
    /// Input-gradient kernels plus elementwise backward (µs, one
    /// micro-batch).
    pub dgrad_us: f64,
    /// Weight-gradient kernels (µs, one micro-batch).
    pub wgrad_us: f64,
    /// Momentum-SGD parameter update (µs, once per step).
    pub optim_us: f64,
    /// Micro-batches accumulated per step.
    pub micro_batches: usize,
}

impl StepSim {
    /// Buckets a `simulate_training` report by timing-entry name:
    /// `* mapping` entries are the mapping phase, `*:dgrad` /
    /// `*:wgrad` the two gradient phases (elementwise `*:bwd` rides
    /// with dgrad), everything else is forward.
    pub fn from_report(report: &ts_core::RunReport, micro_batches: usize, optim_us: f64) -> Self {
        let mut sim = StepSim {
            map_us: 0.0,
            fwd_us: 0.0,
            dgrad_us: 0.0,
            wgrad_us: 0.0,
            optim_us,
            micro_batches: micro_batches.max(1),
        };
        for t in report.timings() {
            if t.name.contains("mapping") {
                sim.map_us += t.time_us;
            } else if t.name.ends_with(":wgrad") {
                sim.wgrad_us += t.time_us;
            } else if t.name.ends_with(":dgrad") || t.name.ends_with(":bwd") {
                sim.dgrad_us += t.time_us;
            } else {
                sim.fwd_us += t.time_us;
            }
        }
        sim
    }

    /// One micro-batch's compute cost (forward + dgrad + wgrad, µs).
    pub fn compute_us(&self) -> f64 {
        self.fwd_us + self.dgrad_us + self.wgrad_us
    }

    /// End-to-end simulated step latency: mapping once, compute per
    /// micro-batch, optimizer once.
    pub fn step_us(&self) -> f64 {
        self.map_us + self.compute_us() * self.micro_batches as f64 + self.optim_us
    }
}

/// Prices the fused momentum-SGD update: streaming reads of weights,
/// gradients and velocity (FP32 master copies) against writes of the
/// updated weights and velocity.
pub(crate) fn optimizer_us(param_bytes: u64, ctx: &ExecCtx) -> f64 {
    if param_bytes == 0 {
        return 0.0;
    }
    let mut trace = KernelTrace::new();
    let desc = KernelDesc::memory("optimizer-update", 3 * param_bytes, 2 * param_bytes);
    ctx.cost.record(&mut trace, desc);
    trace.total_us()
}
