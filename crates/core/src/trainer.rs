//! The training half of the walk: [`forward_backward`] runs the
//! forward walk and then the reverse sweep over one compiled session,
//! and [`LossScaler`] carries the dynamic loss scale across steps.
//! `ts_train::Trainer` is the trainer built on them.

use ts_dataflow::{ConvWeights, ExecCtx};
use ts_tensor::Matrix;

use crate::run::{backward, forward};
use crate::{NetworkWeights, Session, SparseTensor, TrainConfigs};

/// Dynamic loss scaling for mixed-precision training: gradients flow in
/// FP16 (the paper's training setup), so small gradients underflow
/// unless the loss is scaled up; overflowing steps are skipped and the
/// scale halved, and the scale doubles after a streak of good steps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossScaler {
    /// Current loss scale.
    pub scale: f32,
    /// Consecutive overflow-free steps.
    pub good_steps: u32,
    /// Steps skipped due to gradient overflow.
    pub skipped: u32,
    /// Good-step streak length that doubles the scale.
    pub growth_interval: u32,
}

impl LossScaler {
    /// The conventional starting configuration (scale 2^16).
    pub fn new() -> Self {
        Self {
            scale: 65536.0,
            good_steps: 0,
            skipped: 0,
            growth_interval: 200,
        }
    }
}

impl Default for LossScaler {
    fn default() -> Self {
        Self::new()
    }
}

impl LossScaler {
    /// Advances the scaler after a step: overflow halves the scale
    /// (floored at 1) and resets the good-step streak; a clean step
    /// extends the streak and doubles the scale (capped at 2^24) every
    /// `growth_interval` good steps. Returns `true` when the step's
    /// updates should be applied.
    pub fn update(&mut self, overflow: bool) -> bool {
        if overflow {
            self.scale = (self.scale / 2.0).max(1.0);
            self.good_steps = 0;
            self.skipped += 1;
            false
        } else {
            self.good_steps += 1;
            if self.good_steps.is_multiple_of(self.growth_interval) {
                self.scale = (self.scale * 2.0).min(16_777_216.0);
            }
            true
        }
    }
}

/// Result of one fused forward + backward pass over a compiled session
/// (no optimizer update applied).
#[derive(Debug, Clone)]
pub struct BackwardOutput {
    /// Loss before any update (`0.5 * ||output||^2`).
    pub loss: f32,
    /// Per-node weight gradients (`Some` exactly at conv nodes that
    /// received gradient), already un-scaled back from `loss_scale`.
    pub grads: Vec<Option<ConvWeights>>,
    /// Gradient w.r.t. the input features. Still carries the loss
    /// scale (and FP16 rounding) when AMP is active.
    pub input_grad: Option<Matrix>,
    /// Whether any weight gradient overflowed the FP16 range after
    /// scaling — the step must be skipped and the scale backed off.
    pub overflow: bool,
}

/// Runs one fused forward + loss + dgrad + wgrad pass over `session`
/// with explicit weights: the engine under `ts_train::Trainer` and the
/// ts-verify training conformance harness.
///
/// The forward pass is the same walk as inference
/// ([`crate::run_network_in_session`]) and stores every activation; the
/// loss is `0.5 * ||output||^2`; the backward sweep walks nodes in
/// reverse, routing dgrad through the transposed maps and wgrad through
/// the forward maps with the per-pass dataflow configs in `cfgs`. With
/// `fp16_grads`, every stored gradient is rounded to the FP16 grid, the
/// seed gradient is multiplied by `loss_scale`, and weight gradients are
/// overflow-checked *before* being un-scaled — exactly the
/// deferred-update AMP protocol.
///
/// # Panics
///
/// Panics if `session` was not compiled over `input`'s coordinates, or
/// if `weights` is missing a conv slot.
pub fn forward_backward(
    weights: &NetworkWeights,
    session: &Session,
    input: &SparseTensor,
    cfgs: &TrainConfigs,
    ctx: &ExecCtx,
    loss_scale: f32,
    fp16_grads: bool,
) -> BackwardOutput {
    let fctx = ExecCtx {
        functional: true,
        ..ctx.clone()
    };
    let feats = forward(session, weights, input.feats(), &cfgs.fwd, &fctx);
    backward(
        session, weights, &feats, cfgs, &fctx, loss_scale, fp16_grads,
    )
}
