//! The training half of the walk: [`forward_backward`] runs the
//! forward walk and then the reverse sweep over one compiled session,
//! [`forward_backward_micro`] accumulates it over micro-batches, and
//! [`LossScaler`] carries the dynamic loss scale across steps.
//! `ts_train::Trainer` is the trainer built on them.

use ts_dataflow::{ConvWeights, ExecCtx};
use ts_tensor::Matrix;

use crate::run::{backward, forward, Keep, PassWeights};
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
    /// Whether any weight gradient is non-finite or, with FP16
    /// gradients, reached the FP16 range after scaling — the step must
    /// be skipped (and under AMP the scale backed off).
    pub overflow: bool,
}

/// Runs one fused forward + loss + dgrad + wgrad pass over `session`
/// with explicit weights: the engine under `ts_train::Trainer` and the
/// ts-verify training conformance harness.
///
/// The forward pass is the same walk as inference
/// ([`crate::run_network_in_session`]) and keeps the activations the
/// backward sweep reads; the loss is `0.5 * ||output||^2`; the backward
/// sweep walks nodes in reverse, routing dgrad through the transposed
/// maps and wgrad through the forward maps with the per-pass dataflow
/// configs in `cfgs`. With
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
    let weights = PassWeights::new(weights);
    pass(
        &weights,
        session,
        input.feats(),
        cfgs,
        ctx,
        loss_scale,
        fp16_grads,
    )
}

/// [`forward_backward`] over the input features `input`, with the
/// weights already transposed for dgrad.
fn pass(
    weights: &PassWeights,
    session: &Session,
    input: &Matrix,
    cfgs: &TrainConfigs,
    ctx: &ExecCtx,
    loss_scale: f32,
    fp16_grads: bool,
) -> BackwardOutput {
    let fctx = ExecCtx {
        functional: true,
        ..ctx.clone()
    };
    let keep = Keep::Backward;
    let feats = forward(session, weights.weights, input, &cfgs.fwd, &fctx, keep).feats;
    backward(
        session, weights, &feats, cfgs, &fctx, loss_scale, fp16_grads,
    )
}

/// One training step's gradient accumulation: [`forward_backward`] once
/// per micro-batch, summed, with one transpose of the conv weights for
/// dgrad shared by every pass. The protocol under `ts_train::Trainer` and
/// the ts-verify training tier.
///
/// The batch indices present in `input` are split into contiguous
/// chunks of `ceil(n / k)` indices, `k` being `micro_batches` clamped to
/// between one and the `n` indices present. Each pass walks only its
/// chunk's rows: the session restricted to those batch indices, whose
/// maps keep exactly the pairs between the chunk's rows (sparse
/// convolution never pairs two batch indices), over the chunk's input
/// rows. A single chunk walks `session` itself. Losses, weight gradients
/// and input gradients are summed from zero over every chunk, each
/// chunk's input gradient into its own rows, and `overflow` reports
/// whether any chunk's weight gradient overflowed (a trainer then skips
/// the step). Every conv slot of `weights` receives a gradient. With
/// `amp`, gradients flow in FP16 under its loss scale. Returns the sum
/// and the [`MicroSplit`] run.
///
/// # Panics
///
/// As [`forward_backward`].
pub fn forward_backward_micro(
    weights: &NetworkWeights,
    session: &Session,
    input: &SparseTensor,
    cfgs: &TrainConfigs,
    ctx: &ExecCtx,
    amp: Option<&LossScaler>,
    micro_batches: usize,
) -> (BackwardOutput, MicroSplit) {
    let (loss_scale, fp16_grads) = amp.map_or((1.0, false), |a| (a.scale, true));
    let mut batches: Vec<i32> = input.coords().iter().map(|c| c.batch).collect();
    batches.sort_unstable();
    batches.dedup();
    let k = micro_batches.clamp(1, batches.len().max(1));
    let chunk = batches.len().div_ceil(k).max(1);
    let spans: Vec<&[i32]> = batches.chunks(chunk).collect();

    let mut sum = BackwardOutput {
        loss: 0.0,
        grads: weights
            .convs
            .iter()
            .map(|w| {
                w.as_ref()
                    .map(|w| ConvWeights::zeros(w.kernel_volume(), w.c_in(), w.c_out()))
            })
            .collect(),
        input_grad: None,
        overflow: false,
    };
    let weights = PassWeights::new(weights);
    let walk = |session: &Session, feats: &Matrix| {
        pass(&weights, session, feats, cfgs, ctx, loss_scale, fp16_grads)
    };
    for span in &spans {
        // The pass and, for a chunk of several, the input rows it walked.
        let (bw, rows) = if spans.len() == 1 {
            (walk(session, input.feats()), None)
        } else {
            let rows: Vec<usize> = (0..input.num_points())
                .filter(|&r| span.contains(&input.coords()[r].batch))
                .collect();
            let feats = input.feats();
            let mut micro = Matrix::zeros(rows.len(), feats.cols());
            for (to, &from) in rows.iter().enumerate() {
                micro.row_mut(to).copy_from_slice(feats.row(from));
            }
            (walk(&session.select_batches(span), &micro), Some(rows))
        };
        sum.loss += bw.loss;
        sum.overflow |= bw.overflow;
        for (slot, dw) in sum.grads.iter_mut().zip(&bw.grads) {
            if let (Some(slot), Some(dw)) = (slot.as_mut(), dw.as_ref()) {
                slot.axpy(1.0, dw);
            }
        }
        if let Some(g) = &bw.input_grad {
            let dx = sum
                .input_grad
                .get_or_insert_with(|| Matrix::zeros(input.num_points(), g.cols()));
            match rows {
                None => dx.add_assign(g),
                Some(rows) => {
                    for (from, &to) in rows.iter().enumerate() {
                        for (a, b) in dx.row_mut(to).iter_mut().zip(g.row(from)) {
                            *a += b;
                        }
                    }
                }
            }
        }
    }
    let passes = spans.len();
    (sum, MicroSplit { k, passes })
}

/// The micro-batch split [`forward_backward_micro`] ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MicroSplit {
    /// The requested micro-batch count, clamped to between one and the
    /// number of batch indices present.
    pub k: usize,
    /// Forward+backward passes run, one per chunk. Chunks hold
    /// `ceil(n / k)` of the `n` batch indices, so when `k` does not
    /// divide `n` fewer than `k` cover them: 4 indices split 3 ways
    /// run 2 passes.
    pub passes: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetworkBuilder;
    use ts_dataflow::DataflowConfig;
    use ts_gpusim::Device;
    use ts_kernelmap::Coord;
    use ts_tensor::{rng_from_seed, uniform_matrix, ErrorBudget, Precision};

    /// Accumulates a two-conv network's gradients over three points in
    /// each of `batches` batch indices, features scaled by `gain`.
    fn run(batches: i32, gain: f32, micro_batches: usize) -> (BackwardOutput, MicroSplit) {
        run_shifted(batches, gain, 0.0, micro_batches)
    }

    /// [`run`] with every BatchNorm shifting by `shift`.
    fn run_shifted(
        batches: i32,
        gain: f32,
        shift: f32,
        micro_batches: usize,
    ) -> (BackwardOutput, MicroSplit) {
        let mut b = NetworkBuilder::new("micro", 2);
        let c = b.conv_block("enc", NetworkBuilder::INPUT, 4, 3, 1);
        let _ = b.conv("head", c, 2, 1, 1);
        let net = b.build();
        let coords: Vec<Coord> = (0..batches)
            .flat_map(|b| (0..3).map(move |x| Coord::new(b, x, 0, 0)))
            .collect();
        let mut feats = uniform_matrix(&mut rng_from_seed(4), coords.len(), 2, -1.0, 1.0);
        feats.scale(gain);
        let session = Session::new(&net, &coords);
        let input = SparseTensor::new(coords, feats);
        let ctx = ExecCtx::functional(Device::a100(), Precision::Fp32);
        let cfgs = TrainConfigs::bound(DataflowConfig::implicit_gemm(1));
        let mut w = net.init_weights(1);
        for bn in w.bns.iter_mut().flatten() {
            bn.shift.fill(shift);
        }
        forward_backward_micro(&w, &session, &input, &cfgs, &ctx, None, micro_batches)
    }

    #[test]
    fn passes_count_the_chunks_run() {
        for (requested, k, passes) in [(0, 1, 1), (2, 2, 2), (3, 3, 2), (9, 4, 4)] {
            let split = run(4, 1.0, requested).1;
            assert_eq!(split, MicroSplit { k, passes }, "micro_batches {requested}");
        }
    }

    /// A BatchNorm shift moves only the rows of the micro-batch being
    /// walked: accumulating over two micro-batches gives the one-pass
    /// loss and gradients. (A pass that walked the other micro-batch's
    /// rows as zeros would shift them too, and count them in its loss.)
    #[test]
    fn batch_norm_shift_stays_inside_its_micro_batch() {
        let (whole, split) = (run_shifted(2, 1.0, 0.5, 1), run_shifted(2, 1.0, 0.5, 2));
        assert_eq!((whole.1.passes, split.1.passes), (1, 2));
        let (whole, split) = (whole.0, split.0);
        // The deepest reduction: dgrad through 27 offsets x 4 channels,
        // plus the two-pass sum.
        let budget = ErrorBudget::new(Precision::Fp32, 27 * 4 + 2);
        let agree = |what: &str, a: &[f32], b: &[f32]| {
            assert_eq!(a.len(), b.len(), "{what}");
            for (x, y) in a.iter().zip(b) {
                assert!(budget.allows(*x, *y), "{what}: {x} vs {y}");
            }
        };
        agree("loss", &[whole.loss], &[split.loss]);
        for (i, (a, b)) in whole.grads.iter().zip(&split.grads).enumerate() {
            assert_eq!(a.is_some(), b.is_some(), "node {i}");
            if let (Some(a), Some(b)) = (a, b) {
                for k in 0..a.kernel_volume() {
                    let what = format!("dW of node {i}, offset {k}");
                    agree(&what, a.offset(k).as_slice(), b.offset(k).as_slice());
                }
            }
        }
        let (dx, dx0) = (split.input_grad.unwrap(), whole.input_grad.unwrap());
        agree("input gradient", dx0.as_slice(), dx.as_slice());
    }

    /// An overflowing chunk still adds its gradients, so the input
    /// gradient summed over chunks is the one-pass gradient. Weight
    /// gradients grow with the square of the gain and input gradients
    /// linearly, so at this gain the former are non-finite (an overflow
    /// with or without FP16 gradients) while the latter stay finite.
    #[test]
    fn overflowing_chunks_are_summed() {
        let (whole, split) = (run(2, 1.0e22, 1).0, run(2, 1.0e22, 2).0);
        assert!(whole.overflow && split.overflow);
        let (dx, dx0) = (split.input_grad.unwrap(), whole.input_grad.unwrap());
        assert!(dx0.as_slice().iter().all(|v| v.is_finite()));
        let scale = dx0.as_slice().iter().fold(1.0f32, |m, v| m.max(v.abs()));
        let diff = dx
            .as_slice()
            .iter()
            .zip(dx0.as_slice())
            .map(|(a, b)| (a - b).abs());
        assert!(diff.fold(0.0f32, f32::max) <= 1e-4 * scale);
    }
}
