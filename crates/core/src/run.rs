//! Functional network execution: the one DAG feature walk.
//!
//! [`forward`] computes each node's activation and keeps those its
//! caller reads; [`backward`] runs the reverse sweep over them. Inference
//! ([`run_network_in_session`]) is the forward half and training
//! ([`crate::forward_backward`]) runs both, so the two can never disagree
//! on what a layer computes.

use ts_dataflow::{forward_prepared, wgrad, ConvWeights, ExecCtx};
use ts_kernelmap::KernelMap;
use ts_tensor::{batch_norm, relu, relu_backward, unscale_grad, Matrix, Precision};

use crate::{
    BackwardOutput, CompileError, GroupConfigs, Network, NetworkWeights, Op, RunReport, Session,
    SparseTensor, TrainConfigs,
};

/// Checks `input` against `network`: the feature width must match and
/// the coordinates must be deduplicated.
///
/// # Errors
///
/// [`CompileError::ChannelMismatch`] or [`CompileError::DuplicateCoords`].
pub(crate) fn check_input(network: &Network, input: &SparseTensor) -> Result<(), CompileError> {
    if input.channels() != network.in_channels() {
        return Err(CompileError::ChannelMismatch {
            expected: network.in_channels(),
            got: input.channels(),
        });
    }
    let unique = ts_kernelmap::unique_coords(input.coords()).len();
    if unique != input.num_points() {
        return Err(CompileError::DuplicateCoords {
            points: input.num_points(),
            unique,
        });
    }
    Ok(())
}

/// Runs `network` functionally on `input`, returning the output sparse
/// tensor and the simulated latency report.
///
/// The report is produced by [`Session::simulate_inference`] so that the
/// functional and simulate-only paths always agree on timing; the
/// feature math runs through the *same dataflow executors* configured by
/// `cfgs`, so numerical behaviour (e.g. split summation order) matches
/// the selected dataflow.
///
/// With a simulate-only context (`ctx.functional == false`) the feature
/// walk is skipped entirely and the returned tensor is empty — callers
/// that simulate (autotuner sweeps, the fleet simulator) read only the
/// report.
///
/// # Panics
///
/// Panics if `input` channels disagree with the network, if input
/// coordinates contain duplicates, or if weights are missing for a conv
/// node.
pub fn run_network(
    network: &Network,
    weights: &NetworkWeights,
    input: &SparseTensor,
    cfgs: &GroupConfigs,
    ctx: &ExecCtx,
) -> (SparseTensor, RunReport) {
    if let Err(e) = check_input(network, input) {
        panic!("{e}");
    }
    let session = Session::new(network, input.coords());
    run_network_in_session(&session, weights, input, cfgs, ctx)
}

/// [`run_network`] against an already-compiled [`Session`].
///
/// The caller guarantees `session` was compiled for `input.coords()`
/// (and that the input passed the validation `run_network` performs);
/// this is the hot path for servers that validate once and reuse the
/// compiled maps. The output coordinates are the session's.
pub fn run_network_in_session(
    session: &Session,
    weights: &NetworkWeights,
    input: &SparseTensor,
    cfgs: &GroupConfigs,
    ctx: &ExecCtx,
) -> (SparseTensor, RunReport) {
    let network = session.network();
    let report = session.simulate_inference(cfgs, ctx);
    let out_node = network.output();

    // Simulate-only contexts price the run without computing features:
    // the report is the product and the returned tensor is empty. This
    // is what makes wide networks affordable in pure-simulation drivers
    // (the fleet simulator prices thousands of frames per run; walking
    // real features through them would burn minutes of wall clock on
    // outputs nobody reads).
    if !ctx.functional {
        let out_ch = network.out_channels(network.nodes().len() - 1);
        return (
            SparseTensor::new(Vec::new(), Matrix::zeros(0, out_ch)),
            report,
        );
    }

    let mut walk = forward(session, weights, input.feats(), cfgs, ctx, Keep::Output);
    let out = SparseTensor::with_stride(
        session.coords(out_node).to_vec(),
        walk.feats[out_node].take().expect("output computed"),
        network.stride(out_node),
    );
    (out, report)
}

/// What a forward walk leaves: the activations its [`Keep`] set holds
/// (`None` for every other node), and the most activation bytes it held
/// at once.
pub(crate) struct Walk {
    pub(crate) feats: Vec<Option<Matrix>>,
    /// Read by the tests that pin the walk's live set.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) peak_bytes: usize,
}

/// The activations a forward walk keeps to its end.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Keep {
    /// The output alone: inference.
    Output,
    /// The output and what [`backward`] reads: each conv's and each
    /// ReLU's input.
    Backward,
}

/// The forward half of the walk, in node order, with the per-group
/// dataflows in `cfgs`. Conv outputs are rounded to the context
/// precision when it asks for storage quantization. Each activation
/// outside `keep` is dropped once its last reader has run, and
/// BatchNorm, ReLU and Add work in their input's buffer when they are
/// that reader. `ctx` must be functional.
pub(crate) fn forward(
    session: &Session,
    weights: &NetworkWeights,
    input: &Matrix,
    cfgs: &GroupConfigs,
    ctx: &ExecCtx,
    keep: Keep,
) -> Walk {
    let network = session.network();
    let nodes = network.nodes();
    // last[j]: the last node that reads node j, or j when none does.
    let mut last: Vec<usize> = (0..nodes.len()).collect();
    let mut kept = vec![false; nodes.len()];
    kept[network.output()] = true;
    for (i, node) in nodes.iter().enumerate().skip(1) {
        last[node.input] = i;
        if let Op::Add { other } | Op::Concat { other } = node.op {
            last[other] = i;
        }
        kept[node.input] |= keep == Keep::Backward && matches!(node.op, Op::Conv(_) | Op::ReLU);
    }
    let bytes = |m: &Matrix| std::mem::size_of_val(m.as_slice());
    let mut feats: Vec<Option<Matrix>> = vec![None; nodes.len()];
    feats[0] = Some(input.clone());
    let (mut live, mut peak_bytes) = (bytes(input), bytes(input));
    for (i, node) in nodes.iter().enumerate().skip(1) {
        let other = match node.op {
            Op::Add { other } | Op::Concat { other } => other,
            _ => i,
        };
        let dies = |j: usize| last[j] == i && !kept[j];
        let x = feats[node.input]
            .as_ref()
            .expect("producer already executed");
        let y = match node.op {
            Op::Input => unreachable!(),
            Op::Conv(_) => {
                let (map, group) = session.conv_map(i).expect("conv node has a compiled map");
                let w = weights.convs[i].as_ref().expect("conv weights initialised");
                let cfg = cfgs.for_group(group);
                let plan = session.conv_plan(i, false, &cfg, ctx);
                count_macs(&map, x.cols(), w.c_out());
                let out = forward_prepared(x, w, &map, &plan, &cfg, ctx);
                let mut y = out.features.expect("functional context computes features");
                if ctx.quantize_storage {
                    ctx.precision.quantize_slice(y.as_mut_slice());
                }
                y
            }
            Op::BatchNorm | Op::ReLU | Op::Add { .. } => {
                // An add of a node to itself reads its input twice.
                let mut y = if dies(node.input) && other != node.input {
                    let y = feats[node.input].take().expect("producer already executed");
                    live -= bytes(&y);
                    y
                } else {
                    x.clone()
                };
                match node.op {
                    Op::BatchNorm => {
                        let params = weights.bns[i].as_ref().expect("bn params initialised");
                        batch_norm(&mut y, params);
                    }
                    Op::ReLU => relu(&mut y),
                    _ => y.add_assign(feats[other].as_ref().expect("operand executed")),
                }
                y
            }
            Op::Concat { other } => {
                let o = feats[other].as_ref().expect("operand executed");
                assert_eq!(x.rows(), o.rows(), "concat operands must align");
                let mut y = Matrix::zeros(x.rows(), x.cols() + o.cols());
                for r in 0..x.rows() {
                    let row = y.row_mut(r);
                    row[..x.cols()].copy_from_slice(x.row(r));
                    row[x.cols()..].copy_from_slice(o.row(r));
                }
                y
            }
        };
        live += bytes(&y);
        peak_bytes = peak_bytes.max(live);
        feats[i] = Some(y);
        for j in [node.input, other, i] {
            if let Some(m) = feats[j].take_if(|_| dies(j)) {
                live -= bytes(&m);
            }
        }
    }
    Walk { feats, peak_bytes }
}

/// The weights of one weight update: the network's own, and every
/// conv's per-offset transposed weights, which dgrad reads. Built once
/// per update, so each of its passes shares one transpose.
pub(crate) struct PassWeights<'a> {
    pub(crate) weights: &'a NetworkWeights,
    transposed: Vec<Option<ConvWeights>>,
}

impl<'a> PassWeights<'a> {
    pub(crate) fn new(weights: &'a NetworkWeights) -> Self {
        let transposed = weights
            .convs
            .iter()
            .map(|w| w.as_ref().map(ConvWeights::transposed))
            .collect();
        Self {
            weights,
            transposed,
        }
    }
}

/// The reverse half of the walk over the activations [`forward`]
/// stored: the loss `0.5 * ||output||^2`, then dgrad through the
/// transposed maps and wgrad through the forward maps with the per-pass
/// dataflows in `cfgs`. With `fp16_grads`, the seed gradient is
/// multiplied by `loss_scale`, every stored gradient is rounded to the
/// FP16 grid, and weight gradients are overflow-checked *before* being
/// un-scaled. `ctx` must be functional.
pub(crate) fn backward(
    session: &Session,
    weights: &PassWeights,
    feats: &[Option<Matrix>],
    cfgs: &TrainConfigs,
    ctx: &ExecCtx,
    loss_scale: f32,
    fp16_grads: bool,
) -> BackwardOutput {
    let network = session.network();
    let out = feats[network.output()].as_ref().expect("output computed");
    let loss = 0.5 * out.as_slice().iter().map(|v| v * v).sum::<f32>();

    let quantize = |m: &mut Matrix| {
        if fp16_grads {
            Precision::Fp16.quantize_slice(m.as_mut_slice());
        }
    };
    let mut grads: Vec<Option<Matrix>> = vec![None; feats.len()];
    let mut seed = out.clone();
    if loss_scale != 1.0 {
        seed.scale(loss_scale);
    }
    quantize(&mut seed);
    grads[network.output()] = Some(seed);
    let mut overflow = false;
    let mut conv_grads: Vec<Option<ConvWeights>> = vec![None; feats.len()];
    for (i, node) in network.nodes().iter().enumerate().skip(1).rev() {
        let Some(g) = grads[i].take() else { continue };
        match node.op {
            Op::Input => unreachable!(),
            Op::Conv(_) => {
                let (map, grad_map, group) = session.conv_maps(i).expect("conv map");
                let w_t = weights.transposed[i].as_ref().expect("weights");
                let d_cfg = cfgs.dgrad.for_group(group);
                let w_cfg = cfgs.wgrad.for_group(group);
                // dgrad: the forward over the transposed map with
                // transposed weights.
                let plan = session.conv_plan(i, true, &d_cfg, ctx);
                count_macs(&grad_map, g.cols(), w_t.c_out());
                let mut dx = forward_prepared(&g, w_t, &grad_map, &plan, &d_cfg, ctx)
                    .features
                    .expect("functional");
                quantize(&mut dx);
                accumulate(&mut grads, node.input, dx);
                let x_in = feats[node.input].as_ref().expect("activation");
                count_macs(&map, x_in.cols(), g.cols());
                let mut dw = wgrad(x_in, &g, &map, &w_cfg, ctx).dw.expect("functional");
                // Overflow is judged before un-scaling (the deferred
                // AMP update).
                for k in 0..dw.kernel_volume() {
                    let values = dw.offset_mut(k).as_mut_slice();
                    overflow |= unscale_grad(values, fp16_grads, loss_scale);
                }
                conv_grads[i] = Some(dw);
            }
            Op::BatchNorm => {
                let params = weights.weights.bns[i].as_ref().expect("bn");
                let mut dx = g;
                for r in 0..dx.rows() {
                    for (c, v) in dx.row_mut(r).iter_mut().enumerate() {
                        *v *= params.scale[c];
                    }
                }
                accumulate(&mut grads, node.input, dx);
            }
            Op::ReLU => {
                let mut dx = g;
                relu_backward(&mut dx, feats[node.input].as_ref().expect("activation"));
                accumulate(&mut grads, node.input, dx);
            }
            Op::Add { other } => {
                accumulate(&mut grads, node.input, g.clone());
                accumulate(&mut grads, other, g);
            }
            Op::Concat { other } => {
                let c_in = network.out_channels(node.input);
                let mut g_in = Matrix::zeros(g.rows(), c_in);
                let mut g_other = Matrix::zeros(g.rows(), g.cols() - c_in);
                for r in 0..g.rows() {
                    g_in.row_mut(r).copy_from_slice(&g.row(r)[..c_in]);
                    g_other.row_mut(r).copy_from_slice(&g.row(r)[c_in..]);
                }
                accumulate(&mut grads, node.input, g_in);
                accumulate(&mut grads, other, g_other);
            }
        }
    }

    BackwardOutput {
        loss,
        grads: conv_grads,
        input_grad: grads[0].take(),
        overflow,
    }
}

/// Adds one kernel call's work, `pairs × c_in × c_out` multiply-adds
/// through `map`, to the `core.walk.macs` trace counter.
fn count_macs(map: &KernelMap, c_in: usize, c_out: usize) {
    let macs = map.total_pairs() * (c_in * c_out) as u64;
    ts_trace::counter_add("core.walk.macs", macs as i64);
}

fn accumulate(grads: &mut [Option<Matrix>], node: usize, g: Matrix) {
    match &mut grads[node] {
        Some(existing) => existing.add_assign(&g),
        slot @ None => *slot = Some(g),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{forward_backward, NetworkBuilder};
    use ts_dataflow::DataflowConfig;
    use ts_gpusim::Device;
    use ts_kernelmap::Coord;
    use ts_tensor::{rng_from_seed, uniform_matrix};

    fn coords(n: i32) -> Vec<Coord> {
        (0..n)
            .flat_map(|x| (0..n).map(move |y| Coord::new(0, x, y, 0)))
            .collect()
    }

    fn input(n: i32, c: usize) -> SparseTensor {
        let cs = coords(n);
        let feats = uniform_matrix(&mut rng_from_seed(9), cs.len(), c, -1.0, 1.0);
        SparseTensor::new(cs, feats)
    }

    fn unet() -> (Network, NetworkWeights) {
        let mut b = NetworkBuilder::new("u", 4);
        let c1 = b.conv_block("enc", NetworkBuilder::INPUT, 8, 3, 1);
        let d = b.conv_block("down", c1, 12, 2, 2);
        let u = b.conv_block_transposed("up", d, 8, 2, 2);
        let cat = b.concat("skip", u, c1);
        let _ = b.conv("head", cat, 4, 1, 1);
        let net = b.build();
        let w = net.init_weights(3);
        (net, w)
    }

    /// One configuration of every dataflow family.
    fn families() -> [DataflowConfig; 7] {
        [
            DataflowConfig::gather_scatter(false),
            DataflowConfig::gather_scatter(true),
            DataflowConfig::fetch_on_demand(false),
            DataflowConfig::fetch_on_demand(true),
            DataflowConfig::implicit_gemm(0),
            DataflowConfig::implicit_gemm(1),
            DataflowConfig::implicit_gemm(3),
        ]
    }

    #[test]
    fn unet_runs_and_preserves_resolution() {
        let (net, w) = unet();
        let x = input(8, 4);
        let ctx = ExecCtx::functional(Device::rtx3090(), Precision::Fp32);
        let (y, report) = run_network(
            &net,
            &w,
            &x,
            &GroupConfigs::uniform(DataflowConfig::implicit_gemm(1)),
            &ctx,
        );
        assert_eq!(y.num_points(), x.num_points());
        assert_eq!(y.channels(), 4);
        assert_eq!(y.stride(), 1);
        assert!(report.total_us() > 0.0);
    }

    #[test]
    fn every_dataflow_family_computes_identical_features() {
        let (net, w) = unet();
        let x = input(7, 4);
        let ctx = ExecCtx::functional(Device::rtx3090(), Precision::Fp32);
        let configs = families();
        let (y0, _) = run_network(&net, &w, &x, &GroupConfigs::uniform(configs[0]), &ctx);
        for cfg in &configs[1..] {
            let (y, _) = run_network(&net, &w, &x, &GroupConfigs::uniform(*cfg), &ctx);
            assert!(
                y.feats().approx_eq(y0.feats(), 1e-3),
                "dataflow {cfg} diverged; max diff {:?}",
                y.feats().max_abs_diff(y0.feats())
            );
        }
    }

    /// Training's forward pass is the inference walk: the loss equals
    /// `0.5 * ||y||^2` of the inference output to the bit.
    #[test]
    fn training_loss_is_the_inference_output_norm_to_the_bit() {
        let (net, w) = unet();
        let x = input(7, 4);
        let session = Session::new(&net, x.coords());
        let ctx = ExecCtx::functional(Device::a100(), Precision::Fp32);
        for cfg in families() {
            let (y, _) =
                run_network_in_session(&session, &w, &x, &GroupConfigs::uniform(cfg), &ctx);
            let want = 0.5 * y.feats().as_slice().iter().map(|v| v * v).sum::<f32>();
            let cfgs = TrainConfigs::bound(cfg);
            let bw = forward_backward(&w, &session, &x, &cfgs, &ctx, 1.0, false);
            assert_eq!(bw.loss.to_bits(), want.to_bits(), "dataflow {cfg}");
        }
    }

    #[test]
    fn gradients_are_dataflow_invariant() {
        let (net, w) = unet();
        let x = input(5, 4);
        let session = Session::new(&net, x.coords());
        let ctx = ExecCtx::functional(Device::a100(), Precision::Fp32);
        let run = |cfg| {
            let cfgs = TrainConfigs::bound(cfg);
            forward_backward(&w, &session, &x, &cfgs, &ctx, 1.0, false)
        };
        let base = run(DataflowConfig::implicit_gemm(0));
        for cfg in families() {
            let bw = run(cfg);
            let rel = (bw.loss - base.loss).abs() / base.loss.max(1e-6);
            assert!(rel < 1e-3, "loss differs for {cfg}");
            for (a, b) in bw.grads.iter().zip(&base.grads) {
                let (Some(a), Some(b)) = (a, b) else {
                    assert_eq!(a.is_some(), b.is_some());
                    continue;
                };
                for k in 0..a.kernel_volume() {
                    assert!(a.offset(k).approx_eq(b.offset(k), 1e-3), "dw for {cfg}");
                }
            }
            let (dx, dx0) = (bw.input_grad.unwrap(), base.input_grad.as_ref().unwrap());
            assert!(dx.approx_eq(dx0, 1e-3), "input gradient differs for {cfg}");
        }
    }

    #[test]
    fn training_report_includes_backward_kernels() {
        let (net, w) = unet();
        let x = input(5, 4);
        let session = Session::new(&net, x.coords());
        let ctx = ExecCtx::functional(Device::a100(), Precision::Fp16);
        let cfgs = TrainConfigs::bound(DataflowConfig::implicit_gemm(1));
        let bw = forward_backward(&w, &session, &x, &cfgs, &ctx, 1.0, false);
        assert!(
            bw.grads.iter().flatten().count() > 0,
            "conv gradients computed"
        );
        let report = session.simulate_training(&cfgs, &ctx);
        let has_wgrad = report
            .trace()
            .entries()
            .iter()
            .any(|e| e.desc.name.contains("wgrad"));
        assert!(has_wgrad, "training trace must include wgrad kernels");
    }

    /// A sub-session walks its batch index's rows exactly as the whole
    /// session walks them when every other row is zero: same loss,
    /// weight gradients and input-gradient rows, to the bit, through
    /// the strided, transposed and concatenating layers, for every
    /// dataflow family, with FP32 gradients and with FP16 gradients
    /// under a loss scale.
    #[test]
    fn a_sub_session_walks_its_rows_as_the_masked_session_does() {
        let (net, w) = unet();
        // Three batch indices, each a grid of its own size and shape.
        let coords: Vec<Coord> = (0..3)
            .flat_map(|b| {
                let n = 5 + b;
                (0..n).flat_map(move |x| (0..n).map(move |y| Coord::new(b, x, y, (x * b + y) % 3)))
            })
            .collect();
        let feats = uniform_matrix(&mut rng_from_seed(11), coords.len(), 4, -1.0, 1.0);
        let x = SparseTensor::new(coords, feats);
        let session = Session::new(&net, x.coords());
        let ctx = ExecCtx::functional(Device::a100(), Precision::Fp32);
        let bits = |vs: &[f32]| vs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for cfg in families() {
            let cfgs = TrainConfigs::bound(cfg);
            for (loss_scale, fp16) in [(1.0, false), (1024.0, true)] {
                for b in 0..3 {
                    let case = format!("{cfg}, fp16 gradients {fp16}, batch {b}");
                    let rows: Vec<usize> = (0..x.num_points())
                        .filter(|&r| x.coords()[r].batch == b)
                        .collect();
                    let mut masked = x.clone();
                    for r in (0..x.num_points()).filter(|r| !rows.contains(r)) {
                        masked.feats_mut().row_mut(r).fill(0.0);
                    }
                    let whole =
                        forward_backward(&w, &session, &masked, &cfgs, &ctx, loss_scale, fp16);

                    let sub = session.select_batches(&[b]);
                    let mut sub_feats = Matrix::zeros(rows.len(), x.channels());
                    for (to, &from) in rows.iter().enumerate() {
                        sub_feats.row_mut(to).copy_from_slice(x.feats().row(from));
                    }
                    let sub_x = SparseTensor::new(sub.coords(0).to_vec(), sub_feats);
                    let part = forward_backward(&w, &sub, &sub_x, &cfgs, &ctx, loss_scale, fp16);

                    assert_eq!(part.loss.to_bits(), whole.loss.to_bits(), "loss: {case}");
                    assert_eq!(part.overflow, whole.overflow, "overflow: {case}");
                    for (i, (p, f)) in part.grads.iter().zip(&whole.grads).enumerate() {
                        assert_eq!(p.is_some(), f.is_some(), "node {i}: {case}");
                        let (Some(p), Some(f)) = (p, f) else { continue };
                        for k in 0..p.kernel_volume() {
                            let (p, f) = (p.offset(k).as_slice(), f.offset(k).as_slice());
                            assert_eq!(bits(p), bits(f), "dW of node {i}, offset {k}: {case}");
                        }
                    }
                    let (dx, dx_whole) = (part.input_grad.unwrap(), whole.input_grad.unwrap());
                    for (r, &row) in rows.iter().enumerate() {
                        let (p, f) = (dx.row(r), dx_whole.row(row));
                        assert_eq!(bits(p), bits(f), "input gradient row {row}: {case}");
                    }
                }
            }
        }
    }

    /// The feature walk takes its plans from the session cache that
    /// pricing fills: it prepares nothing pricing does not, and looks up
    /// one plan per conv forward and one more per conv dgrad.
    #[test]
    fn feature_walk_shares_the_pricing_plans() {
        let (net, w) = unet();
        let x = input(7, 4);
        let ctx = ExecCtx::functional(Device::rtx3090(), Precision::Fp16);
        let fresh = || Session::new(&net, x.coords());
        let counts = |s: &Session| {
            let c = s.prepare_cache_counters();
            (c.misses, c.hits)
        };
        let convs = fresh().conv_layer_count() as u64;
        let mut decoupled = TrainConfigs::bound(DataflowConfig::implicit_gemm(1));
        decoupled.dgrad = GroupConfigs::uniform(DataflowConfig::implicit_gemm(2));
        decoupled.wgrad = GroupConfigs::uniform(DataflowConfig::gather_scatter(true));
        for cfgs in [
            TrainConfigs::bound(DataflowConfig::implicit_gemm(2)),
            decoupled,
        ] {
            let (priced, walked) = (fresh(), fresh());
            priced.simulate_inference(&cfgs.fwd, &ctx);
            let _ = run_network_in_session(&walked, &w, &x, &cfgs.fwd, &ctx);
            let (p, r) = (counts(&priced), counts(&walked));
            assert_eq!(r, (p.0, p.1 + convs), "inference: a forward plan per conv");

            let (priced, walked) = (fresh(), fresh());
            priced.simulate_training(&cfgs, &ctx);
            let _ = forward_backward(&w, &walked, &x, &cfgs, &ctx, 1.0, false);
            walked.simulate_training(&cfgs, &ctx);
            let (p, r) = (counts(&priced), counts(&walked));
            assert_eq!(
                r,
                (p.0, p.1 + 2 * convs),
                "training: forward and dgrad plans"
            );
        }
    }

    /// Serve's network (MinkUNet 0.5×) and a seeded frame of its
    /// sensor at `scale` (serve runs 0.02). ts-workloads builds the
    /// network against its own copy of this crate, so the network
    /// crosses over in its serde form.
    fn serve_frame(scale: f32) -> (Network, SparseTensor) {
        let workload = ts_workloads::Workload::SemanticKittiMinkUNet05;
        let json = serde_json::to_string(&workload.network()).expect("serializes");
        let net: Network = serde_json::from_str(&json).expect("parses");
        let scene = workload.stream_scaled(31, scale).next_frame();
        (net, SparseTensor::new(scene.coords, scene.feats))
    }

    /// The nodes whose activations a walk ended holding.
    fn held(walk: &Walk) -> Vec<usize> {
        (0..walk.feats.len())
            .filter(|&i| walk.feats[i].is_some())
            .collect()
    }

    /// An inference walk of a served frame holds at most an eighth of
    /// the frame's activations at once, and ends holding the output
    /// alone.
    #[test]
    fn an_inference_walk_holds_an_eighth_of_a_served_frame() {
        let (net, x) = serve_frame(0.02);
        let w = net.init_weights(31);
        let session = Session::new(&net, x.coords());
        let ctx = ExecCtx::functional(Device::rtx3090(), Precision::Fp16);
        let cfgs = GroupConfigs::uniform(DataflowConfig::implicit_gemm(1));
        let all: usize = (0..net.nodes().len())
            .map(|i| session.coords(i).len() * net.out_channels(i) * 4)
            .sum();
        let walk = forward(&session, &w, x.feats(), &cfgs, &ctx, Keep::Output);
        let peak = walk.peak_bytes;
        assert!(peak * 8 <= all, "peak {peak} of {all} activation bytes");
        assert_eq!(held(&walk), [net.output()]);
    }

    /// A training walk ends holding exactly what `backward` reads: the
    /// output and each conv's and each ReLU's input.
    #[test]
    fn a_training_walk_keeps_what_backward_reads() {
        let (net, x) = serve_frame(0.005);
        let w = net.init_weights(31);
        let session = Session::new(&net, x.coords());
        let ctx = ExecCtx::functional(Device::a100(), Precision::Fp32);
        let cfgs = GroupConfigs::uniform(DataflowConfig::implicit_gemm(1));
        let mut read: Vec<usize> = net
            .nodes()
            .iter()
            .filter(|n| matches!(n.op, Op::Conv(_) | Op::ReLU))
            .map(|n| n.input)
            .chain([net.output()])
            .collect();
        read.sort_unstable();
        read.dedup();
        let walk = forward(&session, &w, x.feats(), &cfgs, &ctx, Keep::Backward);
        assert_eq!(held(&walk), read);
    }

    #[test]
    fn residual_network_runs() {
        let mut b = NetworkBuilder::new("res", 6);
        let r1 = b.residual_block("r1", NetworkBuilder::INPUT, 6, 3);
        let _ = b.residual_block("r2", r1, 12, 3);
        let net = b.build();
        let w = net.init_weights(5);
        let x = input(6, 6);
        let ctx = ExecCtx::functional(Device::a100(), Precision::Fp32);
        let (y, _) = run_network(
            &net,
            &w,
            &x,
            &GroupConfigs::uniform(DataflowConfig::implicit_gemm(0)),
            &ctx,
        );
        assert_eq!(y.channels(), 12);
        // ReLU output is non-negative.
        assert!(y.feats().as_slice().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn fp16_storage_quantization_bounds_error() {
        let (net, w) = unet();
        let x = input(7, 4);
        let exact_ctx = ExecCtx::functional(Device::rtx3090(), Precision::Fp32);
        let cfgs = GroupConfigs::uniform(DataflowConfig::implicit_gemm(1));
        let (exact, _) = run_network(&net, &w, &x, &cfgs, &exact_ctx);
        let quant_ctx =
            ExecCtx::functional(Device::rtx3090(), Precision::Fp16).with_storage_quantization(true);
        let (quant, _) = run_network(&net, &w, &x, &cfgs, &quant_ctx);
        // Quantization changes values...
        assert_ne!(exact.feats(), quant.feats());
        // ...but only within half-precision tolerance per layer.
        assert!(exact.feats().approx_eq(quant.feats(), 2e-2));
    }

    #[test]
    #[should_panic(expected = "deduplicated")]
    fn rejects_duplicate_coords() {
        let cs = vec![Coord::new(0, 0, 0, 0), Coord::new(0, 0, 0, 0)];
        let x = SparseTensor::new(cs, Matrix::zeros(2, 4));
        let mut b = NetworkBuilder::new("t", 4);
        let _ = b.conv("c", NetworkBuilder::INPUT, 4, 3, 1);
        let net = b.build();
        let w = net.init_weights(0);
        let ctx = ExecCtx::functional(Device::a100(), Precision::Fp32);
        let _ = run_network(
            &net,
            &w,
            &x,
            &GroupConfigs::uniform(DataflowConfig::implicit_gemm(0)),
            &ctx,
        );
    }
}
