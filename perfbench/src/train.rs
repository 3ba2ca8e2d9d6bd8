//! `train`: back-to-back `ts_train::Trainer` steps with the default
//! configuration over a dense, short-range coherent LiDAR stream.
//!
//! The same feature walk as `serve` in its backward role (dgrad and
//! wgrad write gradients beside the forward reads), plus incremental
//! kernel-map patching and the training-schedule cache. A forward
//! speedup that slows wgrad shows here and not in `serve`.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use ts_autotune::{default_scheme_for, BindingScheme};
use ts_cache::{tune_training_cached, TrainScheduleCache};
use ts_core::{
    permute_to, LossScaler, Network, NetworkWeights, Op, Session, SparseTensor, SubmanifoldReuse,
    TrainConfigs,
};
use ts_dataflow::{dgrad, wgrad, ConvWeights, DataflowKind, ExecCtx};
use ts_gpusim::Device;
use ts_kernelmap::{Coord, IncrementalMap, KernelOffsets};
use ts_tensor::{relu_backward, Matrix, Precision};
use ts_train::{StepReport, Trainer, TrainerConfig};
use ts_workloads::{LidarConfig, LidarScene, LidarStream, Workload};

use crate::report::{layer_table, overhead_notes, Outcome, RoundTimer};
use crate::spans::{Breakdown, Tracer};
use crate::stats::{hit_ratio, mean};
use crate::walk::{self, bytes, WalkCounts};
use crate::{procfs, Args};

const WORKLOAD: Workload = Workload::SemanticKittiMinkUNet05;
const SETUP_REPEATS: usize = 5;
/// A run measures `seconds / STEP_S` steps whatever the host's speed, so
/// every commit times the same steps and every statistic lands on the
/// same rank. A step takes 1.1–2.3 s on the reference host; one step per
/// second of budget makes a run long enough to average over the host's
/// fast and slow spells, which switch every few steps.
const STEP_S: f64 = 1.0;

/// Steps the measured phase runs for a `--seconds` budget.
fn measured_steps(seconds: f64) -> usize {
    ((seconds / STEP_S).round() as usize).max(4)
}

/// A dense short-range sensor: 48 beams × 480 azimuth steps, 0.3 m
/// voxels, 6 m range, ground only and no dropout. About 340 voxels per
/// frame, so a 4-frame step holds about 1.4k; without obstacles the
/// amount of work does not depend on the seed, which moves only range
/// noise and ground clutter. Several rays hit each voxel, so a 5 cm ego
/// step re-hits most voxels and every steady step patches its map.
fn sensor() -> LidarConfig {
    LidarConfig {
        beams: 48,
        azimuth_steps: 480,
        elevation_min_deg: -19.0,
        elevation_max_deg: 3.0,
        max_range_m: 6.0,
        voxel_size_m: 0.3,
        obstacles: 0,
        dropout: 0.0,
    }
}

fn ctx() -> ExecCtx {
    ExecCtx::functional(Device::rtx3090(), Precision::Fp16)
}

/// The trainer's sliding window: frame `n` keeps batch slot `n % B` for
/// its whole window lifetime, so consecutive steps differ by one slot.
fn inputs(seed: u64, steps: usize) -> Vec<SparseTensor> {
    let b = TrainerConfig::default().batch_frames;
    let mut stream = LidarStream::new(sensor(), seed).with_motion(0.05, 0.0);
    let mut window: Vec<Option<LidarScene>> = vec![None; b];
    let mut advance = |window: &mut Vec<Option<LidarScene>>| {
        let slot = (stream.frames_emitted() % b as u64) as usize;
        window[slot] = Some(stream.next_frame());
    };
    for _ in 0..b {
        advance(&mut window);
    }
    (0..steps)
        .map(|_| {
            let input = merge_window(&window);
            advance(&mut window);
            input
        })
        .collect()
}

fn merge_window(window: &[Option<LidarScene>]) -> SparseTensor {
    let frames: Vec<(usize, &LidarScene)> = window
        .iter()
        .enumerate()
        .filter_map(|(s, f)| f.as_ref().map(|f| (s, f)))
        .collect();
    let total: usize = frames.iter().map(|(_, f)| f.coords.len()).sum();
    let cols = frames.first().map_or(0, |(_, f)| f.feats.cols());
    let mut coords = Vec::with_capacity(total);
    let mut feats = Matrix::zeros(total, cols);
    let mut row = 0;
    for (slot, frame) in frames {
        for (i, c) in frame.coords.iter().enumerate() {
            coords.push(Coord::new(slot as i32, c.x, c.y, c.z));
            feats.row_mut(row).copy_from_slice(frame.feats.row(i));
            row += 1;
        }
    }
    SparseTensor::new(coords, feats)
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let net = WORKLOAD.network();
    let steps = measured_steps(args.seconds);
    let inputs = inputs(args.seed, steps + 1);

    // Set-up: a trainer plus its seeding step, which pays the cold
    // training tune and the full map build. The first one is measured;
    // the repetitions run between measured steps, spread over the run.
    let setup = |out: &mut Outcome| {
        let t = Instant::now();
        let mut tr = Trainer::new(&net, args.seed, &ctx(), TrainerConfig::default());
        let first = tr.step(&inputs[0]);
        out.e2e.setup_s.push(t.elapsed().as_secs_f64());
        (tr, first)
    };
    let (mut trainer, seeding) = setup(&mut out);
    let mut reports: Vec<StepReport> = Vec::new();
    match seeding {
        Ok(r) => reports.push(r),
        Err(e) => out.fail(1, format!("seeding step failed: {e}")),
    }

    // Measured phase: closed loop, a fixed number of steps back to back.
    let mut step_ms = Vec::new();
    let setups_at: Vec<usize> = (1..SETUP_REPEATS)
        .map(|j| j * steps / SETUP_REPEATS)
        .collect();
    for (i, input) in inputs[1..].iter().enumerate() {
        if setups_at.contains(&i) {
            if let (_, Err(e)) = setup(&mut out) {
                out.fail(0, format!("set-up seeding step failed: {e}"));
            }
        }
        out.attempted += 1;
        let timer = RoundTimer::start();
        let r = trainer.step(input);
        let round = timer.stop(1);
        step_ms.push(round.wall_s * 1e3);
        out.e2e.rounds.push(round);
        match r {
            Ok(r) => reports.push(r),
            Err(e) => out.fail(1, format!("step {} failed: {e}", out.attempted)),
        }
    }
    out.e2e.peak_rss_mb = procfs::peak_rss_mib().expect("readable /proc/self/status");

    // Losses are finite and the AMP skip count matches the reports.
    for r in &reports {
        if !r.loss.is_finite() {
            out.fail(1, format!("step {} loss is {}", r.step, r.loss));
        }
    }
    let not_applied = reports.iter().filter(|r| !r.applied).count() as u32;
    let run = trainer.train_run(Vec::new());
    let scaler_skipped = trainer.scaler().map_or(0, |s| s.skipped);
    if run.skipped != not_applied || scaler_skipped != not_applied {
        out.fail(
            1,
            format!(
                "AMP skip count: trainer {} scaler {scaler_skipped} vs {not_applied} steps not applied",
                run.skipped
            ),
        );
    }

    let steady = &reports[reports.len().min(1)..];
    out.e2e.latency_ms = step_ms.clone();
    out.e2e.sim_us = steady.iter().map(|r| r.sim.step_us()).collect();
    let patched = steady.iter().filter(|r| r.map_update == "patched").count();
    let mut origins: BTreeMap<&str, u64> = BTreeMap::new();
    for r in steady {
        *origins.entry(r.tune_origin.as_str()).or_default() += 1;
    }
    let voxels: Vec<f64> = inputs[..=steady.len()]
        .iter()
        .map(|x| x.num_points() as f64)
        .collect();
    let fwd_macs: f64 = Session::try_new(&net, inputs[0].coords())
        .map(|s| {
            s.group_signatures()
                .iter()
                .map(|g| g.effective_macs as f64)
                .sum()
        })
        .unwrap_or(0.0);
    let k = TrainerConfig::default().micro_batches as f64;
    out.notes.push(format!(
        "closed loop: sent {} succeeded {} failed {}; AMP-skipped steps {not_applied}",
        out.attempted,
        step_ms.len().min(steady.len()),
        out.failed
    ));
    out.notes.push(format!(
        "inputs: {:.0} voxels/step; patched maps {patched} of {} steady steps; cache origins {:?}; {:.4} GMAC/step (3 passes x {k} micro-batches)",
        mean(&voxels).unwrap_or(0.0),
        steady.len(),
        origins,
        3.0 * k * fwd_macs / 1e9,
    ));

    if args.trace {
        let n = steady.len().max(1) as f64;
        let l = &mut out.layers;
        l.insert(
            "train.applied_ratio",
            reports.iter().filter(|r| r.applied).count() as f64 / reports.len().max(1) as f64,
        );
        l.insert("kernelmap.patched_ratio", patched as f64 / n);
        l.insert(
            "cache.hit_ratio",
            origins.get("hit").copied().unwrap_or(0) as f64 / n,
        );
        l.insert(
            "cache.warm_ratio",
            origins.get("warm").copied().unwrap_or(0) as f64 / n,
        );
        traced(args, &mut out, &net, &inputs, &reports);
    }
    out
}

/// The trainer's state, rebuilt from public parts so each phase of a
/// step is one public call inside a span. A copy of `Trainer::step`; the
/// replay checks its losses against the timed run's, and its own work
/// (masking copies, accumulation, the momentum update) is what
/// `train.self_ms` measures.
struct Replica<'a> {
    net: &'a Network,
    weights: NetworkWeights,
    velocity: Vec<Option<ConvWeights>>,
    scaler: Option<LossScaler>,
    cfg: TrainerConfig,
    scheme: BindingScheme,
    ctx: ExecCtx,
    cache: TrainScheduleCache,
    inc: Option<IncrementalMap>,
    /// Kernel size of the first stride-1 submanifold conv, whose map is
    /// patched across steps.
    kernel: u32,
    split_count: u32,
    counts: WalkCounts,
}

/// What one replayed step produced, for checks and counts.
struct Stepped {
    loss: f32,
    applied: bool,
    session: Session,
    micro_batches: usize,
    evaluations: usize,
    prepare: (u64, u64),
    retuned: usize,
}

impl<'a> Replica<'a> {
    fn new(net: &'a Network, seed: u64) -> Self {
        let cfg = TrainerConfig::default();
        let ctx = ctx();
        let weights = net.init_weights(seed);
        let velocity = weights
            .convs
            .iter()
            .map(|w| {
                w.as_ref()
                    .map(|w| ConvWeights::zeros(w.kernel_volume(), w.c_in(), w.c_out()))
            })
            .collect();
        let kernel = net
            .nodes()
            .iter()
            .find_map(|node| match node.op {
                Op::Conv(s)
                    if s.stride == 1
                        && !s.transposed
                        && s.kernel_size % 2 == 1
                        && s.kernel_size > 1
                        && net.stride(node.input) == 1 =>
                {
                    Some(s.kernel_size)
                }
                _ => None,
            })
            .expect("the network has a submanifold conv");
        let split_count = match cfg.tuner.default.kind {
            DataflowKind::ImplicitGemm { splits } => splits.max(1),
            _ => 1,
        };
        Self {
            net,
            weights,
            velocity,
            scaler: cfg.amp.then(LossScaler::new),
            scheme: cfg
                .scheme
                .unwrap_or_else(|| default_scheme_for(ctx.device())),
            cfg,
            ctx,
            cache: TrainScheduleCache::in_memory(),
            inc: None,
            kernel,
            split_count,
            counts: WalkCounts::default(),
        }
    }

    fn step(&mut self, t: &Tracer, input: &SparseTensor) -> Option<Stepped> {
        t.span("train", "step", || self.step_inner(t, input))
    }

    fn step_inner(&mut self, t: &Tracer, input: &SparseTensor) -> Option<Stepped> {
        let net = self.net;
        let (session, canon) = match self.inc.as_mut() {
            None => {
                let session = t.span("core", "compile", || {
                    (ts_kernelmap::unique_coords(input.coords()).len() == input.num_points())
                        .then(|| Session::try_new(net, input.coords()).ok())
                        .flatten()
                })?;
                let (k, s) = (self.kernel, self.split_count);
                self.inc = Some(t.span("kernelmap", "IncrementalMap::new", || {
                    IncrementalMap::new(input.coords(), KernelOffsets::cube(k), s)
                }));
                (session, input.clone())
            }
            Some(inc) => {
                let delta = self.cfg.delta;
                let outcome = t.span("kernelmap", "IncrementalMap::update", || {
                    inc.update(input.coords(), &delta)
                });
                let kernel = self.kernel;
                t.span("core", "compile", || {
                    if ts_kernelmap::unique_coords(input.coords()).len() != input.num_points() {
                        return None;
                    }
                    let reuse = SubmanifoldReuse {
                        kernel_size: kernel,
                        map: Arc::new(inc.map().clone()),
                        stats: outcome.stats,
                    };
                    let permuted = permute_to(input, inc.coords());
                    let session =
                        Session::try_new_with_reuse(net, inc.coords(), Some(&reuse)).ok()?;
                    Some((session, permuted))
                })?
            }
        };

        // The cache lookup and the (warm-start) tune it triggers are one
        // call, as in the program.
        let cached = t
            .span("cache", "tune_training_cached", || {
                tune_training_cached(
                    &mut self.cache,
                    std::slice::from_ref(&session),
                    &self.ctx,
                    &self.cfg.tuner,
                    self.scheme,
                    &self.cfg.drift,
                )
            })
            .ok()?;
        let tuned = &cached.result;

        let mut batches: Vec<i32> = canon.coords().iter().map(|c| c.batch).collect();
        batches.sort_unstable();
        batches.dedup();
        let k = self.cfg.micro_batches.clamp(1, batches.len().max(1));
        let chunk = batches.len().div_ceil(k);
        let loss_scale = self.scaler.as_ref().map_or(1.0, |a| a.scale);
        let fp16 = self.scaler.is_some();
        let mut loss = 0.0f32;
        let mut overflow = false;
        let mut acc: Vec<Option<ConvWeights>> = self
            .velocity
            .iter()
            .map(|v| {
                v.as_ref()
                    .map(|v| ConvWeights::zeros(v.kernel_volume(), v.c_in(), v.c_out()))
            })
            .collect();
        let ctx = &self.ctx;
        for lo in (0..batches.len()).step_by(chunk.max(1)) {
            let span = &batches[lo..(lo + chunk).min(batches.len())];
            let mut micro = canon.clone();
            for (i, c) in canon.coords().iter().enumerate() {
                if !span.contains(&c.batch) {
                    micro.feats_mut().row_mut(i).fill(0.0);
                }
            }
            self.counts.copy_bytes += bytes(micro.feats());
            let counts = &mut self.counts;
            let (l, grads, o) = t.span("core", "forward_backward", || {
                forward_backward_traced(
                    t,
                    &self.weights,
                    &session,
                    &micro,
                    &tuned.configs,
                    ctx,
                    loss_scale,
                    fp16,
                    counts,
                )
            });
            loss += l;
            overflow |= o;
            if !o {
                for (slot, dw) in acc.iter_mut().zip(grads.iter()) {
                    if let (Some(slot), Some(dw)) = (slot.as_mut(), dw.as_ref()) {
                        slot.axpy(1.0, dw);
                    }
                }
            }
        }
        if overflow {
            self.scaler
                .as_mut()
                .expect("overflow implies AMP")
                .update(true);
        } else {
            for (i, dw) in acc.iter().enumerate() {
                let Some(dw) = dw else { continue };
                let v = self.velocity[i].as_mut().expect("velocity slot");
                for kv in 0..v.kernel_volume() {
                    v.offset_mut(kv).scale(self.cfg.momentum);
                }
                v.axpy(1.0, dw);
                self.weights.convs[i]
                    .as_mut()
                    .expect("weights slot")
                    .axpy(-self.cfg.lr, v);
            }
            if let Some(s) = self.scaler.as_mut() {
                s.update(false);
            }
        }
        let unbound = TrainConfigs::bound(self.cfg.tuner.default);
        t.span("gpusim", "simulate_training", || {
            session.simulate_training(&tuned.configs, ctx)
        });
        t.span("gpusim", "simulate_training", || {
            session.simulate_training(&unbound, ctx)
        });
        Some(Stepped {
            loss,
            applied: !overflow,
            micro_batches: k,
            evaluations: tuned.evaluations,
            prepare: (
                tuned.stats.prepare_cache_hits,
                tuned.stats.prepare_cache_misses,
            ),
            retuned: cached.retuned.len(),
            session,
        })
    }
}

fn accumulate(t: &Tracer, grads: &mut [Option<Matrix>], node: usize, g: Matrix) {
    match &mut grads[node] {
        Some(existing) => t.span("tensor", "add_assign", || existing.add_assign(&g)),
        slot @ None => *slot = Some(g),
    }
}

/// `ts_core::forward_backward` as public calls: the shared forward walk,
/// then the backward sweep with every conv kernel and tensor op in its
/// own span; the rest (loss, gradient rounding, routing and copies) is
/// the walk's self time. Returns the loss, the un-scaled weight gradients
/// and the overflow flag.
#[allow(clippy::too_many_arguments)]
fn forward_backward_traced(
    t: &Tracer,
    weights: &NetworkWeights,
    session: &Session,
    input: &SparseTensor,
    cfgs: &TrainConfigs,
    ctx: &ExecCtx,
    loss_scale: f32,
    fp16_grads: bool,
    c: &mut WalkCounts,
) -> (f32, Vec<Option<ConvWeights>>, bool) {
    let fctx = ExecCtx {
        functional: true,
        ..ctx.clone()
    };
    let network = session.network();
    let n_nodes = network.nodes().len();
    let feats = walk::forward(t, session, weights, input.feats(), &cfgs.fwd, &fctx, c);

    let out = feats[network.output()].as_ref().expect("output");
    let loss = 0.5 * out.as_slice().iter().map(|v| v * v).sum::<f32>();
    let quantize = |m: &mut Matrix| {
        if fp16_grads {
            Precision::Fp16.quantize_slice(m.as_mut_slice());
        }
    };
    let mut grads: Vec<Option<Matrix>> = vec![None; n_nodes];
    let mut seed = out.clone();
    c.copy_bytes += bytes(&seed);
    if loss_scale != 1.0 {
        seed.scale(loss_scale);
    }
    quantize(&mut seed);
    grads[network.output()] = Some(seed);
    let mut overflow = false;
    let mut conv_grads: Vec<Option<ConvWeights>> = vec![None; n_nodes];
    for (i, node) in network.nodes().iter().enumerate().skip(1).rev() {
        let Some(g) = grads[i].take() else { continue };
        match node.op {
            Op::Input => unreachable!("input node is always index 0"),
            Op::Conv(spec) => {
                let (map, grad_map, group) = session.conv_maps(i).expect("conv map");
                let w = weights.convs[i].as_ref().expect("weights").clone();
                let d_cfg = cfgs.dgrad.for_group(group);
                let w_cfg = cfgs.wgrad.for_group(group);
                let mut dx = t
                    .span("dataflow", "dgrad", || {
                        dgrad(&g, &w, &grad_map, &d_cfg, &fctx)
                    })
                    .features
                    .expect("functional");
                quantize(&mut dx);
                accumulate(t, &mut grads, node.input, dx);
                let x_in = feats[node.input].as_ref().expect("activation");
                let mut dw = t
                    .span("dataflow", "wgrad", || wgrad(x_in, &g, &map, &w_cfg, &fctx))
                    .dw
                    .expect("functional");
                c.conv(&map, spec, group, 2);
                for k in 0..dw.kernel_volume() {
                    quantize(dw.offset_mut(k));
                    if dw
                        .offset(k)
                        .as_slice()
                        .iter()
                        .any(|v| !v.is_finite() || v.abs() >= 65504.0)
                    {
                        overflow = true;
                    }
                    if loss_scale != 1.0 {
                        dw.offset_mut(k).scale(1.0 / loss_scale);
                    }
                }
                conv_grads[i] = Some(dw);
            }
            Op::BatchNorm => {
                let params = weights.bns[i].as_ref().expect("bn");
                let mut dx = g;
                for r in 0..dx.rows() {
                    for (ch, v) in dx.row_mut(r).iter_mut().enumerate() {
                        *v *= params.scale[ch];
                    }
                }
                accumulate(t, &mut grads, node.input, dx);
            }
            Op::ReLU => {
                let mut dx = g;
                let x_in = feats[node.input].as_ref().expect("activation");
                t.span("tensor", "relu_backward", || relu_backward(&mut dx, x_in));
                accumulate(t, &mut grads, node.input, dx);
            }
            Op::Add { other } => {
                c.copy_bytes += bytes(&g);
                accumulate(t, &mut grads, node.input, g.clone());
                accumulate(t, &mut grads, other, g);
            }
            Op::Concat { other } => {
                let c_in = network.out_channels(node.input);
                let mut g_in = Matrix::zeros(g.rows(), c_in);
                let mut g_other = Matrix::zeros(g.rows(), g.cols() - c_in);
                for r in 0..g.rows() {
                    g_in.row_mut(r).copy_from_slice(&g.row(r)[..c_in]);
                    g_other.row_mut(r).copy_from_slice(&g.row(r)[c_in..]);
                }
                c.copy_bytes += bytes(&g);
                accumulate(t, &mut grads, node.input, g_in);
                accumulate(t, &mut grads, other, g_other);
            }
        }
    }
    (loss, conv_grads, overflow)
}

fn traced(
    args: &Args,
    out: &mut Outcome,
    net: &Network,
    inputs: &[SparseTensor],
    reports: &[StepReport],
) {
    let t = Tracer::default();
    let mut replica = Replica::new(net, args.seed);
    // An untraced trainer stepped beside the replay, so the traced and
    // untraced times of each step are taken moments apart.
    let mut program = Trainer::new(net, args.seed, &ctx(), TrainerConfig::default());
    let seeded = program.step(&inputs[0]).is_ok();
    if !seeded
        || t.request(0, "setup", || replica.step(&t, &inputs[0]))
            .is_none()
    {
        out.fail(1, "traced replay: seeding step failed".into());
        return;
    }
    replica.counts = WalkCounts::default();
    // A third of the measured steps, at least two.
    let measured = reports.len().saturating_sub(1);
    let replay = (measured / 3).max(2).min(measured);
    let mut untraced_ms = Vec::new();
    let mut map_stats = [0u64; 3];
    let (mut evaluations, mut prep, mut retuned, mut k, mut groups) =
        (0usize, (0u64, 0u64), 0usize, 1usize, 0usize);
    for (i, input) in inputs.iter().enumerate().take(replay + 1).skip(1) {
        let t0 = Instant::now();
        let reference = program.step(input);
        untraced_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        if reference.is_err() {
            out.fail(1, format!("untraced reference step {i} failed"));
            return;
        }
        let Some(st) = t.request(i as u64, "request", || replica.step(&t, input)) else {
            out.fail(1, format!("traced replay: step {i} failed"));
            return;
        };
        let timed = &reports[i];
        if st.loss.to_bits() != timed.loss.to_bits() || st.applied != timed.applied {
            out.fail(
                1,
                format!(
                    "traced replay of step {i}: loss {} applied {} vs Trainer::step {} {}",
                    st.loss, st.applied, timed.loss, timed.applied
                ),
            );
        }
        for g in st.session.groups() {
            map_stats[0] += g.build_stats.queries;
            map_stats[1] += g.build_stats.inserts;
            map_stats[2] += g.build_stats.pairs;
        }
        evaluations += st.evaluations;
        prep = (prep.0 + st.prepare.0, prep.1 + st.prepare.1);
        retuned += st.retuned;
        k = st.micro_batches;
        groups = st.session.groups().len();
    }

    let spans = t.into_spans();
    let b = Breakdown::of(&spans, "request");
    let reqs = replay.max(1) as f64;
    let c = &replica.counts;
    let l = &mut out.layers;
    l.insert("train.step_ms", b.wall_ms("train", "step"));
    l.insert("train.self_ms", b.self_ms("train", "step"));
    l.insert(
        "kernelmap.patch_ms",
        b.wall_ms("kernelmap", "IncrementalMap::update"),
    );
    l.insert("kernelmap.hash_queries", map_stats[0] as f64 / reqs);
    l.insert("kernelmap.hash_inserts", map_stats[1] as f64 / reqs);
    l.insert("kernelmap.pairs", map_stats[2] as f64 / reqs);
    l.insert("core.compile_ms", b.wall_ms("core", "compile"));
    l.insert(
        "core.fwd_bwd_ms",
        b.wall_ms("core", "forward_backward") / k as f64,
    );
    l.insert("core.walk_self_ms", b.self_ms("core", "forward_backward"));
    l.insert(
        "core.copy_mb",
        c.copy_bytes as f64 / reqs / (1 << 20) as f64,
    );
    let prepare_calls = c.prepare_calls as f64 / reqs;
    l.insert("dataflow.prepare_calls", prepare_calls);
    l.insert(
        "dataflow.prepare_per_group",
        prepare_calls / groups.max(1) as f64,
    );
    l.insert("dataflow.prepare_ms", b.wall_ms("dataflow", "prepare"));
    let (fwd, dg, wg) = (
        b.wall_ms("dataflow", "forward_prepared"),
        b.wall_ms("dataflow", "dgrad"),
        b.wall_ms("dataflow", "wgrad"),
    );
    l.insert("dataflow.fwd_ms", fwd);
    l.insert("dataflow.dgrad_ms", dg);
    l.insert("dataflow.wgrad_ms", wg);
    let gmac = c.macs as f64 / reqs / 1e9;
    l.insert("dataflow.gmac", gmac);
    l.insert(
        "dataflow.gmac_per_s",
        gmac / ((fwd + dg + wg) / 1e3).max(1e-12),
    );
    l.insert(
        "dataflow.map_io_mb",
        c.map_io_bytes as f64 / reqs / (1 << 20) as f64,
    );
    l.insert(
        "tensor.elementwise_ms",
        ["batch_norm", "relu", "relu_backward", "add_assign"]
            .iter()
            .map(|p| b.wall_ms("tensor", p))
            .sum(),
    );
    l.insert("gpusim.price_ms", b.wall_ms("gpusim", "simulate_training"));
    l.insert(
        "gpusim.price_calls",
        b.calls_per_request("gpusim", "simulate_training"),
    );
    // The warm-start tune runs inside `tune_training_cached`, so its time
    // is part of the cache call; the tuner's counts come from its result.
    l.insert(
        "cache.lookup_ms",
        b.wall_ms("cache", "tune_training_cached"),
    );
    l.insert("autotune.evaluations", evaluations as f64 / reqs);
    l.insert("autotune.prepare_hit_ratio", hit_ratio(prep.0, prep.1));
    l.insert("cache.retuned_groups", retuned as f64 / reqs);

    out.notes.extend(layer_table("traced steps", &b));
    out.notes.extend(overhead_notes(
        "Trainer::step",
        b.traced_ms(),
        mean(&untraced_ms).unwrap_or(0.0),
        replay,
    ));
    crate::write_trace(args, &spans, &mut out.notes, |req| match req {
        0 => "seeding-step".into(),
        r => format!("step-{r}"),
    });
}
