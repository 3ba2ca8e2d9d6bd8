//! The end-to-end trainer: fused step pipeline over multi-frame
//! batched LiDAR scenes.
//!
//! Each [`Trainer::step`] compiles one fused step plan — session
//! (kernel maps patched incrementally across temporally coherent steps
//! through `ts_core::compile_stream`), tuned per-family dataflow schedule
//! (pulled through the training-schedule cache), and simulated
//! per-phase cost — then executes the functional pipeline: forward →
//! loss → dgrad → wgrad per micro-batch, gradient accumulation,
//! dynamic-loss-scale overflow check, and a momentum-SGD update on the
//! FP32 master weights.

use std::fmt;
use std::io;
use std::path::Path;

use serde::{Deserialize, Serialize};

use ts_autotune::{default_scheme_for, BindingScheme, TunerOptions};
use ts_cache::{tune_training_cached, DriftPolicy, TrainScheduleCache, TuneOrigin};
use ts_core::{
    compile_stream, forward_backward_micro, CompileError, LossScaler, Network, NetworkWeights,
    SparseTensor, StreamState, TrainConfigs,
};
use ts_dataflow::{ConvWeights, ExecCtx};
use ts_kernelmap::{Coord, DeltaConfig, MapUpdate};
use ts_tensor::Matrix;
use ts_trace::Subsystem;
use ts_workloads::{LidarScene, LidarStream};

use crate::plan::{optimizer_us, StepSim};

/// A step failed: either the scene would not compile, or the
/// training-schedule cache's write-back hit an I/O error.
#[derive(Debug)]
pub enum TrainError {
    /// The batched scene failed session compilation.
    Compile(CompileError),
    /// The directory-backed schedule cache failed to persist an entry.
    Cache(io::Error),
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::Compile(e) => write!(f, "step compilation failed: {e}"),
            TrainError::Cache(e) => write!(f, "schedule cache write-back failed: {e}"),
        }
    }
}

impl std::error::Error for TrainError {}

impl From<CompileError> for TrainError {
    fn from(e: CompileError) -> Self {
        TrainError::Compile(e)
    }
}

impl From<io::Error> for TrainError {
    fn from(e: io::Error) -> Self {
        TrainError::Cache(e)
    }
}

/// Trainer construction parameters. [`Default`] gives a small
/// mixed-precision configuration: 4-frame batches accumulated over 2
/// micro-batches, device-chosen binding scheme, momentum SGD.
#[derive(Debug, Clone)]
pub struct TrainerConfig {
    /// Learning rate of the momentum-SGD update.
    pub lr: f32,
    /// Momentum coefficient in `[0, 1)`.
    pub momentum: f32,
    /// Frames batched into one training step (batch indices `0..B`).
    pub batch_frames: usize,
    /// Micro-batches the step's gradient is accumulated over
    /// (clamped to `[1, batch_frames]`).
    pub micro_batches: usize,
    /// Mixed-precision training with dynamic loss scaling.
    pub amp: bool,
    /// Kernel-family binding scheme; `None` picks the device default
    /// ([`default_scheme_for`]).
    pub scheme: Option<BindingScheme>,
    /// Autotuner search options for the step schedule.
    pub tuner: TunerOptions,
    /// Warm-start drift policy for the training-schedule cache.
    pub drift: DriftPolicy,
    /// Incremental kernel-map patch/rebuild policy.
    pub delta: DeltaConfig,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        Self {
            lr: 1e-3,
            momentum: 0.9,
            batch_frames: 4,
            micro_batches: 2,
            amp: true,
            scheme: None,
            tuner: TunerOptions::default(),
            drift: DriftPolicy::default(),
            delta: DeltaConfig::default(),
        }
    }
}

/// What one [`Trainer::step`] did, for logging and assertions.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StepReport {
    /// 1-based step number.
    pub step: u64,
    /// Accumulated loss over the step's micro-batches.
    pub loss: f32,
    /// Whether the optimizer update ran (`false` on gradient overflow).
    pub applied: bool,
    /// Loss scale *after* the step's scaler update (1.0 without AMP).
    pub loss_scale: f32,
    /// Micro-batches executed.
    pub micro_batches: usize,
    /// Simulated per-phase step cost.
    pub sim: StepSim,
    /// How the schedule was obtained: `"hit"`, `"warm"` or `"cold"`.
    pub tune_origin: String,
    /// The same step priced under the unbound all-default schedule
    /// (`TrainConfigs::bound(default)`): identical mapping and
    /// optimizer phases, untuned compute. `unbound_sim.step_us() /
    /// sim.step_us()` is the bound-vs-unbound throughput gain.
    pub unbound_sim: StepSim,
    /// How the kernel map was serviced: `"patched"` or `"rebuilt"`.
    pub map_update: String,
    /// Points that entered the stride-1 map since the previous step.
    pub entered: usize,
    /// Points that exited the stride-1 map since the previous step.
    pub exited: usize,
}

/// Deterministic summary of a training run, for golden-trajectory
/// comparison: the per-step loss curve plus a digest of the final
/// weights.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainRun {
    /// Accumulated loss per step, in order.
    pub losses: Vec<f32>,
    /// FNV-1a digest over the final conv weights' f32 bit patterns.
    pub weights_digest: String,
    /// Final dynamic loss scale (1.0 without AMP).
    pub loss_scale: f32,
    /// Steps skipped due to gradient overflow (AMP overflow, or a
    /// non-finite gradient without AMP).
    pub skipped: u32,
}

/// FNV-1a digest over every conv weight's f32 bit pattern, in network
/// order. Bit-exact weights ⇔ equal digests, on any platform.
pub fn weights_digest(weights: &NetworkWeights) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |byte: u8| {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for w in weights.convs.iter().flatten() {
        for k in 0..w.kernel_volume() {
            for &v in w.offset(k).as_slice() {
                for byte in v.to_bits().to_le_bytes() {
                    mix(byte);
                }
            }
        }
    }
    format!("{h:016x}")
}

/// The end-to-end training harness. See the module docs for the step
/// anatomy; [`Trainer::run_stream`] drives it over a [`LidarStream`]
/// with a sliding multi-frame batch window.
pub struct Trainer {
    network: Network,
    weights: NetworkWeights,
    velocity: Vec<Option<ConvWeights>>,
    amp: Option<LossScaler>,
    cfg: TrainerConfig,
    scheme: BindingScheme,
    ctx: ExecCtx,
    cache: TrainScheduleCache,
    state: Option<StreamState>,
    param_bytes: u64,
    steps: u64,
    skipped: u32,
}

impl Trainer {
    /// Builds a trainer for `network` with weights initialised from
    /// `seed`, an in-memory schedule cache, and the binding scheme
    /// resolved from `cfg.scheme` or the device model.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.lr <= 0`, `cfg.momentum` is outside `[0, 1)`, or
    /// `cfg.batch_frames == 0`.
    pub fn new(network: &Network, seed: u64, ctx: &ExecCtx, cfg: TrainerConfig) -> Self {
        assert!(cfg.lr > 0.0, "learning rate must be positive");
        assert!(
            (0.0..1.0).contains(&cfg.momentum),
            "momentum must be in [0, 1)"
        );
        assert!(cfg.batch_frames > 0, "batch window must hold a frame");
        let weights = network.init_weights(seed);
        let velocity = weights
            .convs
            .iter()
            .map(|w| {
                w.as_ref()
                    .map(|w| ConvWeights::zeros(w.kernel_volume(), w.c_in(), w.c_out()))
            })
            .collect();
        let param_bytes: u64 = weights
            .convs
            .iter()
            .flatten()
            .map(|w| w.param_count() as u64 * 4)
            .sum();
        let scheme = cfg
            .scheme
            .unwrap_or_else(|| default_scheme_for(ctx.device()));
        let amp = cfg.amp.then(LossScaler::new);
        Self {
            network: network.clone(),
            weights,
            velocity,
            amp,
            cfg,
            scheme,
            ctx: ctx.clone(),
            cache: TrainScheduleCache::in_memory(),
            state: None,
            param_bytes,
            steps: 0,
            skipped: 0,
        }
    }

    /// Backs the training-schedule cache with `dir`, loading any
    /// compatible entries already there (warm starts across runs).
    ///
    /// # Errors
    ///
    /// Propagates the I/O error if the directory cannot be created or
    /// scanned.
    pub fn with_cache_dir(mut self, dir: impl AsRef<Path>) -> io::Result<Self> {
        self.cache = TrainScheduleCache::open(dir)?;
        Ok(self)
    }

    /// The binding scheme steps tune under.
    pub fn scheme(&self) -> BindingScheme {
        self.scheme
    }

    /// Current weights (FP32 master copies).
    pub fn weights(&self) -> &NetworkWeights {
        &self.weights
    }

    /// The loss-scaler state (when AMP is enabled).
    pub fn scaler(&self) -> Option<&LossScaler> {
        self.amp.as_ref()
    }

    /// The incremental-map reuse state (after the first step).
    pub fn stream_state(&self) -> Option<&StreamState> {
        self.state.as_ref()
    }

    /// The training-schedule cache behind the step pipeline.
    pub fn cache(&self) -> &TrainScheduleCache {
        &self.cache
    }

    /// Steps executed so far (including overflow-skipped ones).
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Summarises the run for golden-trajectory comparison.
    pub fn train_run(&self, losses: Vec<f32>) -> TrainRun {
        TrainRun {
            losses,
            weights_digest: weights_digest(&self.weights),
            loss_scale: self.amp.as_ref().map_or(1.0, |a| a.scale),
            skipped: self.skipped,
        }
    }

    /// Runs one fused training step over a batched scene.
    ///
    /// The step compiles its session (patching the stride-1 map from
    /// the previous step when the scene is temporally coherent), pulls
    /// the tuned schedule through the cache, accumulates gradients over
    /// micro-batches (each pass walks only its batch-index chunk's rows,
    /// through the session restricted to them — sparse conv never
    /// crosses batch boundaries, so the accumulated gradient equals the
    /// full-batch gradient up to summation order), applies the momentum
    /// update unless the gradient overflowed (under AMP: reached the
    /// FP16 range; without: became non-finite), and advances the
    /// simulated clock.
    ///
    /// # Errors
    ///
    /// [`TrainError::Compile`] if the scene fails session compilation
    /// (duplicate coordinates, channel mismatch), [`TrainError::Cache`]
    /// if a directory-backed cache fails to persist the tuned schedule.
    pub fn step(&mut self, input: &SparseTensor) -> Result<StepReport, TrainError> {
        let _span = ts_trace::span!(Subsystem::Train, "train.step", step = self.steps + 1);
        // `train.map.*` counts maintenance of an existing map; the
        // seeding step builds it.
        let advanced = self.state.is_some();
        let (session, canon, outcome) =
            compile_stream(&self.network, &mut self.state, input, &self.cfg.delta)?;
        if advanced {
            match outcome.kind {
                MapUpdate::Patched => ts_trace::counter_add("train.map.patched", 1),
                MapUpdate::Rebuilt => ts_trace::counter_add("train.map.rebuilt", 1),
            }
        }
        ts_trace::counter_add("train.plan.compiled", 1);

        let tune = tune_training_cached(
            &mut self.cache,
            std::slice::from_ref(&session),
            &self.ctx,
            &self.cfg.tuner,
            self.scheme,
            &self.cfg.drift,
        )?;

        let (bw, split) = forward_backward_micro(
            &self.weights,
            &session,
            &canon,
            &tune.result.configs,
            &self.ctx,
            self.amp.as_ref(),
            self.cfg.micro_batches,
        );
        ts_trace::counter_add("train.microbatches.executed", split.passes as i64);
        let passes = split.passes;

        let applied = !bw.overflow;
        if bw.overflow {
            // Without AMP only a non-finite gradient overflows; the step
            // is skipped all the same.
            if let Some(scaler) = self.amp.as_mut() {
                scaler.update(true);
            }
            self.skipped += 1;
            ts_trace::counter_add("train.steps.skipped_overflow", 1);
        } else {
            for (i, dw) in bw.grads.iter().enumerate() {
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
            if let Some(scaler) = self.amp.as_mut() {
                scaler.update(false);
            }
            ts_trace::counter_add("train.steps.completed", 1);
        }

        // Price the fused step: mapping once, compute per micro-batch,
        // optimizer once. The unbound all-default schedule is priced on
        // the same session so the tuned schedule's gain stays visible
        // even when the schedule itself came straight from the cache.
        let report = session.simulate_training(&tune.result.configs, &self.ctx);
        let optim = optimizer_us(self.param_bytes, &self.ctx);
        let sim = StepSim::from_report(&report, passes, optim);
        let unbound_report =
            session.simulate_training(&TrainConfigs::bound(self.cfg.tuner.default), &self.ctx);
        let unbound_sim = StepSim::from_report(&unbound_report, passes, optim);
        self.steps += 1;

        Ok(StepReport {
            step: self.steps,
            loss: bw.loss,
            applied,
            loss_scale: self.amp.as_ref().map_or(1.0, |a| a.scale),
            micro_batches: passes,
            sim,
            unbound_sim,
            tune_origin: match tune.origin {
                TuneOrigin::Hit => "hit",
                TuneOrigin::WarmStart => "warm",
                TuneOrigin::Cold => "cold",
            }
            .to_string(),
            map_update: match outcome.kind {
                MapUpdate::Patched => "patched",
                MapUpdate::Rebuilt => "rebuilt",
            }
            .to_string(),
            entered: outcome.entered,
            exited: outcome.exited,
        })
    }

    /// Drives `steps` training steps over a LiDAR stream with a sliding
    /// `batch_frames`-wide window.
    ///
    /// A frame keeps the batch slot `frame_number % batch_frames` for
    /// its whole window lifetime, so consecutive steps differ by
    /// exactly one swapped slot — the low-churn shape the incremental
    /// kernel map patches cheaply.
    ///
    /// # Errors
    ///
    /// Propagates the first failing step's [`TrainError`].
    pub fn run_stream(
        &mut self,
        stream: &mut LidarStream,
        steps: usize,
    ) -> Result<Vec<StepReport>, TrainError> {
        let b = self.cfg.batch_frames;
        let mut window: Vec<Option<LidarScene>> = vec![None; b];
        // Fill the initial window.
        for _ in 0..b {
            let slot = (stream.frames_emitted() % b as u64) as usize;
            window[slot] = Some(stream.next_frame());
        }
        let mut reports = Vec::with_capacity(steps);
        for _ in 0..steps {
            let input = merge_window(&window);
            reports.push(self.step(&input)?);
            let slot = (stream.frames_emitted() % b as u64) as usize;
            window[slot] = Some(stream.next_frame());
        }
        Ok(reports)
    }
}

/// Merges the window's frames into one batched scene: slot `s`'s
/// coordinates are rebatched to batch index `s`, features concatenated
/// in slot order.
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

#[cfg(test)]
mod tests {
    use super::*;
    use ts_core::NetworkBuilder;
    use ts_gpusim::Device;
    use ts_tensor::{rng_from_seed, uniform_matrix, Precision};
    use ts_workloads::LidarConfig;

    fn net() -> Network {
        let mut b = NetworkBuilder::new("train-test", 4);
        let c = b.conv_block("stem", NetworkBuilder::INPUT, 8, 3, 1);
        let _ = b.conv_block("head", c, 4, 3, 1);
        b.build()
    }

    fn ctx() -> ExecCtx {
        ExecCtx::simulate(Device::a100(), Precision::Fp16)
    }

    fn lidar() -> LidarConfig {
        LidarConfig {
            beams: 8,
            azimuth_steps: 90,
            elevation_min_deg: -25.0,
            elevation_max_deg: 3.0,
            max_range_m: 40.0,
            voxel_size_m: 0.2,
            obstacles: 6,
            dropout: 0.05,
        }
    }

    fn scene(seed: u64, frames: u32) -> SparseTensor {
        let mut window: Vec<Option<LidarScene>> = Vec::new();
        for f in 0..frames {
            window.push(Some(LidarScene::generate(&lidar(), seed + f as u64, 1, 0)));
        }
        merge_window(&window)
    }

    /// Trains on one fixed input for `steps` steps; returns the trainer
    /// and the per-step losses.
    fn fit(
        net: &Network,
        input: &SparseTensor,
        cfg: TrainerConfig,
        steps: usize,
    ) -> (Trainer, Vec<f32>) {
        let mut t = Trainer::new(net, 7, &ctx(), cfg);
        let losses = (0..steps).map(|_| t.step(input).unwrap().loss).collect();
        (t, losses)
    }

    /// A conv block + head over one 6x6 grid, whose gradients overflow
    /// FP16 at the default 2^16 loss scale.
    fn grid() -> (Network, SparseTensor) {
        let mut b = NetworkBuilder::new("grid", 4);
        let c = b.conv_block("c", NetworkBuilder::INPUT, 8, 3, 1);
        let _ = b.conv("head", c, 3, 1, 1);
        let coords: Vec<Coord> = (0..36).map(|i| Coord::new(0, i % 6, i / 6, 0)).collect();
        let feats = uniform_matrix(&mut rng_from_seed(2), 36, 4, -1.0, 1.0);
        (b.build(), SparseTensor::new(coords, feats))
    }

    #[test]
    fn momentum_sgd_reduces_loss_faster_than_plain_sgd() {
        let sgd = |momentum| TrainerConfig {
            amp: false,
            lr: 2e-3,
            momentum,
            micro_batches: 1,
            ..TrainerConfig::default()
        };
        let (_, plain) = fit(&net(), &scene(3, 2), sgd(0.0), 6);
        let (_, momentum) = fit(&net(), &scene(3, 2), sgd(0.9), 6);
        for losses in [&plain, &momentum] {
            assert!(losses.iter().all(|l| l.is_finite()));
            assert!(
                losses[5] < losses[0],
                "SGD on 0.5||out||^2 must shrink it: {losses:?}"
            );
        }
        assert!(
            momentum[5] < plain[5],
            "momentum {momentum:?} vs plain {plain:?}"
        );
    }

    #[test]
    fn amp_training_converges_and_tracks_fp32() {
        let cfg = |amp| TrainerConfig {
            lr: 5e-3,
            amp,
            ..TrainerConfig::default()
        };
        let (net, input) = grid();
        let (t, amp) = fit(&net, &input, cfg(true), 14);
        assert!(amp[13] < amp[0] * 0.9, "{amp:?}");
        let scaler = t.scaler().expect("amp enabled");
        // The conventional 2^16 starting scale overflows on the first
        // step or two (exactly like real AMP), then settles.
        assert!(
            scaler.skipped <= 4,
            "too many skipped steps: {}",
            scaler.skipped
        );
        assert!(scaler.scale < 65536.0, "scale should have backed off");
        assert!(scaler.good_steps >= 8);

        // AMP tracks the FP32 trajectory: same convergence, bounded
        // drift from FP16 gradient rounding and the skipped warmup steps.
        let (_, fp32) = fit(&net, &input, cfg(false), 14);
        assert_eq!(amp[0], fp32[0], "first loss is pre-update");
        let (a, b) = (amp[13], fp32[13]);
        assert!(
            (a - b).abs() < 0.4 * b.max(1.0),
            "amp {amp:?} vs fp32 {fp32:?}"
        );
    }

    #[test]
    fn overflowing_gradients_halve_the_scale_and_skip_updates() {
        let mut t = Trainer::new(&net(), 7, &ctx(), TrainerConfig::default());
        // Force an overflow: blow up the loss scale far beyond FP16 range.
        t.amp.as_mut().unwrap().scale = 3.0e38;
        let w_before = t.weights().clone();
        let r = t.step(&scene(3, 2)).unwrap();
        assert!(!r.applied);
        let scaler = t.scaler().unwrap();
        assert_eq!(scaler.skipped, 1);
        assert_eq!(scaler.scale, 1.5e38, "overflow halves the scale");
        assert_eq!(
            t.weights(),
            &w_before,
            "overflowing step must not update weights"
        );
    }

    /// Without AMP the FP16 range does not apply: a weight gradient past
    /// 65504 is applied, and only a non-finite one skips the step.
    #[test]
    fn fp32_steps_apply_large_gradients_and_skip_non_finite_ones() {
        let cfg = TrainerConfig {
            amp: false,
            micro_batches: 1,
            ..TrainerConfig::default()
        };
        let (net, input) = grid();
        for (gain, applied) in [(1.0e3, true), (1.0e22, false)] {
            let mut x = input.clone();
            x.feats_mut().scale(gain);
            let mut t = Trainer::new(&net, 7, &ctx(), cfg.clone());
            let w_before = t.weights().clone();
            let r = t.step(&x).unwrap();
            assert_eq!(r.applied, applied, "gain {gain}");
            assert_eq!(t.train_run(Vec::new()).skipped, u32::from(!applied));
            assert_eq!(t.weights() == &w_before, !applied, "gain {gain}");
        }
    }

    #[test]
    #[should_panic(expected = "momentum must be in")]
    fn rejects_bad_momentum() {
        let cfg = TrainerConfig {
            momentum: 1.0,
            ..TrainerConfig::default()
        };
        let _ = Trainer::new(&net(), 1, &ctx(), cfg);
    }

    #[test]
    fn same_scene_second_step_patches_and_hits_cache() {
        let ctx = ctx();
        let mut t = Trainer::new(&net(), 7, &ctx, TrainerConfig::default());
        let input = scene(11, 2);
        let r1 = t.step(&input).unwrap();
        let r2 = t.step(&input).unwrap();
        assert_eq!(r1.map_update, "rebuilt", "seeding step builds the map");
        assert_eq!(r2.map_update, "patched", "identical scene patches");
        assert_eq!(r2.entered, 0);
        assert_eq!(r2.exited, 0);
        assert_eq!(r1.tune_origin, "cold");
        assert_eq!(r2.tune_origin, "hit", "same key re-served from cache");
        assert!(r2.sim.map_us < r1.sim.map_us, "patched mapping is cheaper");
        let st = t.stream_state().unwrap();
        assert_eq!(st.frames(), 2);
        assert_eq!(st.patched(), 1);
    }

    #[test]
    fn microbatch_accumulation_matches_full_batch() {
        let ctx = ctx();
        let input = scene(5, 4);
        let base = TrainerConfig {
            amp: false,
            ..TrainerConfig::default()
        };
        let mut full = Trainer::new(
            &net(),
            9,
            &ctx,
            TrainerConfig {
                micro_batches: 1,
                ..base.clone()
            },
        );
        let mut split = Trainer::new(
            &net(),
            9,
            &ctx,
            TrainerConfig {
                micro_batches: 4,
                ..base
            },
        );
        let rf = full.step(&input).unwrap();
        let rs = split.step(&input).unwrap();
        assert_eq!(rf.micro_batches, 1);
        assert_eq!(rs.micro_batches, 4);
        let rel = (rf.loss - rs.loss).abs() / rf.loss.abs().max(1e-6);
        assert!(rel < 1e-4, "losses diverge: {} vs {}", rf.loss, rs.loss);
        let budget = ts_tensor::ErrorBudget::new(Precision::Fp32, 4);
        for (a, b) in full
            .weights()
            .convs
            .iter()
            .zip(split.weights().convs.iter())
        {
            let (Some(a), Some(b)) = (a.as_ref(), b.as_ref()) else {
                continue;
            };
            for k in 0..a.kernel_volume() {
                let worst = a
                    .offset(k)
                    .as_slice()
                    .iter()
                    .zip(b.offset(k).as_slice())
                    .map(|(&x, &y)| budget.normalized_error(x, y))
                    .fold(0.0f32, f32::max);
                assert!(worst < 1.0, "offset {k} outside budget: {worst}");
            }
        }
    }

    #[test]
    fn run_stream_smoke_and_digest_changes() {
        let ctx = ctx();
        let cfg = TrainerConfig {
            batch_frames: 2,
            micro_batches: 2,
            ..TrainerConfig::default()
        };
        let mut t = Trainer::new(&net(), 7, &ctx, cfg);
        let before = weights_digest(t.weights());
        let mut stream = LidarStream::new(lidar(), 7).with_motion(0.2, 0.01);
        let reports = t.run_stream(&mut stream, 3).unwrap();
        assert_eq!(reports.len(), 3);
        assert_eq!(t.steps(), 3);
        assert!(reports.iter().all(|r| r.loss.is_finite() && r.loss > 0.0));
        let run = t.train_run(reports.iter().map(|r| r.loss).collect());
        assert_eq!(run.losses.len(), 3);
        assert_ne!(run.weights_digest, before, "training moved the weights");
        // Digest is deterministic over the same weights.
        assert_eq!(run.weights_digest, weights_digest(t.weights()));
    }

    #[test]
    fn step_sim_composes_phases() {
        let ctx = ctx();
        let cfg = TrainerConfig {
            micro_batches: 2,
            ..TrainerConfig::default()
        };
        let mut t = Trainer::new(&net(), 7, &ctx, cfg);
        let r = t.step(&scene(13, 2)).unwrap();
        let s = &r.sim;
        assert!(s.map_us > 0.0, "mapping priced");
        assert!(s.fwd_us > 0.0 && s.dgrad_us > 0.0 && s.wgrad_us > 0.0);
        assert!(s.optim_us > 0.0, "optimizer priced");
        let expect = s.map_us + 2.0 * (s.fwd_us + s.dgrad_us + s.wgrad_us) + s.optim_us;
        assert!((s.step_us() - expect).abs() < 1e-9);
    }

    /// A step is priced by the passes it runs: 4 frames split 3 ways
    /// run 2 passes of ceil(4 / 3) = 2 frames each.
    #[test]
    fn step_prices_the_passes_it_runs() {
        let cfg = TrainerConfig {
            micro_batches: 3,
            ..TrainerConfig::default()
        };
        let mut t = Trainer::new(&net(), 7, &ctx(), cfg);
        let r = t.step(&scene(13, 4)).unwrap();
        assert_eq!(r.micro_batches, 2);
        let s = &r.sim;
        assert_eq!(s.step_us(), s.map_us + 2.0 * s.compute_us() + s.optim_us);
    }
}
