//! Integration: the end-to-end training harness — micro-batch
//! accumulation equals full-batch training, binding schemes change
//! simulated latency but not numerics, loss scaling round-trips
//! deterministically, and a fixed-seed trajectory is bit-identical to
//! the checked-in golden file (regenerate with `TS_UPDATE_GOLDEN=1`).

use std::path::PathBuf;

use proptest::prelude::*;

use torchsparse::autotune::BindingScheme;
use torchsparse::core::{LossScaler, Network, NetworkBuilder, SparseTensor};
use torchsparse::dataflow::ExecCtx;
use torchsparse::gpusim::Device;
use torchsparse::kernelmap::Coord;
use torchsparse::tensor::{rng_from_seed, ErrorBudget, Matrix, Precision};
use torchsparse::train::{weights_digest, TrainRun, Trainer, TrainerConfig};
use torchsparse::workloads::{LidarConfig, LidarScene, LidarStream};

fn small_net() -> Network {
    let mut b = NetworkBuilder::new("train-harness", 4);
    let c1 = b.conv_block("enc", NetworkBuilder::INPUT, 8, 3, 1);
    let d = b.conv_block("down", c1, 12, 2, 2);
    let _ = b.conv("head", d, 4, 1, 1);
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

/// A deterministic batched scene: `frames` LiDAR frames at batch
/// indices `0..frames`.
fn batched_scene(seed: u64, frames: u32) -> SparseTensor {
    let mut coords = Vec::new();
    let mut rows = Vec::new();
    for f in 0..frames {
        let scene = LidarScene::generate(&lidar(), seed + u64::from(f), 1, 0);
        for (i, c) in scene.coords.iter().enumerate() {
            coords.push(Coord::new(f as i32, c.x, c.y, c.z));
            rows.push(scene.feats.row(i).to_vec());
        }
    }
    let mut feats = Matrix::zeros(rows.len(), 4);
    for (i, r) in rows.iter().enumerate() {
        feats.row_mut(i).copy_from_slice(r);
    }
    SparseTensor::new(coords, feats)
}

/// Worst budget-normalised difference between two weight sets.
fn worst_weight_error(a: &Trainer, b: &Trainer, budget: &ErrorBudget) -> f32 {
    let mut worst = 0.0f32;
    for (wa, wb) in a.weights().convs.iter().zip(b.weights().convs.iter()) {
        let (Some(wa), Some(wb)) = (wa.as_ref(), wb.as_ref()) else {
            continue;
        };
        for k in 0..wa.kernel_volume() {
            for (&x, &y) in wa.offset(k).as_slice().iter().zip(wb.offset(k).as_slice()) {
                worst = worst.max(budget.normalized_error(x, y));
            }
        }
    }
    worst
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Accumulating one step over k micro-batches equals the one-shot
    /// full-batch step within the FP32 reassociation budget.
    #[test]
    fn micro_batch_accumulation_matches_full_batch(
        seed in 1u64..500,
        k in 2usize..5,
    ) {
        let ctx = ctx();
        let input = batched_scene(seed, 4);
        let base = TrainerConfig { amp: false, ..TrainerConfig::default() };
        let mut full = Trainer::new(
            &small_net(), seed, &ctx,
            TrainerConfig { micro_batches: 1, ..base.clone() },
        );
        let mut split = Trainer::new(
            &small_net(), seed, &ctx,
            TrainerConfig { micro_batches: k, ..base },
        );
        let rf = full.step(&input).expect("full step");
        let rs = split.step(&input).expect("split step");
        prop_assert!(rf.applied && rs.applied);
        let budget = ErrorBudget::new(Precision::Fp32, 4 * k);
        let rel = (rf.loss - rs.loss).abs() / rf.loss.abs().max(1e-6);
        prop_assert!(rel < 1e-4, "losses diverge: {} vs {}", rf.loss, rs.loss);
        let worst = worst_weight_error(&full, &split, &budget);
        prop_assert!(worst < 1.0, "weights outside budget: {worst}");
    }
}

/// The binding scheme decides which kernel families share a dataflow —
/// a scheduling choice. Every scheme must land on the same weights
/// (within the cross-dataflow error budget); what may differ is the
/// simulated step latency.
#[test]
fn binding_scheme_changes_latency_not_numerics() {
    let ctx = ctx();
    let input = batched_scene(21, 3);
    let mut step_us = Vec::new();
    let mut trainers = Vec::new();
    for scheme in BindingScheme::ALL {
        let cfg = TrainerConfig {
            amp: false,
            scheme: Some(scheme),
            ..TrainerConfig::default()
        };
        let mut t = Trainer::new(&small_net(), 21, &ctx, cfg);
        let r = t.step(&input).expect("step");
        assert!(r.applied);
        step_us.push(r.sim.step_us());
        trainers.push(t);
    }
    // Different schemes may pick different dataflows, whose summation
    // orders differ — agreement is within budget, not bit-exact.
    let budget = ErrorBudget::new(Precision::Fp32, 64);
    for t in &trainers[1..] {
        let worst = worst_weight_error(&trainers[0], t, &budget);
        assert!(worst < 1.0, "schemes disagree beyond budget: {worst}");
    }
    // The scheduling choice is visible in simulated time: on this
    // scene at least two schemes tune to different step latencies
    // (the tuner's search is budgeted, so no ordering is guaranteed —
    // only that the knob actually moves the simulated clock).
    assert!(
        step_us.iter().any(|&t| (t - step_us[0]).abs() > 1e-9),
        "all schemes simulated identically: {step_us:?}"
    );
}

/// `train.microbatches.executed` counts forward+backward passes: four
/// frames split three ways run chunks of two, so two passes.
#[cfg(feature = "trace")]
#[test]
fn executed_micro_batches_count_the_passes_run() {
    use torchsparse::trace::{uninstall, Tracer};
    let input = batched_scene(7, 4);
    let cfg = TrainerConfig {
        micro_batches: 3,
        ..TrainerConfig::default()
    };
    let mut t = Trainer::new(&small_net(), 7, &ctx(), cfg);
    let tracer = Tracer::new();
    tracer.install();
    t.step(&input).expect("step");
    uninstall();
    assert_eq!(tracer.counter("train.microbatches.executed"), 2);
}

/// `core.walk.macs` counts `pairs × c_in × c_out` for every forward,
/// dgrad and wgrad kernel call: one step does three times the
/// network's convolution work however many micro-batches it runs, as
/// each pass walks only its own rows.
#[cfg(feature = "trace")]
#[test]
fn a_step_walks_each_pair_three_times_whatever_the_split() {
    use torchsparse::core::Session;
    use torchsparse::trace::{uninstall, Tracer};
    let input = batched_scene(7, 4);
    let net = small_net();
    let conv_macs: u64 = Session::new(&net, input.coords())
        .group_signatures()
        .iter()
        .map(|g| g.effective_macs)
        .sum();
    assert!(conv_macs > 0);
    for micro_batches in [1, 2] {
        let cfg = TrainerConfig {
            micro_batches,
            ..TrainerConfig::default()
        };
        let mut t = Trainer::new(&net, 7, &ctx(), cfg);
        let tracer = Tracer::new();
        tracer.install();
        let report = t.step(&input).expect("step");
        uninstall();
        assert_eq!(report.micro_batches, micro_batches);
        assert_eq!(
            tracer.counter("core.walk.macs"),
            3 * conv_macs as i64,
            "micro_batches {micro_batches}"
        );
    }
}

/// Same scheme, same seed, same scene: the step is fully deterministic
/// — bit-identical weights and identical simulated cost.
#[test]
fn identical_runs_are_bit_identical() {
    let ctx = ctx();
    let input = batched_scene(33, 3);
    let run = |_: ()| {
        let mut t = Trainer::new(&small_net(), 33, &ctx, TrainerConfig::default());
        let r1 = t.step(&input).expect("step 1");
        let r2 = t.step(&input).expect("step 2");
        (
            weights_digest(t.weights()),
            r1.sim,
            r2.sim,
            r1.loss,
            r2.loss,
        )
    };
    let a = run(());
    let b = run(());
    assert_eq!(a.0, b.0, "weights diverged across identical runs");
    assert_eq!(a.1, b.1);
    assert_eq!(a.2, b.2);
    assert_eq!(a.3.to_bits(), b.3.to_bits());
    assert_eq!(a.4.to_bits(), b.4.to_bits());
}

/// The loss scaler's overflow/backoff protocol round-trips
/// deterministically: the same overflow sequence always produces the
/// same final state, halving on overflow (floored at 1), doubling
/// after a full good streak (capped at 2^24).
#[test]
fn loss_scale_overflow_backoff_round_trips() {
    let mut rng = rng_from_seed(0x5CA1E);
    let sequence: Vec<bool> = (0..500)
        .map(|_| rand::Rng::gen_bool(&mut rng, 0.05))
        .collect();

    let replay = |seq: &[bool]| {
        let mut s = LossScaler::new();
        for &overflow in seq {
            let applied = s.update(overflow);
            assert_eq!(
                applied, !overflow,
                "update returns whether the step applied"
            );
        }
        s
    };
    let a = replay(&sequence);
    let b = replay(&sequence);
    assert_eq!(a, b, "same sequence, same state");

    // The protocol itself.
    let mut s = LossScaler::new();
    assert_eq!(s.scale, 65536.0);
    s.update(true);
    assert_eq!(s.scale, 32768.0);
    assert_eq!(s.skipped, 1);
    assert_eq!(s.good_steps, 0);
    for _ in 0..s.growth_interval {
        s.update(false);
    }
    assert_eq!(s.scale, 65536.0, "doubles after a full good streak");
    // Backoff floors at 1.0 instead of vanishing.
    for _ in 0..40 {
        s.update(true);
    }
    assert_eq!(s.scale, 1.0);
}

/// Golden trajectory: fixed seed, 20 steps over a small LiDAR stream —
/// the loss curve and final weights must be bit-identical across runs,
/// optimization levels and platforms. Regenerate the golden file with
/// `TS_UPDATE_GOLDEN=1 cargo test -q --test train_harness`.
#[test]
fn golden_trajectory_is_bit_identical() {
    let ctx = ctx();
    let cfg = TrainerConfig {
        batch_frames: 2,
        micro_batches: 2,
        ..TrainerConfig::default()
    };
    let mut t = Trainer::new(&small_net(), 1234, &ctx, cfg);
    let mut stream = LidarStream::new(lidar(), 1234).with_motion(0.3, 0.01);
    let reports = t.run_stream(&mut stream, 20).expect("20 steps");
    let run = t.train_run(reports.iter().map(|r| r.loss).collect());

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("train_trajectory.json");
    if std::env::var("TS_UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("golden dir");
        std::fs::write(
            &path,
            serde_json::to_string_pretty(&run).expect("serializes"),
        )
        .expect("writes golden");
        return;
    }
    let text = std::fs::read_to_string(&path)
        .expect("golden file missing: regenerate with TS_UPDATE_GOLDEN=1");
    let golden: TrainRun = serde_json::from_str(&text).expect("golden parses");
    assert_eq!(
        golden.losses.len(),
        run.losses.len(),
        "step count drifted from golden"
    );
    for (i, (g, r)) in golden.losses.iter().zip(&run.losses).enumerate() {
        assert_eq!(
            g.to_bits(),
            r.to_bits(),
            "loss at step {i} drifted: golden {g}, got {r}"
        );
    }
    assert_eq!(
        golden.weights_digest, run.weights_digest,
        "final weights drifted"
    );
    assert_eq!(golden.loss_scale, run.loss_scale);
    assert_eq!(golden.skipped, run.skipped);
}

/// A directory-backed schedule cache carries tuned step schedules
/// across trainer restarts: the second trainer's first step is served
/// from cache instead of cold-tuned.
#[test]
fn train_schedule_cache_warm_starts_across_runs() {
    let dir = std::env::temp_dir().join(format!("ts-train-cache-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let ctx = ctx();
    let input = batched_scene(55, 3);

    let mut first = Trainer::new(&small_net(), 55, &ctx, TrainerConfig::default())
        .with_cache_dir(&dir)
        .expect("opens cache");
    let r1 = first.step(&input).expect("step");
    assert_eq!(r1.tune_origin, "cold");

    let mut second = Trainer::new(&small_net(), 55, &ctx, TrainerConfig::default())
        .with_cache_dir(&dir)
        .expect("reopens cache");
    let r2 = second.step(&input).expect("step");
    assert!(
        r2.tune_origin == "hit" || r2.tune_origin == "warm",
        "expected cache reuse, got {}",
        r2.tune_origin
    );
    std::fs::remove_dir_all(&dir).ok();
}
