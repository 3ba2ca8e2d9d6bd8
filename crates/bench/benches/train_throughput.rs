//! End-to-end training throughput: the fused step pipeline with a
//! device-bound tuned schedule versus the all-bound SpConv v2
//! baseline — the paper's "1.2-1.3x faster mixed-precision training
//! than SpConv v2" claim.
//!
//! The trainer compiles each step once — kernel maps (patched
//! incrementally across temporally coherent frames), a tuned
//! per-family `TrainConfigs` schedule pulled through the
//! training-schedule cache, and a simulated per-phase cost — then runs
//! `micro_batches` accumulation passes through it. "Bound" is the full
//! paper pipeline: FP16 mixed precision with loss scaling and the step
//! schedule tuned over the full dataflow space under the binding
//! scheme auto-chosen for the device class. "Unbound" is the SpConv v2
//! baseline from `ts_baselines::System::SpConvV2`: the same FP16+AMP
//! precision, but all three kernel families bound to one config tuned
//! within SpConv's restricted space (sorted implicit GEMM, splits
//! {1, 2}), the 1.15x kernel-efficiency gap the paper measures
//! against SpConv's kernels at identical dataflow parameters
//! (Figure 23), and — like the real system — a full kernel-map
//! rebuild every iteration (no temporal reuse). Both train over the
//! identical frame stream; the gap is the paper's 1.2-1.3x
//! mixed-precision training speedup shape on at least one device
//! class.
//!
//! Results land in `target/repro/BENCH_train.json` and a copy at
//! `BENCH_train.json` (gated by `bench_gate` at +/-20%).

use serde_json::json;
use ts_autotune::{BindingScheme, TunerOptions};
use ts_baselines::System;
use ts_bench::{bench_scale, paper_check, print_table, write_json};
use ts_dataflow::ExecCtx;
use ts_gpusim::Device;
use ts_kernelmap::DeltaConfig;
use ts_tensor::Precision;
use ts_train::{StepReport, Trainer, TrainerConfig};
use ts_workloads::{LidarConfig, LidarStream, Workload};

const STEPS: usize = 5;
const SEED: u64 = 77;
const WORKLOAD: Workload = Workload::SemanticKittiMinkUNet05;

/// Densely sampled sensor (cf. `stream_reuse`): temporal map reuse
/// needs several rays per surface voxel, so a small ego shift re-hits
/// the same voxels instead of reshuffling them. Deterministic geometry
/// (no dropout) keeps churn a function of motion alone.
fn lidar_cfg() -> LidarConfig {
    LidarConfig {
        beams: 48,
        azimuth_steps: 480,
        elevation_min_deg: -25.0,
        elevation_max_deg: 3.0,
        max_range_m: 40.0,
        voxel_size_m: 0.3,
        obstacles: 8,
        dropout: 0.0,
    }
}

struct DeviceResult {
    device: String,
    scheme: &'static str,
    bound_step_us: f64,
    unbound_step_us: f64,
    ratio: f64,
    schedule_gain: f64,
    map_us: f64,
    patched: u64,
    losses_finite: bool,
}

/// Trains `STEPS` steps over the deterministic stream and returns the
/// reports plus the trainer's patched-frame count.
fn train(net: &ts_core::Network, ctx: &ExecCtx, cfg: TrainerConfig) -> (Vec<StepReport>, u64) {
    let mut trainer = Trainer::new(net, SEED, ctx, cfg);
    let mut stream =
        LidarStream::new(lidar_cfg().scaled(bench_scale() / 0.35), SEED).with_motion(0.05, 0.0);
    let reports = trainer
        .run_stream(&mut stream, STEPS)
        .expect("training steps run");
    let patched = trainer.stream_state().map_or(0, |s| s.patched());
    (reports, patched)
}

/// Mean simulated step latency over the steady-state steps (the
/// seeding step pays the cold tune and the full map build; the regime
/// a training loop lives in is the patched one).
fn steady_step_us(reports: &[StepReport]) -> f64 {
    let steady = &reports[1..];
    steady.iter().map(|r| r.sim.step_us()).sum::<f64>() / steady.len() as f64
}

fn run_device(device: Device) -> DeviceResult {
    let net = WORKLOAD.network();

    // Bound: FP16 + dynamic loss scaling, schedule tuned under the
    // device class's binding scheme (the trainer's defaults).
    let bound_ctx = ExecCtx::simulate(device.clone(), Precision::Fp16);
    let bound_cfg = TrainerConfig {
        batch_frames: 2,
        micro_batches: 2,
        ..TrainerConfig::default()
    };
    let scheme = Trainer::new(&net, SEED, &bound_ctx, bound_cfg.clone())
        .scheme()
        .name();
    let (bound, patched) = train(&net, &bound_ctx, bound_cfg);

    // Unbound baseline: SpConv v2 mixed-precision training — the same
    // FP16+AMP, but all kernel families bound to one config from the
    // restricted {ig1, ig2} space, the Figure 23 kernel-efficiency
    // gap folded into the context, and (like the real system) no
    // temporal kernel-map reuse: churn_threshold 0 forces a full map
    // rebuild every step.
    let unbound_ctx = System::SpConvV2.ctx(device.clone(), Precision::Fp16);
    let unbound_cfg = TrainerConfig {
        batch_frames: 2,
        micro_batches: 2,
        scheme: Some(BindingScheme::AllBound),
        tuner: TunerOptions::spconv_v2(),
        delta: DeltaConfig {
            churn_threshold: 0.0,
        },
        ..TrainerConfig::default()
    };
    let (unbound, _) = train(&net, &unbound_ctx, unbound_cfg);

    let bound_step_us = steady_step_us(&bound);
    let unbound_step_us = steady_step_us(&unbound);
    // How much of the gain the tuned schedule contributes at equal
    // precision (each step also prices its own unbound default).
    let steady = &bound[1..];
    let schedule_gain = steady
        .iter()
        .map(|r| r.unbound_sim.step_us() / r.sim.step_us())
        .sum::<f64>()
        / steady.len() as f64;

    DeviceResult {
        device: device.name,
        scheme,
        bound_step_us,
        unbound_step_us,
        ratio: unbound_step_us / bound_step_us,
        schedule_gain,
        map_us: steady.iter().map(|r| r.sim.map_us).sum::<f64>() / steady.len() as f64,
        patched,
        losses_finite: bound.iter().chain(&unbound).all(|r| r.loss.is_finite()),
    }
}

fn main() {
    // Orin is the device class where the enlarged design space pays
    // most (Figure 18: fetch-on-demand and implicit GEMM are
    // complementary on low-parallelism parts), so it carries the
    // paper's 1.2-1.3x headline; the cloud GPUs sit nearer the 1.15x
    // kernel-efficiency floor.
    let results: Vec<DeviceResult> = [Device::a100(), Device::rtx2080ti(), Device::jetson_orin()]
        .into_iter()
        .map(run_device)
        .collect();

    print_table(
        &format!(
            "Mixed-precision training throughput: TorchSparse++ (tuned per-device \
             binding) vs SpConv v2 (all-bound, restricted space) \
             (SK-M 0.5x, FP16+AMP both, batch 2, 2 micro-batches, scale {:.2})",
            bench_scale()
        ),
        &[
            "device",
            "scheme",
            "step us (bound)",
            "step us (unbound)",
            "throughput gain",
            "schedule gain",
            "map us",
            "patched",
        ],
        &results
            .iter()
            .map(|r| {
                vec![
                    r.device.clone(),
                    r.scheme.to_owned(),
                    format!("{:.1}", r.bound_step_us),
                    format!("{:.1}", r.unbound_step_us),
                    format!("{:.2}x", r.ratio),
                    format!("{:.2}x", r.schedule_gain),
                    format!("{:.1}", r.map_us),
                    format!("{}/{}", r.patched, STEPS as u64 - 1),
                ]
            })
            .collect::<Vec<_>>(),
    );

    let best = results
        .iter()
        .max_by(|a, b| a.ratio.total_cmp(&b.ratio))
        .expect("at least one device");
    paper_check(
        "mixed-precision training throughput vs SpConv v2",
        "1.2-1.3x on at least one device class",
        &format!("{} -> {:.2}x", best.device, best.ratio),
    );

    for r in &results {
        assert!(r.losses_finite, "{}: training losses diverged", r.device);
        assert!(
            r.patched >= STEPS as u64 - 2,
            "{}: temporal map reuse collapsed ({} patched of {})",
            r.device,
            r.patched,
            STEPS - 1
        );
    }
    assert!(
        (1.20..=1.35).contains(&best.ratio),
        "bound-vs-unbound throughput lost the paper's 1.2-1.3x shape \
         (best {:.2}x on {})",
        best.ratio,
        best.device
    );

    let record = json!({
        "workload": WORKLOAD.name(),
        "steps": STEPS,
        "scale": bench_scale(),
        "seed": SEED,
        "bound": "torchsparse++: fp16+amp, full space tuned under device binding scheme",
        "unbound": "spconv v2: fp16+amp, all-bound restricted {ig1,ig2} space, 1.15x kernel gap, map rebuilt per step",
        // Gated simulated metrics (deterministic given seed + cost model).
        "bound_step_us_a100": results[0].bound_step_us,
        "unbound_step_us_a100": results[0].unbound_step_us,
        "bound_vs_unbound_a100": results[0].ratio,
        "bound_vs_unbound_2080ti": results[1].ratio,
        "bound_vs_unbound_orin": results[2].ratio,
        "best_bound_vs_unbound": best.ratio,
        "devices": results.iter().map(|r| json!({
            "device": r.device,
            "scheme": r.scheme,
            "bound_step_us": r.bound_step_us,
            "unbound_step_us": r.unbound_step_us,
            "bound_vs_unbound": r.ratio,
            "schedule_gain": r.schedule_gain,
            "map_us": r.map_us,
            "frames_patched": r.patched,
        })).collect::<Vec<_>>(),
    });
    write_json("BENCH_train", &record);
    let root_copy = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_train.json");
    match serde_json::to_string_pretty(&record) {
        Ok(s) => {
            if let Err(e) = std::fs::write(root_copy, s) {
                eprintln!("warning: could not write {root_copy}: {e}");
            }
        }
        Err(e) => eprintln!("warning: could not serialize BENCH_train record: {e}"),
    }
}
