//! Resilient deployment: boot a server leniently from a damaged
//! schedule artifact (degraded mode on the safe fallback dataflow) and
//! serve frames through it.
//!
//! The fleet-rollout story behind this: a tuned schedule is pushed to
//! thousands of vehicles; some copies arrive truncated or were tuned
//! for the wrong device. Refusing to serve would ground the vehicle —
//! instead the engine boots degraded, the report says so, and the
//! operator retunes at leisure (see OPERATIONS.md).
//!
//! ```sh
//! cargo run --release --example serve_resilience
//! ```

use std::time::Duration;

use torchsparse::autotune::{tune_inference, TunerOptions};
use torchsparse::core::{Engine, Session};
use torchsparse::dataflow::ExecCtx;
use torchsparse::gpusim::Device;
use torchsparse::serve::{ServeConfig, Server};
use torchsparse::tensor::Precision;
use torchsparse::workloads::Workload;

fn main() {
    let workload = Workload::NuScenesMinkUNet1f;
    let device = Device::rtx3090();
    let net = workload.network();

    // --- Tune and persist, as usual ------------------------------------
    let tuning_scene = workload.scene_scaled(1, 0.06);
    let session = Session::new(&net, tuning_scene.coords());
    let sim_ctx = ExecCtx::simulate(device.clone(), Precision::Fp16);
    let result = tune_inference(
        std::slice::from_ref(&session),
        &sim_ctx,
        &TunerOptions::default(),
    );
    let ctx = ExecCtx::functional(device.clone(), Precision::Fp16);
    let weights = net.init_weights(7);
    let tuned = Engine::new(
        net.clone(),
        weights.clone(),
        result
            .group_configs()
            .expect("tuner yields configs")
            .clone(),
        ctx.clone(),
    );
    let artifact_json = tuned
        .save_schedule()
        .with_tuned_latency(result.tuned_latency_us)
        .to_json()
        .expect("artifact serializes");

    // --- The rollout delivers a damaged copy ---------------------------
    let damaged = &artifact_json[..artifact_json.len() / 2];
    let engine = Engine::load_schedule_lenient(net, weights, damaged, ctx);
    println!(
        "lenient boot: degraded={} ({} downgrade(s))",
        engine.is_degraded(),
        engine.downgrades().len()
    );
    for d in engine.downgrades() {
        println!("  downgrade: {d}");
    }

    // --- Serve on the degraded engine -----------------------------------
    let server = Server::new(
        engine,
        ServeConfig::default()
            .with_workers(2)
            .with_max_batch(4)
            .with_max_wait(Duration::from_millis(2))
            .with_queue_capacity(32),
    );
    let mut degraded_responses = 0u64;
    for i in 0..12u64 {
        let frame = workload.scene_scaled(100 + i, 0.02);
        match server.submit(i % 3, frame).and_then(|h| h.wait()) {
            Ok(resp) => {
                if resp.degraded {
                    degraded_responses += 1;
                }
                println!(
                    "frame {i:2}: served in {:>7.1?} (batch of {}, degraded={})",
                    resp.latency, resp.batch_size, resp.degraded
                );
            }
            Err(e) => println!("frame {i:2}: {e} (retryable: {})", e.retryable()),
        }
    }

    let report = server.shutdown();
    println!(
        "completed={} schedule_downgrades={} saw_faults={}",
        report.completed,
        report.schedule_downgrades,
        report.saw_faults()
    );
    assert_eq!(degraded_responses, report.completed);
    println!("degraded mode served every frame; retune to recover the speedup");
}
