//! Resilient deployment: boot a server from a damaged stored schedule
//! (degraded mode: the damaged slot runs the safe fallback dataflow)
//! and serve frames through it.
//!
//! The fleet-rollout story behind this: a tuned schedule is pushed to
//! thousands of vehicles; some copies arrive with a corrupted config.
//! Refusing to serve would ground the vehicle — instead the engine
//! boots degraded, the report says so, and the operator retunes at
//! leisure (see OPERATIONS.md).
//!
//! ```sh
//! cargo run --release --example serve_resilience
//! ```

use std::time::Duration;

use torchsparse::autotune::TunerOptions;
use torchsparse::cache::{tune_cached, warm_boot, DriftPolicy, ScheduleCache};
use torchsparse::core::Session;
use torchsparse::dataflow::{DataflowConfig, ExecCtx, MAX_SPLITS};
use torchsparse::gpusim::Device;
use torchsparse::serve::{ServeConfig, Server};
use torchsparse::tensor::Precision;
use torchsparse::workloads::Workload;

fn main() {
    let workload = Workload::NuScenesMinkUNet1f;
    let device = Device::rtx3090();
    let net = workload.network();
    let policy = DriftPolicy::default();

    // --- Tune into the schedule store, as usual -------------------------
    let tuning_scene = workload.scene_scaled(1, 0.06);
    let sessions = [Session::new(&net, tuning_scene.coords())];
    let sim_ctx = ExecCtx::simulate(device.clone(), Precision::Fp16);
    let mut store = ScheduleCache::in_memory();
    let tuned = tune_cached(
        &mut store,
        &sessions,
        &sim_ctx,
        &TunerOptions::default(),
        &policy,
    )
    .expect("in-memory store");

    // --- The rollout delivers a damaged copy ---------------------------
    // One group's split count arrives out of range.
    let mut entry = store.get(&tuned.digest).expect("tuned entry").clone();
    entry
        .configs
        .set(0, DataflowConfig::implicit_gemm(MAX_SPLITS + 1));
    store.insert(entry).expect("in-memory store");
    let weights = net.init_weights(7);
    let (engine, boot) = warm_boot(
        &mut store,
        net,
        weights,
        ExecCtx::functional(device, Precision::Fp16),
        tuning_scene.coords(),
        &policy,
    );
    println!("boot origin: {:?}", boot.origin);
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
