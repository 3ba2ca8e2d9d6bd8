//! The full Sparse Autotuner workflow: tune inference over several
//! sample scenes, inspect per-group choices, tune training with every
//! binding scheme, then persist the schedule as a schedule-store entry
//! and boot an engine from it (real deployments reuse one tuned
//! schedule for millions of scenes).
//!
//! ```sh
//! cargo run --release --example autotune_workflow
//! ```

use torchsparse::autotune::{tune_inference, tune_training, BindingScheme, TunerOptions};
use torchsparse::cache::{tune_cached, warm_boot, DriftPolicy, ScheduleCache};
use torchsparse::core::Session;
use torchsparse::dataflow::ExecCtx;
use torchsparse::gpusim::Device;
use torchsparse::tensor::Precision;
use torchsparse::workloads::Workload;

fn main() {
    let workload = Workload::NuScenesMinkUNet1f;
    let net = workload.network();

    // The paper tunes on a random subset of scenes (e.g. 100 Waymo
    // frames); three samples suffice to show the workflow.
    let scenes: Vec<_> = (0..3)
        .map(|i| workload.scene_scaled(100 + i, 0.2))
        .collect();
    let sessions: Vec<Session> = scenes
        .iter()
        .map(|scene| Session::new(&net, scene.coords()))
        .collect();
    println!(
        "{}: tuning over {} sample scenes, {} layer groups",
        workload.name(),
        sessions.len(),
        sessions[0].groups().len()
    );

    // --- inference tuning across design spaces -------------------------
    let device = Device::rtx3090();
    let ctx = ExecCtx::simulate(device.clone(), Precision::Fp16);
    for (label, opts) in [
        ("SpConv v2 space (splits 1-2)", TunerOptions::spconv_v2()),
        ("TorchSparse++ full space", TunerOptions::default()),
    ] {
        let r = tune_inference(&sessions, &ctx, &opts);
        println!(
            "\n{label}: {:.2} -> {:.2} ms ({} evaluations)",
            r.default_latency_us / 1e3,
            r.tuned_latency_us / 1e3,
            r.evaluations
        );
        for (key, cfg) in &r.per_group_choice {
            println!(
                "    stride {:>2}->{:<2} k{} -> {}",
                key.lo_stride, key.hi_stride, key.kernel_size, cfg
            );
        }
    }

    // --- training tuning with every binding scheme ----------------------
    let batch = workload.batch_scaled(7, 0.2, 2);
    let train_session = Session::new(&net, batch.coords());
    for device in [Device::a100(), Device::rtx2080ti()] {
        let ctx = ExecCtx::simulate(device.clone(), Precision::Fp16);
        println!(
            "\ntraining binding schemes on {} (batch 2, AMP):",
            device.name
        );
        for scheme in BindingScheme::ALL {
            let r = tune_training(
                std::slice::from_ref(&train_session),
                &ctx,
                &TunerOptions::default(),
                scheme,
            );
            println!(
                "  {:<24} {:>8.2} ms  ({} evaluations)",
                scheme.name(),
                r.tuned_latency_us / 1e3,
                r.evaluations
            );
        }
        println!(
            "  paper-recommended scheme for {}: {}",
            device.name,
            torchsparse::autotune::default_scheme_for(&device).name()
        );
    }

    // --- persist the tuned schedule and boot from it ------------------
    // A tuned schedule persists as an entry of a content-addressed
    // schedule store; a server boots its engine from the store.
    let store_dir = std::env::temp_dir().join("torchsparse_autotune_store");
    let _ = std::fs::remove_dir_all(&store_dir);
    let mut cache = ScheduleCache::open(&store_dir).expect("create schedule store");
    let (opts, policy) = (TunerOptions::default(), DriftPolicy::default());
    let tuned = tune_cached(&mut cache, &sessions, &ctx, &opts, &policy).expect("store write");
    println!(
        "\ntuned schedule stored as entry {} in {} ({:?})",
        tuned.digest,
        store_dir.display(),
        tuned.origin
    );
    let (engine, boot) = warm_boot(
        &mut cache,
        net.clone(),
        net.init_weights(0),
        ctx.clone(),
        scenes[0].coords(),
        &policy,
    );
    println!(
        "engine booted from the store: {:?} (degraded: {})",
        boot.origin,
        engine.is_degraded()
    );
}
