//! Deployment loop: tune a schedule once into a schedule store, boot a
//! serving pool from the reopened store, and stream temporally-coherent
//! LiDAR frames from several concurrent "vehicles" against latency
//! deadlines.
//!
//! ```sh
//! cargo run --release --example serve_lidar_stream
//! ```

use std::time::Duration;

use torchsparse::autotune::TunerOptions;
use torchsparse::cache::{tune_cached, warm_boot, BootOrigin, DriftPolicy, ScheduleCache};
use torchsparse::core::Session;
use torchsparse::dataflow::ExecCtx;
use torchsparse::gpusim::Device;
use torchsparse::serve::{ServeConfig, Server};
use torchsparse::tensor::Precision;
use torchsparse::workloads::Workload;

fn main() {
    let workload = Workload::NuScenesMinkUNet1f;
    let scale = 0.08;
    let device = Device::rtx3090();
    let policy = DriftPolicy::default();

    // --- Tune once, into a directory-backed schedule store -------------
    let net = workload.network();
    let tuning_scene = workload.scene_scaled(1, scale);
    let sessions = [Session::new(&net, tuning_scene.coords())];
    let sim_ctx = ExecCtx::simulate(device.clone(), Precision::Fp16);
    let store_dir = std::env::temp_dir().join("torchsparse_lidar_store");
    let _ = std::fs::remove_dir_all(&store_dir);
    let mut store = ScheduleCache::open(&store_dir).expect("create schedule store");
    let tuned = tune_cached(
        &mut store,
        &sessions,
        &sim_ctx,
        &TunerOptions::default(),
        &policy,
    )
    .expect("store write");
    let result = &tuned.result;
    println!(
        "tuned {} on {}: {:.2} ms -> {:.2} ms ({:.2}x)",
        workload.name(),
        device.name,
        result.default_latency_us / 1e3,
        result.tuned_latency_us / 1e3,
        result.speedup()
    );
    println!("schedule entry {} in {}", tuned.digest, store_dir.display());

    // --- Boot from the reopened store, as a restarted server would -----
    let mut store = ScheduleCache::open(&store_dir).expect("reopen schedule store");
    let weights = net.init_weights(7);
    let (engine, boot) = warm_boot(
        &mut store,
        net,
        weights,
        ExecCtx::functional(device.clone(), Precision::Fp16),
        tuning_scene.coords(),
        &policy,
    );
    assert_eq!(boot.origin, BootOrigin::Cached);

    // --- Serve concurrent sensor streams -------------------------------
    // The functional path computes real features on the CPU, so wall
    // latencies here are seconds, not the simulated GPU microseconds;
    // streams therefore run without a default deadline and the SLO
    // machinery is demonstrated explicitly below.
    let streams = 3u64;
    let frames_per_stream = 4u64;
    let server = Server::new(
        engine,
        ServeConfig::default()
            .with_workers(2)
            .with_max_batch(4)
            .with_max_wait(Duration::from_millis(4))
            .with_queue_capacity(32),
    );

    let mut handles = Vec::new();
    for s in 0..streams {
        let mut stream = workload.stream_scaled(40 + s, scale);
        for _ in 0..frames_per_stream {
            let frame = stream.next_frame().into_tensor();
            match server.submit(s, frame) {
                Ok(h) => handles.push((s, h)),
                Err(rej) => println!("stream {s}: rejected ({rej})"),
            }
        }
    }

    // One request with an already-hopeless deadline: the server sheds
    // it unexecuted instead of wasting a worker on a stale frame.
    let stale = workload.stream_scaled(99, scale).next_frame().into_tensor();
    match server
        .submit_with_deadline(99, stale, Some(Duration::from_millis(1)))
        .expect("admitted")
        .wait()
    {
        Err(rej) => println!("stale frame: {rej}"),
        Ok(_) => println!("stale frame: served anyway"),
    }

    for (s, h) in handles {
        match h.wait() {
            Ok(resp) => println!(
                "stream {s}: {:>6} voxels out, batch of {}, {:>7.2} ms wall ({:>6.2} ms queued), {:>7.2} ms simulated{}",
                resp.output.num_points(),
                resp.batch_size,
                resp.latency.as_secs_f64() * 1e3,
                resp.queue_wait.as_secs_f64() * 1e3,
                resp.sim_us / 1e3,
                if resp.missed_deadline { "  [SLO MISS]" } else { "" },
            ),
            Err(rej) => println!("stream {s}: dropped ({rej})"),
        }
    }

    // --- SLO report -----------------------------------------------------
    let report = server.shutdown();
    println!(
        "\nserved {} frames at {:.1} frames/s wall; {} queue-full, {} shed, {} late (miss rate {:.1}%)",
        report.completed,
        report.throughput_fps,
        report.rejected_queue_full,
        report.shed_deadline,
        report.deadline_misses,
        report.deadline_miss_rate() * 100.0
    );
    for s in &report.streams {
        println!(
            "stream {}: p50 {:>7.2} ms   p90 {:>7.2} ms   p99 {:>7.2} ms   ({} frames)",
            s.stream,
            s.latency.quantile_us(0.50) / 1e3,
            s.latency.quantile_us(0.90) / 1e3,
            s.latency.quantile_us(0.99) / 1e3,
            s.latency.count
        );
    }
    print!("batch sizes:");
    for b in &report.batch_sizes {
        print!("  {}x{}", b.count, b.value);
    }
    println!();
}
