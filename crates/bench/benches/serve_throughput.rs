//! Serving throughput: the dynamic-batching server versus a single
//! serial engine on the same frame stream.
//!
//! Dynamic batching coalesces queued frames into one multi-batch
//! inference call, so per-kernel launch overheads and low-occupancy
//! small kernels are amortised across frames on the (simulated) GPU.
//! The serial baseline prices each frame as its own inference. Both
//! paths compute bit-identical features (see `tests/serving.rs`); this
//! harness measures the throughput side of that trade.
//!
//! Frames/s is reported in two clocks:
//!
//! * **simulated** — frames per second of simulated GPU time, the
//!   repo's standard latency unit and the headline comparison;
//! * **wall** — host wall-clock, which also pays the functional CPU
//!   feature math and only parallelises across workers when the host
//!   has cores to spare (CI containers often pin this to one).
//!
//! Results land in `target/repro/BENCH_serve.json` and a copy at
//! `BENCH_serve.json`.

use std::time::{Duration, Instant};

use serde_json::json;
use ts_bench::{bench_scale, print_table, write_json};
use ts_core::{Engine, GroupConfigs, SparseTensor};
use ts_dataflow::{DataflowConfig, ExecCtx};
use ts_gpusim::Device;
use ts_serve::{ServeConfig, Server};
use ts_tensor::Precision;
use ts_workloads::Workload;

const WORKERS: usize = 4;
const MAX_BATCH: usize = 4;
const STREAMS: u64 = 4;
const FRAMES_PER_STREAM: u64 = 3;

fn main() {
    let workload = Workload::NuScenesMinkUNet1f;
    // The serving paths run the *functional* feature math on the host,
    // which is far costlier than pricing-only simulation; scale the
    // scenes down accordingly so the bench stays interactive.
    let scale = bench_scale() * 0.15;
    let device = Device::rtx3090();
    let ctx = ExecCtx::functional(device.clone(), Precision::Fp16);
    let net = workload.network();
    let engine = Engine::new(
        net.clone(),
        net.init_weights(7),
        GroupConfigs::uniform(DataflowConfig::implicit_gemm(1)),
        ctx,
    );

    // Pre-generate every frame so neither path pays ray-casting time.
    let frames: Vec<(u64, SparseTensor)> = (0..STREAMS)
        .flat_map(|s| {
            workload
                .stream_scaled(100 + s, scale)
                .take(FRAMES_PER_STREAM as usize)
                .map(move |scene| (s, scene.into_tensor()))
        })
        .collect();
    let n_frames = frames.len() as u64;
    let mean_points = frames.iter().map(|(_, f)| f.num_points()).sum::<usize>() / frames.len();

    // --- Serial baseline: one engine, one frame per inference --------
    let serial_start = Instant::now();
    let mut serial_sim_us = 0.0;
    for (_, frame) in &frames {
        let (_, report) = engine.infer(frame);
        serial_sim_us += report.total_us();
    }
    let serial_wall_s = serial_start.elapsed().as_secs_f64();
    let serial_sim_per_frame = serial_sim_us / n_frames as f64;

    // --- Batched server at 4 workers ----------------------------------
    let server = Server::new(
        engine,
        ServeConfig::default()
            .with_workers(WORKERS)
            .with_max_batch(MAX_BATCH)
            .with_max_wait(Duration::from_millis(20))
            .with_queue_capacity(256)
            .with_default_deadline(Duration::from_secs(600)),
    );
    let serve_start = Instant::now();
    let handles: Vec<_> = frames
        .iter()
        .map(|(s, f)| server.submit(*s, f.clone()).expect("admitted"))
        .collect();
    for h in handles {
        h.wait().expect("served");
    }
    let serve_wall_s = serve_start.elapsed().as_secs_f64();
    let report = server.shutdown();
    assert_eq!(report.completed, n_frames, "every frame must be served");
    let serve_sim_per_frame = report.sim_us_total / n_frames as f64;

    let serial_fps_sim = 1e6 / serial_sim_per_frame;
    let serve_fps_sim = 1e6 / serve_sim_per_frame;
    let speedup_sim = serve_fps_sim / serial_fps_sim;
    let serial_fps_wall = n_frames as f64 / serial_wall_s;
    let serve_fps_wall = n_frames as f64 / serve_wall_s;
    let overall = &report.overall;

    print_table(
        &format!(
            "Serving throughput ({} @ scale {scale:.3}, ~{mean_points} voxels/frame, {} on {})",
            workload.name(),
            "FP16",
            device.name
        ),
        &["path", "sim us/frame", "sim fps", "wall fps"],
        &[
            vec![
                "serial engine".into(),
                format!("{serial_sim_per_frame:.1}"),
                format!("{serial_fps_sim:.1}"),
                format!("{serial_fps_wall:.2}"),
            ],
            vec![
                format!("server ({WORKERS} workers, batch {MAX_BATCH})"),
                format!("{serve_sim_per_frame:.1}"),
                format!("{serve_fps_sim:.1}"),
                format!("{serve_fps_wall:.2}"),
            ],
        ],
    );
    println!(
        "simulated-GPU throughput speedup: {speedup_sim:.2}x  (wall: {:.2}x on this host)",
        serve_fps_wall / serial_fps_wall
    );
    println!(
        "SLO: wall p50 {:.1} ms, p99 {:.1} ms, deadline-miss rate {:.1}%",
        overall.quantile_us(0.50) / 1e3,
        overall.quantile_us(0.99) / 1e3,
        report.deadline_miss_rate() * 100.0
    );

    let record = json!({
        "workload": "NuScenesMinkUNet1f",
        "device": device.name,
        "precision": "fp16",
        "scale": scale,
        "frames": n_frames,
        "streams": STREAMS,
        "mean_points_per_frame": mean_points,
        "workers": WORKERS,
        "max_batch": MAX_BATCH,
        "serial_sim_us_per_frame": serial_sim_per_frame,
        "serial_fps_sim": serial_fps_sim,
        "serial_fps_wall": serial_fps_wall,
        "serve_sim_us_per_frame": serve_sim_per_frame,
        "serve_fps_sim": serve_fps_sim,
        "serve_fps_wall": serve_fps_wall,
        "speedup_fps_sim": speedup_sim,
        "speedup_fps_wall": serve_fps_wall / serial_fps_wall,
        "wall_p50_ms": overall.quantile_us(0.50) / 1e3,
        "wall_p90_ms": overall.quantile_us(0.90) / 1e3,
        "wall_p99_ms": overall.quantile_us(0.99) / 1e3,
        "deadline_miss_rate": report.deadline_miss_rate(),
        "deadline_misses": report.deadline_misses,
        "shed_deadline": report.shed_deadline,
        "rejected_queue_full": report.rejected_queue_full,
        "batch_sizes": report.batch_sizes.iter()
            .map(|b| json!({"size": b.value, "count": b.count}))
            .collect::<Vec<_>>(),
    });
    write_json("BENCH_serve", &record);
    let root_copy = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    match serde_json::to_string_pretty(&record) {
        Ok(s) => {
            if let Err(e) = std::fs::write(root_copy, s) {
                eprintln!("warning: could not write {root_copy}: {e}");
            }
        }
        Err(e) => eprintln!("warning: could not serialize BENCH_serve record: {e}"),
    }

    assert!(
        speedup_sim >= 2.0,
        "dynamic batching must at least double simulated-GPU frames/s over the serial engine (got {speedup_sim:.2}x)"
    );
}
