//! Telemetry overhead: the same serving run with live telemetry off
//! versus on, plus a microbenchmark of the hot observation path.
//!
//! The obs design claim is near-zero steady-state cost: each serve
//! event is folded once, under the server's one metrics lock, into the
//! report, the counters and (with obs on) the rolling windows and a
//! bounded ring, so enabling [`ts_serve::ServeConfig::with_obs`] must
//! not change what the server computes and must not meaningfully slow
//! it down. Both
//! runs use one worker and batch size 1, so the batch schedule — and
//! therefore every simulated-GPU microsecond — is identical by
//! construction; any divergence in `fps_sim_ratio` is a behavioural
//! regression, which is why the gate holds it to the standard ±20%
//! band around 1.0 (and this harness itself asserts the ≤5% SLO).
//! Wall-clock overhead is reported but never gated (CI jitter).
//!
//! Results land in `target/repro/BENCH_obs.json` and a copy at
//! `BENCH_obs.json`.

use std::time::{Duration, Instant};

use serde_json::json;
use ts_bench::{bench_scale, print_table, write_json};
use ts_core::{Engine, GroupConfigs, SparseTensor};
use ts_dataflow::{DataflowConfig, ExecCtx};
use ts_gpusim::Device;
use ts_serve::{ObsConfig, ObsEvent, ServeConfig, ServeRecord, Server};
use ts_tensor::Precision;
use ts_workloads::Workload;

const STREAMS: u64 = 4;
const FRAMES_PER_STREAM: u64 = 3;

fn engine(workload: Workload, scale: f32) -> (Engine, Vec<(u64, SparseTensor)>) {
    let net = workload.network();
    let engine = Engine::new(
        net.clone(),
        net.init_weights(7),
        GroupConfigs::uniform(DataflowConfig::implicit_gemm(1)),
        ExecCtx::functional(Device::rtx3090(), Precision::Fp16),
    );
    let frames = (0..STREAMS)
        .flat_map(|s| {
            workload
                .stream_scaled(300 + s, scale)
                .take(FRAMES_PER_STREAM as usize)
                .map(move |scene| (s, scene.into_tensor()))
        })
        .collect();
    (engine, frames)
}

/// One serving run; returns `(sim_us_total, wall_s, completed)`.
fn run(engine: Engine, frames: &[(u64, SparseTensor)], obs: Option<ObsConfig>) -> (f64, f64, u64) {
    let mut cfg = ServeConfig::default()
        .with_workers(1)
        .with_max_batch(1)
        .with_max_wait(Duration::from_millis(1))
        .with_queue_capacity(256)
        .with_default_deadline(Duration::from_secs(600));
    if let Some(o) = obs {
        cfg = cfg.with_obs(o);
    }
    let server = Server::new(engine, cfg);
    let start = Instant::now();
    let handles: Vec<_> = frames
        .iter()
        .map(|(s, f)| server.submit(*s, f.clone()).expect("admitted"))
        .collect();
    for h in handles {
        h.wait().expect("served");
    }
    let wall_s = start.elapsed().as_secs_f64();
    let report = server.shutdown();
    (report.sim_us_total, wall_s, report.completed)
}

fn main() {
    let workload = Workload::NuScenesMinkUNet1f;
    let scale = bench_scale() * 0.15;
    let n_frames = STREAMS * FRAMES_PER_STREAM;

    let (e_off, frames) = engine(workload, scale);
    let (off_sim_us, off_wall_s, off_done) = run(e_off, &frames, None);
    let (e_on, _) = engine(workload, scale);
    let (on_sim_us, on_wall_s, on_done) = run(e_on, &frames, Some(ObsConfig::default()));
    assert_eq!(off_done, n_frames);
    assert_eq!(on_done, n_frames);

    let off_fps_sim = n_frames as f64 / off_sim_us * 1e6;
    let on_fps_sim = n_frames as f64 / on_sim_us * 1e6;
    let fps_sim_ratio = on_fps_sim / off_fps_sim;
    let wall_overhead_pct = (on_wall_s / off_wall_s - 1.0) * 100.0;

    // Hot-path microbenchmark: the full per-completion fold with obs on
    // (report, windows, stream window, SLO wheel), off the serving loop
    // so the number isn't buried in inference cost.
    let mut record = ServeRecord::new(true);
    const OPS: u64 = 200_000;
    let t0 = Instant::now();
    for i in 0..OPS {
        let event = ObsEvent::Completed {
            stream: i % STREAMS,
            latency_us: (100 + i % 400) as f64,
            missed: i % 97 == 0,
        };
        record.record(event, |_, _| {});
    }
    let ns_per_completion = t0.elapsed().as_nanos() as f64 / OPS as f64;

    print_table(
        &format!(
            "Telemetry overhead ({} @ scale {scale:.3}, 1 worker, batch 1)",
            workload.name()
        ),
        &["path", "sim fps", "wall s"],
        &[
            vec![
                "obs off".into(),
                format!("{off_fps_sim:.1}"),
                format!("{off_wall_s:.3}"),
            ],
            vec![
                "obs on".into(),
                format!("{on_fps_sim:.1}"),
                format!("{on_wall_s:.3}"),
            ],
        ],
    );
    println!(
        "simulated-fps ratio (on/off): {fps_sim_ratio:.4}  wall overhead: {wall_overhead_pct:+.1}% \
         (ungated)  hot path: {ns_per_completion:.0} ns/completion"
    );

    let record = json!({
        "workload": "NuScenesMinkUNet1f",
        "scale": scale,
        "frames": n_frames,
        "streams": STREAMS,
        "off_sim_us_per_frame": off_sim_us / n_frames as f64,
        "on_sim_us_per_frame": on_sim_us / n_frames as f64,
        "off_fps_sim": off_fps_sim,
        "on_fps_sim": on_fps_sim,
        "fps_sim_ratio": fps_sim_ratio,
        "off_wall_s": off_wall_s,
        "on_wall_s": on_wall_s,
        "wall_overhead_pct": wall_overhead_pct,
        "ns_per_completion": ns_per_completion,
    });
    write_json("BENCH_obs", &record);
    let root_copy = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_obs.json");
    match serde_json::to_string_pretty(&record) {
        Ok(s) => {
            if let Err(e) = std::fs::write(root_copy, s) {
                eprintln!("warning: could not write {root_copy}: {e}");
            }
        }
        Err(e) => eprintln!("warning: could not serialize BENCH_obs record: {e}"),
    }

    assert!(
        fps_sim_ratio >= 0.95,
        "telemetry must cost <=5% simulated fps (got ratio {fps_sim_ratio:.4})"
    );
}
