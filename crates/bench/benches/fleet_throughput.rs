//! Fleet scaling bench: simulated throughput of a sharded,
//! heterogeneous serving fleet at 1/2/4/8 nodes, plus an 8-node run
//! that loses (and later recovers) a node mid-trace.
//!
//! Everything here runs on [`ts_fleet::FleetSim`] — virtual per-node
//! clocks whose service times are the engines' *simulated* GPU costs —
//! so every reported number is a deterministic function of the seeds
//! and the gate can hold them to ±20%.
//!
//! Method: a calibration burst first measures the simulated capacity of
//! one Standard node (RTX 3090, the paper's main evaluation GPU). The
//! main trace then arrives open-loop at 6.7x that capacity: the single
//! node drowns (its throughput is its capacity), while the 8-node
//! heterogeneous fleet (3x A100, 3x RTX 3090, 2x Jetson Orin) keeps up
//! and serves at the arrival rate — so the throughput ratio reflects
//! real capacity scaling, and the fleet's latency SLOs are meaningful.
//!
//! Results land in `target/repro/BENCH_fleet.json` and a copy at
//! `BENCH_fleet.json`.

use serde_json::json;
use ts_bench::{bench_scale, print_table, write_json};
use ts_core::{Network, NetworkBuilder};
use ts_fleet::{
    frame_bank, heterogeneous_specs, DeviceTier, FleetSim, KillEvent, NodeSpec, RouterConfig,
    SimConfig, SimReport,
};
use ts_serve::ServeConfig;
use ts_tensor::Precision;
use ts_workloads::{ArrivalConfig, ArrivalTrace};

const SEED: u64 = 42;
/// Enough streams that one stream is a fraction of even a Jetson
/// Orin's capacity (~0.4 at this rate): stream-granular placement can
/// then actually balance the fleet. With few fat streams a single
/// stream overflows an edge node by itself and no router can fix that.
const STREAMS: u64 = 64;
/// Long enough that the fleet's post-trace drain tail (~25ms, the p99
/// backlog at the final arrival) is an ~5% rounding on the makespan
/// rather than a 10% tax on the throughput ratio.
const COUNT: usize = 1920;
/// Arrival rate as a multiple of single-Standard-node capacity. The
/// 8-node lineup's aggregate capacity is ~7x a lone RTX 3090 (the
/// A100s are ~1.2x, the Orins ~0.26x), so 6.7x runs the fleet at
/// ~93% utilization — hot enough that the bounded-wait spill and
/// migration policies are what keep the deadline SLOs holding.
const RATE_OVER_SINGLE: f64 = 6.7;

/// A UNet wide enough that per-layer cost is tensor-core/bandwidth-
/// bound rather than launch-overhead-bound. This matters for the
/// scaling story: with tiny layers every device degenerates to the
/// same fixed launch + mapping cost and the A100/Orin capacity spread
/// vanishes — it is the wide GEMMs that separate the tiers and give
/// the heterogeneous lineup an aggregate capacity well above 8x one
/// RTX 3090, which is what the 6x floor exercises. (The sim engines
/// run simulate-only, so width costs nothing on the wall clock.)
fn network() -> Network {
    let mut b = NetworkBuilder::new("fleet-unet", 4);
    let c1 = b.conv_block("enc1", NetworkBuilder::INPUT, 256, 3, 1);
    let c1b = b.conv_block("enc1b", c1, 256, 3, 1);
    let d1 = b.conv_block("down1", c1b, 512, 2, 2);
    let d1b = b.conv_block("down1b", d1, 512, 3, 1);
    let u1 = b.conv_block_transposed("up1", d1b, 256, 2, 2);
    let cat = b.concat("skip", u1, c1b);
    let _ = b.conv("head", cat, 8, 1, 1);
    b.build()
}

fn single_standard() -> Vec<NodeSpec> {
    vec![NodeSpec::untuned(
        0,
        DeviceTier::Standard,
        Precision::Fp16,
        ServeConfig::default(),
    )]
}

fn specs_for(n: usize) -> Vec<NodeSpec> {
    if n == 1 {
        single_standard()
    } else {
        heterogeneous_specs(n, Precision::Fp16, &ServeConfig::default())
    }
}

fn run_sim(
    network: &Network,
    weights: &ts_core::NetworkWeights,
    specs: &[NodeSpec],
    trace: &ArrivalTrace,
    frames: &[Vec<ts_core::SparseTensor>],
    kills: Vec<KillEvent>,
) -> SimReport {
    let mut sim = FleetSim::new(
        network,
        weights,
        specs,
        RouterConfig::default(),
        SimConfig {
            kills,
            ..SimConfig::default()
        },
    );
    sim.run(trace, frames)
}

fn main() {
    let scale = bench_scale();
    let network = network();
    let weights = network.init_weights(SEED);

    // --- Calibration: one Standard node's simulated capacity --------
    // A near-instant burst saturates the node, so completed/makespan is
    // its service rate. Steady-state (warm per-stream maps) is the
    // regime the fleet runs in, and the burst reaches it after the
    // first frame of each stream — 16 streams x 20 frames keeps the
    // costlier seeding frames a 5% minority.
    let calib_trace = ArrivalTrace::generate(
        ArrivalConfig {
            streams: 16,
            rate_per_s: 1.0e7,
            count: 320,
        },
        SEED,
    );
    let calib_frames = frame_bank(
        16,
        calib_trace
            .frames_per_stream()
            .into_iter()
            .max()
            .unwrap_or(0),
        scale,
        SEED,
    );
    let cap1 = run_sim(
        &network,
        &weights,
        &single_standard(),
        &calib_trace,
        &calib_frames,
        Vec::new(),
    )
    .fps_sim;
    println!("calibrated single-node capacity: {cap1:.0} frames/s (simulated)");

    // --- Main open-loop trace ---------------------------------------
    let rate = RATE_OVER_SINGLE * cap1;
    let trace = ArrivalTrace::generate(
        ArrivalConfig {
            streams: STREAMS,
            rate_per_s: rate,
            count: COUNT,
        },
        SEED,
    );
    let frames = frame_bank(
        STREAMS as usize,
        trace.frames_per_stream().into_iter().max().unwrap_or(0),
        scale,
        SEED,
    );

    let mut reports: Vec<(usize, SimReport)> = Vec::new();
    for n in [1usize, 2, 4, 8] {
        let r = run_sim(
            &network,
            &weights,
            &specs_for(n),
            &trace,
            &frames,
            Vec::new(),
        );
        reports.push((n, r));
    }

    // --- 8 nodes with a mid-trace node kill -------------------------
    // Node 1 (a Standard) dies at 40% of the trace and comes back at
    // 70%: its streams re-home, nothing is lost, and the SLOs must hold
    // throughout.
    let span = trace.span_us();
    let kill = KillEvent {
        node: 1,
        at_us: 0.4 * span,
        restart_at_us: Some(0.7 * span),
    };
    let killed = run_sim(
        &network,
        &weights,
        &specs_for(8),
        &trace,
        &frames,
        vec![kill],
    );

    // --- Report ------------------------------------------------------
    let fps1 = reports[0].1.fps_sim;
    let mut rows: Vec<Vec<String>> = Vec::new();
    for (label, r) in reports
        .iter()
        .map(|(n, r)| (format!("{n} node(s)"), r))
        .chain(std::iter::once(("8 nodes + kill".to_owned(), &killed)))
    {
        rows.push(vec![
            label,
            format!("{:.0}", r.fps_sim),
            format!("{:.2}x", r.fps_sim / fps1),
            format!("{:.0}", r.p50_latency_us),
            format!("{:.0}", r.p99_latency_us),
            format!("{:.2}%", 100.0 * r.miss_rate),
            format!("{:.2}", r.reuse_rate()),
            format!("{}", r.counters.re_homed),
        ]);
    }
    print_table(
        "Fleet scaling (simulated)",
        &[
            "lineup", "fps_sim", "scaling", "p50_us", "p99_us", "miss", "reuse", "re_homed",
        ],
        &rows,
    );

    let fleet8 = &reports[3].1;
    let scaling8 = fleet8.fps_sim / fps1;
    let deadline_us = SimConfig::default().deadline_us;
    let record = json!({
        "scale": scale,
        "seed": SEED,
        "streams": STREAMS,
        "arrivals": COUNT,
        "rate_per_s": rate,
        "rate_over_single": RATE_OVER_SINGLE,
        "deadline_us": deadline_us,
        "single_capacity_fps_sim": cap1,
        "single_fps_sim": fps1,
        "fleet2_fps_sim": reports[1].1.fps_sim,
        "fleet4_fps_sim": reports[2].1.fps_sim,
        "fleet8_fps_sim": fleet8.fps_sim,
        "scaling_fleet8": scaling8,
        "fleet8_p99_latency_us": fleet8.p99_latency_us,
        "fleet8_miss_rate": fleet8.miss_rate,
        "reuse_rate_single": reports[0].1.reuse_rate(),
        "reuse_rate_fleet8": fleet8.reuse_rate(),
        "fleet8_spilled": fleet8.counters.spilled,
        "fleet8_migrated": fleet8.counters.migrated,
        "kill_fps_sim": killed.fps_sim,
        "kill_p99_latency_us": killed.p99_latency_us,
        "kill_miss_rate": killed.miss_rate,
        "kill_re_homed": killed.counters.re_homed,
        "kill_completed": killed.completed,
        "per_node_fleet8": fleet8.per_node.iter().map(|n| json!({
            "id": n.id, "tier": n.tier, "device": n.device,
            "served": n.served, "busy_us": n.busy_us,
        })).collect::<Vec<_>>(),
    });
    write_json("BENCH_fleet", &record);
    let root_copy = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fleet.json");
    match serde_json::to_string_pretty(&record) {
        Ok(s) => {
            if let Err(e) = std::fs::write(root_copy, s) {
                eprintln!("warning: could not write {root_copy}: {e}");
            }
        }
        Err(e) => eprintln!("warning: could not serialize BENCH_fleet record: {e}"),
    }

    // --- Acceptance floors -------------------------------------------
    assert!(
        scaling8 >= 6.0,
        "8 heterogeneous nodes must deliver >= 6x a single RTX 3090's \
         simulated throughput (got {scaling8:.2}x)"
    );
    assert!(
        killed.completed as usize == COUNT,
        "drain-style failover must not lose frames: {}/{COUNT}",
        killed.completed
    );
    assert!(
        killed.p99_latency_us <= deadline_us,
        "p99 must hold through a node kill: {:.0}us > {deadline_us:.0}us",
        killed.p99_latency_us
    );
    assert!(
        killed.miss_rate <= 0.05,
        "deadline-miss SLO must hold through a node kill (got {:.2}%)",
        100.0 * killed.miss_rate
    );
    assert!(
        fleet8.reuse_rate() > 0.5,
        "affinity routing must keep the patched-map fast path dominant \
         (got {:.2})",
        fleet8.reuse_rate()
    );
}
