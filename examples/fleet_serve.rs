//! Sharded serving fleet: eight heterogeneous nodes (A100 / RTX 3090 /
//! Jetson Orin) behind one stream-affinity router, fed by an open-loop
//! Poisson trace, losing and recovering a node mid-run.
//!
//! Each stream's frames keep landing on the same node, so that node's
//! kernel-map cache stays warm and most frames take the patched-map
//! fast path. When a node dies its streams re-home (consistent-hash
//! walk to the next alive node) and every request still resolves — to
//! an output or a typed rejection, never silence.
//!
//! ```sh
//! cargo run --release --example fleet_serve
//! ```

use std::time::Duration;

use torchsparse::fleet::{frame_bank, heterogeneous_specs, Fleet, FleetError, RouterConfig};
use torchsparse::serve::ServeConfig;
use torchsparse::tensor::Precision;
use torchsparse::workloads::{ArrivalConfig, ArrivalTrace};

fn main() {
    // A small segmentation-style network; every node serves the same
    // model, each compiled for its own device tier.
    let mut b = torchsparse::core::NetworkBuilder::new("fleet-example", 4);
    let c1 = b.conv_block("enc1", torchsparse::core::NetworkBuilder::INPUT, 16, 3, 1);
    let c1b = b.conv_block("enc1b", c1, 16, 3, 1);
    let _ = b.conv("head", c1b, 4, 1, 1);
    let network = b.build();
    let weights = network.init_weights(42);

    // Eight nodes cycling Premium (A100) / Standard (RTX 3090) / Edge
    // (Jetson Orin), each booting its schedule artifact leniently.
    // Temporal map reuse is the whole point of affinity routing: a
    // stream's frames land where its kernel maps are cached.
    let serve = ServeConfig::default()
        .with_map_reuse(true)
        .with_max_wait(Duration::from_millis(1))
        .with_queue_capacity(256)
        .with_supervisor_poll(Duration::from_millis(2));
    let specs = heterogeneous_specs(8, Precision::Fp16, &serve);
    for s in &specs {
        println!("node {}: {:?} ({})", s.id, s.tier, s.tier.device().name);
    }
    let mut fleet = Fleet::boot(network.clone(), weights, specs, RouterConfig::default());

    // An open-loop arrival trace: 12 lidar streams, Poisson arrivals.
    let trace = ArrivalTrace::generate(
        ArrivalConfig {
            streams: 12,
            rate_per_s: 3000.0,
            count: 96,
        },
        7,
    );
    // Scale 0.3: dense enough sampling that successive frames patch
    // their stream's cached map instead of rebuilding it.
    let frames = frame_bank(
        12,
        trace.frames_per_stream().into_iter().max().unwrap_or(0),
        0.3,
        11,
    );

    // Drive the trace. Halfway through, kill whichever node stream 0
    // homed on; three quarters in, bring it back.
    let kill_at = trace.arrivals.len() / 2;
    let restart_at = 3 * trace.arrivals.len() / 4;
    let mut handles = Vec::new();
    let mut typed_rejections = 0u64;
    let mut victim = None;
    for (i, a) in trace.arrivals.iter().enumerate() {
        if i == kill_at {
            let id = fleet.home_of(0).unwrap_or(0);
            let halted = fleet.kill_node(id).expect("victim is alive");
            victim = Some(id);
            println!(
                "killed node {id} mid-trace (had completed {} frames); {} alive",
                halted.completed,
                fleet.alive()
            );
        }
        if i == restart_at {
            if let Some(id) = victim {
                fleet.restart_node(id).expect("victim restarts");
                println!("restarted node {id}; {} alive", fleet.alive());
            }
        }
        let frame = frames[a.stream as usize][a.frame].clone();
        match fleet.submit(a.stream, frame) {
            Ok(h) => handles.push(h),
            Err(FleetError::Rejected(r)) => {
                typed_rejections += 1;
                println!("arrival {i}: rejected ({r})");
            }
            Err(e) => println!("arrival {i}: {e}"),
        }
    }

    // Every accepted request resolves: an output or a typed rejection.
    let mut served = 0u64;
    for h in handles {
        match h.wait() {
            Ok(_) => served += 1,
            Err(_) => typed_rejections += 1,
        }
    }

    let report = fleet.shutdown();
    println!("\nfleet report:");
    for n in &report.nodes {
        println!(
            "  node {} ({:>11}): completed={:>3} map[patched={} rebuilt={} miss={}] deaths={}",
            n.id,
            n.device,
            n.report.completed,
            n.report.map_patched,
            n.report.map_rebuilt,
            n.report.map_cache_misses,
            n.deaths
        );
    }
    println!(
        "routing: routed={} affinity={} hashed={} spilled={} re_homed={} \
         migrated={} deaths={} restarts={}",
        report.routed,
        report.affinity,
        report.hashed,
        report.spilled,
        report.re_homed,
        report.migrated,
        report.node_deaths,
        report.node_restarts
    );
    println!(
        "resolved: served={served} typed_rejections={typed_rejections} \
         (routed {} arrivals, affinity rate {:.2})",
        report.routed,
        report.affinity_rate()
    );
    assert_eq!(served, report.merged.completed);
    assert!(served + typed_rejections >= report.routed);
    assert_eq!(report.node_deaths, 1);
    assert_eq!(report.node_restarts, 1);
    println!("no request went unanswered through a node kill and restart");
}
