//! Live telemetry on a serving fleet: rolling health snapshots, the
//! multi-window SLO monitor, and the flight recorder's post-mortem
//! dump.
//!
//! Three nodes serve a lidar stream mix with `with_obs` enabled. The
//! example prints each node's windowed health (p50/p99, queue depth,
//! map reuse rate, burn rates), kills one node mid-run to show the
//! re-home landing in the gaining node's flight recorder, and finishes
//! by dumping a post-mortem JSON exactly as the supervisor would after
//! a worker panic.
//!
//! ```sh
//! cargo run --release --example fleet_health
//! ```

use std::time::Duration;

use torchsparse::fleet::{frame_bank, heterogeneous_specs, Fleet, RouterConfig};
use torchsparse::obs::ObsConfig;
use torchsparse::serve::ServeConfig;
use torchsparse::tensor::Precision;

fn main() {
    let mut b = torchsparse::core::NetworkBuilder::new("fleet-health", 4);
    let c = b.conv_block("stem", torchsparse::core::NetworkBuilder::INPUT, 16, 3, 1);
    let _ = b.conv("head", c, 4, 1, 1);
    let network = b.build();
    let weights = network.init_weights(42);

    // Telemetry is opt-in per node: rolling windows, SLO monitor, and a
    // flight recorder whose post-mortems land in target/postmortem.
    let obs = ObsConfig::default().with_postmortem_dir("target/postmortem".to_owned());
    let serve = ServeConfig::default()
        .with_map_reuse(true)
        .with_max_wait(Duration::from_millis(1))
        .with_queue_capacity(256)
        .with_supervisor_poll(Duration::from_millis(2))
        .with_obs(obs);
    let specs = heterogeneous_specs(3, Precision::Fp16, &serve);
    let mut fleet = Fleet::boot(network.clone(), weights, specs, RouterConfig::default());

    // Warm traffic: 6 streams, 6 frames each.
    let frames = frame_bank(6, 8, 0.2, 17);
    let mut handles = Vec::new();
    for f in 0..6 {
        for (s, stream) in frames.iter().enumerate() {
            if let Ok(h) = fleet.submit(s as u64, stream[f].clone()) {
                handles.push(h);
            }
        }
    }
    for h in handles.drain(..) {
        let _ = h.wait();
    }

    // The "is it healthy right now" view: per-node rolling windows, not
    // cumulative-since-boot counters.
    println!("fleet health after warmup:");
    for (id, h) in fleet.health().iter().enumerate() {
        match h {
            None => println!("  node {id}: dead or untelemetered"),
            Some(h) => println!(
                "  node {id}: {} done, p50 {:.0}us p99 {:.0}us, queue {}, reuse {:.0}%, \
                 burn fast {:.2} / slow {:.2}",
                h.completed,
                h.p50_latency_us,
                h.p99_latency_us,
                h.queue_depth,
                h.reuse_rate * 100.0,
                h.fast_burn,
                h.slow_burn,
            ),
        }
    }

    // Kill stream 0's home. Its next frame re-homes; the movement is
    // recorded in the gaining node's flight recorder ring.
    let victim = fleet.home_of(0).expect("stream 0 homed");
    println!("\nkilling node {victim} (stream 0's home)...");
    fleet.kill_node(victim).expect("kill");
    if let Ok(h) = fleet.submit(0, frames[0][6].clone()) {
        let _ = h.wait();
    }
    let new_home = fleet.home_of(0).expect("re-homed");
    println!("stream 0 re-homed to node {new_home}; its recorder holds:");
    for e in fleet.node_recent_events(new_home).iter().rev().take(4) {
        println!("  {e:?}");
    }

    // Operators read alerts off the fleet report; quiet traffic should
    // have none, an outage leaves the trip/clear edges here.
    let report = fleet.shutdown();
    println!(
        "\nshutdown: {} completed across {} nodes, {} alert edge(s)",
        report.merged.completed,
        report.nodes.len(),
        report.alerts.len()
    );
    for a in &report.alerts {
        println!(
            "  [{}] {:?} at {}us burn {:.1}",
            a.level.label(),
            a.state,
            a.at_us,
            a.burn_rate
        );
    }
}
