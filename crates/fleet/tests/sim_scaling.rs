//! Deterministic fleet-sim tests: bit-identical reports across runs,
//! drain-style kill semantics, capacity scaling with node count, and
//! map-reuse behavior matching the single-node streaming path.

use ts_core::{Network, NetworkBuilder};
use ts_fleet::{
    frame_bank, heterogeneous_specs, AlertLevel, AlertState, DeviceTier, FleetSim, KillEvent,
    NodeSpec, RouterConfig, SimConfig, SloPolicy,
};
use ts_serve::ServeConfig;
use ts_tensor::Precision;
use ts_workloads::{ArrivalConfig, ArrivalTrace};

fn net() -> Network {
    let mut b = NetworkBuilder::new("fleet-sim", 4);
    let c = b.conv_block("stem", NetworkBuilder::INPUT, 8, 3, 1);
    let _ = b.conv("head", c, 2, 1, 1);
    b.build()
}

fn trace(count: usize) -> ArrivalTrace {
    ArrivalTrace::generate(
        ArrivalConfig {
            streams: 8,
            rate_per_s: 400.0,
            count,
        },
        21,
    )
}

fn bank(trace: &ArrivalTrace, scale: f32) -> Vec<Vec<ts_core::SparseTensor>> {
    let frames = trace.frames_per_stream().into_iter().max().unwrap_or(0);
    frame_bank(8, frames, scale, 5)
}

#[test]
fn sim_is_deterministic() {
    let network = net();
    let weights = network.init_weights(1);
    let specs = heterogeneous_specs(4, Precision::Fp16, &ServeConfig::default());
    let t = trace(60);
    let frames = bank(&t, 0.15);
    let run = |_: ()| {
        let mut sim = FleetSim::new(
            &network,
            &weights,
            &specs,
            RouterConfig::default(),
            SimConfig::default(),
        );
        sim.run(&t, &frames)
    };
    let a = run(());
    let b = run(());
    assert_eq!(a, b, "same inputs must give a bit-identical report");
    assert_eq!(a.completed, 60);
    assert_eq!(a.rejected_no_capacity, 0);
    assert!(a.fps_sim > 0.0);
    assert!(a.p99_latency_us >= a.p50_latency_us);
}

#[test]
fn kill_drains_and_rehomes_then_restart_recovers() {
    let network = net();
    let weights = network.init_weights(1);
    let specs = heterogeneous_specs(4, Precision::Fp16, &ServeConfig::default());
    let t = trace(80);
    let frames = bank(&t, 0.15);
    let kill_at = t.arrivals[40].at_us;
    let mut sim = FleetSim::new(
        &network,
        &weights,
        &specs,
        RouterConfig::default(),
        SimConfig {
            kills: vec![KillEvent {
                node: 0,
                at_us: kill_at,
                restart_at_us: Some(kill_at + 20_000.0),
            }],
            ..SimConfig::default()
        },
    );
    let r = sim.run(&t, &frames);
    assert_eq!(r.counters.node_deaths, 1);
    assert_eq!(r.counters.node_restarts, 1);
    // Drain semantics: arrivals after the kill re-route, none are lost.
    assert_eq!(r.completed, 80);
    assert_eq!(r.rejected_no_capacity, 0);
    assert!(
        r.counters.re_homed >= 1,
        "streams homed on node 0 must re-home after the kill"
    );
    // Node 0 served before the kill but nothing between kill and restart.
    assert!(r.per_node[0].served > 0);
}

#[test]
fn all_nodes_dead_rejects_with_no_capacity() {
    let network = net();
    let weights = network.init_weights(1);
    let specs = heterogeneous_specs(2, Precision::Fp16, &ServeConfig::default());
    let t = trace(30);
    let frames = bank(&t, 0.15);
    let kill_at = t.arrivals[10].at_us;
    let mut sim = FleetSim::new(
        &network,
        &weights,
        &specs,
        RouterConfig::default(),
        SimConfig {
            kills: vec![
                KillEvent {
                    node: 0,
                    at_us: kill_at,
                    restart_at_us: None,
                },
                KillEvent {
                    node: 1,
                    at_us: kill_at,
                    restart_at_us: None,
                },
            ],
            ..SimConfig::default()
        },
    );
    let r = sim.run(&t, &frames);
    assert_eq!(r.completed, 10);
    assert_eq!(r.rejected_no_capacity, 20);
    assert_eq!(r.completed + r.rejected_no_capacity, 30);
}

/// The CI contract for the SLO monitor: a mid-trace node kill trips
/// the fast-window (PageWorthy) burn-rate alert, the restart clears
/// it, and the whole alert sequence is bit-identical across runs.
///
/// Shape: a Premium + Edge pair under an arrival rate the pair handles
/// easily but the Edge node alone cannot (~165us/frame measured vs
/// ~111us inter-arrival). Killing Premium funnels everything onto
/// Edge, whose backlog pushes latencies past the deadline; the miss
/// streak burns the fast window at ~100x budget. After the restart,
/// the router spills the backlogged Edge's frames back to Premium, the
/// misses age out of the fast window, and the alert clears.
#[test]
fn mid_trace_kill_trips_fast_alert_and_restart_clears() {
    let network = net();
    let weights = network.init_weights(1);
    let specs = vec![
        NodeSpec::untuned(
            0,
            DeviceTier::Premium,
            Precision::Fp16,
            ServeConfig::default(),
        ),
        NodeSpec::untuned(1, DeviceTier::Edge, Precision::Fp16, ServeConfig::default()),
    ];
    let t = ArrivalTrace::generate(
        ArrivalConfig {
            streams: 8,
            rate_per_s: 9_000.0,
            count: 400,
        },
        33,
    );
    let frames = bank(&t, 0.15);
    let kill_at = t.arrivals[100].at_us;
    let restart_at = t.arrivals[250].at_us;
    let cfg = SimConfig {
        deadline_us: 2_000.0,
        kills: vec![KillEvent {
            node: 0,
            at_us: kill_at,
            restart_at_us: Some(restart_at),
        }],
        // Windows scaled to the trace (44ms of virtual time): the fast
        // window holds ~18 arrivals, the burn thresholds are the SRE
        // defaults.
        slo: Some(SloPolicy {
            fast_window_us: 2_000,
            slow_window_us: 20_000,
            min_samples: 5,
            ..SloPolicy::default()
        }),
    };
    // Spill once a home's estimated wait is worth half the deadline, so
    // recovery actually routes around the drowned Edge node.
    let router = RouterConfig {
        spill_wait_us: 1_000.0,
        ..RouterConfig::default()
    };
    let run = |_: ()| {
        let mut sim = FleetSim::new(&network, &weights, &specs, router, cfg.clone());
        sim.run(&t, &frames)
    };
    let a = run(());
    let b = run(());
    assert_eq!(a, b, "the alert sequence must be bit-identical");
    assert_eq!(a.counters.node_deaths, 1);
    assert_eq!(a.counters.node_restarts, 1);
    assert!(a.deadline_misses > 0, "the outage must cause misses");

    let pages: Vec<_> = a
        .alerts
        .iter()
        .filter(|al| al.level == AlertLevel::PageWorthy)
        .collect();
    let trip = pages
        .iter()
        .position(|al| al.state == AlertState::Tripped)
        .expect("the kill must trip the fast-window page alert");
    assert!(
        pages[trip].at_us as f64 >= kill_at,
        "no page before the kill: tripped at {} vs kill at {}",
        pages[trip].at_us,
        kill_at
    );
    assert!(pages[trip].burn_rate >= 10.0, "trip is at paging burn");
    let clear = pages[trip..]
        .iter()
        .find(|al| al.state == AlertState::Cleared)
        .expect("the restart must clear the page alert");
    assert!(
        clear.at_us as f64 >= restart_at,
        "clear only after the restart: cleared at {} vs restart at {}",
        clear.at_us,
        restart_at
    );
}

/// More nodes, more simulated throughput: under an arrival rate that
/// saturates one Standard node, a 4-node heterogeneous fleet finishes
/// the same trace in far less simulated time.
#[test]
fn fleet_outpaces_single_node_under_load() {
    let network = net();
    let weights = network.init_weights(1);
    // A hot trace: arrivals much faster than one node can serve.
    let t = ArrivalTrace::generate(
        ArrivalConfig {
            streams: 8,
            rate_per_s: 200_000.0,
            count: 48,
        },
        9,
    );
    // Dense enough sampling that the patched-map fast path fires (see
    // `frame_bank`), small enough to stay quick in debug builds.
    let frames = bank(&t, 0.3);
    // Frames on this tiny network cost ~100us, so the default 25ms
    // spill bound (sized for the 50ms deadline SLO) would never fire
    // inside this burst. Scale it to the workload: spill once a home's
    // backlog is worth ~10 frames, letting the bounded-wait policy
    // spread the burst across the fleet.
    let router = RouterConfig {
        spill_wait_us: 1_000.0,
        ..RouterConfig::default()
    };
    let run = |n: usize| {
        let specs: Vec<NodeSpec> = if n == 1 {
            vec![NodeSpec::untuned(
                0,
                DeviceTier::Standard,
                Precision::Fp16,
                ServeConfig::default(),
            )]
        } else {
            heterogeneous_specs(n, Precision::Fp16, &ServeConfig::default())
        };
        let mut sim = FleetSim::new(&network, &weights, &specs, router, SimConfig::default());
        sim.run(&t, &frames)
    };
    let one = run(1);
    let four = run(4);
    assert_eq!(one.completed, 48);
    assert_eq!(four.completed, 48);
    assert!(
        four.fps_sim > one.fps_sim * 1.5,
        "4 nodes must clearly outpace 1 under saturation: {} vs {}",
        four.fps_sim,
        one.fps_sim
    );
    assert!(four.p99_latency_us < one.p99_latency_us);
    // Streams stick to their homes, so the patched-map fast path fires.
    assert!(
        four.reuse_rate() > 0.0,
        "affinity routing must preserve incremental map reuse"
    );
}
