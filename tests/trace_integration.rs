//! End-to-end observability: one tracer installed at the top of the
//! stack observes tuning, kernel generation, GPU simulation, engine
//! execution and serving, and the exported Chrome trace passes a
//! structural schema check.

use std::collections::HashMap;
use std::time::Duration;

use serde_json::Value;
use torchsparse::autotune::{tune_inference, TunerOptions};
use torchsparse::core::{Engine, NetworkBuilder, Session, SparseTensor};
use torchsparse::dataflow::ExecCtx;
use torchsparse::fleet::{
    frame_bank, heterogeneous_specs, FleetSim, KillEvent, RouterConfig, SimConfig,
};
use torchsparse::gpusim::Device;
use torchsparse::kernelmap::{unique_coords, Coord};
use torchsparse::serve::{ServeConfig, Server};
use torchsparse::tensor::{rng_from_seed, uniform_matrix, Precision};
use torchsparse::trace::{uninstall, Subsystem, Tracer};
use torchsparse::workloads::{ArrivalConfig, ArrivalTrace};

fn frame(seed: u64) -> SparseTensor {
    let coords: Vec<Coord> = (0..40)
        .map(|i| Coord::new(0, i % 7 + (seed % 3) as i32, i / 7, i % 2))
        .collect();
    let coords = unique_coords(&coords);
    let n = coords.len();
    SparseTensor::new(
        coords,
        uniform_matrix(&mut rng_from_seed(seed), n, 4, -1.0, 1.0),
    )
}

/// Structural validation of a Chrome trace-event JSON document:
/// every non-metadata event has pid/tid/ts, timestamps are monotone
/// per lane, B/E events balance, X events have non-negative durations,
/// C events carry a value.
fn assert_chrome_schema(json: &str) -> usize {
    let v: Value = serde_json::from_str(json).expect("trace is valid JSON");
    let events = v
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("traceEvents array");
    let mut depth: HashMap<(u64, u64), i64> = HashMap::new();
    let mut last_ts: HashMap<(u64, u64), f64> = HashMap::new();
    let mut checked = 0;
    for ev in events {
        let ph = ev.get("ph").and_then(|p| p.as_str()).expect("ph");
        if ph == "M" {
            continue;
        }
        let pid = ev.get("pid").and_then(|p| p.as_u64()).expect("pid");
        let tid = ev.get("tid").and_then(|t| t.as_u64()).expect("tid");
        let ts = ev.get("ts").and_then(|t| t.as_f64()).expect("ts");
        let key = (pid, tid);
        let prev = last_ts.get(&key).copied().unwrap_or(f64::NEG_INFINITY);
        assert!(ts >= prev, "ts must be monotone per tid on {key:?}");
        last_ts.insert(key, ts);
        match ph {
            "B" => {
                assert!(ev.get("name").is_some(), "B events carry names");
                *depth.entry(key).or_insert(0) += 1;
            }
            "E" => {
                let d = depth.entry(key).or_insert(0);
                *d -= 1;
                assert!(*d >= 0, "E without a matching B on {key:?}");
            }
            "X" => {
                assert!(ev.get("dur").and_then(|d| d.as_f64()).expect("dur") >= 0.0);
            }
            "C" => {
                assert!(ev.get("args").and_then(|a| a.get("value")).is_some());
            }
            other => panic!("unexpected phase {other}"),
        }
        checked += 1;
    }
    for (key, d) in depth {
        assert_eq!(d, 0, "unbalanced B/E on {key:?}");
    }
    checked
}

#[test]
fn one_tracer_observes_all_five_subsystems() {
    let tracer = Tracer::new();
    tracer.install();

    let mut b = NetworkBuilder::new("trace-e2e", 4);
    let c = b.conv_block("stem", NetworkBuilder::INPUT, 8, 3, 1);
    let _ = b.conv("head", c, 2, 1, 1);
    let net = b.build();

    // Tuning covers autotune, kernelgen and core; the tuner keeps the
    // per-candidate virtual kernel lanes quiet.
    let session = Session::new(&net, frame(1).coords());
    let sim_ctx = ExecCtx::simulate(Device::rtx3090(), Precision::Fp16);
    let tuned = tune_inference(
        std::slice::from_ref(&session),
        &sim_ctx,
        &TunerOptions::default(),
    );

    // A plain engine inference re-enables them, which is where the
    // gpusim kernel spans come from.
    let engine = Engine::new(
        net.clone(),
        net.init_weights(3),
        tuned.group_configs().expect("tuner yields configs").clone(),
        ExecCtx::functional(Device::rtx3090(), Precision::Fp16),
    );
    let _ = engine.infer(&frame(2));

    // A short serving pass covers the serve request lifecycle.
    let server = Server::new(
        engine,
        ServeConfig::default()
            .with_workers(1)
            .with_max_wait(Duration::from_millis(1)),
    );
    let h1 = server.submit(0, frame(3)).expect("admitted");
    let h2 = server.submit(1, frame(4)).expect("admitted");
    h1.wait().expect("served");
    h2.wait().expect("served");
    server.shutdown();
    uninstall();

    let json = tracer.chrome_trace_json();
    let checked = assert_chrome_schema(&json);
    assert!(checked > 0, "trace has events");

    let spans = tracer.spans();
    for sub in [
        Subsystem::Kernelgen,
        Subsystem::Gpusim,
        Subsystem::Core,
        Subsystem::Autotune,
        Subsystem::Serve,
    ] {
        assert!(
            spans.iter().any(|s| s.subsystem == sub),
            "no spans recorded by {sub:?}"
        );
    }

    // Spot-check the load-bearing span names and counters.
    for name in ["tune_inference", "simulate_inference", "request", "infer"] {
        assert!(spans.iter().any(|s| s.name == name), "missing span {name}");
    }
    assert!(tracer.counter("core.prepare_cache.miss") > 0);
    assert!(tracer.counter("serve.requests.completed") == 2);
    assert!(tracer.counter("kernelgen.kernels.generated") > 0);
}

#[test]
fn a_traced_fleet_sim_splits_every_routed_request_by_placement() {
    let mut b = NetworkBuilder::new("trace-fleet", 4);
    let c = b.conv_block("stem", NetworkBuilder::INPUT, 8, 3, 1);
    let _ = b.conv("head", c, 2, 1, 1);
    let net = b.build();
    let specs = heterogeneous_specs(3, Precision::Fp16, &ServeConfig::default());
    let trace = ArrivalTrace::generate(
        ArrivalConfig {
            streams: 6,
            rate_per_s: 200_000.0,
            count: 36,
        },
        9,
    );
    let frames = frame_bank(
        6,
        trace.frames_per_stream().into_iter().max().unwrap_or(0),
        0.15,
        5,
    );
    // A tight spill bound makes the burst spill; a mid-trace kill makes
    // its streams re-hash to new homes.
    let router = RouterConfig {
        spill_wait_us: 200.0,
        ..RouterConfig::default()
    };
    let cfg = SimConfig {
        kills: vec![KillEvent {
            node: 0,
            at_us: trace.arrivals[18].at_us,
            restart_at_us: None,
        }],
        ..SimConfig::default()
    };

    let tracer = Tracer::new();
    tracer.install();
    let report =
        FleetSim::new(&net, &net.init_weights(1), &specs, router, cfg).run(&trace, &frames);
    uninstall();

    let c = report.counters;
    let counter = |name: &str| u64::try_from(tracer.counter(name)).expect("counters only grow");
    assert_eq!(counter("fleet.requests.routed"), c.routed);
    assert_eq!(counter("fleet.requests.affinity"), c.affinity);
    assert_eq!(counter("fleet.requests.hashed"), c.hashed);
    assert_eq!(counter("fleet.requests.spilled"), c.spilled);
    assert_eq!(c.affinity + c.hashed + c.spilled, c.routed);
    assert_eq!(c.routed, 36);
    assert!(
        c.affinity > 0 && c.hashed > 0 && c.spilled > 0,
        "every placement arm fires: {c:?}"
    );
}
