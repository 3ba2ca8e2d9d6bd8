//! Acceptance: the seeded chaos scenario from the robustness design —
//! corrupt one group of a stored schedule, boot the server leniently
//! from it, kill a worker mid-run — and require that the run completes
//! with zero escaped panics, every request resolved to a typed outcome,
//! and the report accounting for both the restarts and the downgrades.

use std::time::Duration;

use torchsparse::cache::{warm_boot, CacheEntry, DriftPolicy, ScheduleCache, ScheduleKey};
use torchsparse::core::{Engine, GroupConfigs, NetworkBuilder, Session, SparseTensor};
use torchsparse::dataflow::{DataflowConfig, ExecCtx, MAX_SPLITS};
use torchsparse::gpusim::Device;
use torchsparse::kernelmap::{unique_coords, Coord};
use torchsparse::serve::{FaultPlan, Rejected, ServeConfig, Server};
use torchsparse::tensor::{rng_from_seed, uniform_matrix, Precision};

const SEED: u64 = 0x000C_4A05;

fn network() -> torchsparse::core::Network {
    let mut b = NetworkBuilder::new("chaos-accept", 4);
    let c = b.conv_block("stem", NetworkBuilder::INPUT, 8, 3, 1);
    let _ = b.conv("head", c, 2, 1, 1);
    b.build()
}

fn frame(seed: u64) -> SparseTensor {
    let coords: Vec<Coord> = (0..28)
        .map(|i| Coord::new(0, i % 7 + (seed % 3) as i32, i / 7, i % 2))
        .collect();
    let coords = unique_coords(&coords);
    let n = coords.len();
    SparseTensor::new(
        coords,
        uniform_matrix(&mut rng_from_seed(seed), n, 4, -1.0, 1.0),
    )
}

/// The full scenario, driven end to end by one seed.
#[test]
fn seeded_chaos_run_degrades_and_recovers_without_panics() {
    let plan = FaultPlan::from_seed(SEED).with_panic_on([1]);
    let net = network();
    let weights = net.init_weights(2);
    let ctx = ExecCtx::functional(Device::rtx3090(), Precision::Fp16);

    // A tuned schedule sits in the store; one group of its entry is
    // then corrupted with an out-of-range split count.
    let sample = frame(100);
    let mut store = ScheduleCache::in_memory();
    let mut configs = GroupConfigs::uniform(DataflowConfig::gather_scatter(true));
    configs.set(0, DataflowConfig::implicit_gemm(MAX_SPLITS + 1));
    store
        .insert(CacheEntry {
            key: ScheduleKey::of(&Session::new(&net, sample.coords()), &ctx),
            configs,
            tuned_latency_us: 0.0,
            default_latency_us: 0.0,
        })
        .expect("in-memory store");

    // Lenient boot: the engine comes up degraded in that group instead
    // of refusing to serve.
    let policy = DriftPolicy::default();
    let (engine, _) = warm_boot(&mut store, net, weights, ctx, sample.coords(), &policy);
    let downgrades = engine.downgrades().len();
    assert_eq!(downgrades, 1);

    // Serve a stream of frames while the fault plan kills the worker
    // handling batch 1.
    let server = Server::new(
        engine,
        ServeConfig::default()
            .with_workers(2)
            .with_max_requeues(2)
            .with_max_wait(Duration::from_millis(1))
            .with_supervisor_poll(Duration::from_millis(2))
            .with_fault_plan(plan),
    );
    let handles: Vec<_> = (0..8)
        .map(|i| server.submit(i % 3, frame(100 + i)).expect("admitted"))
        .collect();
    let mut completed = 0u64;
    for h in handles {
        // Every handle resolves: served output or a typed rejection —
        // a hang here would time the test out, an escaped panic would
        // abort it.
        match h.wait() {
            Ok(resp) => {
                assert!(resp.degraded, "responses from a degraded engine say so");
                completed += 1;
            }
            Err(
                Rejected::WorkerCrashed { .. }
                | Rejected::QueueFull { .. }
                | Rejected::DeadlineExpired { .. },
            ) => {}
            Err(other) => panic!("outcome must be typed and expected, got {other:?}"),
        }
    }
    let report = server.shutdown();
    assert_eq!(report.completed, completed);
    assert!(completed >= 1, "the pool outlives the crash and serves");
    assert_eq!(report.worker_panics, 1, "exactly the injected kill");
    assert!(report.worker_restarts >= 1, "the slot was restarted");
    assert_eq!(report.schedule_downgrades, downgrades as u64);
    assert!(report.saw_faults());
    // The report round-trips with the fault counters intact.
    let back = torchsparse::serve::ServeReport::from_json(&report.to_json().expect("json"))
        .expect("parses");
    assert_eq!(back.worker_restarts, report.worker_restarts);
}

/// Replay: the same seed drives the same fault decisions, so two runs
/// of the scenario agree on what was injected.
#[test]
fn chaos_decisions_replay_from_the_seed() {
    let a = FaultPlan::from_seed(SEED).with_panic_rate(0.2);
    let b = FaultPlan::from_seed(SEED).with_panic_rate(0.2);
    for seq in 0..256 {
        assert_eq!(a.decide(seq), b.decide(seq));
    }
    let json = r#"{ "version": 1, "network": "n" }"#;
    assert_eq!(a.corrupt_truncate(json), b.corrupt_truncate(json));
}

/// A crashed-out request is shed with a retryable `WorkerCrashed`
/// (requeue budget zero, panic on batch 0), and resubmitting it
/// succeeds against the restarted worker.
#[test]
fn resubmission_recovers_from_a_crashed_worker() {
    let net = network();
    let weights = net.init_weights(4);
    let engine = Engine::new(
        net,
        weights,
        GroupConfigs::uniform(DataflowConfig::safe_fallback()),
        ExecCtx::functional(Device::rtx3090(), Precision::Fp16),
    );
    let server = Server::new(
        engine,
        ServeConfig::default()
            .with_workers(1)
            .with_max_requeues(0)
            .with_max_wait(Duration::from_millis(1))
            .with_supervisor_poll(Duration::from_millis(2))
            .with_fault_plan(FaultPlan::from_seed(SEED).with_panic_on([0])),
    );
    let submit = || server.submit(0, frame(7)).expect("admitted").wait();
    match submit() {
        Err(e @ Rejected::WorkerCrashed { attempts: 1 }) => assert!(e.retryable()),
        other => panic!("expected WorkerCrashed on the first attempt, got {other:?}"),
    }
    let resp = submit().expect("resubmission succeeds after the crash");
    assert_eq!(resp.output.channels(), 2);
    let report = server.shutdown();
    assert_eq!(report.shed_crashed, 1);
    assert_eq!(report.completed, 1);
    assert!(report.worker_restarts >= 1);
}

/// One seeded scenario — an injected panic, an injected stall, map
/// reuse, live telemetry and an installed tracer — in which every view
/// of the serve events must agree: each `ServeReport` counter equals
/// its `serve.*` trace counter, and the rolling-window health snapshot
/// counts what the report counts.
#[test]
fn report_trace_counters_and_health_agree_under_chaos() {
    use torchsparse::serve::{FaultKind, ObsConfig, ObsEvent};

    let net = network();
    let weights = net.init_weights(5);
    let engine = Engine::new(
        net,
        weights,
        GroupConfigs::uniform(DataflowConfig::implicit_gemm(1)),
        ExecCtx::functional(Device::rtx3090(), Precision::Fp16),
    );
    // Batch 1 panics; batch 3 stalls far past the stall timeout, so its
    // retired worker stays asleep until after the views are compared.
    // The timeout leaves the panicking worker time to print its
    // backtrace and die before it could pass for a stalled one.
    let plan = FaultPlan::from_seed(SEED)
        .with_panic_on([1])
        .with_stall_on([3], Duration::from_secs(20));
    let tracer = torchsparse::trace::Tracer::new();
    tracer.install();
    let server = Server::new(
        engine,
        ServeConfig::default()
            .with_workers(1)
            .with_max_batch(1)
            .with_max_requeues(2)
            .with_max_wait(Duration::from_millis(1))
            .with_supervisor_poll(Duration::from_millis(2))
            .with_stall_timeout(Some(Duration::from_secs(2)))
            .with_map_reuse(true)
            .with_obs(ObsConfig::default())
            .with_fault_plan(plan),
    );
    torchsparse::trace::uninstall();
    // Two streams, frames one at a time so each finds its stream's
    // cached map (until the panic invalidates the cache).
    for i in 0..8u64 {
        server
            .submit(i % 2, frame(200 + i))
            .expect("admitted")
            .wait()
            .expect("recovered from every fault");
    }
    let health = server.health_snapshot().expect("obs configured");
    let events = server.recent_events();
    let report = server.shutdown();

    assert_eq!(report.completed, 8);
    assert_eq!(report.worker_panics, 1);
    assert_eq!(report.worker_stalls, 1);
    assert!(report.map_cache_hits > 0 && report.map_invalidated > 0);
    let executed = report.batch_sizes.iter().map(|b| b.count).sum();
    for (name, value) in [
        ("serve.requests.completed", report.completed),
        (
            "serve.requests.rejected_queue_full",
            report.rejected_queue_full,
        ),
        ("serve.frames.rejected", report.rejected_bad_frame),
        ("serve.requests.shed_deadline", report.shed_deadline),
        ("serve.requests.shed_crashed", report.shed_crashed),
        ("serve.requests.shed_halt", report.shed_halt),
        ("serve.deadline.missed", report.deadline_misses),
        ("serve.workers.panicked", report.worker_panics),
        ("serve.workers.stalled", report.worker_stalls),
        ("serve.workers.restarted", report.worker_restarts),
        ("serve.requests.requeued", report.requeued),
        ("serve.schedule.downgraded", report.schedule_downgrades),
        ("serve.map_cache.hit", report.map_cache_hits),
        ("serve.map_cache.miss", report.map_cache_misses),
        ("serve.map_cache.patched", report.map_patched),
        ("serve.map_cache.rebuilt", report.map_rebuilt),
        ("serve.map_cache.evicted", report.map_evicted),
        ("serve.map_cache.invalidated", report.map_invalidated),
        ("serve.batches.executed", executed),
        ("serve.chaos.injected_panic", 1),
        ("serve.chaos.injected_stall", 1),
    ] {
        assert_eq!(tracer.counter(name), value as i64, "trace counter {name}");
    }

    assert_eq!(health.completed, report.completed);
    assert_eq!(health.deadline_misses, report.deadline_misses);
    assert_eq!(
        health.sheds,
        report.shed_deadline + report.shed_crashed + report.shed_halt
    );
    assert_eq!(
        health.map_lookups,
        report.map_cache_hits + report.map_cache_misses
    );
    // The flight recorder holds both injections.
    for (kind, batch) in [(FaultKind::WorkerPanic, 1), (FaultKind::WorkerStall, 3)] {
        assert!(
            events
                .iter()
                .any(|e| e.event == ObsEvent::Injected { kind, batch }),
            "recorder misses the {kind:?} injected into batch {batch}"
        );
    }
}
