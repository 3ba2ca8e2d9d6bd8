//! Chaos tests for the supervised serving loop: seeded fault plans
//! kill and stall workers mid-run; every request must still resolve to
//! a typed outcome with zero escaped panics.

use std::time::Duration;

use ts_core::{Engine, GroupConfigs, NetworkBuilder, SparseTensor};
use ts_dataflow::{DataflowConfig, ExecCtx};
use ts_gpusim::Device;
use ts_kernelmap::Coord;
use ts_serve::{FaultKind, FaultPlan, ObsEvent, Rejected, ServeConfig, Server};
use ts_tensor::{rng_from_seed, uniform_matrix, Precision};

fn engine() -> Engine {
    let mut b = NetworkBuilder::new("chaos-test", 4);
    let c = b.conv_block("stem", NetworkBuilder::INPUT, 8, 3, 1);
    let _ = b.conv("head", c, 2, 1, 1);
    let net = b.build();
    let weights = net.init_weights(1);
    Engine::new(
        net,
        weights,
        GroupConfigs::uniform(DataflowConfig::implicit_gemm(1)),
        ExecCtx::functional(Device::rtx3090(), Precision::Fp16),
    )
}

fn frame(seed: u64) -> SparseTensor {
    let coords: Vec<Coord> = (0..24)
        .map(|i| Coord::new(0, i % 6 + (seed % 4) as i32, i / 6, i % 2))
        .collect();
    let coords = ts_kernelmap::unique_coords(&coords);
    let n = coords.len();
    SparseTensor::new(
        coords,
        uniform_matrix(&mut rng_from_seed(seed), n, 4, -1.0, 1.0),
    )
}

fn cfg() -> ServeConfig {
    ServeConfig::default()
        .with_max_wait(Duration::from_millis(1))
        .with_queue_capacity(256)
        .with_supervisor_poll(Duration::from_millis(2))
}

/// A worker is killed on the first dispatched batch; the supervisor
/// restarts it and replays the batch, so every request completes.
#[test]
fn injected_panic_is_recovered_and_requests_complete() {
    let server = Server::new(
        engine(),
        cfg()
            .with_workers(2)
            .with_max_requeues(2)
            .with_fault_plan(FaultPlan::from_seed(42).with_panic_on([0])),
    );
    let handles: Vec<_> = (0..6)
        .map(|i| server.submit(i, frame(10 + i)).expect("admitted"))
        .collect();
    for h in handles {
        h.wait().expect("replayed after the crash");
    }
    let report = server.shutdown();
    assert_eq!(report.completed, 6);
    assert_eq!(report.worker_panics, 1);
    assert!(report.worker_restarts >= 1);
    assert!(report.requeued >= 1, "the killed batch was re-enqueued");
    assert_eq!(report.shed_crashed, 0);
    assert!(report.saw_faults());
}

/// With the requeue budget at zero, a crashed batch is shed with a
/// typed outcome instead of replayed.
#[test]
fn exhausted_requeue_budget_sheds_with_worker_crashed() {
    let server = Server::new(
        engine(),
        cfg()
            .with_workers(1)
            .with_max_batch(8)
            .with_max_wait(Duration::from_millis(20))
            .with_max_requeues(0)
            .with_fault_plan(FaultPlan::from_seed(7).with_panic_on([0])),
    );
    let handles: Vec<_> = (0..4)
        .map(|i| server.submit(i, frame(30 + i)).expect("admitted"))
        .collect();
    let mut crashed = 0;
    let mut completed = 0;
    for h in handles {
        match h.wait() {
            Ok(_) => completed += 1,
            Err(Rejected::WorkerCrashed { attempts }) => {
                assert_eq!(attempts, 1);
                crashed += 1;
            }
            Err(other) => panic!("untyped outcome: {other:?}"),
        }
    }
    let report = server.shutdown();
    assert!(crashed >= 1, "batch 0 crashed out");
    assert_eq!(report.shed_crashed, crashed);
    assert_eq!(report.completed, completed);
    assert_eq!(report.requeued, 0);
}

/// A panic rate of 1.0 kills every worker on every batch: with a finite
/// requeue budget the run must still terminate, with every request
/// resolved (served or typed-shed) and no hangs.
#[test]
fn total_panic_rate_terminates_with_typed_outcomes() {
    let server = Server::new(
        engine(),
        cfg()
            .with_workers(2)
            .with_max_requeues(1)
            .with_fault_plan(FaultPlan::from_seed(99).with_panic_rate(1.0)),
    );
    let handles: Vec<_> = (0..5)
        .map(|i| server.submit(i, frame(50 + i)).expect("admitted"))
        .collect();
    for h in handles {
        match h.wait() {
            Err(Rejected::WorkerCrashed { attempts }) => assert!(attempts >= 1),
            Ok(_) => panic!("nothing can execute at panic rate 1.0"),
            Err(other) => panic!("untyped outcome: {other:?}"),
        }
    }
    let report = server.shutdown();
    assert_eq!(report.shed_crashed, 5);
    assert!(report.worker_panics >= 1);
    assert!(report.requeued >= 1, "each batch got its one replay");
}

/// An injected worker panic must leave a flight-recorder post-mortem on
/// disk, and the dump must contain the crashing batch's events: its
/// dispatch, the injection and the `WorkerPanic` fault naming its
/// batch seq — with no tracer installed.
#[test]
fn injected_panic_dumps_flight_recorder_postmortem() {
    // CI sets TS_POSTMORTEM_DIR to keep the dump as a build artifact;
    // local runs use a scratch dir and clean up.
    let (dir, keep) = match std::env::var("TS_POSTMORTEM_DIR") {
        Ok(d) => (std::path::PathBuf::from(d), true),
        Err(_) => (
            std::env::temp_dir().join(format!("ts-serve-chaos-pm-{}", std::process::id())),
            false,
        ),
    };
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::new(
        engine(),
        cfg()
            .with_workers(1)
            .with_max_requeues(2)
            .with_fault_plan(FaultPlan::from_seed(42).with_panic_on([0]))
            .with_obs(
                ts_serve::ObsConfig::default()
                    .with_postmortem_dir(dir.to_string_lossy().into_owned()),
            ),
    );
    let handles: Vec<_> = (0..4)
        .map(|i| server.submit(i, frame(130 + i)).expect("admitted"))
        .collect();
    for h in handles {
        h.wait().expect("replayed after the crash");
    }
    let report = server.shutdown();
    assert_eq!(report.worker_panics, 1);

    let dumps: Vec<_> = std::fs::read_dir(&dir)
        .expect("dump dir created")
        .filter_map(|e| e.ok())
        .filter(|e| {
            e.file_name()
                .to_string_lossy()
                .starts_with("postmortem-worker_panic-")
        })
        .collect();
    assert_eq!(dumps.len(), 1, "one panic, one post-mortem");
    let json = std::fs::read_to_string(dumps[0].path()).expect("readable");
    let pm = ts_serve::PostMortem::from_json(&json).expect("parses");
    assert_eq!(pm.reason, "worker_panic");
    assert!(!pm.events.is_empty(), "ring captured the run-up");
    // The crashing batch (seq 0) left its dispatch in the ring...
    assert!(
        pm.events
            .iter()
            .any(|e| matches!(e.event, ObsEvent::Dispatch { batch: 0, .. })),
        "dump must contain the crashing batch's dispatch"
    );
    // ...the injection that killed it...
    assert!(
        pm.events.iter().any(|e| e.event
            == ObsEvent::Injected {
                kind: FaultKind::WorkerPanic,
                batch: 0,
            }),
        "dump must contain the injected panic for batch 0"
    );
    // ...and the fault event names it.
    assert!(
        pm.events.iter().any(|e| e.event
            == ObsEvent::Fault {
                kind: FaultKind::WorkerPanic,
                batch: Some(0),
            }),
        "dump must contain the worker_panic fault for batch 0"
    );
    if !keep {
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A stalled worker (injected sleep far past the stall timeout) is
/// retired and its batch re-executed by a replacement; the duplicate
/// completion from the zombie is latch-suppressed.
#[test]
fn stalled_worker_is_replaced_and_batch_recovered() {
    let server = Server::new(
        engine(),
        cfg()
            .with_workers(1)
            .with_max_requeues(2)
            .with_stall_timeout(Some(Duration::from_millis(30)))
            .with_fault_plan(
                FaultPlan::from_seed(5).with_stall_on([0], Duration::from_millis(400)),
            ),
    );
    let handles: Vec<_> = (0..3)
        .map(|i| server.submit(i, frame(70 + i)).expect("admitted"))
        .collect();
    for h in handles {
        h.wait().expect("recovered from the stall");
    }
    let report = server.shutdown();
    assert_eq!(report.completed, 3);
    assert_eq!(report.worker_stalls, 1);
    assert!(report.worker_restarts >= 1);
    assert!(report.requeued >= 1);
}

/// The requeue boundary, failing side: a batch that crashes on its
/// first dispatch AND on every one of its `max_requeues` replays is
/// shed with `WorkerCrashed { attempts: max_requeues + 1 }`, delivered
/// exactly once (the completion latch), and counted once in the report.
#[test]
fn batch_failing_exactly_max_requeues_times_is_shed_once() {
    // One worker, one request, max_batch 1: batch seqs are 0, 1, 2 for
    // the initial dispatch and the two replays (requeues re-enqueue
    // under a fresh seq), so pinning panics on [0, 1, 2] kills every
    // attempt the budget allows.
    let server = Server::new(
        engine(),
        cfg()
            .with_workers(1)
            .with_max_batch(1)
            .with_max_requeues(2)
            .with_fault_plan(FaultPlan::from_seed(11).with_panic_on([0, 1, 2])),
    );
    let handle = server.submit(0, frame(110)).expect("admitted");
    match handle.wait() {
        Err(Rejected::WorkerCrashed { attempts }) => {
            assert_eq!(attempts, 3, "initial dispatch + 2 requeues");
        }
        other => panic!("expected WorkerCrashed after exhausting requeues, got {other:?}"),
    }
    let report = server.shutdown();
    assert_eq!(report.shed_crashed, 1, "shed exactly once");
    assert_eq!(report.completed, 0);
    assert_eq!(report.requeued, 2, "both budgeted replays happened");
    assert_eq!(report.worker_panics, 3);
}

/// The requeue boundary, passing side: with the same budget but one
/// fewer crash (`max_requeues` - 1 failures after the initial crash),
/// the final replay executes and the request completes.
#[test]
fn batch_failing_one_under_the_requeue_budget_completes() {
    let server = Server::new(
        engine(),
        cfg()
            .with_workers(1)
            .with_max_batch(1)
            .with_max_requeues(2)
            .with_fault_plan(FaultPlan::from_seed(12).with_panic_on([0, 1])),
    );
    let handle = server.submit(0, frame(111)).expect("admitted");
    handle.wait().expect("third dispatch succeeds");
    let report = server.shutdown();
    assert_eq!(report.completed, 1);
    assert_eq!(report.shed_crashed, 0);
    assert_eq!(report.requeued, 2);
    assert_eq!(report.worker_panics, 2);
}

/// Seeded burst overload: admission control sheds the overflow with
/// typed rejections while everything admitted is served, and the same
/// seed produces the same burst schedule.
#[test]
fn burst_overload_sheds_predictably() {
    let plan = FaultPlan::from_seed(1234);
    let sizes: Vec<usize> = (0..6).map(|t| plan.burst_size(t, 2, 6)).collect();
    assert_eq!(
        sizes,
        (0..6).map(|t| plan.burst_size(t, 2, 6)).collect::<Vec<_>>(),
        "burst schedule replays from the seed"
    );
    let server = Server::new(
        engine(),
        cfg()
            .with_workers(1)
            .with_max_batch(2)
            .with_max_wait(Duration::from_millis(40))
            .with_queue_capacity(3),
    );
    let mut admitted = Vec::new();
    let mut shed = 0u64;
    for (t, &size) in sizes.iter().enumerate() {
        for i in 0..size {
            match server.submit(t as u64, frame(90 + i as u64)) {
                Ok(h) => admitted.push(h),
                Err(Rejected::QueueFull { capacity }) => {
                    assert_eq!(capacity, 3);
                    shed += 1;
                }
                Err(other) => panic!("unexpected rejection: {other:?}"),
            }
        }
    }
    assert!(shed > 0, "bursts above capacity 3 must shed");
    for h in admitted {
        h.wait().expect("admitted requests are served");
    }
    let report = server.shutdown();
    assert_eq!(report.rejected_queue_full, shed);
    assert!(report.completed > 0);
}
