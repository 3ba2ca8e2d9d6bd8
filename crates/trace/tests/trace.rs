//! Behavioural tests for the tracing spine: guard discipline under
//! panics and early returns, cross-thread collection, counter
//! saturation, and Chrome trace-event schema validity.

#![cfg(feature = "enabled")]

use std::collections::HashMap;
use std::time::Instant;

use serde_json::Value;
use ts_trace::{span, ArgValue, Subsystem, Tracer};

fn names(tracer: &Tracer) -> Vec<String> {
    tracer.spans().iter().map(|s| s.name.clone()).collect()
}

#[test]
fn spans_nest_and_parent_on_one_thread() {
    let tracer = Tracer::new();
    tracer.install();
    {
        let _outer = span!(Subsystem::Core, "outer");
        let _inner = span!(Subsystem::Core, "inner", depth = 1u64);
    }
    ts_trace::uninstall();
    let spans = tracer.spans();
    assert_eq!(spans.len(), 2);
    let outer = spans.iter().find(|s| s.name == "outer").expect("outer");
    let inner = spans.iter().find(|s| s.name == "inner").expect("inner");
    assert_eq!(outer.parent, None);
    assert_eq!(inner.parent, Some(outer.id));
    assert!(inner.begin_us >= outer.begin_us);
    assert!(inner.end_us <= outer.end_us + 1.0);
    assert_eq!(inner.arg("depth"), Some(&ArgValue::U64(1)));
}

#[test]
fn guard_closes_on_early_return() {
    fn short_circuit(flag: bool) -> u32 {
        let _g = span!(Subsystem::App, "early");
        if flag {
            return 1;
        }
        0
    }
    let tracer = Tracer::new();
    tracer.install();
    assert_eq!(short_circuit(true), 1);
    ts_trace::uninstall();
    let spans = tracer.spans();
    assert_eq!(names(&tracer), vec!["early".to_string()]);
    // Closed by the guard, not by export-time synthesis: the end event
    // exists, so the pair count is even.
    assert_eq!(tracer.event_count(), 2);
    assert!(spans[0].end_us >= spans[0].begin_us);
}

#[test]
fn guard_closes_when_the_span_body_panics() {
    let tracer = Tracer::new();
    tracer.install();
    let result = std::panic::catch_unwind(|| {
        let _g = span!(Subsystem::App, "doomed");
        panic!("boom");
    });
    assert!(result.is_err());
    // The panic unwound through the guard: the span is closed and a new
    // span opened afterwards is a root, not a child of "doomed".
    {
        let _after = span!(Subsystem::App, "after");
    }
    ts_trace::uninstall();
    let spans = tracer.spans();
    assert_eq!(tracer.event_count(), 4, "both spans closed by guards");
    let doomed = spans.iter().find(|s| s.name == "doomed").expect("doomed");
    let after = spans.iter().find(|s| s.name == "after").expect("after");
    assert_eq!(doomed.parent, None);
    assert_eq!(after.parent, None, "panicked span must not leak a parent");
}

#[test]
fn uninstalled_thread_records_nothing() {
    let tracer = Tracer::new();
    tracer.install();
    ts_trace::uninstall();
    {
        let mut g = span!(Subsystem::App, "ghost");
        assert!(!g.active());
        g.arg("k", 1u64);
    }
    ts_trace::counter_add("app.ghost.count", 1);
    assert_eq!(tracer.event_count(), 0);
    assert!(tracer.counters().is_empty());
    assert!(!ts_trace::active());
}

#[test]
fn spawned_threads_feed_one_tracer_with_distinct_tids() {
    let tracer = Tracer::new();
    tracer.install();
    let root_id = {
        let root = span!(Subsystem::App, "root");
        root.id().expect("active")
    };
    let handles: Vec<_> = (0..2)
        .map(|i| {
            let t = tracer.clone();
            std::thread::Builder::new()
                .name(format!("worker-{i}"))
                .spawn(move || {
                    ts_trace::install_opt(Some(&t));
                    let _g = span!(Subsystem::App, "work");
                })
                .expect("spawn")
        })
        .collect();
    for h in handles {
        h.join().expect("join");
    }
    ts_trace::uninstall();
    let spans = tracer.spans();
    let tids: Vec<_> = spans
        .iter()
        .filter(|s| s.name == "work")
        .map(|s| s.lane.clone())
        .collect();
    assert_eq!(tids.len(), 2);
    assert_ne!(tids[0], tids[1], "each thread gets its own lane");
    // Worker spans opened without an explicit parent are roots.
    assert!(spans
        .iter()
        .filter(|s| s.name == "work")
        .all(|s| s.parent != Some(root_id)));
}

#[test]
fn explicit_parenting_crosses_threads() {
    let tracer = Tracer::new();
    tracer.install();
    let submit = Instant::now();
    let root = tracer.alloc_span_id();
    let t = tracer.clone();
    std::thread::spawn(move || {
        ts_trace::install_opt(Some(&t));
        let exec = Instant::now();
        let tr = ts_trace::current().expect("installed");
        tr.record_span_at(
            Subsystem::Serve,
            "req-1",
            "queue_wait",
            submit,
            exec,
            Some(root),
            vec![],
        );
        tr.record_span_at_id(
            root,
            Subsystem::Serve,
            "req-1",
            "request",
            submit,
            Instant::now(),
            None,
            vec![("req".to_string(), ArgValue::U64(1))],
        );
    })
    .join()
    .expect("join");
    ts_trace::uninstall();
    let spans = tracer.spans();
    let req = spans.iter().find(|s| s.name == "request").expect("root");
    let wait = spans.iter().find(|s| s.name == "queue_wait").expect("qw");
    assert_eq!(req.id, root);
    assert_eq!(wait.parent, Some(root), "child recorded before its parent");
}

#[test]
fn counters_saturate_and_sort() {
    let tracer = Tracer::new();
    tracer.install();
    ts_trace::counter_add("core.prepare_cache.hit", i64::MAX - 1);
    ts_trace::counter_add("core.prepare_cache.hit", 5);
    ts_trace::counter_add("app.z.last", 1);
    ts_trace::counter_add("app.a.first", 1);
    ts_trace::uninstall();
    assert_eq!(tracer.counter("core.prepare_cache.hit"), i64::MAX);
    let keys: Vec<_> = tracer.counters().into_iter().map(|(k, _)| k).collect();
    assert_eq!(
        keys,
        vec!["app.a.first", "app.z.last", "core.prepare_cache.hit"]
    );
}

#[test]
fn sim_lanes_are_monotone_and_filtered() {
    let tracer = Tracer::new();
    tracer.install();
    ts_trace::sim_kernel("gemm-a", "compute", 100, 0.9, 5.0);
    ts_trace::sim_kernel("map-b", "mapping", 0, 0.2, 3.0);
    tracer.set_sim_kernels(false);
    ts_trace::sim_kernel("dropped", "compute", 1, 0.5, 1.0);
    ts_trace::uninstall();
    let spans = tracer.spans();
    assert_eq!(spans.len(), 2, "filter drops the third kernel");
    assert_eq!(spans[0].begin_us, 0.0);
    assert_eq!(spans[0].end_us, 5.0);
    assert_eq!(spans[1].begin_us, 5.0, "cursor advances");
    assert_eq!(
        spans[0].arg("class"),
        Some(&ArgValue::Str("compute".to_string()))
    );
    assert_eq!(spans[0].arg("macs"), Some(&ArgValue::U64(100)));
}

/// Walks a Chrome trace JSON string and checks the invariants the ISSUE
/// requires: valid JSON, every `B` has an `E` (per tid, stack
/// discipline), and `ts` monotone non-decreasing per `(pid, tid)`.
pub fn assert_chrome_schema(json: &str) -> usize {
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
        assert!(
            ts >= prev,
            "ts must be monotone per tid: {ts} < {prev} on {key:?}"
        );
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
fn chrome_export_satisfies_the_schema() {
    let tracer = Tracer::new();
    tracer.install();
    {
        let _outer = span!(Subsystem::Autotune, "tune", groups = 3u64);
        for g in 0..3u64 {
            let _inner = span!(Subsystem::Autotune, "group", g = g);
            ts_trace::sim_kernel("gemm", "compute", 64, 0.8, 2.5);
        }
    }
    ts_trace::counter_add("autotune.candidates.swept", 42);
    tracer.gauge_set("autotune.speedup", 1.5);
    ts_trace::uninstall();
    let json = tracer.chrome_trace_json();
    let checked = assert_chrome_schema(&json);
    // 4 B + 4 E + 3 X + 1 C.
    assert_eq!(checked, 12);
    assert!(json.contains("\"process_name\""));
    assert!(json.contains("\"thread_name\""));
    assert!(json.contains("autotune.candidates.swept"));
}

#[test]
fn chrome_export_closes_still_open_spans() {
    let tracer = Tracer::new();
    tracer.install();
    let _open = span!(Subsystem::Core, "still_running");
    let json = tracer.chrome_trace_json();
    assert_chrome_schema(&json);
    drop(_open);
    ts_trace::uninstall();
}

#[test]
fn chrome_export_escapes_names() {
    let tracer = Tracer::new();
    tracer.install();
    {
        let mut g = span!(Subsystem::App, "weird \"name\"\n");
        g.arg("note", "tab\there");
    }
    ts_trace::uninstall();
    assert_chrome_schema(&tracer.chrome_trace_json());
}

#[test]
fn summary_aggregates_repeats() {
    let tracer = Tracer::new();
    tracer.install();
    {
        let _t = span!(Subsystem::Autotune, "tune");
        for _ in 0..5 {
            let _g = span!(Subsystem::Autotune, "group");
        }
    }
    ts_trace::counter_add("autotune.rounds.completed", 5);
    ts_trace::uninstall();
    let summary = tracer.summary();
    assert!(summary.contains("[autotune]"), "{summary}");
    assert!(summary.contains("group  x5"), "{summary}");
    assert!(
        summary.contains("autotune.rounds.completed = 5"),
        "{summary}"
    );
}

#[test]
fn reinstalling_on_the_same_thread_keeps_one_tid() {
    let tracer = Tracer::new();
    tracer.install();
    {
        let _a = span!(Subsystem::App, "a");
    }
    ts_trace::uninstall();
    tracer.install();
    {
        let _b = span!(Subsystem::App, "b");
    }
    ts_trace::uninstall();
    let spans = tracer.spans();
    assert_eq!(spans[0].lane, spans[1].lane);
}

/// Every counter name the workspace currently emits, paired with the
/// subsystem whose Chrome-trace process it must land on. Keep in sync
/// with the counter-vocabulary table in `lib.rs` — a new counter whose
/// prefix is not a known subsystem label silently falls back to `App`,
/// which is exactly the regression this list guards against.
const EMITTED_COUNTERS: &[(&str, Subsystem)] = &[
    ("kernelgen.kernels.generated", Subsystem::Kernelgen),
    ("core.prepare_cache.hit", Subsystem::Core),
    ("core.prepare_cache.miss", Subsystem::Core),
    ("core.schedule.group_downgraded", Subsystem::Core),
    ("core.stream.entered", Subsystem::Core),
    ("core.stream.exited", Subsystem::Core),
    ("core.stream.frames", Subsystem::Core),
    ("core.stream.patched", Subsystem::Core),
    ("core.stream.rebuilt", Subsystem::Core),
    ("core.walk.macs", Subsystem::Core),
    ("autotune.candidates.swept", Subsystem::Autotune),
    ("autotune.groups.tuned", Subsystem::Autotune),
    ("autotune.rounds.completed", Subsystem::Autotune),
    ("autotune.speedup", Subsystem::Autotune),
    ("serve.batches.dispatched", Subsystem::Serve),
    ("serve.batches.executed", Subsystem::Serve),
    ("serve.chaos.injected_panic", Subsystem::Serve),
    ("serve.chaos.injected_stall", Subsystem::Serve),
    ("serve.deadline.missed", Subsystem::Serve),
    ("serve.frames.rejected", Subsystem::Serve),
    ("serve.map_cache.disabled_degraded", Subsystem::Serve),
    ("serve.map_cache.entered", Subsystem::Serve),
    ("serve.map_cache.evicted", Subsystem::Serve),
    ("serve.map_cache.exited", Subsystem::Serve),
    ("serve.map_cache.hit", Subsystem::Serve),
    ("serve.map_cache.invalidated", Subsystem::Serve),
    ("serve.map_cache.miss", Subsystem::Serve),
    ("serve.map_cache.patched", Subsystem::Serve),
    ("serve.map_cache.rebuilt", Subsystem::Serve),
    ("serve.requests.completed", Subsystem::Serve),
    ("serve.requests.rejected_queue_full", Subsystem::Serve),
    ("serve.requests.requeued", Subsystem::Serve),
    ("serve.requests.shed_crashed", Subsystem::Serve),
    ("serve.requests.shed_deadline", Subsystem::Serve),
    ("serve.requests.shed_halt", Subsystem::Serve),
    ("serve.schedule.downgraded", Subsystem::Serve),
    ("serve.workers.panicked", Subsystem::Serve),
    ("serve.workers.restarted", Subsystem::Serve),
    ("serve.workers.stalled", Subsystem::Serve),
    ("fleet.nodes.killed", Subsystem::Fleet),
    ("fleet.nodes.restarted", Subsystem::Fleet),
    ("fleet.requests.affinity", Subsystem::Fleet),
    ("fleet.requests.hashed", Subsystem::Fleet),
    ("fleet.requests.rejected_no_capacity", Subsystem::Fleet),
    ("fleet.requests.routed", Subsystem::Fleet),
    ("fleet.requests.spilled", Subsystem::Fleet),
    ("fleet.streams.migrated", Subsystem::Fleet),
    ("fleet.streams.re_homed", Subsystem::Fleet),
    ("obs.alerts.page_cleared", Subsystem::Obs),
    ("obs.alerts.page_tripped", Subsystem::Obs),
    ("obs.alerts.warn_cleared", Subsystem::Obs),
    ("obs.alerts.warn_tripped", Subsystem::Obs),
    ("obs.postmortem.dumped", Subsystem::Obs),
    ("obs.snapshots.exported", Subsystem::Obs),
    ("cache.hit", Subsystem::Cache),
    ("cache.miss", Subsystem::Cache),
    ("cache.warm_start", Subsystem::Cache),
    ("cache.retuned_groups", Subsystem::Cache),
    ("cache.inserted", Subsystem::Cache),
    ("cache.evicted", Subsystem::Cache),
    ("cache.rejected", Subsystem::Cache),
    ("cache.train.hit", Subsystem::Cache),
    ("cache.train.miss", Subsystem::Cache),
    ("cache.train.warm_start", Subsystem::Cache),
    ("cache.train.retuned_groups", Subsystem::Cache),
    ("cache.train.inserted", Subsystem::Cache),
    ("cache.train.evicted", Subsystem::Cache),
    ("cache.train.rejected", Subsystem::Cache),
    ("train.map.patched", Subsystem::Train),
    ("train.map.rebuilt", Subsystem::Train),
    ("train.microbatches.executed", Subsystem::Train),
    ("train.plan.compiled", Subsystem::Train),
    ("train.steps.completed", Subsystem::Train),
    ("train.steps.skipped_overflow", Subsystem::Train),
];

#[test]
fn every_emitted_counter_maps_to_its_own_subsystem() {
    for &(name, expected) in EMITTED_COUNTERS {
        let got = Subsystem::from_counter_name(name);
        assert_eq!(
            got, expected,
            "counter '{name}' must land on [{expected}], got [{got}]"
        );
        assert_ne!(
            expected,
            Subsystem::App,
            "'{name}' is a subsystem counter; only app.* may fall back to App"
        );
    }
    // The fallback still works for genuinely unknown prefixes.
    assert_eq!(
        Subsystem::from_counter_name("app.demo.count"),
        Subsystem::App
    );
    assert_eq!(Subsystem::from_counter_name("nonsense.x.y"), Subsystem::App);
    assert_eq!(Subsystem::from_counter_name(""), Subsystem::App);
}

#[test]
fn subsystem_pids_are_unique_and_match_all_order() {
    let mut pids: Vec<u64> = Subsystem::ALL.iter().map(|s| s.pid()).collect();
    assert!(
        pids.windows(2).all(|w| w[0] < w[1]),
        "ALL must be pid-sorted"
    );
    pids.dedup();
    assert_eq!(pids.len(), Subsystem::ALL.len());
    // Labels round-trip through from_counter_name.
    for s in Subsystem::ALL {
        assert_eq!(
            Subsystem::from_counter_name(&format!("{}.a.b", s.label())),
            s
        );
    }
}
