//! Tracing compiled out (`--no-default-features`): the one
//! implementation still compiles, but installing does nothing, so every
//! entry point finds no tracer and the handle stays empty.

#![cfg(not(feature = "enabled"))]

use std::time::Instant;

use ts_trace::{span, ArgValue, Subsystem, Tracer};

const _: () = assert!(!ts_trace::ENABLED);

#[test]
fn every_entry_point_records_nothing() {
    let tracer = Tracer::new();
    tracer.install();
    ts_trace::install_opt(Some(&tracer));
    assert!(!ts_trace::active());
    assert!(ts_trace::current().is_none());
    {
        let mut outer = span!(Subsystem::Core, "outer", groups = 3u64);
        assert!(!outer.active());
        assert_eq!(outer.id(), None);
        outer.arg("layers", 7usize);
        let _inner = ts_trace::span(Subsystem::Core, "inner");
        let _quiet = ts_trace::suppress_sim_kernels();
        ts_trace::counter_add("core.walk.macs", 42);
        ts_trace::gauge_set("autotune.speedup", 1.5);
        let now = Instant::now();
        let recorded = ts_trace::record_span_at(
            Subsystem::Serve,
            "req-0",
            "request",
            now,
            now,
            None,
            vec![("stream".to_string(), ArgValue::U64(0))],
        );
        assert_eq!(recorded, None);
        ts_trace::sim_span(Subsystem::Core, "groups", "group[0]", 3.0, Vec::new());
        ts_trace::sim_kernel("gemm", "compute", 64, 0.5, 2.0);
    }
    assert!(
        tracer.sim_kernels(),
        "the suppression never reached the tracer"
    );
    ts_trace::uninstall();

    assert_eq!(tracer.event_count(), 0);
    assert!(tracer.spans().is_empty());
    assert!(tracer.counters().is_empty());
    assert!(tracer.gauges().is_empty());
    assert!(!ts_trace::active());
    assert!(ts_trace::current().is_none());
}
