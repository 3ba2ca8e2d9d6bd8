//! # ts-obs: live telemetry for TorchSparse++ serving
//!
//! TorchSparse++'s argument is built on measurement — per-kernel-class
//! latency breakdowns and mapping-vs-matmul attribution drive every
//! tuning decision — and a serving fleet has to answer the same
//! questions *while it runs*: is this node burning its deadline-miss
//! budget right now? What were the last 200 events before that worker
//! crashed? [`ts_trace`](../ts_trace) records what happened after a run
//! ends; this crate is the online half. Three pillars:
//!
//! 1. **Online metrics registry** ([`Telemetry`]): log-bucketed
//!    rolling-window histograms ([`RollingHistogram`]) and windowed
//!    counters ([`WindowedCounter`]) on lock-free time wheels, sharded
//!    per worker and merged on read into a [`HealthSnapshot`]
//!    (per-stream p50/p99, queue depth, reuse rate) exportable at any
//!    instant.
//! 2. **SLO monitor** ([`SloMonitor`]): deadline-miss burn rate over
//!    fast/slow sliding windows (SRE multi-window burn-rate alerting),
//!    emitting edge-triggered [`Alert`]s — `PageWorthy` on an acute
//!    fast-window burn, `Warning` on a sustained slow-window leak —
//!    into trace counters and the fleet report. Deterministic under
//!    virtual clocks: every write takes an explicit `now_us`.
//! 3. **Flight recorder** ([`FlightRecorder`]): a fixed-size ring of
//!    recent structured [`ObsEvent`]s per server, dumped to a
//!    [`PostMortem`] JSON file when the supervisor reaps a panicked
//!    worker or a node dies.
//!
//! The crate is deliberately engine-agnostic: it knows timestamps,
//! streams, batches and faults, never tensors. Every serve
//! instrumentation site emits one typed [`ObsEvent`]; `ts-serve`'s
//! `Metrics::record` folds it into the cumulative report and its trace
//! counters and hands the same event to [`Telemetry::observe_at`], the
//! registry's one write entry point. `ts-train` feeds its virtual-clock
//! steps through the same call, and `ts-fleet` evaluates the SLO
//! monitor deterministically inside `FleetSim`. [`LatencyHistogram`] is
//! the fixed-size cumulative latency distribution the serve report
//! keeps per stream, on the same buckets the windows use.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod histogram;
mod recorder;
mod registry;
mod slo;
mod window;

pub use histogram::{
    bucket_index, bucket_upper_us, HistogramSnapshot, LatencyHistogram, RollingHistogram, BUCKETS,
};
pub use recorder::{
    FaultKind, FlightRecorder, MapUpdateKind, MigrationKind, ObsEvent, PostMortem, RecordedEvent,
    RejectReason, ShedReason,
};
pub use registry::{HealthSnapshot, ObsConfig, StreamHealth, Telemetry};
pub use slo::{Alert, AlertLevel, AlertState, BurnReading, SloMonitor, SloPolicy};
pub use window::WindowedCounter;
