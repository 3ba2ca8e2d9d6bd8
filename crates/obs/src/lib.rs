//! # ts-obs: one record of every serve event
//!
//! TorchSparse++'s argument is built on measurement — per-kernel-class
//! latency breakdowns and mapping-vs-matmul attribution drive every
//! tuning decision — and a serving fleet has to answer the same
//! questions *while it runs*: is this node burning its deadline-miss
//! budget right now? What were the last 200 events before that worker
//! crashed? [`ts_trace`](../ts_trace) records what happened after a run
//! ends; this crate is the online half.
//!
//! Every serve instrumentation site emits one typed [`ObsEvent`]. A
//! [`ServeRecord`] folds it once, with one match, into every view of
//! it: the cumulative [`ServeReport`], the event's `serve.*` trace
//! counters and, with live telemetry on, three live views:
//!
//! 1. **Rolling windows**: completions, latency ([`LatencyHistogram`]
//!    per slot, so windowed and cumulative percentiles follow one
//!    rule), per-stream latency, faults, sheds and map reuse on one
//!    plain time wheel, read into a [`HealthSnapshot`] at any instant.
//! 2. **SLO monitor** ([`SloMonitor`]): deadline-miss burn rate over
//!    fast/slow sliding windows (SRE multi-window burn-rate alerting),
//!    emitting edge-triggered [`Alert`]s — `PageWorthy` on an acute
//!    fast-window burn, `Warning` on a sustained slow-window leak —
//!    into trace counters and the fleet report. Deterministic under
//!    virtual clocks: every write takes an explicit `now_us`.
//! 3. **Flight recorder**: a bounded ring of recent structural events,
//!    copied into a [`PostMortem`] JSON file when the supervisor reaps
//!    a panicked worker or a node dies.
//!
//! The record is plain data: ts-serve keeps it behind its server's one
//! metrics lock, so the report, the counters and the live views cannot
//! disagree about what happened. The crate is engine-agnostic: it
//! knows timestamps, streams, batches and faults, never tensors.
//! `ts-fleet` runs the SLO monitor deterministically inside `FleetSim`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod histogram;
mod record;
mod recorder;
mod report;
mod slo;
mod window;

pub use histogram::{bucket_index, bucket_upper_us, LatencyHistogram, BUCKETS};
pub use record::{HealthSnapshot, ObsConfig, ServeRecord, StreamHealth};
pub use recorder::{
    FaultKind, MapUpdateKind, MigrationKind, ObsEvent, PostMortem, RecordedEvent, RejectReason,
    ShedReason,
};
pub use report::{HistogramBucket, ServeReport, StreamStats};
pub use slo::{Alert, AlertLevel, AlertState, BurnReading, SloMonitor, SloPolicy};
