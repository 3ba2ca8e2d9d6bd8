//! Multi-stream inference serving for TorchSparse++.
//!
//! The paper's framing is that the Sparse Autotuner's cost is amortised
//! because "the tuned schedule could be reused for millions of scenes
//! in real-world ADAS applications" (Section 4.2). This crate is the
//! deployment side of that claim: a [`Server`] that boots a pool of
//! tuned [`ts_core::Engine`]s once and serves continuous frame streams
//! against them.
//!
//! * **Dynamic batching** — queued frames from any stream are
//!   coalesced into one multi-batch sparse tensor (each frame gets a
//!   distinct batch index) up to [`ServeConfig::max_batch`] frames or
//!   [`ServeConfig::max_wait`]. Because the coordinate hash key packs
//!   the batch index into its own bit field, kernel maps never connect
//!   points across frames, so batched outputs are **bit-identical** to
//!   serial per-frame inference while amortising mapping and kernel
//!   launch work.
//! * **Admission control and deadlines** — submissions beyond
//!   [`ServeConfig::queue_capacity`] in-flight requests are load-shed
//!   with [`Rejected::QueueFull`]; each request may carry a deadline,
//!   the batcher dequeues earliest-deadline-first, expired requests
//!   are shed unexecuted, and shutdown drains everything already
//!   admitted.
//! * **Schedule persistence** — servers boot from the engine that
//!   ts-cache's `warm_boot` resolves from a content-addressed schedule
//!   store instead of re-tuning; a store with nothing for this
//!   network, device and precision boots the safe fallback.
//! * **SLO accounting** — per-stream wall-latency histograms (exact
//!   count, mean, min, max and std; p50/p90/p99 at log-bucket
//!   resolution), batch size and queue-depth histograms, throughput,
//!   and deadline-miss counters, exported as JSON via [`ServeReport`].
//!   Every instrumentation site emits one typed [`ObsEvent`]; the
//!   report, the `serve.*` trace counters and the live telemetry below
//!   are folds of that one record.
//! * **Robustness** — workers run under a supervisor that restarts
//!   panicked or stuck workers from fresh engine clones and re-enqueues
//!   or sheds their in-flight requests with typed outcomes
//!   ([`Rejected::WorkerCrashed`]); every submitted request resolves,
//!   crash or not; [`Rejected::retryable`] tells a caller which
//!   rejections are worth resubmitting. Engines whose schedules fail
//!   validation boot degraded on the safe fallback dataflow instead of
//!   refusing to serve (see [`ts_core::Engine::new`]); responses carry a
//!   [`Response::degraded`] flag and the report counts the downgrades.
//! * **Temporal map reuse** — with [`ServeConfig::with_map_reuse`],
//!   workers service each frame through
//!   [`ts_core::Engine::infer_stream`], keeping a bounded per-stream
//!   cache of incrementally maintained kernel maps
//!   ([`ts_core::StreamState`]): consecutive frames of a coherent
//!   stream patch the previous frame's map instead of rebuilding it.
//!   The cache is LRU-evicted, invalidated wholesale on worker
//!   respawn, and never enabled on a degraded engine; reuse activity is
//!   reported via the `map_*` counters of [`ServeReport`] and the
//!   `serve.map_cache.*` trace counters.
//! * **Deterministic chaos testing** — with the `chaos` feature, a
//!   seeded [`FaultPlan`] injects worker panics and stalls as a pure
//!   function of the batch sequence number, so a failing chaos run
//!   replays bit-identically from its seed. Without the feature the
//!   injection sites compile to no-ops.
//! * **Live telemetry** — with [`ServeConfig::with_obs`], every event
//!   also feeds a [`ts_obs::Telemetry`] registry: rolling-window
//!   health snapshots ([`Server::health_snapshot`]), multi-window
//!   burn-rate SLO alerts ([`Server::alerts`]), and a flight recorder
//!   of recent structured events dumped to a post-mortem JSON file when
//!   the supervisor reaps a panicked or stalled worker or the node is
//!   halted. See `OPERATIONS.md` ("Alerting") for the runbook.
//!
//! See `examples/serve_lidar_stream.rs` for an end-to-end deployment
//! loop, `examples/serve_resilience.rs` for degraded boot, and
//! `benches/serve_throughput.rs` for the batching speedup measurement.
//! `OPERATIONS.md` at the repository root is the operator's runbook for
//! the failure modes and counters defined here.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod batch;
mod config;
mod faults;
mod mapcache;
mod metrics;
mod server;
mod supervisor;

pub use batch::{merge_frames, sort_by_coord, split_output, validate_frame, FrameError};
pub use config::ServeConfig;
pub use faults::{Fault, FaultPlan};
pub use metrics::{HistogramBucket, ServeReport, ServerLoad, StreamStats};
pub use server::{Rejected, Response, ResponseHandle, Server};
// Re-exported so serve users configure and read telemetry without a
// direct ts-obs dependency.
pub use ts_obs::{
    Alert, AlertLevel, AlertState, FaultKind, HealthSnapshot, LatencyHistogram, MapUpdateKind,
    MigrationKind, ObsConfig, ObsEvent, PostMortem, RecordedEvent, RejectReason, ShedReason,
    SloPolicy, StreamHealth, Telemetry,
};
