//! Server configuration.

use std::path::PathBuf;
use std::time::Duration;

use crate::faults::FaultPlan;

/// Tunables of a [`crate::Server`].
///
/// The defaults suit interactive tests; a deployment would size
/// `workers` to the engine pool it can afford and `queue_capacity` to
/// the latency it is willing to queue up.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Number of worker threads, each owning one [`ts_core::Engine`].
    pub workers: usize,
    /// Maximum frames coalesced into one batched inference call.
    pub max_batch: usize,
    /// How long the batcher holds an incomplete batch open waiting for
    /// more frames before dispatching it anyway.
    pub max_wait: Duration,
    /// Admission bound: submissions are rejected with
    /// [`crate::Rejected::QueueFull`] while this many requests are
    /// in flight (queued or executing).
    pub queue_capacity: usize,
    /// Deadline applied to requests submitted without an explicit one;
    /// `None` means such requests never expire.
    pub default_deadline: Option<Duration>,
    /// Where [`crate::Server::shutdown`] writes the Chrome trace of the
    /// serving run. Requires a tracer installed on the thread that
    /// constructs the [`crate::Server`]; ignored otherwise.
    pub trace_path: Option<PathBuf>,
    /// How long a worker may sit on one batch before the supervisor
    /// declares it stuck, detaches it, and restarts the slot with a
    /// fresh engine clone (the in-flight batch is re-enqueued or shed).
    /// `None` (the default) disables stall detection: a good threshold
    /// is a deployment judgment — several times the workload's p99 —
    /// and a guessed default would misfire on slow hosts, re-executing
    /// batches that were merely heavy. Panic supervision is always on.
    pub stall_timeout: Option<Duration>,
    /// How often the supervisor thread scans the worker pool for dead
    /// or stuck workers.
    pub supervisor_poll: Duration,
    /// How many times a request recovered from a crashed or stuck
    /// worker is re-enqueued before it is shed with
    /// [`crate::Rejected::WorkerCrashed`].
    pub max_requeues: u32,
    /// Deterministic fault schedule for chaos testing; `None` (the
    /// default) injects nothing.
    pub fault_plan: Option<FaultPlan>,
    /// Temporal kernel-map reuse: workers service each frame through
    /// [`ts_core::Engine::infer_stream`], patching the previous frame's
    /// stride-1 submanifold map per stream instead of rebuilding it.
    /// Frames are then executed one per inference call (per-stream maps
    /// cannot be shared across a merged multi-stream batch), trading
    /// cross-stream batching for mapping reuse — the right trade for
    /// few, temporally coherent streams. Off by default. Ignored (with
    /// a `serve.map_cache.disabled_degraded` counter) when the engine
    /// booted degraded.
    pub map_reuse: bool,
    /// Bound on cached per-stream map states; least recently used
    /// streams are evicted beyond it.
    pub map_cache_capacity: usize,
    /// Live telemetry: when set, the server's [`ts_obs::ServeRecord`]
    /// also keeps its live views — rolling-window health snapshots
    /// ([`crate::Server::health_snapshot`]), burn-rate SLO alerts
    /// ([`crate::Server::alerts`]) and a flight recorder dumped to a
    /// post-mortem file when the supervisor reaps a panicked or stalled
    /// worker or the node is halted. `None` (the default) leaves each
    /// fold the report and the trace counters.
    pub obs: Option<ts_obs::ObsConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            max_batch: 4,
            max_wait: Duration::from_millis(2),
            queue_capacity: 64,
            default_deadline: None,
            trace_path: None,
            stall_timeout: None,
            supervisor_poll: Duration::from_millis(5),
            max_requeues: 1,
            fault_plan: None,
            map_reuse: false,
            map_cache_capacity: 64,
            obs: None,
        }
    }
}

impl ServeConfig {
    /// Sets the worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the maximum batch size.
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch;
        self
    }

    /// Sets the batching window.
    pub fn with_max_wait(mut self, max_wait: Duration) -> Self {
        self.max_wait = max_wait;
        self
    }

    /// Sets the admission bound.
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Sets the default per-request deadline.
    pub fn with_default_deadline(mut self, deadline: Duration) -> Self {
        self.default_deadline = Some(deadline);
        self
    }

    /// Sets the Chrome-trace output path written at shutdown.
    pub fn with_trace_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.trace_path = Some(path.into());
        self
    }

    /// Sets the stall timeout after which a stuck worker is replaced;
    /// `None` disables stall detection.
    pub fn with_stall_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.stall_timeout = timeout;
        self
    }

    /// Sets the supervisor's scan interval.
    pub fn with_supervisor_poll(mut self, poll: Duration) -> Self {
        self.supervisor_poll = poll;
        self
    }

    /// Sets how many crash recoveries a request survives before it is
    /// shed with [`crate::Rejected::WorkerCrashed`].
    pub fn with_max_requeues(mut self, max_requeues: u32) -> Self {
        self.max_requeues = max_requeues;
        self
    }

    /// Installs a deterministic fault schedule for chaos testing.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Enables or disables temporal kernel-map reuse across each
    /// stream's consecutive frames.
    pub fn with_map_reuse(mut self, on: bool) -> Self {
        self.map_reuse = on;
        self
    }

    /// Sets the bound on cached per-stream map states.
    pub fn with_map_cache_capacity(mut self, capacity: usize) -> Self {
        self.map_cache_capacity = capacity;
        self
    }

    /// Enables live telemetry (health snapshots, SLO alerts, flight
    /// recorder); `obs` names the post-mortem directory, if any.
    pub fn with_obs(mut self, obs: ts_obs::ObsConfig) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Clamps degenerate values to their working minimum (at least one
    /// worker, batches of at least one frame, room for at least one
    /// request, a non-zero supervisor scan interval).
    pub(crate) fn normalized(mut self) -> Self {
        self.workers = self.workers.max(1);
        self.max_batch = self.max_batch.max(1);
        self.queue_capacity = self.queue_capacity.max(1);
        self.supervisor_poll = self.supervisor_poll.max(Duration::from_millis(1));
        self.map_cache_capacity = self.map_cache_capacity.max(1);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = ServeConfig::default();
        assert!(c.workers >= 1);
        assert!(c.max_batch >= 1);
        assert!(c.queue_capacity >= c.max_batch);
        assert!(c.default_deadline.is_none());
    }

    #[test]
    fn builder_chain() {
        let c = ServeConfig::default()
            .with_workers(4)
            .with_max_batch(8)
            .with_max_wait(Duration::from_millis(5))
            .with_queue_capacity(128)
            .with_default_deadline(Duration::from_millis(50))
            .with_trace_path("serve-trace.json");
        assert_eq!(c.trace_path, Some(PathBuf::from("serve-trace.json")));
        assert_eq!(c.workers, 4);
        assert_eq!(c.max_batch, 8);
        assert_eq!(c.max_wait, Duration::from_millis(5));
        assert_eq!(c.queue_capacity, 128);
        assert_eq!(c.default_deadline, Some(Duration::from_millis(50)));
    }

    #[test]
    fn normalized_clamps_zeros() {
        let c = ServeConfig {
            workers: 0,
            max_batch: 0,
            max_wait: Duration::ZERO,
            queue_capacity: 0,
            default_deadline: None,
            trace_path: None,
            stall_timeout: None,
            supervisor_poll: Duration::ZERO,
            max_requeues: 0,
            fault_plan: None,
            map_reuse: false,
            map_cache_capacity: 0,
            obs: None,
        }
        .normalized();
        assert_eq!(c.workers, 1);
        assert_eq!(c.max_batch, 1);
        assert_eq!(c.queue_capacity, 1);
        assert!(c.supervisor_poll >= Duration::from_millis(1));
        assert_eq!(c.map_cache_capacity, 1);
    }

    #[test]
    fn map_reuse_defaults_off_and_builds() {
        let c = ServeConfig::default();
        assert!(!c.map_reuse, "temporal reuse is opt-in");
        assert!(c.map_cache_capacity >= 1);
        let c = c.with_map_reuse(true).with_map_cache_capacity(8);
        assert!(c.map_reuse);
        assert_eq!(c.map_cache_capacity, 8);
    }

    #[test]
    fn obs_is_opt_in() {
        let c = ServeConfig::default();
        assert!(c.obs.is_none(), "telemetry is opt-in");
        let c = c.with_obs(ts_obs::ObsConfig::default().with_postmortem_dir("target/pm"));
        let obs = c.obs.expect("configured");
        assert_eq!(obs.postmortem_dir.as_deref(), Some("target/pm"));
    }

    #[test]
    fn resilience_defaults_are_sane() {
        let c = ServeConfig::default();
        assert!(
            c.stall_timeout.is_none(),
            "stall detection is opt-in: a guessed timeout misfires on slow hosts"
        );
        assert!(c.supervisor_poll > Duration::ZERO);
        assert!(c.fault_plan.is_none(), "no faults unless asked for");
        let c = c
            .with_stall_timeout(Some(Duration::from_millis(80)))
            .with_supervisor_poll(Duration::from_millis(2))
            .with_max_requeues(3);
        assert_eq!(c.stall_timeout, Some(Duration::from_millis(80)));
        assert_eq!(c.supervisor_poll, Duration::from_millis(2));
        assert_eq!(c.max_requeues, 3);
    }
}
