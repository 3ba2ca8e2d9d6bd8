//! SLO accounting: the cumulative [`ServeReport`] and the cheap
//! [`ServerLoad`] poll, both folds of the serve events every
//! instrumentation site emits through [`Metrics::record`].
//!
//! One call records an event everywhere it is counted: the report
//! state, the `serve.*` counters of the server's tracer (from the one
//! name table, [`trace_counters`]), and — when the server was configured
//! with [`crate::ServeConfig::with_obs`] — the live
//! [`ts_obs::Telemetry`] registry. The cumulative report, the trace and
//! the rolling-window health snapshot therefore cannot disagree about
//! what happened.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use serde::{Deserialize, Serialize};
use ts_obs::{LatencyHistogram, ObsEvent, RejectReason, Telemetry};

/// One bucket of a discrete histogram (`value` occurred `count` times).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramBucket {
    /// Observed value (batch size, queue depth, ...).
    pub value: u64,
    /// Number of observations.
    pub count: u64,
}

/// Adds `count` observations of `value` to buckets kept sorted by value.
fn bump(buckets: &mut Vec<HistogramBucket>, value: u64, count: u64) {
    match buckets.binary_search_by_key(&value, |b| b.value) {
        Ok(i) => buckets[i].count += count,
        Err(i) => buckets.insert(i, HistogramBucket { value, count }),
    }
}

/// A point-in-time load snapshot of one server, cheap enough to poll on
/// every routing decision ([`crate::Server::load`]). A fleet router uses
/// it to detect overload (estimated queueing delay) and quality
/// degradation (deadline-miss rate) without paying for a full
/// [`ServeReport`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServerLoad {
    /// Requests currently in flight (queued or executing).
    pub queue_depth: usize,
    /// Requests answered with an output so far.
    pub completed: u64,
    /// Requests that completed after their deadline so far.
    pub deadline_misses: u64,
    /// Requests shed unexecuted past their deadline so far.
    pub shed_deadline: u64,
    /// Total simulated execution microseconds across completed
    /// requests; `sim_us_total / completed` is the device's simulated
    /// mean service time (the cost model's figure, not a wall-clock
    /// measurement), which a heterogeneous-fleet router uses to turn
    /// queue depth into expected wait.
    pub sim_us_total: f64,
}

impl ServerLoad {
    /// Fraction of finished requests (completed or shed) that violated
    /// their deadline; 0 before anything finishes.
    pub fn miss_rate(&self) -> f64 {
        let finished = self.completed + self.shed_deadline;
        if finished == 0 {
            return 0.0;
        }
        (self.deadline_misses + self.shed_deadline) as f64 / finished as f64
    }

    /// Simulated mean service time per completed request, in
    /// microseconds (the cost model's figure, not a wall-clock
    /// measurement); 0 before anything completes.
    pub fn est_service_us(&self) -> f64 {
        if self.completed == 0 {
            return 0.0;
        }
        self.sim_us_total / self.completed as f64
    }
}

/// Latency distribution of one stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamStats {
    /// Stream identifier (caller-chosen).
    pub stream: u64,
    /// End-to-end (submit -> response) wall latency, microseconds.
    pub latency: LatencyHistogram,
}

/// Snapshot of a server's SLO counters, exported as JSON.
///
/// Latency is kept as fixed-size log-bucketed histograms
/// ([`LatencyHistogram`]), one per stream plus one overall: count,
/// mean, min, max and standard deviation are exact, and p50/p90/p99
/// ([`LatencyHistogram::quantile_us`]) are bucket-resolution values
/// (never below the exact percentile, above it by less than one
/// quarter-octave bucket) clamped to `[min, max]`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ServeReport {
    /// Requests answered with an output tensor.
    pub completed: u64,
    /// Requests refused at submission because the queue was full.
    pub rejected_queue_full: u64,
    /// Requests refused because their frame was malformed.
    pub rejected_bad_frame: u64,
    /// Requests shed unexecuted because their deadline had already
    /// passed when the server got to them.
    pub shed_deadline: u64,
    /// Requests shed with [`crate::Rejected::WorkerCrashed`] after
    /// exhausting their re-enqueue budget.
    pub shed_crashed: u64,
    /// Requests shed unexecuted because the node was halted
    /// ([`crate::Server::halt`] — a fleet-level node kill). Absent in
    /// reports written before halt existed, hence the serde default.
    #[serde(default)]
    pub shed_halt: u64,
    /// Requests that completed, but after their deadline.
    pub deadline_misses: u64,
    /// Worker threads that died by panic and were reaped.
    pub worker_panics: u64,
    /// Workers declared stuck (busy on one batch past the stall
    /// timeout) and retired.
    pub worker_stalls: u64,
    /// Replacement workers spawned by the supervisor.
    pub worker_restarts: u64,
    /// Requests recovered from a dead or stuck worker and re-enqueued.
    pub requeued: u64,
    /// Schedule slots the serving engine runs on the safe fallback
    /// dataflow because their configs failed validation (see
    /// [`ts_core::Engine::downgrades`]).
    pub schedule_downgrades: u64,
    /// Frames that found their stream's kernel map cached (temporal
    /// reuse; see [`crate::ServeConfig::with_map_reuse`]).
    pub map_cache_hits: u64,
    /// Frames that found no cached map for their stream and built one
    /// from scratch.
    pub map_cache_misses: u64,
    /// Cache hits resolved by patching the previous frame's map in
    /// place (churn under the threshold).
    pub map_patched: u64,
    /// Cache hits that rebuilt the map anyway because churn exceeded
    /// the [`ts_core::DeltaConfig::default`] threshold.
    pub map_rebuilt: u64,
    /// Stream states evicted from the bounded map cache (LRU).
    pub map_evicted: u64,
    /// Stream states dropped wholesale when the cache was invalidated
    /// (worker respawn).
    pub map_invalidated: u64,
    /// Wall-clock seconds from server start to this snapshot.
    pub wall_s: f64,
    /// Completed frames per wall-clock second.
    pub throughput_fps: f64,
    /// Sum of simulated GPU time across all executed batches, in
    /// microseconds (each batch counted once, not per frame).
    pub sim_us_total: f64,
    /// Distribution of executed batch sizes.
    pub batch_sizes: Vec<HistogramBucket>,
    /// Distribution of in-flight queue depth, sampled at each accepted
    /// submission.
    pub queue_depths: Vec<HistogramBucket>,
    /// Per-stream latency distributions, sorted by stream id.
    pub streams: Vec<StreamStats>,
    /// Latency distribution over all completed requests (empty when
    /// nothing completed).
    pub overall: LatencyHistogram,
    /// Path of the Chrome trace written at shutdown, when the server
    /// was started with a tracer installed and
    /// [`crate::ServeConfig::with_trace_path`].
    pub trace_path: Option<String>,
}

impl ServeReport {
    /// Whether the deployment saw any fault — a worker panic or stall,
    /// a crashed-out request, or a schedule downgrade at boot.
    pub fn saw_faults(&self) -> bool {
        self.worker_panics > 0
            || self.worker_stalls > 0
            || self.shed_crashed > 0
            || self.schedule_downgrades > 0
    }

    /// Fraction of map-cache lookups whose stream state was found and
    /// patched in place — the temporal-reuse payoff metric. Zero when
    /// reuse is off or nothing was looked up.
    pub fn map_reuse_rate(&self) -> f64 {
        let lookups = self.map_cache_hits + self.map_cache_misses;
        if lookups == 0 {
            return 0.0;
        }
        self.map_patched as f64 / lookups as f64
    }

    /// Fraction of finished requests (completed or shed) that violated
    /// their deadline.
    pub fn deadline_miss_rate(&self) -> f64 {
        let finished = self.completed + self.shed_deadline;
        if finished == 0 {
            return 0.0;
        }
        (self.deadline_misses + self.shed_deadline) as f64 / finished as f64
    }

    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Parses a report back from JSON.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// Aggregates this report with one from another server (or another
    /// epoch of the same deployment).
    ///
    /// Counters and simulated time sum; histograms add bucket-wise, so
    /// the pooled latency distributions equal those of the pooled
    /// samples. `wall_s` takes the maximum (concurrent servers share
    /// the wall clock) and throughput is recomputed from the merged
    /// totals. `trace_path` keeps this report's path, falling back to
    /// the other's.
    pub fn merge(&self, other: &ServeReport) -> ServeReport {
        let mut m = self.clone();
        m.completed += other.completed;
        m.rejected_queue_full += other.rejected_queue_full;
        m.rejected_bad_frame += other.rejected_bad_frame;
        m.shed_deadline += other.shed_deadline;
        m.shed_crashed += other.shed_crashed;
        m.shed_halt += other.shed_halt;
        m.deadline_misses += other.deadline_misses;
        m.worker_panics += other.worker_panics;
        m.worker_stalls += other.worker_stalls;
        m.worker_restarts += other.worker_restarts;
        m.requeued += other.requeued;
        m.schedule_downgrades += other.schedule_downgrades;
        m.map_cache_hits += other.map_cache_hits;
        m.map_cache_misses += other.map_cache_misses;
        m.map_patched += other.map_patched;
        m.map_rebuilt += other.map_rebuilt;
        m.map_evicted += other.map_evicted;
        m.map_invalidated += other.map_invalidated;
        m.sim_us_total += other.sim_us_total;
        for b in &other.batch_sizes {
            bump(&mut m.batch_sizes, b.value, b.count);
        }
        for b in &other.queue_depths {
            bump(&mut m.queue_depths, b.value, b.count);
        }
        for s in &other.streams {
            m.stream_latency(s.stream).merge(&s.latency);
        }
        m.overall.merge(&other.overall);
        m.set_wall_s(self.wall_s.max(other.wall_s));
        m.trace_path = m.trace_path.or_else(|| other.trace_path.clone());
        m
    }

    /// Sets the wall clock and the throughput derived from it.
    fn set_wall_s(&mut self, wall_s: f64) {
        self.wall_s = wall_s;
        self.throughput_fps = if wall_s > 0.0 {
            self.completed as f64 / wall_s
        } else {
            0.0
        };
    }

    /// The latency histogram of `stream`, inserted (in stream order)
    /// on first sight.
    fn stream_latency(&mut self, stream: u64) -> &mut LatencyHistogram {
        let i = match self.streams.binary_search_by_key(&stream, |s| s.stream) {
            Ok(i) => i,
            Err(i) => {
                self.streams.insert(
                    i,
                    StreamStats {
                        stream,
                        latency: LatencyHistogram::default(),
                    },
                );
                i
            }
        };
        &mut self.streams[i].latency
    }

    /// Folds one event into the report. Events that carry nothing the
    /// report counts (dispatches, injections, migrations, alerts) leave
    /// it unchanged.
    fn fold(&mut self, event: &ObsEvent) {
        use ts_obs::{FaultKind::*, MapUpdateKind::*, RejectReason::*, ShedReason::*};
        let (counter, delta) = match *event {
            ObsEvent::Admitted { queue_depth } => {
                return bump(&mut self.queue_depths, queue_depth, 1)
            }
            ObsEvent::Batch { jobs, sim_us, .. } => {
                self.sim_us_total += sim_us;
                return bump(&mut self.batch_sizes, jobs, 1);
            }
            ObsEvent::Completed {
                stream,
                latency_us,
                missed,
            } => {
                self.deadline_misses += u64::from(missed);
                self.stream_latency(stream).record(latency_us);
                self.overall.record(latency_us);
                (&mut self.completed, 1)
            }
            ObsEvent::Rejected { reason: QueueFull } => (&mut self.rejected_queue_full, 1),
            ObsEvent::Rejected { reason: BadFrame } => (&mut self.rejected_bad_frame, 1),
            ObsEvent::Shed { reason, .. } => match reason {
                Deadline => (&mut self.shed_deadline, 1),
                WorkerCrashed => (&mut self.shed_crashed, 1),
                Halt => (&mut self.shed_halt, 1),
            },
            ObsEvent::Fault { kind, .. } => match kind {
                WorkerPanic => (&mut self.worker_panics, 1),
                WorkerStall => (&mut self.worker_stalls, 1),
            },
            ObsEvent::Restart => (&mut self.worker_restarts, 1),
            ObsEvent::Requeue { jobs, .. } => (&mut self.requeued, jobs),
            ObsEvent::Downgrade { slots } => (&mut self.schedule_downgrades, slots),
            ObsEvent::MapLookup { hit: true } => (&mut self.map_cache_hits, 1),
            ObsEvent::MapLookup { hit: false } => (&mut self.map_cache_misses, 1),
            ObsEvent::MapUpdate { kind: Patched, .. } => (&mut self.map_patched, 1),
            ObsEvent::MapUpdate { kind: Rebuilt, .. } => (&mut self.map_rebuilt, 1),
            ObsEvent::MapEvicted => (&mut self.map_evicted, 1),
            ObsEvent::MapInvalidated { streams } => (&mut self.map_invalidated, streams),
            ObsEvent::Dispatch { .. }
            | ObsEvent::Injected { .. }
            | ObsEvent::MapReuseDisabled
            | ObsEvent::MapUpdate { kind: Built, .. }
            | ObsEvent::Migration { .. }
            | ObsEvent::Alert { .. } => return,
        };
        *counter += delta;
    }
}

/// The `serve.*` trace counters an event adds, as `(name, delta)` pairs
/// passed to `add` — the one place a serve event is named for the
/// trace.
fn trace_counters(event: &ObsEvent, mut add: impl FnMut(&'static str, i64)) {
    use ts_obs::{FaultKind::*, MapUpdateKind::*, RejectReason::*, ShedReason::*};
    let (name, delta) = match *event {
        ObsEvent::Dispatch { .. } => ("serve.batches.dispatched", 1),
        ObsEvent::Batch { .. } => ("serve.batches.executed", 1),
        ObsEvent::Completed { missed, .. } => {
            if missed {
                add("serve.deadline.missed", 1);
            }
            ("serve.requests.completed", 1)
        }
        ObsEvent::Rejected { reason: QueueFull } => ("serve.requests.rejected_queue_full", 1),
        ObsEvent::Rejected { reason: BadFrame } => ("serve.frames.rejected", 1),
        ObsEvent::Shed { reason, .. } => match reason {
            Deadline => ("serve.requests.shed_deadline", 1),
            WorkerCrashed => ("serve.requests.shed_crashed", 1),
            Halt => ("serve.requests.shed_halt", 1),
        },
        ObsEvent::Fault { kind, .. } => match kind {
            WorkerPanic => ("serve.workers.panicked", 1),
            WorkerStall => ("serve.workers.stalled", 1),
        },
        ObsEvent::Restart => ("serve.workers.restarted", 1),
        ObsEvent::Requeue { jobs, .. } => ("serve.requests.requeued", jobs as i64),
        ObsEvent::Injected { kind, .. } => match kind {
            WorkerPanic => ("serve.chaos.injected_panic", 1),
            WorkerStall => ("serve.chaos.injected_stall", 1),
        },
        ObsEvent::Downgrade { slots } => ("serve.schedule.downgraded", slots as i64),
        ObsEvent::MapReuseDisabled => ("serve.map_cache.disabled_degraded", 1),
        ObsEvent::MapLookup { hit: true } => ("serve.map_cache.hit", 1),
        ObsEvent::MapLookup { hit: false } => ("serve.map_cache.miss", 1),
        ObsEvent::MapUpdate {
            kind,
            entered,
            exited,
        } => {
            add("serve.map_cache.entered", entered as i64);
            add("serve.map_cache.exited", exited as i64);
            match kind {
                Built => return,
                Patched => ("serve.map_cache.patched", 1),
                Rebuilt => ("serve.map_cache.rebuilt", 1),
            }
        }
        ObsEvent::MapEvicted => ("serve.map_cache.evicted", 1),
        ObsEvent::MapInvalidated { streams } => ("serve.map_cache.invalidated", streams as i64),
        ObsEvent::Admitted { .. } | ObsEvent::Migration { .. } | ObsEvent::Alert { .. } => return,
    };
    add(name, delta);
}

/// Thread-safe metrics sink shared by the submission path, the batcher,
/// the workers and the supervisor.
pub(crate) struct Metrics {
    started: Instant,
    /// The report state, minus the wall clock filled in at read time.
    report: Mutex<ServeReport>,
    depth: AtomicUsize,
    /// The tracer the server was built under; every event's `serve.*`
    /// counters land on it, whichever thread records the event.
    tracer: Option<ts_trace::Tracer>,
    /// Live telemetry registry, when the server was configured with
    /// [`crate::ServeConfig::with_obs`]; every event is handed to it.
    telemetry: Option<Arc<Telemetry>>,
}

impl std::fmt::Debug for Metrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Metrics")
            .field("depth", &self.depth)
            .field("telemetry", &self.telemetry.is_some())
            .finish_non_exhaustive()
    }
}

impl Metrics {
    pub(crate) fn new(tracer: Option<ts_trace::Tracer>, telemetry: Option<Arc<Telemetry>>) -> Self {
        Self {
            started: Instant::now(),
            report: Mutex::new(ServeReport::default()),
            depth: AtomicUsize::new(0),
            tracer,
            telemetry,
        }
    }

    /// The live telemetry registry, when one is attached.
    pub(crate) fn telemetry(&self) -> Option<&Arc<Telemetry>> {
        self.telemetry.as_ref()
    }

    /// Current number of in-flight requests (queued or executing).
    pub(crate) fn depth(&self) -> usize {
        self.depth.load(Ordering::SeqCst)
    }

    /// Admits one request if the in-flight count is below `capacity`,
    /// recording either the admission (with the post-admission depth)
    /// or the queue-full rejection. Returns whether the request was
    /// admitted.
    pub(crate) fn try_admit(&self, capacity: usize) -> bool {
        let admitted = self
            .depth
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |cur| {
                (cur < capacity).then_some(cur + 1)
            });
        self.record(match admitted {
            Ok(before) => ObsEvent::Admitted {
                queue_depth: before as u64 + 1,
            },
            Err(_) => ObsEvent::Rejected {
                reason: RejectReason::QueueFull,
            },
        });
        admitted.is_ok()
    }

    /// Releases an admitted request's slot without recording anything
    /// (the server shut down before the request could be enqueued).
    pub(crate) fn release(&self) {
        self.depth.fetch_sub(1, Ordering::SeqCst);
    }

    /// Records one event everywhere it is counted: the report state,
    /// the server tracer's `serve.*` counters and, with obs on, the
    /// telemetry registry. An event that answers an admitted request
    /// (completion, shed, bad frame) also releases its queue slot.
    pub(crate) fn record(&self, event: ObsEvent) {
        if matches!(
            event,
            ObsEvent::Completed { .. }
                | ObsEvent::Shed { .. }
                | ObsEvent::Rejected {
                    reason: RejectReason::BadFrame
                }
        ) {
            self.release();
        }
        self.report.lock().expect("metrics lock").fold(&event);
        if ts_trace::ENABLED {
            if let Some(t) = &self.tracer {
                trace_counters(&event, |name, delta| t.counter_add(name, delta));
            }
        }
        if let Some(t) = &self.telemetry {
            t.observe(event);
        }
    }

    /// Cheap load snapshot for a fleet router: the in-flight depth is a
    /// single atomic read, the SLO counters one short lock.
    pub(crate) fn load(&self) -> ServerLoad {
        let queue_depth = self.depth();
        let r = self.report.lock().expect("metrics lock");
        ServerLoad {
            queue_depth,
            completed: r.completed,
            deadline_misses: r.deadline_misses,
            shed_deadline: r.shed_deadline,
            sim_us_total: r.sim_us_total,
        }
    }

    pub(crate) fn report(&self) -> ServeReport {
        let mut r = self.report.lock().expect("metrics lock").clone();
        r.set_wall_s(self.started.elapsed().as_secs_f64());
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_obs::{FaultKind, MapUpdateKind, ShedReason};

    fn metrics() -> Metrics {
        Metrics::new(None, None)
    }

    fn complete(m: &Metrics, stream: u64, latency_us: f64, missed: bool) {
        m.record(ObsEvent::Completed {
            stream,
            latency_us,
            missed,
        });
    }

    fn batch(m: &Metrics, jobs: u64, sim_us: f64) {
        m.record(ObsEvent::Batch {
            batch: 0,
            jobs,
            sim_us,
        });
    }

    fn shed(m: &Metrics, reason: ShedReason) {
        m.record(ObsEvent::Shed { reason, stream: 0 });
    }

    #[test]
    fn admission_bounds_in_flight_count() {
        let m = metrics();
        assert!(m.try_admit(2));
        assert!(m.try_admit(2));
        assert!(!m.try_admit(2), "third request exceeds capacity");
        complete(&m, 0, 100.0, false);
        assert!(m.try_admit(2), "completion frees a slot");
        let r = m.report();
        assert_eq!(r.rejected_queue_full, 1);
        assert_eq!(r.completed, 1);
        assert_eq!(m.depth(), 2);
    }

    #[test]
    fn report_aggregates_streams_and_histograms() {
        let m = metrics();
        for _ in 0..4 {
            assert!(m.try_admit(16));
        }
        batch(&m, 3, 1500.0);
        complete(&m, 1, 100.0, false);
        complete(&m, 1, 300.0, true);
        complete(&m, 2, 200.0, false);
        shed(&m, ShedReason::Deadline);
        let r = m.report();
        assert_eq!(r.completed, 3);
        assert_eq!(r.deadline_misses, 1);
        assert_eq!(r.shed_deadline, 1);
        assert_eq!(r.sim_us_total, 1500.0);
        assert_eq!(r.batch_sizes, vec![HistogramBucket { value: 3, count: 1 }]);
        assert_eq!(r.streams.len(), 2);
        assert_eq!(r.streams[0].stream, 1);
        assert_eq!(r.streams[0].latency.count, 2);
        assert_eq!(r.streams[1].latency.mean_us(), 200.0);
        assert_eq!(r.overall.count, 3);
        assert_eq!((r.overall.min_us, r.overall.max_us), (100.0, 300.0));
        // 1 late completion + 1 shed out of 4 finished.
        assert!((r.deadline_miss_rate() - 0.5).abs() < 1e-12);
        // Queue depth was sampled at 1, 2, 3, 4.
        assert_eq!(r.queue_depths.len(), 4);
    }

    #[test]
    fn report_round_trips_through_json() {
        let m = metrics();
        assert!(m.try_admit(4));
        complete(&m, 7, 250.0, false);
        let r = m.report();
        let json = r.to_json().expect("serializes");
        let back = ServeReport::from_json(&json).expect("parses");
        assert_eq!(back, r);
    }

    #[test]
    fn histogram_buckets_serialize_sorted_by_value() {
        let m = metrics();
        for size in [5u64, 2, 8, 2] {
            batch(&m, size, 10.0);
        }
        let r = m.report();
        let values: Vec<u64> = r.batch_sizes.iter().map(|b| b.value).collect();
        assert_eq!(values, vec![2, 5, 8]);
        assert_eq!(r.batch_sizes[0].count, 2);
    }

    #[test]
    fn merged_reports_aggregate_two_servers() {
        let a = {
            let m = metrics();
            assert!(m.try_admit(8));
            assert!(m.try_admit(8));
            batch(&m, 2, 500.0);
            complete(&m, 1, 100.0, false);
            complete(&m, 2, 200.0, true);
            m.report()
        };
        let b = {
            let m = metrics();
            assert!(m.try_admit(8));
            batch(&m, 1, 300.0);
            batch(&m, 2, 400.0);
            complete(&m, 1, 300.0, false);
            shed(&m, ShedReason::Deadline);
            m.report()
        };
        let merged = a.merge(&b);
        assert_eq!(merged.completed, 3);
        assert_eq!(merged.deadline_misses, 1);
        assert_eq!(merged.shed_deadline, 1);
        assert_eq!(merged.sim_us_total, 1200.0);
        assert_eq!(merged.wall_s, a.wall_s.max(b.wall_s));
        // Batch-size histogram merges bucket-wise, sorted by value.
        assert_eq!(
            merged.batch_sizes,
            vec![
                HistogramBucket { value: 1, count: 1 },
                HistogramBucket { value: 2, count: 2 },
            ]
        );
        // Stream 1 appears in both inputs: its distributions pool.
        let s1 = merged.streams.iter().find(|s| s.stream == 1).expect("s1");
        assert_eq!(s1.latency.count, 2);
        assert_eq!(s1.latency.mean_us(), 200.0);
        assert_eq!(merged.overall.count, 3);
        // The pooled histogram is the histogram of the pooled samples.
        let pooled = {
            let m = metrics();
            for (stream, latency_us) in [(1, 100.0), (2, 200.0), (1, 300.0)] {
                m.report.lock().expect("lock").fold(&ObsEvent::Completed {
                    stream,
                    latency_us,
                    missed: false,
                });
            }
            m.report()
        };
        assert_eq!(merged.overall, pooled.overall);
        assert_eq!(merged.streams, pooled.streams);
        // Merge is symmetric on the counters.
        let rev = b.merge(&a);
        assert_eq!(rev.completed, merged.completed);
        assert_eq!(rev.batch_sizes, merged.batch_sizes);
    }

    #[test]
    fn merging_with_an_empty_report_is_identity_on_counters() {
        let m = metrics();
        assert!(m.try_admit(4));
        complete(&m, 0, 50.0, false);
        let r = m.report();
        let merged = r.merge(&metrics().report());
        assert_eq!(merged.completed, r.completed);
        assert_eq!(merged.streams, r.streams);
        assert_eq!(merged.overall, r.overall);
        // Empty histograms merge as identity too, in both directions.
        assert_eq!(merged.batch_sizes, r.batch_sizes);
        assert_eq!(merged.queue_depths, r.queue_depths);
        let rev = metrics().report().merge(&r);
        assert_eq!(rev.batch_sizes, r.batch_sizes);
        assert_eq!(rev.queue_depths, r.queue_depths);
        assert_eq!(rev.overall, r.overall);
        // Two empty reports merge to an empty one with finite rates.
        let both = metrics().report().merge(&metrics().report());
        assert_eq!(both.overall.count, 0);
        assert!(both.streams.is_empty());
        assert_eq!(both.deadline_miss_rate(), 0.0);
        assert_eq!(both.map_reuse_rate(), 0.0);
        assert_eq!(both.throughput_fps, 0.0);
    }

    #[test]
    fn merge_trace_path_prefers_self_then_other() {
        let mut with_path = metrics().report();
        with_path.trace_path = Some("a.trace.json".to_owned());
        let mut other_path = metrics().report();
        other_path.trace_path = Some("b.trace.json".to_owned());
        let none = metrics().report();

        // Self wins when both sides carry a path.
        assert_eq!(
            with_path.merge(&other_path).trace_path.as_deref(),
            Some("a.trace.json")
        );
        // A pathless self falls back to the other side.
        assert_eq!(
            none.merge(&with_path).trace_path.as_deref(),
            Some("a.trace.json")
        );
        assert_eq!(
            with_path.merge(&none).trace_path.as_deref(),
            Some("a.trace.json")
        );
        assert_eq!(none.merge(&none.clone()).trace_path, None);
    }

    #[test]
    fn shed_halt_counts_and_merges() {
        let m = metrics();
        assert!(m.try_admit(4));
        shed(&m, ShedReason::Halt);
        let r = m.report();
        assert_eq!(r.shed_halt, 1);
        assert_eq!(m.depth(), 0, "halt-shed releases the queue slot");
        assert!(!r.saw_faults(), "a deliberate halt is not a fault");
        assert_eq!(r.merge(&r).shed_halt, 2);
        // Reports written before the field existed still parse.
        let json = r
            .to_json()
            .expect("serializes")
            .replace("\"shed_halt\": 1,", "");
        assert_eq!(ServeReport::from_json(&json).expect("parses").shed_halt, 0);
    }

    #[test]
    fn server_load_snapshot_tracks_counters() {
        let m = metrics();
        assert!(m.try_admit(8));
        assert!(m.try_admit(8));
        assert!(m.try_admit(8));
        complete(&m, 0, 100.0, true);
        shed(&m, ShedReason::Deadline);
        let load = m.load();
        assert_eq!(load.queue_depth, 1);
        assert_eq!(load.completed, 1);
        assert_eq!(load.deadline_misses, 1);
        assert_eq!(load.shed_deadline, 1);
        // 1 late completion + 1 shed out of 2 finished.
        assert!((load.miss_rate() - 1.0).abs() < 1e-12);
        assert_eq!(metrics().load().miss_rate(), 0.0);
    }

    #[test]
    fn fault_counters_accumulate_and_merge() {
        let m = metrics();
        for _ in 0..3 {
            assert!(m.try_admit(8));
        }
        m.record(ObsEvent::Fault {
            kind: FaultKind::WorkerPanic,
            batch: None,
        });
        m.record(ObsEvent::Restart);
        m.record(ObsEvent::Requeue { batch: 1, jobs: 2 });
        m.record(ObsEvent::Fault {
            kind: FaultKind::WorkerStall,
            batch: Some(3),
        });
        m.record(ObsEvent::Restart);
        shed(&m, ShedReason::WorkerCrashed);
        m.record(ObsEvent::Downgrade { slots: 4 });
        let r = m.report();
        assert_eq!(r.worker_panics, 1);
        assert_eq!(r.worker_stalls, 1);
        assert_eq!(r.worker_restarts, 2);
        assert_eq!(r.requeued, 2);
        assert_eq!(r.shed_crashed, 1);
        assert_eq!(r.schedule_downgrades, 4);
        assert!(r.saw_faults());
        // shed_crashed releases its queue slot like every other exit.
        assert_eq!(m.depth(), 2);
        let merged = r.merge(&r);
        assert_eq!(merged.worker_panics, 2);
        assert_eq!(merged.worker_restarts, 4);
        assert_eq!(merged.requeued, 4);
        assert_eq!(merged.shed_crashed, 2);
        assert_eq!(merged.schedule_downgrades, 8);
        let json = r.to_json().expect("serializes");
        assert!(json.contains("\"worker_restarts\""));
        assert_eq!(ServeReport::from_json(&json).expect("parses"), r);
    }

    #[test]
    fn map_counters_accumulate_merge_and_rate() {
        let m = metrics();
        let update = |kind| ObsEvent::MapUpdate {
            kind,
            entered: 2,
            exited: 1,
        };
        // First frame of a stream: a miss, built from scratch.
        m.record(ObsEvent::MapLookup { hit: false });
        m.record(update(MapUpdateKind::Built));
        for _ in 0..3 {
            m.record(ObsEvent::MapLookup { hit: true });
        }
        m.record(update(MapUpdateKind::Patched));
        m.record(update(MapUpdateKind::Patched));
        // A high-churn frame fell back to a rebuild.
        m.record(update(MapUpdateKind::Rebuilt));
        m.record(ObsEvent::MapEvicted);
        m.record(ObsEvent::MapInvalidated { streams: 3 });
        let r = m.report();
        assert_eq!(r.map_cache_hits, 3);
        assert_eq!(r.map_cache_misses, 1);
        assert_eq!(r.map_patched, 2);
        assert_eq!(r.map_rebuilt, 1);
        assert_eq!(r.map_evicted, 1);
        assert_eq!(r.map_invalidated, 3);
        assert!((r.map_reuse_rate() - 0.5).abs() < 1e-12);
        let merged = r.merge(&r);
        assert_eq!(merged.map_cache_hits, 6);
        assert_eq!(merged.map_patched, 4);
        assert_eq!(merged.map_invalidated, 6);
        let json = r.to_json().expect("serializes");
        assert!(json.contains("\"map_cache_hits\""));
        assert_eq!(ServeReport::from_json(&json).expect("parses"), r);
    }

    #[test]
    fn empty_report_has_no_stats() {
        let r = metrics().report();
        assert_eq!(r.completed, 0);
        assert_eq!(r.overall, LatencyHistogram::default());
        assert!(r.streams.is_empty());
        assert_eq!(r.deadline_miss_rate(), 0.0);
        assert_eq!(r.map_reuse_rate(), 0.0);
    }
}
