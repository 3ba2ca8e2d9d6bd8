//! SLO accounting: the one [`ServeRecord`] every instrumentation site
//! records into through [`Metrics::record`], and the reads of it — the
//! cumulative [`ServeReport`], the cheap [`ServerLoad`] poll and, when
//! the server was configured with [`crate::ServeConfig::with_obs`],
//! health snapshots, alerts, the flight-recorder ring and post-mortems.
//!
//! One call folds an event into every view under one lock: the report
//! state, the `serve.*` counters of the server's tracer and the live
//! windows. The cumulative report, the trace and the rolling-window
//! health snapshot therefore cannot disagree about what happened.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

use serde::{Deserialize, Serialize};
use ts_obs::{
    Alert, HealthSnapshot, ObsConfig, ObsEvent, RecordedEvent, RejectReason, ServeRecord,
    ServeReport,
};

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

/// Thread-safe metrics sink shared by the submission path, the batcher,
/// the workers and the supervisor.
pub(crate) struct Metrics {
    record: Mutex<ServeRecord>,
    depth: AtomicUsize,
    /// The tracer the server was built under; every event's `serve.*`
    /// counters land on it, whichever thread records the event.
    tracer: Option<ts_trace::Tracer>,
    /// Where post-mortems are written, when obs is on and a directory
    /// was configured.
    postmortem_dir: Option<PathBuf>,
}

impl std::fmt::Debug for Metrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Metrics")
            .field("depth", &self.depth)
            .field("postmortem_dir", &self.postmortem_dir)
            .finish_non_exhaustive()
    }
}

impl Metrics {
    /// A sink with the live views on when `obs` is set.
    pub(crate) fn new(tracer: Option<ts_trace::Tracer>, obs: Option<&ObsConfig>) -> Self {
        Self {
            record: Mutex::new(ServeRecord::new(obs.is_some())),
            depth: AtomicUsize::new(0),
            tracer,
            postmortem_dir: obs.and_then(|o| o.postmortem_dir.as_ref().map(PathBuf::from)),
        }
    }

    fn lock(&self) -> MutexGuard<'_, ServeRecord> {
        self.record.lock().expect("metrics lock")
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

    /// Folds one event into the record under the lock: the report, the
    /// server tracer's `serve.*` counters and, with obs on, the live
    /// views. An event that answers an admitted request (completion,
    /// shed, bad frame) also releases its queue slot.
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
        self.lock().record(event, |name, delta| {
            if ts_trace::ENABLED {
                if let Some(t) = &self.tracer {
                    t.counter_add(name, delta);
                }
            }
        });
    }

    /// Cheap load snapshot for a fleet router: the in-flight depth is a
    /// single atomic read, the SLO counters one short lock.
    pub(crate) fn load(&self) -> ServerLoad {
        let queue_depth = self.depth();
        let record = self.lock();
        let r = record.cumulative();
        ServerLoad {
            queue_depth,
            completed: r.completed,
            deadline_misses: r.deadline_misses,
            shed_deadline: r.shed_deadline,
            sim_us_total: r.sim_us_total,
        }
    }

    pub(crate) fn report(&self) -> ServeReport {
        self.lock().report()
    }

    /// The rolling-window health exposition; `None` with obs off.
    pub(crate) fn health(&self) -> Option<HealthSnapshot> {
        let queue_depth = self.depth() as u64;
        self.lock().health(queue_depth)
    }

    /// Every alert transition so far; empty with obs off.
    pub(crate) fn alerts(&self) -> Vec<Alert> {
        self.lock().alerts().to_vec()
    }

    /// The flight-recorder ring, oldest first; empty with obs off.
    pub(crate) fn recent_events(&self) -> Vec<RecordedEvent> {
        self.lock().recent_events()
    }

    /// Assembles a post-mortem under the lock and, when a dump
    /// directory is configured, writes it after releasing the lock. A
    /// failed write logs to stderr: a dying server must not die twice
    /// over a full disk.
    pub(crate) fn dump_postmortem(&self, reason: &str) {
        let queue_depth = self.depth() as u64;
        let Some(pm) = self.lock().postmortem(reason, queue_depth) else {
            return;
        };
        if let Some(dir) = &self.postmortem_dir {
            if let Err(e) = pm.write_to(dir) {
                eprintln!(
                    "ts-serve: post-mortem dump to {} failed: {e}",
                    dir.display()
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_obs::{FaultKind, HistogramBucket, LatencyHistogram, MapUpdateKind, ShedReason};

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
                let event = ObsEvent::Completed {
                    stream,
                    latency_us,
                    missed: false,
                };
                m.lock().record(event, |_, _| {});
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
