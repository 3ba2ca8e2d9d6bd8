//! The cumulative serve report: every counter and distribution a
//! server has recorded since boot, one view of its
//! [`ServeRecord`](crate::ServeRecord).

use serde::{Deserialize, Serialize};

use crate::histogram::LatencyHistogram;

/// One bucket of a discrete histogram (`value` occurred `count` times).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramBucket {
    /// Observed value (batch size, queue depth, ...).
    pub value: u64,
    /// Number of observations.
    pub count: u64,
}

/// Adds `count` observations of `value` to buckets kept sorted by value.
pub(crate) fn bump(buckets: &mut Vec<HistogramBucket>, value: u64, count: u64) {
    match buckets.binary_search_by_key(&value, |b| b.value) {
        Ok(i) => buckets[i].count += count,
        Err(i) => buckets.insert(i, HistogramBucket { value, count }),
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
    /// Requests shed after exhausting their re-enqueue budget on
    /// crashing workers ([`ShedReason::WorkerCrashed`]).
    ///
    /// [`ShedReason::WorkerCrashed`]: crate::ShedReason::WorkerCrashed
    pub shed_crashed: u64,
    /// Requests shed unexecuted because the node was halted
    /// ([`ShedReason::Halt`], a fleet-level node kill). Absent in
    /// reports written before halt existed, hence the serde default.
    ///
    /// [`ShedReason::Halt`]: crate::ShedReason::Halt
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
    /// dataflow because their configs failed validation
    /// ([`ObsEvent::Downgrade`](crate::ObsEvent::Downgrade)).
    pub schedule_downgrades: u64,
    /// Frames that found their stream's kernel map cached (temporal
    /// map reuse).
    pub map_cache_hits: u64,
    /// Frames that found no cached map for their stream and built one
    /// from scratch.
    pub map_cache_misses: u64,
    /// Cache hits resolved by patching the previous frame's map in
    /// place (churn under the threshold).
    pub map_patched: u64,
    /// Cache hits that rebuilt the map anyway because churn exceeded
    /// the rebuild threshold.
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
    /// was started with a tracer installed and a trace path configured.
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
    pub(crate) fn set_wall_s(&mut self, wall_s: f64) {
        self.wall_s = wall_s;
        self.throughput_fps = if wall_s > 0.0 {
            self.completed as f64 / wall_s
        } else {
            0.0
        };
    }

    /// The latency histogram of `stream`, inserted (in stream order)
    /// on first sight.
    pub(crate) fn stream_latency(&mut self, stream: u64) -> &mut LatencyHistogram {
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
}
