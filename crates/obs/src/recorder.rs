//! The flight recorder: a fixed-size ring of recent structured events,
//! dumped to a post-mortem JSON file when something dies.
//!
//! Every server keeps one. Recording is wait-free on the ring cursor
//! (one `fetch_add`) plus one uncontended per-slot mutex — two writers
//! only collide on a slot when the ring has lapped, in which case the
//! older event was about to be overwritten anyway. When the supervisor
//! reaps a panicked worker or the fleet kills a node, the ring is
//! drained oldest-first into a [`PostMortem`] next to a final
//! [`HealthSnapshot`](crate::HealthSnapshot), so chaos drills leave
//! forensic evidence instead of a stack trace and a shrug.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

use crate::registry::HealthSnapshot;
use crate::slo::{AlertLevel, AlertState};

/// Why a worker left the pool abnormally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The worker thread panicked.
    WorkerPanic,
    /// The worker stayed busy on one batch past the stall timeout.
    WorkerStall,
}

/// Why a request was rejected outright: refused at admission, or its
/// frame could not be served.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RejectReason {
    /// The in-flight queue was full at submission.
    QueueFull,
    /// The frame failed shape validation or did not compile.
    BadFrame,
}

/// Why an admitted request was shed unexecuted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShedReason {
    /// Its deadline passed before execution started.
    Deadline,
    /// It exhausted its re-enqueue budget on crashing workers.
    WorkerCrashed,
    /// The node was halted with the request still queued.
    Halt,
}

/// How a frame's kernel map was brought up to date with temporal map
/// reuse on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MapUpdateKind {
    /// No cached state: the map was built from scratch.
    Built,
    /// The cached map was patched in place.
    Patched,
    /// The cached map was rebuilt because churn passed the threshold.
    Rebuilt,
}

/// Why a stream's fleet home moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MigrationKind {
    /// The old home died.
    ReHome,
    /// The old home stayed overloaded.
    Migrate,
}

/// One thing that happened on a server (or on a trainer's virtual
/// clock), emitted once by the site where it happened. The serve
/// report, the `serve.*` trace counters, the rolling windows, the SLO
/// monitor and the flight recorder are all folds of the same stream of
/// these ([`Telemetry::observe_at`](crate::Telemetry::observe_at) is
/// the telemetry half).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ObsEvent {
    /// A request was admitted; `queue_depth` counts it.
    Admitted {
        /// In-flight requests after admission.
        queue_depth: u64,
    },
    /// The batcher dispatched a batch to the worker pool.
    Dispatch {
        /// Batch sequence number.
        batch: u64,
        /// Jobs in the batch.
        jobs: u64,
        /// In-flight requests at dispatch.
        queue_depth: u64,
    },
    /// A worker executed a batch, or with map reuse one frame of it.
    Batch {
        /// Sequence number of the dispatched (or requeued) batch.
        batch: u64,
        /// Frames executed in this inference call.
        jobs: u64,
        /// Simulated GPU time of the call.
        sim_us: f64,
    },
    /// A request was answered with an output.
    Completed {
        /// The request's stream.
        stream: u64,
        /// Submission to response, microseconds.
        latency_us: f64,
        /// Whether the response came after the deadline.
        missed: bool,
    },
    /// A request was refused.
    Rejected {
        /// Why.
        reason: RejectReason,
    },
    /// An admitted request was shed unexecuted.
    Shed {
        /// Why.
        reason: ShedReason,
        /// The stream whose request was shed.
        stream: u64,
    },
    /// The supervisor reaped a panicked worker or retired a stuck one.
    Fault {
        /// Panic or stall.
        kind: FaultKind,
        /// The batch the worker held, when one was recovered.
        batch: Option<u64>,
    },
    /// The supervisor spawned a replacement worker.
    Restart,
    /// Jobs recovered from a dead or stuck worker were re-enqueued.
    Requeue {
        /// The fresh sequence number they were re-enqueued under.
        batch: u64,
        /// Jobs re-enqueued.
        jobs: u64,
    },
    /// The chaos fault plan injected a fault into a batch.
    Injected {
        /// Panic or stall.
        kind: FaultKind,
        /// The batch it was injected into.
        batch: u64,
    },
    /// Schedule slots booted degraded (lenient artifact load).
    Downgrade {
        /// Downgraded slot count.
        slots: u64,
    },
    /// Map reuse was requested but left off on a degraded engine.
    MapReuseDisabled,
    /// A frame looked up its stream in the map cache.
    MapLookup {
        /// Whether the stream's state was cached.
        hit: bool,
    },
    /// A frame's kernel map was brought up to date.
    MapUpdate {
        /// Built, patched or rebuilt.
        kind: MapUpdateKind,
        /// Voxels that entered since the previous frame.
        entered: u64,
        /// Voxels that left since the previous frame.
        exited: u64,
    },
    /// The map cache evicted its least recently used stream.
    MapEvicted,
    /// The map cache dropped every stream (worker respawn).
    MapInvalidated {
        /// Streams dropped.
        streams: u64,
    },
    /// A stream's home moved (fleet routing).
    Migration {
        /// The stream that moved.
        stream: u64,
        /// The node it now lives on.
        node: u64,
        /// Re-home or migrate.
        kind: MigrationKind,
    },
    /// An SLO alert transition (see [`crate::SloMonitor`]).
    Alert {
        /// Severity.
        level: AlertLevel,
        /// Trip or clear edge.
        state: AlertState,
        /// Burn rate at the edge.
        burn_rate: f64,
    },
}

/// One flight-recorder entry: an event and its time, microseconds since
/// the owning [`Telemetry`](crate::Telemetry)'s epoch (virtual time
/// under simulation).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RecordedEvent {
    /// Event time, microseconds.
    pub at_us: u64,
    /// What happened.
    pub event: ObsEvent,
}

/// Fixed-size ring of the most recent [`RecordedEvent`]s.
pub struct FlightRecorder {
    slots: Vec<Mutex<Option<RecordedEvent>>>,
    cursor: AtomicU64,
}

impl FlightRecorder {
    /// A ring holding the last `capacity` events (clamped to >= 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            slots: (0..capacity.max(1)).map(|_| Mutex::new(None)).collect(),
            cursor: AtomicU64::new(0),
        }
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Events recorded over the recorder's lifetime (may exceed
    /// capacity; only the last `capacity` are retained).
    pub fn recorded(&self) -> u64 {
        self.cursor.load(Ordering::Relaxed)
    }

    /// Appends an event at `at_us`, overwriting the oldest once full.
    pub fn record(&self, at_us: u64, event: ObsEvent) {
        let seq = self.cursor.fetch_add(1, Ordering::Relaxed);
        let idx = (seq % self.slots.len() as u64) as usize;
        *self.slots[idx].lock().expect("recorder slot lock") = Some(RecordedEvent { at_us, event });
    }

    /// Drains a copy of the retained events, oldest first.
    pub fn dump(&self) -> Vec<RecordedEvent> {
        let cap = self.slots.len() as u64;
        let cursor = self.cursor.load(Ordering::Relaxed);
        let mut out = Vec::with_capacity(self.slots.len());
        for i in 0..cap {
            let idx = ((cursor + i) % cap) as usize;
            if let Some(ev) = *self.slots[idx].lock().expect("recorder slot lock") {
                out.push(ev);
            }
        }
        out
    }
}

/// Process-unique post-mortem sequence so concurrent dumps (a fleet of
/// servers dying together) never fight over a file name.
static DUMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// A forensic dump: why, when, the flight-recorder contents, and the
/// health of the server at the moment of death.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PostMortem {
    /// What killed the server (`worker_panic`, `worker_stall`,
    /// `node_halt`, ...).
    pub reason: String,
    /// Time of death, microseconds since telemetry epoch.
    pub at_us: u64,
    /// Retained flight-recorder events, oldest first.
    pub events: Vec<RecordedEvent>,
    /// Health snapshot taken at the moment of the dump.
    pub snapshot: HealthSnapshot,
}

impl PostMortem {
    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Parses a dump back from JSON.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// Writes the dump into `dir` as
    /// `postmortem-<reason>-<seq>.json` (creating `dir` if needed) and
    /// returns the path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; serialization of a `PostMortem`
    /// cannot fail.
    pub fn write_to(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let seq = DUMP_SEQ.fetch_add(1, Ordering::Relaxed);
        let path = dir.join(format!("postmortem-{}-{seq:04}.json", self.reason));
        let json = self
            .to_json()
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        std::fs::write(&path, json)?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at_us: u64) -> RecordedEvent {
        RecordedEvent {
            at_us,
            event: ObsEvent::Batch {
                batch: at_us,
                jobs: 1,
                sim_us: 10.0,
            },
        }
    }

    #[test]
    fn ring_keeps_the_most_recent_events_in_order() {
        let r = FlightRecorder::new(4);
        for t in 0..10u64 {
            r.record(t, ev(t).event);
        }
        let dump = r.dump();
        let times: Vec<u64> = dump.iter().map(|e| e.at_us).collect();
        assert_eq!(times, vec![6, 7, 8, 9]);
        assert_eq!(r.recorded(), 10);
        assert_eq!(r.capacity(), 4);
    }

    #[test]
    fn partial_ring_dumps_only_what_was_recorded() {
        let r = FlightRecorder::new(8);
        r.record(1, ev(1).event);
        r.record(2, ev(2).event);
        assert_eq!(r.dump().len(), 2);
    }

    #[test]
    fn postmortem_round_trips_through_json() {
        let pm = PostMortem {
            reason: "worker_panic".to_owned(),
            at_us: 1234,
            events: vec![
                ev(1200),
                RecordedEvent {
                    at_us: 1234,
                    event: ObsEvent::Fault {
                        kind: FaultKind::WorkerPanic,
                        batch: Some(7),
                    },
                },
            ],
            snapshot: HealthSnapshot::empty(0),
        };
        let json = pm.to_json().expect("serializes");
        let back = PostMortem::from_json(&json).expect("parses");
        assert_eq!(back, pm);
    }

    #[test]
    fn write_to_creates_unique_files() {
        let dir = std::env::temp_dir().join("ts-obs-recorder-test");
        let pm = PostMortem {
            reason: "test".to_owned(),
            at_us: 0,
            events: vec![ev(1)],
            snapshot: HealthSnapshot::empty(0),
        };
        let a = pm.write_to(&dir).expect("writes");
        let b = pm.write_to(&dir).expect("writes");
        assert_ne!(a, b);
        let text = std::fs::read_to_string(&a).expect("readable");
        assert!(PostMortem::from_json(&text).is_ok());
        let _ = std::fs::remove_file(a);
        let _ = std::fs::remove_file(b);
    }
}
