//! The online metrics registry: one [`Telemetry`] per server, fed the
//! same [`ObsEvent`]s the serve report folds, readable at any instant
//! as a [`HealthSnapshot`].
//!
//! Hot-path writes go to lock-free structures only — per-worker
//! [`RollingHistogram`] shards (picked by a thread-local shard id, so
//! concurrent workers never contend), [`WindowedCounter`] wheels, and a
//! fixed-capacity open-addressed stream table. Reads merge the shards;
//! the only mutexes in the crate guard the flight-recorder slots and
//! the (cold) alert log.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::histogram::{HistogramSnapshot, RollingHistogram};
use crate::recorder::{FlightRecorder, ObsEvent, PostMortem, RecordedEvent};
use crate::slo::{Alert, SloMonitor, SloPolicy};
use crate::window::WindowedCounter;

/// Telemetry configuration, carried inside
/// [`ServeConfig`](../../serve) so every server (and fleet node) boots
/// its own registry.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsConfig {
    /// Rolling-window span for counters and histograms, microseconds.
    pub window_us: u64,
    /// Wheel slots per window (time resolution of aging-out).
    pub slots: usize,
    /// Histogram shards merged on read; sized to the worker count.
    pub shards: usize,
    /// Distinct streams tracked with their own latency histograms;
    /// overflow streams pool into one shared histogram.
    pub stream_capacity: usize,
    /// Flight-recorder ring capacity (events retained).
    pub ring_capacity: usize,
    /// Where post-mortem dumps go; `None` disables dumping (the ring
    /// still records and can be read programmatically).
    pub postmortem_dir: Option<String>,
    /// Burn-rate alerting policy; `None` disables the SLO monitor.
    pub slo: Option<SloPolicy>,
}

impl Default for ObsConfig {
    fn default() -> Self {
        Self {
            window_us: 10_000_000,
            slots: 8,
            shards: 8,
            stream_capacity: 64,
            ring_capacity: 256,
            postmortem_dir: None,
            slo: Some(SloPolicy::default()),
        }
    }
}

impl ObsConfig {
    /// Sets the post-mortem dump directory.
    pub fn with_postmortem_dir(mut self, dir: impl Into<String>) -> Self {
        self.postmortem_dir = Some(dir.into());
        self
    }
}

/// Per-stream latency health inside a [`HealthSnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamHealth {
    /// Stream id (`u64::MAX` for the overflow pool).
    pub stream: u64,
    /// Completions in the window.
    pub completed: u64,
    /// Median windowed latency, microseconds.
    pub p50_latency_us: f64,
    /// Tail windowed latency, microseconds.
    pub p99_latency_us: f64,
}

/// A point-in-time health exposition: everything a dashboard or an
/// operator's `kill -USR1`-style probe needs, exportable at any
/// instant — not just shutdown. Serializes to JSON ([`to_json`]) or a
/// fixed-width text block ([`to_text`]).
///
/// [`to_json`]: HealthSnapshot::to_json
/// [`to_text`]: HealthSnapshot::to_text
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthSnapshot {
    /// Snapshot time, microseconds since telemetry epoch.
    pub at_us: u64,
    /// The rolling window the numbers cover, microseconds.
    pub window_us: u64,
    /// Completions in the window.
    pub completed: u64,
    /// Deadline misses in the window.
    pub deadline_misses: u64,
    /// `deadline_misses / completed` (0 when idle).
    pub miss_rate: f64,
    /// Ingress queue depth at snapshot time.
    pub queue_depth: u64,
    /// Map-cache lookups in the window.
    pub map_lookups: u64,
    /// Fraction of windowed lookups that hit the map cache.
    pub reuse_rate: f64,
    /// Faults (panics, stalls, restarts, requeues) in the window.
    pub faults: u64,
    /// Requests shed in the window.
    pub sheds: u64,
    /// Mean windowed latency, microseconds.
    pub mean_latency_us: f64,
    /// Median windowed latency, microseconds.
    pub p50_latency_us: f64,
    /// Tail windowed latency, microseconds.
    pub p99_latency_us: f64,
    /// Fast-window burn rate (0 without an SLO monitor).
    pub fast_burn: f64,
    /// Slow-window burn rate (0 without an SLO monitor).
    pub slow_burn: f64,
    /// Whether the PageWorthy (fast-window) alert is active.
    pub page_alert_active: bool,
    /// Whether the Warning (slow-window) alert is active.
    pub warning_alert_active: bool,
    /// Per-stream windowed latency, busiest streams first.
    pub streams: Vec<StreamHealth>,
}

impl HealthSnapshot {
    /// An all-zero snapshot at `at_us` (a dead or idle server).
    pub fn empty(at_us: u64) -> Self {
        Self {
            at_us,
            window_us: 0,
            completed: 0,
            deadline_misses: 0,
            miss_rate: 0.0,
            queue_depth: 0,
            map_lookups: 0,
            reuse_rate: 0.0,
            faults: 0,
            sheds: 0,
            mean_latency_us: 0.0,
            p50_latency_us: 0.0,
            p99_latency_us: 0.0,
            fast_burn: 0.0,
            slow_burn: 0.0,
            page_alert_active: false,
            warning_alert_active: false,
            streams: Vec::new(),
        }
    }

    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Parses a snapshot back from JSON.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// Renders a human-readable text block (for terminals and logs).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let alerts = match (self.page_alert_active, self.warning_alert_active) {
            (true, _) => "PAGE",
            (false, true) => "WARN",
            (false, false) => "ok",
        };
        out.push_str(&format!(
            "health @ {:.3}s (window {:.1}s)  [{alerts}]\n",
            self.at_us as f64 / 1e6,
            self.window_us as f64 / 1e6,
        ));
        out.push_str(&format!(
            "  completed {}  misses {} ({:.2}%)  queue {}  reuse {:.1}%  faults {}  sheds {}\n",
            self.completed,
            self.deadline_misses,
            self.miss_rate * 100.0,
            self.queue_depth,
            self.reuse_rate * 100.0,
            self.faults,
            self.sheds,
        ));
        out.push_str(&format!(
            "  latency us: mean {:.0}  p50 {:.0}  p99 {:.0}   burn: fast {:.2}  slow {:.2}\n",
            self.mean_latency_us,
            self.p50_latency_us,
            self.p99_latency_us,
            self.fast_burn,
            self.slow_burn,
        ));
        for s in &self.streams {
            let id = if s.stream == u64::MAX {
                "other".to_owned()
            } else {
                s.stream.to_string()
            };
            out.push_str(&format!(
                "  stream {id:>6}: n {:>5}  p50 {:>7.0}us  p99 {:>7.0}us\n",
                s.completed, s.p50_latency_us, s.p99_latency_us,
            ));
        }
        out
    }
}

/// Fixed-capacity, lock-free stream → histogram table. Slots are
/// claimed by CAS on first sight of a stream; streams beyond capacity
/// share one overflow histogram (reported as stream `u64::MAX`).
struct StreamTable {
    ids: Vec<AtomicU64>,
    hists: Vec<RollingHistogram>,
    overflow: RollingHistogram,
}

/// Probe limit before a stream falls into the overflow histogram.
const PROBE_LIMIT: usize = 8;

impl StreamTable {
    fn new(capacity: usize, slot_us: u64, slots: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            ids: (0..capacity).map(|_| AtomicU64::new(0)).collect(),
            hists: (0..capacity)
                .map(|_| RollingHistogram::new(slot_us, slots))
                .collect(),
            overflow: RollingHistogram::new(slot_us, slots),
        }
    }

    fn slot_for(&self, stream: u64) -> &RollingHistogram {
        // ids store stream+1 so 0 means "free".
        let key = stream.wrapping_add(1).max(1);
        let n = self.ids.len();
        let start = (stream.wrapping_mul(0x9E37_79B9_7F4A_7C15) % n as u64) as usize;
        for p in 0..PROBE_LIMIT.min(n) {
            let i = (start + p) % n;
            let cur = self.ids[i].load(Ordering::Acquire);
            if cur == key {
                return &self.hists[i];
            }
            if cur == 0
                && self.ids[i]
                    .compare_exchange(0, key, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
            {
                return &self.hists[i];
            }
            if self.ids[i].load(Ordering::Acquire) == key {
                return &self.hists[i];
            }
        }
        &self.overflow
    }

    fn health_at(&self, now_us: u64, window_us: u64) -> Vec<StreamHealth> {
        let mut out: Vec<StreamHealth> = self
            .ids
            .iter()
            .zip(&self.hists)
            .filter_map(|(id, h)| {
                let key = id.load(Ordering::Acquire);
                if key == 0 {
                    return None;
                }
                let snap = h.snapshot_at(now_us, window_us);
                (snap.count > 0).then(|| StreamHealth {
                    stream: key - 1,
                    completed: snap.count,
                    p50_latency_us: snap.quantile_us(0.50),
                    p99_latency_us: snap.quantile_us(0.99),
                })
            })
            .collect();
        let over = self.overflow.snapshot_at(now_us, window_us);
        if over.count > 0 {
            out.push(StreamHealth {
                stream: u64::MAX,
                completed: over.count,
                p50_latency_us: over.quantile_us(0.50),
                p99_latency_us: over.quantile_us(0.99),
            });
        }
        out.sort_by(|a, b| b.completed.cmp(&a.completed).then(a.stream.cmp(&b.stream)));
        out
    }
}

/// Monotone shard ids handed to threads on first contact with any
/// [`Telemetry`].
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static SHARD_ID: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
}

fn thread_shard() -> usize {
    SHARD_ID.with(|s| {
        let v = s.get();
        if v != usize::MAX {
            return v;
        }
        let n = NEXT_SHARD.fetch_add(1, Ordering::Relaxed);
        s.set(n);
        n
    })
}

/// One server's live telemetry registry: rolling counters, sharded
/// latency histograms, per-stream table, SLO monitor and flight
/// recorder. It has one write entry point, [`Telemetry::observe_at`],
/// which takes an explicit timestamp so a virtual clock (a trainer's
/// simulated step time) drives the identical code; [`Telemetry::observe`]
/// is its live wall-clock form.
pub struct Telemetry {
    cfg: ObsConfig,
    epoch: Instant,
    latency: Vec<RollingHistogram>,
    misses: WindowedCounter,
    faults: WindowedCounter,
    sheds: WindowedCounter,
    map_hits: WindowedCounter,
    map_lookups: WindowedCounter,
    streams: StreamTable,
    slo: Option<Mutex<SloMonitor>>,
    recorder: FlightRecorder,
    alert_log: Mutex<Vec<Alert>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("cfg", &self.cfg)
            .field("recorded", &self.recorder.recorded())
            .finish_non_exhaustive()
    }
}

impl Telemetry {
    /// Boots a registry from its config.
    pub fn new(cfg: ObsConfig) -> Self {
        let slot_us = (cfg.window_us / cfg.slots.max(1) as u64).max(1);
        let slots = cfg.slots.max(1);
        let wheel = || WindowedCounter::new(slot_us, slots);
        Self {
            epoch: Instant::now(),
            latency: (0..cfg.shards.max(1))
                .map(|_| RollingHistogram::new(slot_us, slots))
                .collect(),
            misses: wheel(),
            faults: wheel(),
            sheds: wheel(),
            map_hits: wheel(),
            map_lookups: wheel(),
            streams: StreamTable::new(cfg.stream_capacity, slot_us, slots),
            slo: cfg.slo.clone().map(|p| Mutex::new(SloMonitor::new(p))),
            recorder: FlightRecorder::new(cfg.ring_capacity),
            alert_log: Mutex::new(Vec::new()),
            cfg,
        }
    }

    /// The config this registry was booted from.
    pub fn config(&self) -> &ObsConfig {
        &self.cfg
    }

    /// Microseconds since this registry was created (live clock).
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    // --- write path ----------------------------------------------------

    /// Folds one event into the registry at `now_us`: completions feed
    /// the latency windows, the stream table and the SLO monitor (whose
    /// alert edges land in the alert log and the flight recorder); map
    /// lookups feed the reuse-rate windows; faults, restarts, requeues
    /// and sheds feed their windowed counters. Every event but the
    /// per-request and per-frame ones enters the flight recorder, so a
    /// burst cannot flush the rarer dispatch, batch, fault and recovery
    /// events from the ring.
    pub fn observe_at(&self, now_us: u64, event: ObsEvent) {
        match event {
            ObsEvent::Completed {
                stream,
                latency_us,
                missed,
            } => {
                let latency_us = latency_us as u64;
                let shard = thread_shard() % self.latency.len();
                self.latency[shard].record_at(now_us, latency_us);
                self.streams.slot_for(stream).record_at(now_us, latency_us);
                if missed {
                    self.misses.add_at(now_us, 1);
                }
                return self.observe_slo(now_us, missed);
            }
            ObsEvent::MapLookup { hit } => {
                self.map_lookups.add_at(now_us, 1);
                if hit {
                    self.map_hits.add_at(now_us, 1);
                }
                return;
            }
            ObsEvent::Admitted { .. }
            | ObsEvent::Rejected { .. }
            | ObsEvent::MapUpdate { .. }
            | ObsEvent::MapEvicted => return,
            ObsEvent::Fault { .. } | ObsEvent::Restart | ObsEvent::Requeue { .. } => {
                self.faults.add_at(now_us, 1);
            }
            ObsEvent::Shed { .. } => self.sheds.add_at(now_us, 1),
            _ => {}
        }
        self.recorder.record(now_us, event);
    }

    /// [`Self::observe_at`] at the live clock.
    pub fn observe(&self, event: ObsEvent) {
        self.observe_at(self.now_us(), event);
    }

    /// One completion's SLO observation and evaluation; alert edges go
    /// to the alert log and the flight recorder.
    fn observe_slo(&self, now_us: u64, missed: bool) {
        let Some(slo) = &self.slo else {
            return;
        };
        let mut monitor = slo.lock().expect("slo monitor lock");
        monitor.observe_at(now_us, missed);
        let alerts = monitor.evaluate_at(now_us);
        drop(monitor);
        if alerts.is_empty() {
            return;
        }
        for a in &alerts {
            self.recorder.record(
                a.at_us,
                ObsEvent::Alert {
                    level: a.level,
                    state: a.state,
                    burn_rate: a.burn_rate,
                },
            );
        }
        self.alert_log
            .lock()
            .expect("alert log lock")
            .extend(alerts);
    }

    // --- read path ----------------------------------------------------

    /// Every alert transition recorded so far, in order.
    pub fn alerts(&self) -> Vec<Alert> {
        self.alert_log.lock().expect("alert log lock").clone()
    }

    /// The retained flight-recorder events, oldest first.
    pub fn recent_events(&self) -> Vec<RecordedEvent> {
        self.recorder.dump()
    }

    /// Merges all latency shards over the window ending at `now_us`.
    pub fn latency_at(&self, now_us: u64) -> HistogramSnapshot {
        let mut snap = HistogramSnapshot::empty();
        for shard in &self.latency {
            snap.merge(&shard.snapshot_at(now_us, self.cfg.window_us));
        }
        snap
    }

    /// Builds the full health exposition at `now_us`. `queue_depth` is
    /// supplied by the caller (the registry never polls the server).
    pub fn health_snapshot_at(&self, now_us: u64, queue_depth: u64) -> HealthSnapshot {
        let w = self.cfg.window_us;
        let latency = self.latency_at(now_us);
        let completed = latency.count;
        let misses = self.misses.sum_window_at(now_us, w);
        let lookups = self.map_lookups.sum_window_at(now_us, w);
        let hits = self.map_hits.sum_window_at(now_us, w);
        let (fast, slow, page, warn) = match &self.slo {
            None => (0.0, 0.0, false, false),
            Some(slo) => {
                let m = slo.lock().expect("slo monitor lock");
                let f = m.fast_reading(now_us);
                let s = m.slow_reading(now_us);
                (f.burn_rate, s.burn_rate, f.active, s.active)
            }
        };
        ts_trace::counter_add("obs.snapshots.exported", 1);
        HealthSnapshot {
            at_us: now_us,
            window_us: w,
            completed,
            deadline_misses: misses,
            miss_rate: if completed == 0 {
                0.0
            } else {
                misses as f64 / completed as f64
            },
            queue_depth,
            map_lookups: lookups,
            reuse_rate: if lookups == 0 {
                0.0
            } else {
                hits as f64 / lookups as f64
            },
            faults: self.faults.sum_window_at(now_us, w),
            sheds: self.sheds.sum_window_at(now_us, w),
            mean_latency_us: latency.mean_us(),
            p50_latency_us: latency.quantile_us(0.50),
            p99_latency_us: latency.quantile_us(0.99),
            fast_burn: fast,
            slow_burn: slow,
            page_alert_active: page,
            warning_alert_active: warn,
            streams: self.streams.health_at(now_us, w),
        }
    }

    /// [`Self::health_snapshot_at`] at the live clock.
    pub fn health_snapshot(&self, queue_depth: u64) -> HealthSnapshot {
        self.health_snapshot_at(self.now_us(), queue_depth)
    }

    /// Drains the flight recorder into a [`PostMortem`] and, when a
    /// dump directory is configured, writes it to disk. Returns the
    /// written path (None when no directory is configured or the write
    /// failed; failures log to stderr — a dying server must not die
    /// twice over a full disk).
    pub fn dump_postmortem(&self, reason: &str, queue_depth: u64) -> Option<PathBuf> {
        let now = self.now_us();
        let pm = PostMortem {
            reason: reason.to_owned(),
            at_us: now,
            events: self.recorder.dump(),
            snapshot: self.health_snapshot_at(now, queue_depth),
        };
        ts_trace::counter_add("obs.postmortem.dumped", 1);
        let dir = self.cfg.postmortem_dir.as_ref()?;
        match pm.write_to(std::path::Path::new(dir)) {
            Ok(path) => Some(path),
            Err(e) => {
                eprintln!("ts-obs: post-mortem dump to {dir} failed: {e}");
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::FaultKind;
    use crate::slo::{AlertLevel, AlertState};

    fn completed(stream: u64, latency_us: u64, missed: bool) -> ObsEvent {
        ObsEvent::Completed {
            stream,
            latency_us: latency_us as f64,
            missed,
        }
    }

    fn cfg() -> ObsConfig {
        ObsConfig {
            window_us: 10_000,
            slots: 10,
            shards: 2,
            stream_capacity: 4,
            ring_capacity: 16,
            postmortem_dir: None,
            slo: Some(SloPolicy {
                target_miss_rate: 0.01,
                fast_window_us: 2_000,
                slow_window_us: 10_000,
                fast_burn: 10.0,
                slow_burn: 2.0,
                clear_fraction: 0.5,
                min_samples: 4,
            }),
        }
    }

    #[test]
    fn snapshot_reflects_windowed_traffic() {
        let t = Telemetry::new(cfg());
        for i in 0..20u64 {
            t.observe_at(i * 100, completed(i % 2, 500 + i, false));
            t.observe_at(i * 100, ObsEvent::MapLookup { hit: i > 4 });
        }
        let snap = t.health_snapshot_at(2_000, 3);
        assert_eq!(snap.completed, 20);
        assert_eq!(snap.queue_depth, 3);
        assert_eq!(snap.map_lookups, 20);
        assert!((snap.reuse_rate - 15.0 / 20.0).abs() < 1e-9);
        assert!(snap.p50_latency_us >= 500.0);
        assert_eq!(snap.streams.len(), 2);
        assert_eq!(snap.miss_rate, 0.0);
        let json = snap.to_json().expect("serializes");
        assert_eq!(HealthSnapshot::from_json(&json).expect("parses"), snap);
        assert!(snap.to_text().contains("stream"));
    }

    #[test]
    fn misses_trip_the_fast_alert_and_land_in_the_log() {
        let t = Telemetry::new(cfg());
        for i in 0..10u64 {
            t.observe_at(i * 100, completed(0, 100, false));
        }
        for i in 10..20u64 {
            t.observe_at(i * 100, completed(0, 9_000, true));
        }
        assert!(t
            .alerts()
            .iter()
            .any(|a| a.level == AlertLevel::PageWorthy && a.state == AlertState::Tripped));
        let snap = t.health_snapshot_at(2_000, 0);
        assert!(snap.page_alert_active);
        assert!(snap.fast_burn >= 10.0);
        // The alert also landed in the flight recorder.
        assert!(t
            .recent_events()
            .iter()
            .any(|e| matches!(e.event, ObsEvent::Alert { .. })));
    }

    #[test]
    fn stream_overflow_pools_into_other() {
        let t = Telemetry::new(ObsConfig {
            stream_capacity: 2,
            slo: None,
            ..cfg()
        });
        for s in 0..10u64 {
            t.observe_at(100, completed(s, 50, false));
        }
        let snap = t.health_snapshot_at(100, 0);
        let total: u64 = snap.streams.iter().map(|s| s.completed).sum();
        assert_eq!(total, 10);
        assert!(snap.streams.iter().any(|s| s.stream == u64::MAX));
    }

    #[test]
    fn postmortem_dump_contains_recent_events() {
        let dir = std::env::temp_dir().join("ts-obs-registry-test");
        let _ = std::fs::remove_dir_all(&dir);
        let t = Telemetry::new(ObsConfig {
            postmortem_dir: Some(dir.to_string_lossy().into_owned()),
            ..cfg()
        });
        let dispatch = ObsEvent::Dispatch {
            batch: 1,
            jobs: 4,
            queue_depth: 2,
        };
        let fault = ObsEvent::Fault {
            kind: FaultKind::WorkerPanic,
            batch: Some(1),
        };
        t.observe_at(10, dispatch);
        t.observe_at(15, completed(0, 50, false)); // not kept in the ring
        t.observe_at(30, fault);
        let path = t.dump_postmortem("worker_panic", 7).expect("dump path");
        let pm = PostMortem::from_json(&std::fs::read_to_string(&path).expect("readable"))
            .expect("parses");
        assert_eq!(pm.reason, "worker_panic");
        let events: Vec<_> = pm.events.iter().map(|e| (e.at_us, e.event)).collect();
        assert_eq!(events, vec![(10, dispatch), (30, fault)]);
        assert_eq!(pm.snapshot.queue_depth, 7);
        assert_eq!(pm.snapshot.faults, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
