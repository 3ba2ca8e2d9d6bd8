//! The one record of a server's events.
//!
//! A [`ServeRecord`] folds each [`ObsEvent`] once, with one match, into
//! every view of it: the cumulative [`ServeReport`], the event's
//! `serve.*` trace counters and, with live telemetry on, the rolling
//! windows, the SLO monitor and the flight-recorder ring. Everything
//! else is a read of it: [`HealthSnapshot`]s, alert transitions, the
//! ring and [`PostMortem`]s. The record is plain data; its owner keeps
//! it behind one lock (ts-serve's `Metrics` does), so each fold updates
//! every view at once and every read sees them agree exactly.

use std::collections::{BTreeMap, VecDeque};
use std::iter;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::histogram::LatencyHistogram;
use crate::recorder::{ObsEvent, PostMortem, RecordedEvent};
use crate::report::{bump, ServeReport};
use crate::slo::{Alert, SloMonitor, SloPolicy};
use crate::window::Wheel;

/// Span of the rolling windows a health snapshot covers, microseconds.
const WINDOW_US: u64 = 10_000_000;
/// Slots per rolling window: the time resolution of aging-out.
const WINDOW_SLOTS: usize = 8;
/// Streams with latency windows of their own; later streams share one
/// overflow window, reported as stream `u64::MAX`.
const STREAM_CAPACITY: usize = 64;
/// Events the flight-recorder ring retains.
const RING_CAPACITY: usize = 256;

/// Live-telemetry configuration, carried inside ts-serve's
/// `ServeConfig` so every server (and fleet node) boots its own
/// windows and ring. Their sizes are fixed: a 10 s window in 8 slots,
/// 64 streams plus an overflow pool, a 256-event ring and the default
/// [`SloPolicy`]. The one deployment choice is where post-mortems go.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObsConfig {
    /// Where post-mortem dumps go; `None` disables dumping (the ring
    /// still records and can be read programmatically).
    pub postmortem_dir: Option<String>,
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
/// instant — not just shutdown. Serializes to JSON
/// ([`HealthSnapshot::to_json`]).
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
    /// Median windowed latency, microseconds, by the report's rule
    /// ([`LatencyHistogram::quantile_us`]).
    pub p50_latency_us: f64,
    /// Tail windowed latency, microseconds, by the same rule.
    pub p99_latency_us: f64,
    /// Fast-window burn rate.
    pub fast_burn: f64,
    /// Slow-window burn rate.
    pub slow_burn: f64,
    /// Whether the PageWorthy (fast-window) alert is active.
    pub page_alert_active: bool,
    /// Whether the Warning (slow-window) alert is active.
    pub warning_alert_active: bool,
    /// Per-stream windowed latency, busiest streams first.
    pub streams: Vec<StreamHealth>,
}

impl HealthSnapshot {
    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Parses a snapshot back from JSON.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

/// A windowed count a health snapshot reads besides latency; indexes
/// [`Window::tallies`].
#[derive(Debug, Clone, Copy)]
enum Tally {
    Miss,
    Fault,
    Shed,
    MapHit,
    MapMiss,
}

/// One slot of the rolling window.
#[derive(Debug, Clone, Default)]
struct Window {
    latency: LatencyHistogram,
    tallies: [u64; 5],
}

fn wheel<T: Default>() -> Wheel<T> {
    Wheel::new(WINDOW_US / WINDOW_SLOTS as u64, WINDOW_SLOTS)
}

/// The latency samples a wheel holds inside the window ending at
/// `now_us`.
fn merged(wheel: &Wheel<LatencyHistogram>, now_us: u64) -> LatencyHistogram {
    let mut h = LatencyHistogram::default();
    for slot in wheel.window(now_us, WINDOW_US) {
        h.merge(slot);
    }
    h
}

/// `n / d`, 0 when `d` is.
fn ratio(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

/// The views only live telemetry keeps.
struct Live {
    window: Wheel<Window>,
    /// Per-stream latency windows, filled as streams appear.
    streams: BTreeMap<u64, Wheel<LatencyHistogram>>,
    overflow: Wheel<LatencyHistogram>,
    slo: SloMonitor,
    ring: VecDeque<RecordedEvent>,
    alerts: Vec<Alert>,
}

impl Live {
    fn new() -> Self {
        Self {
            window: wheel(),
            streams: BTreeMap::new(),
            overflow: wheel(),
            slo: SloMonitor::new(SloPolicy::default()),
            ring: VecDeque::with_capacity(RING_CAPACITY),
            alerts: Vec::new(),
        }
    }

    /// Appends to the ring, dropping its oldest event once full.
    fn keep(&mut self, at_us: u64, event: ObsEvent) {
        if self.ring.len() == RING_CAPACITY {
            self.ring.pop_front();
        }
        self.ring.push_back(RecordedEvent { at_us, event });
    }

    /// One completion: the latency windows, the stream's window and
    /// the SLO monitor, whose alert edges land in the log and the ring.
    fn complete(&mut self, now_us: u64, stream: u64, latency_us: f64, missed: bool) {
        let slot = self.window.at(now_us);
        slot.latency.record(latency_us);
        slot.tallies[Tally::Miss as usize] += u64::from(missed);
        let own = self.streams.len() < STREAM_CAPACITY || self.streams.contains_key(&stream);
        let stream_wheel = if own {
            self.streams.entry(stream).or_insert_with(wheel)
        } else {
            &mut self.overflow
        };
        stream_wheel.at(now_us).record(latency_us);
        self.slo.observe_at(now_us, missed);
        for a in self.slo.evaluate_at(now_us) {
            let edge = ObsEvent::Alert {
                level: a.level,
                state: a.state,
                burn_rate: a.burn_rate,
            };
            self.keep(a.at_us, edge);
            self.alerts.push(a);
        }
    }

    fn health(&self, now_us: u64, queue_depth: u64) -> HealthSnapshot {
        let mut latency = LatencyHistogram::default();
        let mut tallies = [0u64; 5];
        for slot in self.window.window(now_us, WINDOW_US) {
            latency.merge(&slot.latency);
            for (sum, n) in tallies.iter_mut().zip(slot.tallies) {
                *sum += n;
            }
        }
        let tally = |t: Tally| tallies[t as usize];
        let lookups = tally(Tally::MapHit) + tally(Tally::MapMiss);
        let (fast, slow) = (self.slo.fast_reading(now_us), self.slo.slow_reading(now_us));
        let mut streams: Vec<StreamHealth> = self
            .streams
            .iter()
            .chain(iter::once((&u64::MAX, &self.overflow)))
            .filter_map(|(&stream, wheel)| {
                let h = merged(wheel, now_us);
                (h.count > 0).then(|| StreamHealth {
                    stream,
                    completed: h.count,
                    p50_latency_us: h.quantile_us(0.50),
                    p99_latency_us: h.quantile_us(0.99),
                })
            })
            .collect();
        streams.sort_by(|a, b| b.completed.cmp(&a.completed).then(a.stream.cmp(&b.stream)));
        ts_trace::counter_add("obs.snapshots.exported", 1);
        HealthSnapshot {
            at_us: now_us,
            window_us: WINDOW_US,
            completed: latency.count,
            deadline_misses: tally(Tally::Miss),
            miss_rate: ratio(tally(Tally::Miss), latency.count),
            queue_depth,
            map_lookups: lookups,
            reuse_rate: ratio(tally(Tally::MapHit), lookups),
            faults: tally(Tally::Fault),
            sheds: tally(Tally::Shed),
            mean_latency_us: latency.mean_us(),
            p50_latency_us: latency.quantile_us(0.50),
            p99_latency_us: latency.quantile_us(0.99),
            fast_burn: fast.burn_rate,
            slow_burn: slow.burn_rate,
            page_alert_active: fast.active,
            warning_alert_active: slow.active,
            streams,
        }
    }
}

/// One server's record of its events; see the module docs.
///
/// [`ServeRecord::record_at`] is the one write. Every other method is a
/// read, and [`ServeRecord::new`] decides whether the live views exist:
/// without them a fold touches the report and the counters only.
pub struct ServeRecord {
    epoch: Instant,
    report: ServeReport,
    live: Option<Live>,
}

impl ServeRecord {
    /// An empty record. With `live`, it also keeps the rolling windows
    /// (10 s in 8 slots, per stream for the first 64 streams and one
    /// overflow pool after), an SLO monitor on [`SloPolicy::default`]
    /// and a ring of the last 256 structural events.
    pub fn new(live: bool) -> Self {
        Self {
            epoch: Instant::now(),
            report: ServeReport::default(),
            live: live.then(Live::new),
        }
    }

    /// Microseconds since the record was created (the live clock).
    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// [`Self::record_at`] at the live clock, which is read only when
    /// the live views exist.
    pub fn record(&mut self, event: ObsEvent, count: impl FnMut(&'static str, i64)) {
        let now_us = self.live.as_ref().map_or(0, |_| self.now_us());
        self.record_at(now_us, event, count);
    }

    /// Folds one event at `now_us` into every view, with one match:
    /// the report field it moves, the `serve.*` trace counters it adds
    /// (each handed to `count` as a name and a delta), and, with the
    /// live views on, the windowed count it lands in and whether the
    /// ring keeps it. Completions also feed the latency windows and the
    /// SLO monitor. Per-request and per-frame events stay out of the
    /// ring, so a burst cannot flush the rarer dispatch, batch, fault
    /// and recovery events from it.
    pub fn record_at(
        &mut self,
        now_us: u64,
        event: ObsEvent,
        mut count: impl FnMut(&'static str, i64),
    ) {
        use crate::{FaultKind::*, MapUpdateKind::*, RejectReason::*, ShedReason::*};
        let r = &mut self.report;
        let live = self.live.as_mut();
        let (tally, kept) = match event {
            ObsEvent::Admitted { queue_depth } => {
                bump(&mut r.queue_depths, queue_depth, 1);
                (None, false)
            }
            ObsEvent::Dispatch { .. } => {
                count("serve.batches.dispatched", 1);
                (None, true)
            }
            ObsEvent::Batch { jobs, sim_us, .. } => {
                r.sim_us_total += sim_us;
                bump(&mut r.batch_sizes, jobs, 1);
                count("serve.batches.executed", 1);
                (None, true)
            }
            ObsEvent::Completed {
                stream,
                latency_us,
                missed,
            } => {
                r.completed += 1;
                r.deadline_misses += u64::from(missed);
                r.stream_latency(stream).record(latency_us);
                r.overall.record(latency_us);
                count("serve.requests.completed", 1);
                if missed {
                    count("serve.deadline.missed", 1);
                }
                if let Some(live) = live {
                    live.complete(now_us, stream, latency_us, missed);
                }
                return;
            }
            ObsEvent::Rejected { reason: QueueFull } => {
                r.rejected_queue_full += 1;
                count("serve.requests.rejected_queue_full", 1);
                (None, false)
            }
            ObsEvent::Rejected { reason: BadFrame } => {
                r.rejected_bad_frame += 1;
                count("serve.frames.rejected", 1);
                (None, false)
            }
            ObsEvent::Shed { reason, .. } => {
                let (field, name) = match reason {
                    Deadline => (&mut r.shed_deadline, "serve.requests.shed_deadline"),
                    WorkerCrashed => (&mut r.shed_crashed, "serve.requests.shed_crashed"),
                    Halt => (&mut r.shed_halt, "serve.requests.shed_halt"),
                };
                *field += 1;
                count(name, 1);
                (Some(Tally::Shed), true)
            }
            ObsEvent::Fault { kind, .. } => {
                let (field, name) = match kind {
                    WorkerPanic => (&mut r.worker_panics, "serve.workers.panicked"),
                    WorkerStall => (&mut r.worker_stalls, "serve.workers.stalled"),
                };
                *field += 1;
                count(name, 1);
                (Some(Tally::Fault), true)
            }
            ObsEvent::Restart => {
                r.worker_restarts += 1;
                count("serve.workers.restarted", 1);
                (Some(Tally::Fault), true)
            }
            ObsEvent::Requeue { jobs, .. } => {
                r.requeued += jobs;
                count("serve.requests.requeued", jobs as i64);
                (Some(Tally::Fault), true)
            }
            ObsEvent::Injected {
                kind: WorkerPanic, ..
            } => {
                count("serve.chaos.injected_panic", 1);
                (None, true)
            }
            ObsEvent::Injected {
                kind: WorkerStall, ..
            } => {
                count("serve.chaos.injected_stall", 1);
                (None, true)
            }
            ObsEvent::Downgrade { slots } => {
                r.schedule_downgrades += slots;
                count("serve.schedule.downgraded", slots as i64);
                (None, true)
            }
            ObsEvent::MapReuseDisabled => {
                count("serve.map_cache.disabled_degraded", 1);
                (None, true)
            }
            ObsEvent::MapLookup { hit } => {
                let (field, name, t) = if hit {
                    (&mut r.map_cache_hits, "serve.map_cache.hit", Tally::MapHit)
                } else {
                    (
                        &mut r.map_cache_misses,
                        "serve.map_cache.miss",
                        Tally::MapMiss,
                    )
                };
                *field += 1;
                count(name, 1);
                (Some(t), false)
            }
            ObsEvent::MapUpdate {
                kind,
                entered,
                exited,
            } => {
                count("serve.map_cache.entered", entered as i64);
                count("serve.map_cache.exited", exited as i64);
                let (field, name) = match kind {
                    Built => return,
                    Patched => (&mut r.map_patched, "serve.map_cache.patched"),
                    Rebuilt => (&mut r.map_rebuilt, "serve.map_cache.rebuilt"),
                };
                *field += 1;
                count(name, 1);
                (None, false)
            }
            ObsEvent::MapEvicted => {
                r.map_evicted += 1;
                count("serve.map_cache.evicted", 1);
                (None, false)
            }
            ObsEvent::MapInvalidated { streams } => {
                r.map_invalidated += streams;
                count("serve.map_cache.invalidated", streams as i64);
                (None, true)
            }
            ObsEvent::Migration { .. } | ObsEvent::Alert { .. } => (None, true),
        };
        if let Some(live) = live {
            if let Some(t) = tally {
                live.window.at(now_us).tallies[t as usize] += 1;
            }
            if kept {
                live.keep(now_us, event);
            }
        }
    }

    /// The cumulative report, its wall clock and throughput read now.
    pub fn report(&self) -> ServeReport {
        let mut report = self.report.clone();
        report.set_wall_s(self.epoch.elapsed().as_secs_f64());
        report
    }

    /// The cumulative report as folded, wall clock unset (no copy).
    pub fn cumulative(&self) -> &ServeReport {
        &self.report
    }

    /// The rolling-window health exposition at `now_us`; `None`
    /// without the live views. `queue_depth` is the caller's (the
    /// record never polls a server).
    pub fn health_at(&self, now_us: u64, queue_depth: u64) -> Option<HealthSnapshot> {
        Some(self.live.as_ref()?.health(now_us, queue_depth))
    }

    /// [`Self::health_at`] at the live clock.
    pub fn health(&self, queue_depth: u64) -> Option<HealthSnapshot> {
        self.health_at(self.now_us(), queue_depth)
    }

    /// Every alert transition recorded so far, in order.
    pub fn alerts(&self) -> &[Alert] {
        self.live.as_ref().map_or(&[], |l| &l.alerts)
    }

    /// The ring's events, oldest first.
    pub fn recent_events(&self) -> Vec<RecordedEvent> {
        self.live
            .as_ref()
            .map_or_else(Vec::new, |l| l.ring.iter().copied().collect())
    }

    /// A post-mortem at the live clock: the ring and a final health
    /// snapshot. `None` without the live views. Writing it
    /// ([`PostMortem::write_to`]) is the caller's, after releasing
    /// whatever lock guards the record.
    pub fn postmortem(&self, reason: &str, queue_depth: u64) -> Option<PostMortem> {
        let live = self.live.as_ref()?;
        let at_us = self.now_us();
        ts_trace::counter_add("obs.postmortem.dumped", 1);
        Some(PostMortem {
            reason: reason.to_owned(),
            at_us,
            events: live.ring.iter().copied().collect(),
            snapshot: live.health(at_us, queue_depth),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{FaultKind, MapUpdateKind, MigrationKind, RejectReason, ShedReason};
    use crate::slo::{AlertLevel, AlertState};
    use serde::Serialize;

    fn completed(stream: u64, latency_us: f64, missed: bool) -> ObsEvent {
        ObsEvent::Completed {
            stream,
            latency_us,
            missed,
        }
    }

    /// Folds `events` at their virtual times, counters discarded.
    fn fold(record: &mut ServeRecord, events: impl IntoIterator<Item = (u64, ObsEvent)>) {
        for (at_us, event) in events {
            record.record_at(at_us, event, |_, _| {});
        }
    }

    /// The variant's name, by an exhaustive match: a new variant fails
    /// to compile here until the table below covers it.
    fn variant(event: &ObsEvent) -> &'static str {
        match event {
            ObsEvent::Admitted { .. } => "Admitted",
            ObsEvent::Dispatch { .. } => "Dispatch",
            ObsEvent::Batch { .. } => "Batch",
            ObsEvent::Completed { .. } => "Completed",
            ObsEvent::Rejected { .. } => "Rejected",
            ObsEvent::Shed { .. } => "Shed",
            ObsEvent::Fault { .. } => "Fault",
            ObsEvent::Restart => "Restart",
            ObsEvent::Requeue { .. } => "Requeue",
            ObsEvent::Injected { .. } => "Injected",
            ObsEvent::Downgrade { .. } => "Downgrade",
            ObsEvent::MapReuseDisabled => "MapReuseDisabled",
            ObsEvent::MapLookup { .. } => "MapLookup",
            ObsEvent::MapUpdate { .. } => "MapUpdate",
            ObsEvent::MapEvicted => "MapEvicted",
            ObsEvent::MapInvalidated { .. } => "MapInvalidated",
            ObsEvent::Migration { .. } => "Migration",
            ObsEvent::Alert { .. } => "Alert",
        }
    }

    /// `"key=value key=value"` as a map.
    fn spec(s: &str) -> BTreeMap<String, f64> {
        let kv = |kv: &str| {
            kv.split_once('=')
                .map(|(k, v)| (k.to_owned(), v.parse().unwrap()))
        };
        s.split_whitespace()
            .map(|p| kv(p).expect("key=value"))
            .collect()
    }

    /// The top-level fields of `after` that differ from `before` (among
    /// `keys` when any are given), each with its size: a number's value,
    /// a histogram's sample count, a list's length.
    fn moved<T: Serialize>(before: &T, after: &T, keys: &[&str]) -> BTreeMap<String, f64> {
        use serde_json::{to_value, Value};
        let (Ok(Value::Object(b)), Ok(Value::Object(a))) = (to_value(before), to_value(after))
        else {
            panic!("a struct serializes to an object");
        };
        let size = |v: &Value| match v {
            Value::Array(items) => items.len() as f64,
            Value::Object(_) => v.get("count").and_then(Value::as_f64).unwrap_or(f64::NAN),
            _ => v.as_f64().unwrap_or(f64::NAN),
        };
        b.into_iter()
            .zip(a)
            .filter(|((k, x), (_, y))| x != y && (keys.is_empty() || keys.contains(&k.as_str())))
            .map(|(_, (k, v))| (k, size(&v)))
            .collect()
    }

    #[test]
    fn each_event_moves_its_report_field_counters_window_and_ring() {
        use crate::slo::{AlertLevel::Warning, AlertState::Tripped};
        use FaultKind::*;
        use MapUpdateKind::*;
        use ObsEvent as E;
        use RejectReason::*;
        use ShedReason::*;
        // Event; report fields moved; `serve.*` counters added, prefix
        // dropped; windowed counts; whether the ring keeps it.
        #[rustfmt::skip]
        let rows = [
            (E::Admitted { queue_depth: 3 }, "queue_depths=1", "", "", false),
            (E::Dispatch { batch: 1, jobs: 2, queue_depth: 2 }, "", "batches.dispatched=1", "", true),
            (E::Batch { batch: 1, jobs: 2, sim_us: 40.0 },
             "batch_sizes=1 sim_us_total=40", "batches.executed=1", "", true),
            (completed(5, 120.0, false),
             "completed=1 overall=1 streams=1", "requests.completed=1", "completed=1", false),
            (completed(5, 120.0, true),
             "completed=1 deadline_misses=1 overall=1 streams=1",
             "deadline.missed=1 requests.completed=1", "completed=1 deadline_misses=1", false),
            (E::Rejected { reason: QueueFull },
             "rejected_queue_full=1", "requests.rejected_queue_full=1", "", false),
            (E::Rejected { reason: BadFrame }, "rejected_bad_frame=1", "frames.rejected=1", "", false),
            (E::Shed { reason: Deadline, stream: 5 },
             "shed_deadline=1", "requests.shed_deadline=1", "sheds=1", true),
            (E::Shed { reason: WorkerCrashed, stream: 5 },
             "shed_crashed=1", "requests.shed_crashed=1", "sheds=1", true),
            (E::Shed { reason: Halt, stream: 5 },
             "shed_halt=1", "requests.shed_halt=1", "sheds=1", true),
            (E::Fault { kind: WorkerPanic, batch: Some(1) },
             "worker_panics=1", "workers.panicked=1", "faults=1", true),
            (E::Fault { kind: WorkerStall, batch: None },
             "worker_stalls=1", "workers.stalled=1", "faults=1", true),
            (E::Restart, "worker_restarts=1", "workers.restarted=1", "faults=1", true),
            (E::Requeue { batch: 4, jobs: 3 }, "requeued=3", "requests.requeued=3", "faults=1", true),
            (E::Injected { kind: WorkerPanic, batch: 1 }, "", "chaos.injected_panic=1", "", true),
            (E::Injected { kind: WorkerStall, batch: 1 }, "", "chaos.injected_stall=1", "", true),
            (E::Downgrade { slots: 4 }, "schedule_downgrades=4", "schedule.downgraded=4", "", true),
            (E::MapReuseDisabled, "", "map_cache.disabled_degraded=1", "", true),
            (E::MapLookup { hit: true },
             "map_cache_hits=1", "map_cache.hit=1", "map_lookups=1 reuse_rate=1", false),
            (E::MapLookup { hit: false },
             "map_cache_misses=1", "map_cache.miss=1", "map_lookups=1", false),
            (E::MapUpdate { kind: Built, entered: 7, exited: 0 },
             "", "map_cache.entered=7 map_cache.exited=0", "", false),
            (E::MapUpdate { kind: Patched, entered: 2, exited: 1 },
             "map_patched=1", "map_cache.entered=2 map_cache.exited=1 map_cache.patched=1", "", false),
            (E::MapUpdate { kind: Rebuilt, entered: 9, exited: 8 },
             "map_rebuilt=1", "map_cache.entered=9 map_cache.exited=8 map_cache.rebuilt=1", "", false),
            (E::MapEvicted, "map_evicted=1", "map_cache.evicted=1", "", false),
            (E::MapInvalidated { streams: 3 }, "map_invalidated=3", "map_cache.invalidated=3", "", true),
            (E::Migration { stream: 5, node: 2, kind: MigrationKind::ReHome }, "", "", "", true),
            (E::Alert { level: Warning, state: Tripped, burn_rate: 3.0 }, "", "", "", true),
        ];
        let covered: std::collections::BTreeSet<_> = rows.iter().map(|r| variant(&r.0)).collect();
        assert_eq!(covered.len(), 18, "every ObsEvent variant has a row");
        let windowed = [
            "completed",
            "deadline_misses",
            "map_lookups",
            "reuse_rate",
            "faults",
            "sheds",
        ];
        let idle = ServeRecord::new(true).health_at(1_000, 0);
        for (event, report, counters, window, kept) in rows {
            let name = variant(&event);
            let mut record = ServeRecord::new(true);
            let mut added = BTreeMap::new();
            record.record_at(1_000, event, |n, d| {
                let n = n.strip_prefix("serve.").expect("a serve.* counter");
                added.insert(n.to_owned(), d as f64);
            });
            assert_eq!(added, spec(counters), "{name}: serve.* counters");
            let empty = ServeReport::default();
            let report_moved = moved(&empty, record.cumulative(), &[]);
            assert_eq!(report_moved, spec(report), "{name}: report fields");
            let health = record.health_at(1_000, 0);
            assert_eq!(
                moved(&idle, &health, &windowed),
                spec(window),
                "{name}: window"
            );
            let ring: Vec<_> = record.recent_events().iter().map(|e| e.event).collect();
            assert_eq!(
                ring,
                if kept { vec![event] } else { vec![] },
                "{name}: ring"
            );
            // Without the live views the fold moves the same report.
            let mut dark = ServeRecord::new(false);
            dark.record_at(1_000, event, |_, _| {});
            assert_eq!(
                dark.cumulative(),
                record.cumulative(),
                "{name}: report, obs off"
            );
        }
    }

    #[test]
    fn snapshot_reflects_windowed_traffic_and_forgets_the_old() {
        let mut t = ServeRecord::new(true);
        fold(
            &mut t,
            (0..20u64).flat_map(|i| {
                [
                    (i * 100, completed(i % 2, 500.0 + i as f64, false)),
                    (i * 100, ObsEvent::MapLookup { hit: i > 4 }),
                ]
            }),
        );
        let snap = t.health_at(2_000, 3).expect("live");
        assert_eq!(snap.completed, 20);
        assert_eq!(snap.queue_depth, 3);
        assert_eq!(snap.map_lookups, 20);
        assert!((snap.reuse_rate - 15.0 / 20.0).abs() < 1e-9);
        // The report's quantile rule, clamped to the window's extremes.
        assert_eq!(snap.p50_latency_us, t.cumulative().overall.quantile_us(0.5));
        assert_eq!(snap.p99_latency_us, 519.0);
        assert_eq!(snap.streams.len(), 2);
        assert_eq!(snap.miss_rate, 0.0);
        let json = snap.to_json().expect("serializes");
        assert_eq!(HealthSnapshot::from_json(&json).expect("parses"), snap);
        // A window and a slot later, every windowed count has aged out
        // while the report keeps them.
        let later = t
            .health_at(WINDOW_US + WINDOW_US / WINDOW_SLOTS as u64, 0)
            .expect("live");
        assert_eq!((later.completed, later.map_lookups), (0, 0));
        assert!(later.streams.is_empty());
        assert_eq!(t.cumulative().completed, 20);
    }

    #[test]
    fn misses_trip_the_fast_alert_and_land_in_the_log() {
        let mut t = ServeRecord::new(true);
        fold(
            &mut t,
            (0..20u64).map(|i| (i * 100, completed(0, 100.0, i >= 10))),
        );
        assert!(t
            .alerts()
            .iter()
            .any(|a| a.level == AlertLevel::PageWorthy && a.state == AlertState::Tripped));
        let snap = t.health_at(2_000, 0).expect("live");
        assert!(snap.page_alert_active);
        assert!(snap.fast_burn >= 10.0);
        // The alert also landed in the ring.
        assert!(t
            .recent_events()
            .iter()
            .any(|e| matches!(e.event, ObsEvent::Alert { .. })));
    }

    #[test]
    fn streams_past_capacity_pool_into_other() {
        let mut t = ServeRecord::new(true);
        let streams = STREAM_CAPACITY as u64 + 6;
        fold(
            &mut t,
            (0..streams).map(|s| (100, completed(s, 50.0, false))),
        );
        let snap = t.health_at(100, 0).expect("live");
        assert_eq!(snap.streams.len(), STREAM_CAPACITY + 1);
        let other = snap.streams.iter().find(|s| s.stream == u64::MAX);
        assert_eq!(other.map(|s| s.completed), Some(6));
        let total: u64 = snap.streams.iter().map(|s| s.completed).sum();
        assert_eq!(total, streams);
    }

    #[test]
    fn ring_keeps_the_most_recent_events_in_order() {
        let mut t = ServeRecord::new(true);
        let n = RING_CAPACITY as u64 + 10;
        fold(&mut t, (0..n).map(|i| (i, ObsEvent::Restart)));
        let times: Vec<u64> = t.recent_events().iter().map(|e| e.at_us).collect();
        assert_eq!(times, (10..n).collect::<Vec<_>>());
    }

    #[test]
    fn postmortem_holds_the_ring_and_a_final_snapshot() {
        let mut t = ServeRecord::new(true);
        let dispatch = ObsEvent::Dispatch {
            batch: 1,
            jobs: 4,
            queue_depth: 2,
        };
        let fault = ObsEvent::Fault {
            kind: FaultKind::WorkerPanic,
            batch: Some(1),
        };
        fold(
            &mut t,
            [(10, dispatch), (15, completed(0, 50.0, false)), (30, fault)],
        );
        let pm = t.postmortem("worker_panic", 7).expect("live");
        assert_eq!(pm.reason, "worker_panic");
        let events: Vec<_> = pm.events.iter().map(|e| (e.at_us, e.event)).collect();
        assert_eq!(events, vec![(10, dispatch), (30, fault)]);
        assert_eq!(pm.snapshot.queue_depth, 7);
        assert_eq!(pm.snapshot.faults, 1);
        assert!(ServeRecord::new(false).postmortem("x", 0).is_none());
    }
}
