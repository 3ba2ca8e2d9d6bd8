//! The tracer: the collector, its thread-local installation and the
//! guard-based spans. [`ENABLED`] gates the installation, so with
//! tracing compiled out nothing below reaches a tracer.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

use crate::{ArgValue, Subsystem, ENABLED};

/// Where a span is rendered: a real OS thread's track, or a named
/// virtual lane (simulated-GPU timelines, per-request tracks).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Lane {
    /// Track of the recording thread (`tid` assigned at install time).
    Thread(u64),
    /// A named virtual lane; exported with `tid = 1000 + lane index`.
    Named(String),
}

/// A completed span, as returned by [`Tracer::spans`].
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Unique id within the tracer.
    pub id: u64,
    /// Enclosing span at open time (same thread), or an explicit parent
    /// for cross-thread spans.
    pub parent: Option<u64>,
    /// Which subsystem recorded it.
    pub subsystem: Subsystem,
    /// Span name.
    pub name: String,
    /// Render track.
    pub lane: Lane,
    /// Start, microseconds since the tracer's epoch (wall spans) or
    /// since the lane's origin (virtual lanes).
    pub begin_us: f64,
    /// End, same clock as `begin_us`.
    pub end_us: f64,
    /// Typed arguments.
    pub args: Vec<(String, ArgValue)>,
}

impl SpanRecord {
    /// Span duration in microseconds.
    pub fn dur_us(&self) -> f64 {
        (self.end_us - self.begin_us).max(0.0)
    }

    /// Looks up an argument by key.
    pub fn arg(&self, key: &str) -> Option<&ArgValue> {
        self.args.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// Internal lane id: an index into the named-lane registry (guard
/// spans use thread tids directly; completed events always live on
/// named virtual lanes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LaneId(pub(crate) usize);

#[derive(Debug, Clone)]
pub(crate) enum Event {
    Begin {
        id: u64,
        parent: Option<u64>,
        subsystem: Subsystem,
        name: String,
        tid: u64,
        ts_us: f64,
    },
    End {
        id: u64,
        subsystem: Subsystem,
        tid: u64,
        ts_us: f64,
        args: Vec<(String, ArgValue)>,
    },
    Complete {
        id: u64,
        parent: Option<u64>,
        subsystem: Subsystem,
        name: String,
        lane: LaneId,
        ts_us: f64,
        dur_us: f64,
        args: Vec<(String, ArgValue)>,
    },
}

#[derive(Debug)]
pub(crate) struct Inner {
    pub(crate) epoch: Instant,
    pub(crate) events: Mutex<Vec<Event>>,
    pub(crate) counters: Mutex<BTreeMap<String, i64>>,
    pub(crate) gauges: Mutex<BTreeMap<String, f64>>,
    next_id: AtomicU64,
    next_tid: AtomicU64,
    pub(crate) threads: Mutex<HashMap<ThreadId, (u64, String)>>,
    pub(crate) lanes: Mutex<Vec<String>>,
    sim_kernels: AtomicBool,
}

/// A shared trace collector. Cloning is cheap (`Arc`); clones feed the
/// same buffer, which is how worker threads report into one trace.
#[derive(Debug, Clone)]
pub struct Tracer(Arc<Inner>);

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// Creates an empty tracer; its epoch (`ts = 0`) is now.
    pub fn new() -> Self {
        Tracer(Arc::new(Inner {
            epoch: Instant::now(),
            events: Mutex::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            next_id: AtomicU64::new(0),
            next_tid: AtomicU64::new(0),
            threads: Mutex::new(HashMap::new()),
            lanes: Mutex::new(Vec::new()),
            sim_kernels: AtomicBool::new(true),
        }))
    }

    /// Enables or disables recording of simulated-kernel spans
    /// ([`sim_kernel`]). Useful to keep a long tuning phase from
    /// flooding the trace with per-candidate kernel events while still
    /// collecting them for the final measured frame.
    pub fn set_sim_kernels(&self, on: bool) {
        self.0.sim_kernels.store(on, Ordering::Relaxed);
    }

    /// Whether simulated-kernel spans are being recorded.
    pub fn sim_kernels(&self) -> bool {
        self.0.sim_kernels.load(Ordering::Relaxed)
    }

    /// Installs this tracer into the current thread (see [`install`]).
    pub fn install(&self) {
        install(self);
    }

    pub(crate) fn same_as(&self, other: &Tracer) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// Allocates a fresh span id (for explicit cross-thread parenting,
    /// e.g. a request root allocated at submission and closed by a
    /// worker).
    pub fn alloc_span_id(&self) -> u64 {
        self.0.next_id.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Microseconds from the tracer epoch to `t` (0 if `t` predates it).
    pub fn instant_us(&self, t: Instant) -> f64 {
        t.checked_duration_since(self.0.epoch)
            .map(|d| d.as_secs_f64() * 1e6)
            .unwrap_or(0.0)
    }

    fn now_us(&self) -> f64 {
        self.instant_us(Instant::now())
    }

    pub(crate) fn push(&self, ev: Event) {
        self.0.events.lock().expect("trace event buffer").push(ev);
    }

    fn register_thread(&self) -> u64 {
        let cur = std::thread::current();
        let mut threads = self.0.threads.lock().expect("trace thread registry");
        if let Some(&(tid, _)) = threads.get(&cur.id()) {
            return tid;
        }
        let tid = self.0.next_tid.fetch_add(1, Ordering::Relaxed) + 1;
        let name = cur
            .name()
            .map(str::to_string)
            .unwrap_or_else(|| format!("thread-{tid}"));
        threads.insert(cur.id(), (tid, name));
        tid
    }

    pub(crate) fn lane_index(&self, name: &str) -> usize {
        let mut lanes = self.0.lanes.lock().expect("trace lane registry");
        if let Some(i) = lanes.iter().position(|l| l == name) {
            return i;
        }
        lanes.push(name.to_string());
        lanes.len() - 1
    }

    /// Adds `delta` to a named counter (saturating at the `i64` bounds).
    /// Counter names follow the `subsystem.noun.verb` convention.
    pub fn counter_add(&self, name: &str, delta: i64) {
        let mut counters = self.0.counters.lock().expect("trace counters");
        match counters.get_mut(name) {
            Some(v) => *v = v.saturating_add(delta),
            None => {
                counters.insert(name.to_string(), delta);
            }
        }
    }

    /// Reads one counter (0 if never touched).
    pub fn counter(&self, name: &str) -> i64 {
        *self
            .0
            .counters
            .lock()
            .expect("trace counters")
            .get(name)
            .unwrap_or(&0)
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> Vec<(String, i64)> {
        self.0
            .counters
            .lock()
            .expect("trace counters")
            .iter()
            .map(|(k, &v)| (k.clone(), v))
            .collect()
    }

    /// Sets a named gauge to `value` (last write wins).
    pub fn gauge_set(&self, name: &str, value: f64) {
        self.0
            .gauges
            .lock()
            .expect("trace gauges")
            .insert(name.to_string(), value);
    }

    /// All gauges, sorted by name.
    pub fn gauges(&self) -> Vec<(String, f64)> {
        self.0
            .gauges
            .lock()
            .expect("trace gauges")
            .iter()
            .map(|(k, &v)| (k.clone(), v))
            .collect()
    }

    /// Records a completed span on a named lane with explicit wall-clock
    /// endpoints — the cross-thread API: `start` may have been captured
    /// on a different thread than the recorder (e.g. request submission
    /// vs. worker completion). Returns the span id for parenting.
    #[allow(clippy::too_many_arguments)]
    pub fn record_span_at(
        &self,
        subsystem: Subsystem,
        lane: &str,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<u64>,
        args: Vec<(String, ArgValue)>,
    ) -> u64 {
        self.record_span_at_id(
            self.alloc_span_id(),
            subsystem,
            lane,
            name,
            start,
            end,
            parent,
            args,
        )
    }

    /// [`Tracer::record_span_at`] with a caller-allocated id (from
    /// [`Tracer::alloc_span_id`]), so children can be recorded before,
    /// after, or on different threads than their parent.
    #[allow(clippy::too_many_arguments)]
    pub fn record_span_at_id(
        &self,
        id: u64,
        subsystem: Subsystem,
        lane: &str,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<u64>,
        args: Vec<(String, ArgValue)>,
    ) -> u64 {
        let ts = self.instant_us(start);
        let te = self.instant_us(end).max(ts);
        let lane = LaneId(self.lane_index(lane));
        self.push(Event::Complete {
            id,
            parent,
            subsystem,
            name: name.to_string(),
            lane,
            ts_us: ts,
            dur_us: te - ts,
            args,
        });
        id
    }

    /// Pairs begin/end events into completed [`SpanRecord`]s (spans still
    /// open are closed at the latest observed timestamp).
    pub fn spans(&self) -> Vec<SpanRecord> {
        let events = self.0.events.lock().expect("trace event buffer").clone();
        let lanes = self.0.lanes.lock().expect("trace lane registry").clone();
        let lane_of = |l: LaneId| {
            Lane::Named(
                lanes
                    .get(l.0)
                    .cloned()
                    .unwrap_or_else(|| format!("lane-{}", l.0)),
            )
        };
        let mut max_ts = 0.0f64;
        let mut open: HashMap<u64, SpanRecord> = HashMap::new();
        let mut out = Vec::new();
        for ev in events {
            match ev {
                Event::Begin {
                    id,
                    parent,
                    subsystem,
                    name,
                    tid,
                    ts_us,
                } => {
                    max_ts = max_ts.max(ts_us);
                    open.insert(
                        id,
                        SpanRecord {
                            id,
                            parent,
                            subsystem,
                            name,
                            lane: Lane::Thread(tid),
                            begin_us: ts_us,
                            end_us: ts_us,
                            args: Vec::new(),
                        },
                    );
                }
                Event::End {
                    id, ts_us, args, ..
                } => {
                    max_ts = max_ts.max(ts_us);
                    if let Some(mut rec) = open.remove(&id) {
                        rec.end_us = ts_us.max(rec.begin_us);
                        rec.args = args;
                        out.push(rec);
                    }
                }
                Event::Complete {
                    id,
                    parent,
                    subsystem,
                    name,
                    lane,
                    ts_us,
                    dur_us,
                    args,
                } => {
                    max_ts = max_ts.max(ts_us + dur_us);
                    out.push(SpanRecord {
                        id,
                        parent,
                        subsystem,
                        name,
                        lane: lane_of(lane),
                        begin_us: ts_us,
                        end_us: ts_us + dur_us,
                        args,
                    });
                }
            }
        }
        for (_, mut rec) in open {
            rec.end_us = max_ts.max(rec.begin_us);
            out.push(rec);
        }
        out.sort_by(|a, b| a.begin_us.total_cmp(&b.begin_us).then(a.id.cmp(&b.id)));
        out
    }

    pub(crate) fn snapshot_events(&self) -> Vec<Event> {
        self.0.events.lock().expect("trace event buffer").clone()
    }

    pub(crate) fn lanes_snapshot(&self) -> Vec<String> {
        self.0.lanes.lock().expect("trace lane registry").clone()
    }

    pub(crate) fn thread_names(&self) -> HashMap<u64, String> {
        self.0
            .threads
            .lock()
            .expect("trace thread registry")
            .values()
            .map(|(tid, name)| (*tid, name.clone()))
            .collect()
    }

    /// Number of recorded events (begin and end count separately).
    pub fn event_count(&self) -> usize {
        self.0.events.lock().expect("trace event buffer").len()
    }
}

// ---------------------------------------------------------------------
// Thread-local installation.
// ---------------------------------------------------------------------

struct ThreadSlot {
    tracer: Tracer,
    tid: u64,
    stack: Vec<u64>,
    /// Per-lane monotone cursors for simulated timelines.
    cursors: HashMap<usize, f64>,
}

thread_local! {
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static SLOT: RefCell<Option<ThreadSlot>> = const { RefCell::new(None) };
}

fn with_slot<R>(f: impl FnOnce(&mut ThreadSlot) -> R) -> Option<R> {
    if !active() {
        return None;
    }
    SLOT.with(|s| s.borrow_mut().as_mut().map(f))
}

/// Installs `tracer` as the current thread's collector. Replaces any
/// previously installed tracer on this thread. Does nothing when
/// tracing is compiled out ([`ENABLED`] false).
pub fn install(tracer: &Tracer) {
    if !ENABLED {
        return;
    }
    let tid = tracer.register_thread();
    SLOT.with(|s| {
        *s.borrow_mut() = Some(ThreadSlot {
            tracer: tracer.clone(),
            tid,
            stack: Vec::new(),
            cursors: HashMap::new(),
        });
    });
    ACTIVE.with(|a| a.set(true));
}

/// [`install`] if `Some`; the no-tracer-propagation helper for spawned
/// threads: `let t = ts_trace::current(); thread::spawn(move || { ts_trace::install_opt(t.as_ref()); ... })`.
#[inline]
pub fn install_opt(tracer: Option<&Tracer>) {
    if let Some(t) = tracer {
        install(t);
    }
}

/// Removes the current thread's tracer (open guards still close into
/// the tracer they were started on).
pub fn uninstall() {
    if !ENABLED {
        return;
    }
    ACTIVE.with(|a| a.set(false));
    SLOT.with(|s| *s.borrow_mut() = None);
}

/// The tracer installed on this thread, if any.
#[inline]
pub fn current() -> Option<Tracer> {
    with_slot(|slot| slot.tracer.clone())
}

/// Whether a tracer is installed on this thread (one TLS read; always
/// false when tracing is compiled out).
#[inline]
pub fn active() -> bool {
    ENABLED && ACTIVE.with(|a| a.get())
}

/// Adds to a counter on the current thread's tracer (no-op when none).
#[inline]
pub fn counter_add(name: &str, delta: i64) {
    if let Some(tracer) = current() {
        tracer.counter_add(name, delta);
    }
}

/// Sets a gauge on the current thread's tracer (no-op when none).
#[inline]
pub fn gauge_set(name: &str, value: f64) {
    if let Some(tracer) = current() {
        tracer.gauge_set(name, value);
    }
}

/// Records a completed span with explicit endpoints on the current
/// thread's tracer; returns the span id (see
/// [`Tracer::record_span_at`]).
pub fn record_span_at(
    subsystem: Subsystem,
    lane: &str,
    name: &str,
    start: Instant,
    end: Instant,
    parent: Option<u64>,
    args: Vec<(String, ArgValue)>,
) -> Option<u64> {
    with_slot(|slot| {
        slot.tracer
            .record_span_at(subsystem, lane, name, start, end, parent, args)
    })
}

/// Appends a span of `dur_us` *simulated* microseconds to the calling
/// thread's virtual lane `track` (rendered as `track#tid`). The lane
/// cursor only moves forward, so timestamps stay monotone per lane.
pub fn sim_span(
    subsystem: Subsystem,
    track: &str,
    name: &str,
    dur_us: f64,
    args: Vec<(String, ArgValue)>,
) {
    with_slot(|slot| {
        let lane_name = format!("{track}#{}", slot.tid);
        let lane = slot.tracer.lane_index(&lane_name);
        let cursor = slot.cursors.entry(lane).or_insert(0.0);
        let ts = *cursor;
        let dur = dur_us.max(0.0);
        *cursor = ts + dur;
        let id = slot.tracer.alloc_span_id();
        let parent = slot.stack.last().copied();
        slot.tracer.push(Event::Complete {
            id,
            parent,
            subsystem,
            name: name.to_string(),
            lane: LaneId(lane),
            ts_us: ts,
            dur_us: dur,
            args,
        });
    });
}

/// Records one simulated GPU kernel on this thread's `gpu#tid` lane:
/// name, kernel class, MAC count, occupancy (0..1) and simulated
/// duration. Subject to [`Tracer::set_sim_kernels`] filtering.
pub fn sim_kernel(name: &str, class: &'static str, macs: u64, occupancy: f64, dur_us: f64) {
    if !with_slot(|slot| slot.tracer.sim_kernels()).unwrap_or(false) {
        return;
    }
    sim_span(
        Subsystem::Gpusim,
        "gpu",
        name,
        dur_us,
        vec![
            ("class".to_string(), ArgValue::Str(class.to_string())),
            ("macs".to_string(), ArgValue::U64(macs)),
            ("occupancy".to_string(), ArgValue::F64(occupancy)),
        ],
    );
}

/// Disables simulated-kernel emission on the calling thread's tracer
/// until the returned guard drops (restoring the previous setting).
///
/// The autotuner uses this: its thousands of candidate simulations would
/// otherwise flood the trace with one event per priced kernel.
#[must_use = "sim-kernel emission resumes when the guard drops"]
#[inline]
pub fn suppress_sim_kernels() -> SimKernelSuppression {
    SimKernelSuppression(current().map(|t| {
        let prev = t.sim_kernels();
        t.set_sim_kernels(false);
        (t, prev)
    }))
}

/// Guard from [`suppress_sim_kernels`].
pub struct SimKernelSuppression(Option<(Tracer, bool)>);

impl Drop for SimKernelSuppression {
    #[inline]
    fn drop(&mut self) {
        if !ENABLED {
            return;
        }
        if let Some((t, prev)) = self.0.take() {
            t.set_sim_kernels(prev);
        }
    }
}

// ---------------------------------------------------------------------
// Guard-based spans.
// ---------------------------------------------------------------------

struct GuardInner {
    tracer: Tracer,
    id: u64,
    subsystem: Subsystem,
    tid: u64,
    args: Vec<(String, ArgValue)>,
}

/// RAII span handle from [`span()`](fn@crate::span) / [`span!`]. Closes (records the end
/// event) when dropped — panic and early-return safe by construction.
pub struct SpanGuard(Option<GuardInner>);

impl SpanGuard {
    /// Whether this guard records anywhere (false = no tracer installed,
    /// everything below is a no-op).
    #[inline]
    pub fn active(&self) -> bool {
        self.0.is_some()
    }

    /// The span id, for explicit parenting of cross-thread children.
    #[inline]
    pub fn id(&self) -> Option<u64> {
        self.0.as_ref().map(|g| g.id)
    }

    /// Attaches a typed argument (exported on the span's end event).
    #[inline]
    pub fn arg(&mut self, key: &str, value: impl Into<ArgValue>) {
        if let Some(g) = self.0.as_mut() {
            g.args.push((key.to_string(), value.into()));
        }
    }
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        if !ENABLED {
            return;
        }
        if let Some(g) = self.0.take() {
            g.close();
        }
    }
}

impl GuardInner {
    fn open(slot: &mut ThreadSlot, subsystem: Subsystem, name: &str) -> Self {
        let tracer = slot.tracer.clone();
        let id = tracer.alloc_span_id();
        let parent = slot.stack.last().copied();
        let ts = tracer.now_us();
        tracer.push(Event::Begin {
            id,
            parent,
            subsystem,
            name: name.to_string(),
            tid: slot.tid,
            ts_us: ts,
        });
        slot.stack.push(id);
        GuardInner {
            tracer,
            id,
            subsystem,
            tid: slot.tid,
            args: Vec::new(),
        }
    }

    fn close(self) {
        // Best-effort stack maintenance: the top entry is ours unless
        // guards were dropped out of order.
        SLOT.with(|s| {
            if let Some(slot) = s.borrow_mut().as_mut() {
                if slot.tracer.same_as(&self.tracer) {
                    if slot.stack.last() == Some(&self.id) {
                        slot.stack.pop();
                    } else {
                        slot.stack.retain(|&x| x != self.id);
                    }
                }
            }
        });
        let ts = self.tracer.now_us();
        self.tracer.push(Event::End {
            id: self.id,
            subsystem: self.subsystem,
            tid: self.tid,
            ts_us: ts,
            args: self.args,
        });
    }
}

/// Opens a guard-based span on the current thread's tracer, parented to
/// the innermost open span of this thread. Returns an inactive guard
/// when no tracer is installed.
#[inline]
pub fn span(subsystem: Subsystem, name: &str) -> SpanGuard {
    SpanGuard(with_slot(|slot| GuardInner::open(slot, subsystem, name)))
}
