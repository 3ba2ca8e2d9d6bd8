//! No-op API mirror, compiled when feature `enabled` is off: every call
//! is an inline empty function, so instrumented crates need no `cfg`
//! scattering and the optimizer erases the instrumentation entirely.

use std::io;
use std::path::Path;
use std::time::Instant;

use crate::{ArgValue, Subsystem};

/// Render track of a span (disabled build: never constructed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Lane {
    /// Track of the recording thread.
    Thread(u64),
    /// A named virtual lane.
    Named(String),
}

/// A completed span (disabled build: never constructed).
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Unique id within the tracer.
    pub id: u64,
    /// Parent span id.
    pub parent: Option<u64>,
    /// Recording subsystem.
    pub subsystem: Subsystem,
    /// Span name.
    pub name: String,
    /// Render track.
    pub lane: Lane,
    /// Start microseconds.
    pub begin_us: f64,
    /// End microseconds.
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

/// Disabled-build tracer: a zero-sized handle whose every method is a
/// no-op. Not `Copy`, like the real handle, so code compiles the same
/// way in both builds.
#[derive(Debug, Clone, Default)]
pub struct Tracer;

impl Tracer {
    /// Creates a (disabled) tracer.
    pub fn new() -> Self {
        Tracer
    }

    /// No-op.
    pub fn set_sim_kernels(&self, _on: bool) {}

    /// Always false.
    pub fn sim_kernels(&self) -> bool {
        false
    }

    /// No-op.
    pub fn install(&self) {}

    /// Always 0.
    pub fn alloc_span_id(&self) -> u64 {
        0
    }

    /// Always 0.
    pub fn instant_us(&self, _t: Instant) -> f64 {
        0.0
    }

    /// No-op.
    pub fn counter_add(&self, _name: &str, _delta: i64) {}

    /// Always 0.
    pub fn counter(&self, _name: &str) -> i64 {
        0
    }

    /// Always empty.
    pub fn counters(&self) -> Vec<(String, i64)> {
        Vec::new()
    }

    /// No-op.
    pub fn gauge_set(&self, _name: &str, _value: f64) {}

    /// Always empty.
    pub fn gauges(&self) -> Vec<(String, f64)> {
        Vec::new()
    }

    /// No-op; returns 0.
    #[allow(clippy::too_many_arguments)]
    pub fn record_span_at(
        &self,
        _subsystem: Subsystem,
        _lane: &str,
        _name: &str,
        _start: Instant,
        _end: Instant,
        _parent: Option<u64>,
        _args: Vec<(String, ArgValue)>,
    ) -> u64 {
        0
    }

    /// No-op; returns `id`.
    #[allow(clippy::too_many_arguments)]
    pub fn record_span_at_id(
        &self,
        id: u64,
        _subsystem: Subsystem,
        _lane: &str,
        _name: &str,
        _start: Instant,
        _end: Instant,
        _parent: Option<u64>,
        _args: Vec<(String, ArgValue)>,
    ) -> u64 {
        id
    }

    /// Always empty.
    pub fn spans(&self) -> Vec<SpanRecord> {
        Vec::new()
    }

    /// Always 0.
    pub fn event_count(&self) -> usize {
        0
    }

    /// An empty trace.
    pub fn chrome_trace_json(&self) -> String {
        "{\"traceEvents\":[]}".to_string()
    }

    /// Writes the empty trace.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    pub fn write_chrome_trace(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, self.chrome_trace_json())
    }

    /// A placeholder summary.
    pub fn summary(&self) -> String {
        "trace summary (tracing compiled out)\n".to_string()
    }
}

/// No-op.
#[inline(always)]
pub fn install(_tracer: &Tracer) {}

/// No-op.
#[inline(always)]
pub fn install_opt(_tracer: Option<&Tracer>) {}

/// No-op.
#[inline(always)]
pub fn uninstall() {}

/// Always `None`.
#[inline(always)]
pub fn current() -> Option<Tracer> {
    None
}

/// Always false.
#[inline(always)]
pub fn active() -> bool {
    false
}

/// No-op.
#[inline(always)]
pub fn counter_add(_name: &str, _delta: i64) {}

/// No-op.
#[inline(always)]
pub fn gauge_set(_name: &str, _value: f64) {}

/// Always `None`.
#[inline(always)]
pub fn record_span_at(
    _subsystem: Subsystem,
    _lane: &str,
    _name: &str,
    _start: Instant,
    _end: Instant,
    _parent: Option<u64>,
    _args: Vec<(String, ArgValue)>,
) -> Option<u64> {
    None
}

/// No-op.
#[inline(always)]
pub fn sim_span(
    _subsystem: Subsystem,
    _track: &str,
    _name: &str,
    _dur_us: f64,
    _args: Vec<(String, ArgValue)>,
) {
}

/// No-op.
#[inline(always)]
pub fn sim_kernel(_name: &str, _class: &'static str, _macs: u64, _occupancy: f64, _dur_us: f64) {}

/// No-op counterpart of the real `suppress_sim_kernels`.
#[must_use = "sim-kernel emission resumes when the guard drops"]
#[inline(always)]
pub fn suppress_sim_kernels() -> SimKernelSuppression {
    SimKernelSuppression(())
}

/// Guard from [`suppress_sim_kernels`] (no-op).
pub struct SimKernelSuppression(());

/// Inactive guard.
pub struct SpanGuard(());

/// Does nothing; the guard has a `Drop`, like the real one, so closing
/// a span early with `drop(guard)` means the same in both builds.
impl Drop for SpanGuard {
    #[inline(always)]
    fn drop(&mut self) {}
}

impl SpanGuard {
    /// Always false.
    #[inline(always)]
    pub fn active(&self) -> bool {
        false
    }

    /// Always `None`.
    #[inline(always)]
    pub fn id(&self) -> Option<u64> {
        None
    }

    /// No-op.
    #[inline(always)]
    pub fn arg(&mut self, _key: &str, _value: impl Into<ArgValue>) {}
}

/// Returns an inactive guard.
#[inline(always)]
pub fn span(_subsystem: Subsystem, _name: &str) -> SpanGuard {
    SpanGuard(())
}
