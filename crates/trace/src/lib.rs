//! `ts-trace`: the observability spine of the TorchSparse++ reproduction.
//!
//! TorchSparse++ is a profiling-driven design: the Sparse Autotuner works
//! *because* end-to-end latency can be attributed to per-group kernel
//! choices, and the paper's evaluation (Figs. 14–23) is built on
//! per-kernel-class breakdowns. This crate gives every subsystem one
//! shared vocabulary for that attribution:
//!
//! * **Spans** — RAII guards ([`span()`] / [`span!`]) timed on the
//!   monotonic clock, parented through a thread-local span stack, carrying
//!   typed arguments. Guards close on drop, so panics and early returns
//!   cannot leak an open span.
//! * **Counters / gauges** — a typed registry with saturating adds, named
//!   by the `subsystem.noun.verb` convention (e.g.
//!   `core.prepare_cache.hit`).
//! * **Simulated timelines** — the GPU model prices kernels in simulated
//!   microseconds, not wall time; [`sim_kernel`] lays those out on
//!   per-thread virtual lanes with a monotone cursor so they render as a
//!   GPU timeline next to the wall-clock spans.
//! * **Exporters** — a human-readable aggregated tree
//!   ([`Tracer::summary`]) and Chrome trace-event JSON
//!   ([`Tracer::chrome_trace_json`]) loadable in Perfetto /
//!   `chrome://tracing` (`pid` = subsystem, `tid` = worker or virtual
//!   lane).
//!
//! # Activation model
//!
//! There is no process-global collector. A [`Tracer`] is installed into
//! the *current thread* with [`install`]; threads you spawn inherit
//! nothing — pass a clone and call [`install`] (or [`install_opt`])
//! inside the thread, which is exactly what `ts-serve` workers and the
//! autotuner's sweep threads do. With no tracer installed every
//! instrumentation site is one thread-local flag check.
//!
//! Whether tracing is compiled in at all is one constant, [`ENABLED`]
//! (feature `enabled`). Built with `default-features = false`, the same
//! implementation compiles, but [`install`] does nothing and [`active`]
//! is constantly false: each site folds away, and the thread-local
//! state is never referenced.
//!
//! # Counter vocabulary
//!
//! Counters are named `subsystem.noun.verb` so they sort into stable
//! per-subsystem groups in summaries and Chrome-trace tracks. The
//! names currently emitted by the workspace:
//!
//! | Counter | Meaning |
//! |---|---|
//! | `kernelgen.kernels.generated` | Kernels emitted by the Sparse Kernel Generator |
//! | `core.prepare_cache.hit` / `.miss` | Per-layer prepared-kernel-map reuse in the engine |
//! | `core.schedule.group_downgraded` | Schedule slots an engine runs on the safe fallback dataflow because their configs failed validation |
//! | `core.stream.entered` / `.exited` / `.frames` | Streaming-session lifecycle and frames served |
//! | `core.stream.patched` / `.rebuilt` | Incremental kernel-map updates: in-place patch vs full rebuild |
//! | `core.walk.macs` | Multiply-adds the feature walk computes: `pairs × c_in × c_out` per forward, dgrad and wgrad kernel call |
//! | `autotune.rounds.completed` / `.groups.tuned` / `.candidates.swept` | Sparse Autotuner progress |
//! | `serve.requests.completed` / `.rejected_queue_full` / `.requeued` | Request lifecycle at the server boundary |
//! | `serve.requests.shed_deadline` / `.shed_crashed` / `.shed_halt` | Requests shed with a typed rejection: deadline expiry, requeue budget exhausted, server halt |
//! | `serve.frames.rejected` | Frames refused at admission (malformed input) |
//! | `serve.deadline.missed` | Completions later than their deadline |
//! | `serve.batches.dispatched` / `.executed` | Dynamic batches sent to, and finished by, the worker pool |
//! | `serve.workers.panicked` / `.stalled` / `.restarted` | Supervisor observations of the worker pool |
//! | `serve.chaos.injected_panic` / `.injected_stall` | Faults injected by an armed `FaultPlan` (ts-serve, feature `chaos` only) |
//! | `serve.schedule.downgraded` | Schedule downgrades carried by the engine a server booted from |
//! | `serve.map_cache.hit` / `.miss` / `.patched` / `.rebuilt` | Per-stream map-cache lookups and how hits resolved |
//! | `serve.map_cache.entered` / `.exited` / `.evicted` / `.invalidated` | Map-cache entry lifecycle |
//! | `serve.map_cache.disabled_degraded` | Map reuse disabled because the engine booted degraded |
//! | `fleet.requests.routed` / `.affinity` / `.hashed` / `.spilled` | Fleet router placement decisions |
//! | `fleet.requests.rejected_no_capacity` | Requests refused because no node was alive |
//! | `fleet.streams.re_homed` / `.migrated` | Streams whose affinity home moved: after a node death, or off a persistently overloaded node |
//! | `fleet.nodes.killed` / `.restarted` | Whole-node chaos lifecycle events |
//! | `obs.alerts.page_tripped` / `.page_cleared` | SLO fast-window (PageWorthy) burn-rate alert edges |
//! | `obs.alerts.warn_tripped` / `.warn_cleared` | SLO slow-window (Warning) burn-rate alert edges |
//! | `obs.snapshots.exported` | Live `HealthSnapshot` expositions taken |
//! | `obs.postmortem.dumped` | Flight-recorder post-mortems written |
//! | `cache.hit` / `.miss` / `.warm_start` | Schedule-cache lookups: exact digest match, nothing compatible, nearest-neighbor transfer |
//! | `cache.retuned_groups` | Groups scheduled for re-tuning across warm starts (drifted past policy or repaired by the sanitizer) |
//! | `cache.inserted` / `.evicted` | Schedule-cache entry lifecycle |
//! | `cache.rejected` | On-disk inference entries skipped at open (unparsable, or digest mismatched the file name) |
//! | `cache.train.hit` / `.miss` / `.warm_start` / `.retuned_groups` | Training-schedule cache lookups (keyed by content digest + binding scheme) |
//! | `cache.train.inserted` / `.evicted` / `.rejected` | Training-schedule cache entry lifecycle and `train-*.json` files skipped at open |
//! | `train.steps.completed` / `.skipped_overflow` | Training steps applied vs skipped by the loss scaler's overflow check |
//! | `train.microbatches.executed` | Micro-batch forward+backward executions (gradient accumulation) |
//! | `train.map.patched` / `.rebuilt` | Step-plan kernel-map maintenance across temporally coherent steps |
//! | `train.plan.compiled` | Fused step plans compiled (tune + session build epochs) |
//!
//! The `serve.*` counters are not written at their call sites: each
//! serve site emits one typed `ts_obs::ObsEvent`, and ts-serve adds the
//! event's counters from one name table on the server's tracer, next to
//! its report and live-telemetry folds of the same event. A counter is
//! a plain tally; nothing observes or re-records `counter_add`.
//!
//! Gauges follow the same convention (e.g. `autotune.speedup`).
#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt;

/// The instrumented subsystems. Each maps to one Chrome-trace `pid` so a
/// trace opens as labelled process tracks, one per subsystem.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Subsystem {
    /// Sparse Kernel Generator: codegen and hoisting/padding decisions.
    Kernelgen,
    /// Simulated GPU: each priced kernel, on a virtual timeline.
    Gpusim,
    /// Engine / Session: compilation, simulation, prepare cache.
    Core,
    /// Sparse Autotuner: greedy per-group rounds.
    Autotune,
    /// Dynamic-batching server: per-request span trees.
    Serve,
    /// Multi-node serving fleet: routing, re-homing, node lifecycle.
    Fleet,
    /// Anything else (examples, tests, applications).
    App,
    /// Live telemetry (ts-obs): SLO alerts, snapshots, post-mortems.
    Obs,
    /// Content-addressed schedule cache (ts-cache): hits, warm
    /// transfers, evictions.
    Cache,
    /// Training harness (ts-train): fused step pipeline, binding
    /// policy, loss scaling, gradient accumulation.
    Train,
}

impl Subsystem {
    /// Every subsystem, in `pid` order.
    pub const ALL: [Subsystem; 10] = [
        Subsystem::Kernelgen,
        Subsystem::Gpusim,
        Subsystem::Core,
        Subsystem::Autotune,
        Subsystem::Serve,
        Subsystem::Fleet,
        Subsystem::App,
        Subsystem::Obs,
        Subsystem::Cache,
        Subsystem::Train,
    ];

    /// Chrome-trace process id (stable across runs).
    pub fn pid(self) -> u64 {
        match self {
            Subsystem::Kernelgen => 1,
            Subsystem::Gpusim => 2,
            Subsystem::Core => 3,
            Subsystem::Autotune => 4,
            Subsystem::Serve => 5,
            Subsystem::Fleet => 6,
            Subsystem::App => 7,
            Subsystem::Obs => 8,
            Subsystem::Cache => 9,
            Subsystem::Train => 10,
        }
    }

    /// Lower-case label; also the leading component of counter names.
    pub fn label(self) -> &'static str {
        match self {
            Subsystem::Kernelgen => "kernelgen",
            Subsystem::Gpusim => "gpusim",
            Subsystem::Core => "core",
            Subsystem::Autotune => "autotune",
            Subsystem::Serve => "serve",
            Subsystem::Fleet => "fleet",
            Subsystem::App => "app",
            Subsystem::Obs => "obs",
            Subsystem::Cache => "cache",
            Subsystem::Train => "train",
        }
    }

    /// Maps a `subsystem.noun.verb` counter name back to its subsystem
    /// (used to place counter tracks under the right process).
    pub fn from_counter_name(name: &str) -> Subsystem {
        let prefix = name.split('.').next().unwrap_or("");
        Subsystem::ALL
            .into_iter()
            .find(|s| s.label() == prefix)
            .unwrap_or(Subsystem::App)
    }
}

impl fmt::Display for Subsystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A typed span-argument value.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// Signed integer.
    I64(i64),
    /// Unsigned integer.
    U64(u64),
    /// Floating point (non-finite values export as `0`).
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// Free-form string (kernel names, config summaries).
    Str(String),
}

impl ArgValue {
    /// JSON rendering of the value alone.
    pub fn to_json(&self) -> String {
        match self {
            ArgValue::I64(v) => v.to_string(),
            ArgValue::U64(v) => v.to_string(),
            ArgValue::F64(v) if v.is_finite() => format!("{v}"),
            ArgValue::F64(_) => "0".to_string(),
            ArgValue::Bool(v) => v.to_string(),
            ArgValue::Str(s) => format!("\"{}\"", escape_json(s)),
        }
    }
}

impl fmt::Display for ArgValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgValue::I64(v) => write!(f, "{v}"),
            ArgValue::U64(v) => write!(f, "{v}"),
            ArgValue::F64(v) => write!(f, "{v:.3}"),
            ArgValue::Bool(v) => write!(f, "{v}"),
            ArgValue::Str(s) => write!(f, "{s}"),
        }
    }
}

macro_rules! arg_from {
    ($($t:ty => $variant:ident as $conv:ty),* $(,)?) => {
        $(impl From<$t> for ArgValue {
            fn from(v: $t) -> Self {
                ArgValue::$variant(v as $conv)
            }
        })*
    };
}

arg_from!(
    i64 => I64 as i64,
    i32 => I64 as i64,
    u64 => U64 as u64,
    u32 => U64 as u64,
    usize => U64 as u64,
    f64 => F64 as f64,
    f32 => F64 as f64,
);

impl From<bool> for ArgValue {
    fn from(v: bool) -> Self {
        ArgValue::Bool(v)
    }
}

impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_string())
    }
}

impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Str(v)
    }
}

/// Escapes a string for embedding inside a JSON string literal.
pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Opens a span: `span!(Subsystem::Core, "simulate", groups = 13)`.
///
/// Arguments are `key = value` pairs (any [`ArgValue`] conversion) or
/// bare identifiers (`span!(sub, "gemm", cta_m, split)` records local
/// variables under their own names). Arguments are only evaluated when a
/// tracer is installed. The span closes when the returned guard drops.
#[macro_export]
macro_rules! span {
    ($sub:expr, $name:expr $(,)?) => {
        $crate::span($sub, $name)
    };
    ($sub:expr, $name:expr, $($k:ident = $v:expr),+ $(,)?) => {{
        let mut guard = $crate::span($sub, $name);
        if guard.active() {
            $(guard.arg(stringify!($k), $v);)+
        }
        guard
    }};
    ($sub:expr, $name:expr, $($k:ident),+ $(,)?) => {{
        let mut guard = $crate::span($sub, $name);
        if guard.active() {
            $(guard.arg(stringify!($k), $k);)+
        }
        guard
    }};
}

/// Whether tracing is compiled in: this crate's `enabled` feature,
/// which the workspace's root `trace` feature turns on.
///
/// When it is off, [`install`] does nothing and [`active`] is constantly
/// false, so every instrumentation site folds away and the thread-local
/// state is never touched. The API is the same either way; a [`Tracer`]
/// handle still works, but no instrumentation reaches it.
pub const ENABLED: bool = cfg!(feature = "enabled");

mod export;
mod tracer;
pub use tracer::{
    active, counter_add, current, gauge_set, install, install_opt, record_span_at, sim_kernel,
    sim_span, span, suppress_sim_kernels, uninstall, Lane, SimKernelSuppression, SpanGuard,
    SpanRecord, Tracer,
};
