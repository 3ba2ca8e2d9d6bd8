//! Benchmark-side spans around calls into the program's public entry
//! points, their self-time arithmetic, and Chrome trace-event export.
//!
//! The program itself records nothing: every span here wraps one public
//! call made by a replay. Spans stay in memory until the run ends.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

use serde_json::Value;

/// Layer of a request's root span: the part of a request that no child
/// span covers is time no layer claims.
pub const UNATTRIBUTED: &str = "unattributed";

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of the span in its recorder.
    pub id: usize,
    /// The span that was open when this one started.
    pub parent: Option<usize>,
    /// Request the span belongs to; shared by every span of a request.
    pub req: u64,
    /// Layer (crate) the wrapped call belongs to.
    pub layer: &'static str,
    /// The wrapped call.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall time between start and end.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on one thread.
pub struct Tracer {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    req: Cell<u64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            req: Cell::new(0),
        }
    }
}

impl Tracer {
    /// Runs `f` as request `req`: a root span named `root` whose
    /// uncovered time is [`UNATTRIBUTED`].
    pub fn request<T>(&self, req: u64, root: &'static str, f: impl FnOnce() -> T) -> T {
        assert!(self.open.borrow().is_empty(), "requests do not nest");
        self.req.set(req);
        self.span(UNATTRIBUTED, root, f)
    }

    /// Runs `f` inside a span of `layer`, child of the innermost open span.
    pub fn span<T>(&self, layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = {
            let mut spans = self.spans.borrow_mut();
            let id = spans.len();
            spans.push(Span {
                id,
                parent: self.open.borrow().last().copied(),
                req: self.req.get(),
                layer,
                name,
                start_ns: 0,
                end_ns: 0,
            });
            id
        };
        self.open.borrow_mut().push(id);
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.open.borrow_mut().pop();
        let mut spans = self.spans.borrow_mut();
        spans[id].start_ns = start;
        spans[id].end_ns = end;
        out
    }

    /// The recorded spans, in start order of their bookkeeping.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner()
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }
}

/// Length of the part of `[lo, hi)` covered by the union of `intervals`:
/// overlapping intervals count once.
pub fn covered_ns(lo: u64, hi: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut run: Option<(u64, u64)> = None;
    for (a, b) in clipped {
        run = match run {
            Some((ra, rb)) if a <= rb => Some((ra, rb.max(b))),
            Some((ra, rb)) => {
                total += rb - ra;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + run.map_or(0, |(a, b)| b - a)
}

/// Self time of every span (indexed like `spans`, whose ids must be
/// their indices): its duration minus the union of its children.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    debug_assert!(
        spans.iter().enumerate().all(|(i, s)| s.id == i),
        "span ids index the slice"
    );
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| s.dur_ns() - covered_ns(s.start_ns, s.end_ns, &children[s.id]))
        .collect()
}

/// Per-phase totals over every request rooted at a span named `root`.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Breakdown {
    /// Requests covered.
    pub requests: usize,
    /// Sum of the requests' root span durations.
    pub traced_ns: u64,
    /// Self time per `(layer, name)`, summed over requests.
    pub self_ns: BTreeMap<(&'static str, &'static str), u64>,
    /// Wall time per `(layer, name)`, summed over requests.
    pub wall_ns: BTreeMap<(&'static str, &'static str), u64>,
    /// Calls per `(layer, name)`, summed over requests.
    pub calls: BTreeMap<(&'static str, &'static str), u64>,
    /// Requests whose self times do not add up to their root duration.
    pub unbalanced: usize,
}

impl Breakdown {
    /// Builds the breakdown of every request rooted at a span named `root`.
    pub fn of(spans: &[Span], root: &str) -> Self {
        let selfs = self_times(spans);
        let roots: BTreeMap<u64, &Span> = spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == root)
            .map(|s| (s.req, s))
            .collect();
        let mut b = Breakdown {
            requests: roots.len(),
            traced_ns: roots.values().map(|s| s.dur_ns()).sum(),
            ..Self::default()
        };
        let mut per_req_self: BTreeMap<u64, u64> = BTreeMap::new();
        for (s, &own) in spans.iter().zip(&selfs) {
            if !roots.contains_key(&s.req) {
                continue;
            }
            *b.self_ns.entry((s.layer, s.name)).or_default() += own;
            *b.wall_ns.entry((s.layer, s.name)).or_default() += s.dur_ns();
            *b.calls.entry((s.layer, s.name)).or_default() += 1;
            *per_req_self.entry(s.req).or_default() += own;
        }
        b.unbalanced = roots
            .iter()
            .filter(|(req, r)| per_req_self.get(req).copied().unwrap_or(0) != r.dur_ns())
            .count();
        b
    }

    /// Self time per layer, summed over requests.
    pub fn layer_self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (&(layer, _), &ns) in &self.self_ns {
            *out.entry(layer).or_default() += ns;
        }
        out
    }

    /// Mean self time per request of one `(layer, name)` phase, in ms.
    pub fn self_ms(&self, layer: &str, name: &str) -> f64 {
        self.per_request(&self.self_ns, layer, name)
    }

    /// Mean wall time per request of one `(layer, name)` phase, in ms.
    pub fn wall_ms(&self, layer: &str, name: &str) -> f64 {
        self.per_request(&self.wall_ns, layer, name)
    }

    /// Mean calls per request of one `(layer, name)` phase.
    pub fn calls_per_request(&self, layer: &str, name: &str) -> f64 {
        let n: u64 = self
            .calls
            .iter()
            .filter(|(&(l, p), _)| l == layer && p == name)
            .map(|(_, &c)| c)
            .sum();
        n as f64 / self.requests.max(1) as f64
    }

    /// Mean traced time per request, in ms.
    pub fn traced_ms(&self) -> f64 {
        self.traced_ns as f64 / 1e6 / self.requests.max(1) as f64
    }

    fn per_request(&self, map: &BTreeMap<(&str, &str), u64>, layer: &str, name: &str) -> f64 {
        let ns: u64 = map
            .iter()
            .filter(|(&(l, p), _)| l == layer && p == name)
            .map(|(_, &v)| v)
            .sum();
        ns as f64 / 1e6 / self.requests.max(1) as f64
    }
}

/// The spans as a Chrome trace-event document (complete `X` events, one
/// thread lane per request), readable by Perfetto and `chrome://tracing`.
pub fn chrome_trace(spans: &[Span], lane_name: impl Fn(u64) -> String) -> Value {
    let mut events = Vec::with_capacity(spans.len() + 8);
    let lanes: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.req).collect();
    for req in lanes {
        events.push(obj(vec![
            ("name", Value::Str("thread_name".into())),
            ("ph", Value::Str("M".into())),
            ("pid", Value::U64(1)),
            ("tid", Value::U64(req)),
            ("args", obj(vec![("name", Value::Str(lane_name(req)))])),
        ]));
    }
    for s in spans {
        events.push(obj(vec![
            ("name", Value::Str(format!("{}.{}", s.layer, s.name))),
            ("cat", Value::Str(s.layer.into())),
            ("ph", Value::Str("X".into())),
            ("ts", Value::F64(s.start_ns as f64 / 1e3)),
            ("dur", Value::F64(s.dur_ns() as f64 / 1e3)),
            ("pid", Value::U64(1)),
            ("tid", Value::U64(s.req)),
            (
                "args",
                obj(vec![
                    ("id", Value::U64(s.id as u64)),
                    (
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::U64(p as u64)),
                    ),
                    ("req", Value::U64(s.req)),
                ]),
            ),
        ]));
    }
    obj(vec![
        ("traceEvents", Value::Array(events)),
        ("displayTimeUnit", Value::Str("ms".into())),
    ])
}

/// A JSON object from `(key, value)` pairs, in order.
pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, layer: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            req: 1,
            layer,
            name: "x",
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn overlapping_intervals_count_once() {
        assert_eq!(covered_ns(0, 100, &[]), 0);
        assert_eq!(covered_ns(0, 100, &[(10, 40), (30, 60), (50, 55)]), 50);
        // Clipped to the window, touching intervals merge.
        assert_eq!(covered_ns(20, 100, &[(0, 30), (30, 50), (90, 150)]), 40);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, None, UNATTRIBUTED, 0, 100),
            span(1, Some(0), "core", 10, 40),
            span(2, Some(0), "dataflow", 30, 60),
            span(3, Some(0), "gpusim", 90, 120),
            span(4, Some(1), "tensor", 15, 25),
        ];
        // Children of the root cover [10, 60) and [90, 100): 60 ns.
        assert_eq!(self_times(&spans), vec![40, 20, 30, 30, 10]);
    }

    #[test]
    fn nested_spans_add_up_to_the_request() {
        let t = Tracer::default();
        let v = t.request(7, "request", || {
            let a = t.span("core", "outer", || t.span("dataflow", "inner", || 2) + 1);
            a + t.span("gpusim", "price", || 3)
        });
        assert_eq!(v, 6);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[2].parent, Some(1));
        assert!(spans.iter().all(|s| s.req == 7));
        let b = Breakdown::of(&spans, "request");
        assert_eq!(b.requests, 1);
        assert_eq!(b.unbalanced, 0);
        let total: u64 = b.layer_self_ns().values().sum();
        assert_eq!(total, b.traced_ns);
        assert_eq!(b.calls_per_request("dataflow", "inner"), 1.0);
    }

    #[test]
    fn chrome_trace_has_one_complete_event_per_span() {
        let spans = vec![
            span(0, None, UNATTRIBUTED, 0, 2000),
            span(1, Some(0), "core", 500, 1500),
        ];
        let doc =
            serde_json::to_string(&chrome_trace(&spans, |r| format!("req-{r}"))).expect("json");
        assert_eq!(doc.matches("\"ph\":\"X\"").count(), 2);
        assert!(doc.contains("\"name\":\"core.x\""));
        assert!(doc.contains("\"dur\":1.0"));
    }
}
