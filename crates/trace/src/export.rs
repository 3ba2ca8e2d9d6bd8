//! Exporters: Chrome trace-event JSON and the aggregated tree summary.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::Write as _;
use std::io;
use std::path::Path;

use crate::tracer::{Event, LaneId, SpanRecord, Tracer};
use crate::{escape_json, ArgValue, Subsystem};

/// Offset applied to named-lane indices so virtual lanes never collide
/// with real thread tids.
const NAMED_LANE_TID_BASE: u64 = 1000;

fn fmt_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn args_json(args: &[(String, ArgValue)]) -> String {
    let mut s = String::from("{");
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "\"{}\":{}", escape_json(k), v.to_json());
    }
    s.push('}');
    s
}

struct ChromeEvent {
    ts: f64,
    seq: usize,
    json: String,
}

impl Tracer {
    /// Serializes the trace as Chrome trace-event JSON
    /// (`{"traceEvents": [...]}`), loadable in Perfetto or
    /// `chrome://tracing`:
    ///
    /// * `pid` = subsystem ([`Subsystem::pid`]), labelled with
    ///   `process_name` metadata;
    /// * `tid` = recording thread, or `1000 + lane` for virtual lanes
    ///   (simulated GPU timelines, per-request tracks), labelled with
    ///   `thread_name` metadata;
    /// * guard spans export as `B`/`E` pairs (a still-open span gets a
    ///   synthetic `E` at the latest observed timestamp, so every `B`
    ///   has an `E`);
    /// * simulated/explicit spans export as `X` complete events;
    /// * counters export as one `C` sample at the end of the trace.
    ///
    /// Events are stably sorted by timestamp, so `ts` is monotone per
    /// `tid`.
    pub fn chrome_trace_json(&self) -> String {
        let events = self.snapshot_events();
        let lanes = self.lanes_snapshot();
        let thread_names = self.thread_names();
        let counters = self.counters();
        let lane_tid = |l: LaneId| NAMED_LANE_TID_BASE + l.0 as u64;

        let mut max_ts = 0.0f64;
        for ev in &events {
            match ev {
                Event::Begin { ts_us, .. } | Event::End { ts_us, .. } => {
                    max_ts = max_ts.max(*ts_us);
                }
                Event::Complete { ts_us, dur_us, .. } => {
                    max_ts = max_ts.max(ts_us + dur_us);
                }
            }
        }

        // Which Begin ids never saw an End (need a synthetic close).
        let mut open: BTreeMap<u64, (Subsystem, u64)> = BTreeMap::new();
        for ev in &events {
            match ev {
                Event::Begin {
                    id, subsystem, tid, ..
                } => {
                    open.insert(*id, (*subsystem, *tid));
                }
                Event::End { id, .. } => {
                    open.remove(id);
                }
                Event::Complete { .. } => {}
            }
        }

        let mut out: Vec<ChromeEvent> = Vec::with_capacity(events.len() + 16);
        let mut tracks: BTreeSet<(u64, u64, String)> = BTreeSet::new();
        let mut seq = 0usize;
        let track = |tracks: &mut BTreeSet<(u64, u64, String)>, pid: u64, tid: u64| {
            let name = if tid >= NAMED_LANE_TID_BASE {
                lanes
                    .get((tid - NAMED_LANE_TID_BASE) as usize)
                    .cloned()
                    .unwrap_or_else(|| format!("lane-{tid}"))
            } else {
                thread_names
                    .get(&tid)
                    .cloned()
                    .unwrap_or_else(|| format!("thread-{tid}"))
            };
            tracks.insert((pid, tid, name));
        };

        for ev in &events {
            let (ts, json) = match ev {
                Event::Begin {
                    id,
                    subsystem,
                    name,
                    tid,
                    ts_us,
                    ..
                } => {
                    track(&mut tracks, subsystem.pid(), *tid);
                    (
                        *ts_us,
                        format!(
                            "{{\"ph\":\"B\",\"pid\":{},\"tid\":{tid},\"ts\":{},\"name\":\"{}\",\"cat\":\"{}\",\"args\":{{\"span_id\":{id}}}}}",
                            subsystem.pid(),
                            fmt_num(*ts_us),
                            escape_json(name),
                            subsystem.label(),
                        ),
                    )
                }
                Event::End {
                    subsystem,
                    tid,
                    ts_us,
                    args,
                    ..
                } => {
                    track(&mut tracks, subsystem.pid(), *tid);
                    (
                        *ts_us,
                        format!(
                            "{{\"ph\":\"E\",\"pid\":{},\"tid\":{tid},\"ts\":{},\"args\":{}}}",
                            subsystem.pid(),
                            fmt_num(*ts_us),
                            args_json(args),
                        ),
                    )
                }
                Event::Complete {
                    id,
                    subsystem,
                    name,
                    lane,
                    ts_us,
                    dur_us,
                    args,
                    ..
                } => {
                    let tid = lane_tid(*lane);
                    track(&mut tracks, subsystem.pid(), tid);
                    let mut all_args = args.clone();
                    all_args.push(("span_id".to_string(), ArgValue::U64(*id)));
                    (
                        *ts_us,
                        format!(
                            "{{\"ph\":\"X\",\"pid\":{},\"tid\":{tid},\"ts\":{},\"dur\":{},\"name\":\"{}\",\"cat\":\"{}\",\"args\":{}}}",
                            subsystem.pid(),
                            fmt_num(*ts_us),
                            fmt_num(*dur_us),
                            escape_json(name),
                            subsystem.label(),
                            args_json(&all_args),
                        ),
                    )
                }
            };
            out.push(ChromeEvent { ts, seq, json });
            seq += 1;
        }

        // Synthetic closes for spans still open at export time.
        for (_, (subsystem, tid)) in open {
            track(&mut tracks, subsystem.pid(), tid);
            out.push(ChromeEvent {
                ts: max_ts,
                seq,
                json: format!(
                    "{{\"ph\":\"E\",\"pid\":{},\"tid\":{tid},\"ts\":{},\"args\":{{}}}}",
                    subsystem.pid(),
                    fmt_num(max_ts),
                ),
            });
            seq += 1;
        }

        // Counters: one sample each at the end of the trace.
        for (name, value) in &counters {
            let pid = Subsystem::from_counter_name(name).pid();
            out.push(ChromeEvent {
                ts: max_ts,
                seq,
                json: format!(
                    "{{\"ph\":\"C\",\"pid\":{pid},\"tid\":0,\"ts\":{},\"name\":\"{}\",\"args\":{{\"value\":{value}}}}}",
                    fmt_num(max_ts),
                    escape_json(name),
                ),
            });
            seq += 1;
        }

        // Stable sort: per-tid push order is event order, so equal
        // timestamps keep B-before-E and child-before-parent closes.
        out.sort_by(|a, b| a.ts.total_cmp(&b.ts).then(a.seq.cmp(&b.seq)));

        let mut s = String::from("{\"traceEvents\":[");
        let mut first = true;
        // Metadata first (metadata events carry no timestamps).
        let mut pids: BTreeSet<u64> = tracks.iter().map(|(pid, _, _)| *pid).collect();
        pids.extend(
            counters
                .iter()
                .map(|(n, _)| Subsystem::from_counter_name(n).pid()),
        );
        for sub in Subsystem::ALL {
            if !pids.contains(&sub.pid()) {
                continue;
            }
            if !first {
                s.push(',');
            }
            first = false;
            let _ = write!(
                s,
                "{{\"ph\":\"M\",\"pid\":{},\"tid\":0,\"name\":\"process_name\",\"args\":{{\"name\":\"{}\"}}}}",
                sub.pid(),
                sub.label()
            );
        }
        for (pid, tid, name) in &tracks {
            if !first {
                s.push(',');
            }
            first = false;
            let _ = write!(
                s,
                "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":\"{}\"}}}}",
                escape_json(name)
            );
        }
        for ev in &out {
            if !first {
                s.push(',');
            }
            first = false;
            s.push_str(&ev.json);
        }
        s.push_str("]}");
        s
    }

    /// Writes [`Tracer::chrome_trace_json`] to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    pub fn write_chrome_trace(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, self.chrome_trace_json())
    }

    /// A human-readable aggregated span tree: spans sharing a name under
    /// the same parent chain are merged (`×count`, summed duration),
    /// grouped by subsystem, followed by the counter and gauge
    /// registries.
    pub fn summary(&self) -> String {
        let spans = self.spans();
        let by_id: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
        let mut children: HashMap<Option<u64>, Vec<usize>> = HashMap::new();
        for (i, s) in spans.iter().enumerate() {
            // A dangling parent id (e.g. filtered out) makes the span a root.
            let parent = s.parent.filter(|p| by_id.contains_key(p));
            children.entry(parent).or_default().push(i);
        }

        let mut s = String::from("trace summary\n");
        for sub in Subsystem::ALL {
            let roots: Vec<usize> = children
                .get(&None)
                .map(|v| {
                    v.iter()
                        .copied()
                        .filter(|&i| spans[i].subsystem == sub)
                        .collect()
                })
                .unwrap_or_default();
            if roots.is_empty() {
                continue;
            }
            let _ = writeln!(s, "[{}]", sub.label());
            render_level(&mut s, &spans, &children, &roots, 1);
        }
        let counters = self.counters();
        if !counters.is_empty() {
            s.push_str("[counters]\n");
            for (name, value) in counters {
                let _ = writeln!(s, "  {name} = {value}");
            }
        }
        let gauges = self.gauges();
        if !gauges.is_empty() {
            s.push_str("[gauges]\n");
            for (name, value) in gauges {
                let _ = writeln!(s, "  {name} = {value:.3}");
            }
        }
        s
    }
}

fn render_level(
    out: &mut String,
    spans: &[SpanRecord],
    children: &HashMap<Option<u64>, Vec<usize>>,
    level: &[usize],
    depth: usize,
) {
    if depth > 12 {
        return;
    }
    // Merge spans with the same name at this level.
    let mut groups: BTreeMap<&str, (f64, Vec<usize>)> = BTreeMap::new();
    for &i in level {
        let e = groups.entry(&spans[i].name).or_insert((0.0, Vec::new()));
        e.0 += spans[i].dur_us();
        e.1.push(i);
    }
    for (name, (total_us, idxs)) in groups {
        let indent = "  ".repeat(depth);
        if idxs.len() == 1 {
            let span = &spans[idxs[0]];
            let args = if span.args.is_empty() {
                String::new()
            } else {
                let rendered: Vec<String> =
                    span.args.iter().map(|(k, v)| format!("{k}={v}")).collect();
                format!("  [{}]", rendered.join(", "))
            };
            let _ = writeln!(out, "{indent}{name}  {:.1} us{args}", span.dur_us());
        } else {
            let _ = writeln!(
                out,
                "{indent}{name}  x{}  {total_us:.1} us total",
                idxs.len()
            );
        }
        let mut next: Vec<usize> = Vec::new();
        for i in idxs {
            if let Some(kids) = children.get(&Some(spans[i].id)) {
                next.extend_from_slice(kids);
            }
        }
        if !next.is_empty() {
            render_level(out, spans, children, &next, depth + 1);
        }
    }
}
