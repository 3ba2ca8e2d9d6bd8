//! What one workload run measured, and how it is printed.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use serde_json::Value;

use crate::procfs;
use crate::spans::{obj, Breakdown, UNATTRIBUTED};
use crate::stats::{median, tail, MIN_BEYOND};

/// Per-layer metrics of the traced run, in print order. A layer that a
/// workload never calls reports 0.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("serve.queue_wait_ms", "ms"),
    ("serve.service_ms", "ms"),
    ("serve.batch_frames", "frames"),
    ("serve.merge_split_ms", "ms"),
    ("serve.refused", "count"),
    ("core.compile_ms", "ms"),
    ("core.walk_self_ms", "ms"),
    ("core.copy_mb", "MiB"),
    ("core.fwd_bwd_ms", "ms"),
    ("dataflow.prepare_ms", "ms"),
    ("dataflow.prepare_calls", "count"),
    ("dataflow.prepare_per_group", "ratio"),
    ("dataflow.fwd_ms", "ms"),
    ("dataflow.dgrad_ms", "ms"),
    ("dataflow.wgrad_ms", "ms"),
    ("dataflow.gmac", "GMAC"),
    ("dataflow.gmac_per_s", "GMAC/s"),
    ("dataflow.map_io_mb", "MiB"),
    ("tensor.elementwise_ms", "ms"),
    ("kernelmap.hash_queries", "count"),
    ("kernelmap.hash_inserts", "count"),
    ("kernelmap.pairs", "count"),
    ("kernelmap.patch_ms", "ms"),
    ("kernelmap.patched_ratio", "ratio"),
    ("gpusim.price_ms", "ms"),
    ("gpusim.price_calls", "count"),
    ("autotune.tune_ms", "ms"),
    ("autotune.evaluations", "count"),
    ("autotune.prepare_hit_ratio", "ratio"),
    ("cache.lookup_ms", "ms"),
    ("cache.hit_ratio", "ratio"),
    ("cache.warm_ratio", "ratio"),
    ("cache.retuned_groups", "count"),
    ("train.step_ms", "ms"),
    ("train.self_ms", "ms"),
    ("train.applied_ratio", "ratio"),
];

/// One round of a measured phase: a fixed slice of work timed whole.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Round {
    /// Requests completed in the round.
    pub requests: usize,
    /// Wall time of the round, seconds.
    pub wall_s: f64,
    /// Process CPU time (user + sys, all threads) of the round, seconds.
    pub cpu_s: f64,
}

impl Round {
    /// Completed requests per second of wall time.
    pub fn req_per_s(&self) -> f64 {
        self.requests as f64 / self.wall_s.max(1e-9)
    }

    /// CPU milliseconds per completed request.
    pub fn cpu_ms_per_req(&self) -> f64 {
        self.cpu_s * 1e3 / self.requests.max(1) as f64
    }

    /// The rounds taken together: requests, wall and CPU time summed.
    pub fn total(rounds: &[Round]) -> Round {
        rounds.iter().fold(
            Round {
                requests: 0,
                wall_s: 0.0,
                cpu_s: 0.0,
            },
            |a, r| Round {
                requests: a.requests + r.requests,
                wall_s: a.wall_s + r.wall_s,
                cpu_s: a.cpu_s + r.cpu_s,
            },
        )
    }
}

/// Starts timing a [`Round`].
pub struct RoundTimer {
    start: Instant,
    cpu: f64,
}

impl RoundTimer {
    /// Notes the wall clock and the process CPU time now.
    pub fn start() -> Self {
        Self {
            start: Instant::now(),
            cpu: procfs::cpu_seconds().expect("readable /proc/self/stat"),
        }
    }

    /// The round from the start until `end`, which completed `requests`.
    pub fn stop_at(self, end: Instant, requests: usize) -> Round {
        Round {
            requests,
            wall_s: end.saturating_duration_since(self.start).as_secs_f64(),
            cpu_s: procfs::cpu_seconds().expect("readable /proc/self/stat") - self.cpu,
        }
    }

    /// The round from the start until now, which completed `requests`.
    pub fn stop(self, requests: usize) -> Round {
        self.stop_at(Instant::now(), requests)
    }
}

/// Raw end-to-end measurements of one run.
#[derive(Debug, Default)]
pub struct EndToEnd {
    /// Duration of each set-up repetition, seconds.
    pub setup_s: Vec<f64>,
    /// Per-request latency samples, ms.
    pub latency_ms: Vec<f64>,
    /// When not empty, the median latency is taken over these per-round
    /// means instead of over single requests.
    pub round_mean_ms: Vec<f64>,
    /// Rounds the throughput and CPU figures are taken from: serve's
    /// burst rounds, train's steps, tune's rounds.
    pub rounds: Vec<Round>,
    /// The whole measured phase, when it holds more than the rounds
    /// (serve's steady stretches); `None` when the rounds are all of it.
    pub phase: Option<Round>,
    /// Share of steady-phase requests that missed the latency limit
    /// (`None` where the workload has no limit).
    pub slo_miss_ratio: Option<f64>,
    /// Peak resident memory of the process, MiB.
    pub peak_rss_mb: f64,
    /// Simulated GPU time per request samples (tune: per-round means), µs.
    pub sim_us: Vec<f64>,
}

/// Everything a workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests attempted.
    pub attempted: u64,
    /// Requests that errored, were refused, or failed an output check.
    pub failed: u64,
    /// Output checks that failed, one line each.
    pub failures: Vec<String>,
    /// End-to-end measurements.
    pub e2e: EndToEnd,
    /// Per-layer metrics of the traced run (empty when not traced).
    pub layers: BTreeMap<&'static str, f64>,
    /// Accounting and input-property lines.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a failed output check against `requests` requests.
    pub fn fail(&mut self, requests: u64, what: String) {
        self.failed += requests;
        self.failures.push(what);
    }

    /// The end-to-end values, each with its unit, a printable note and
    /// whether `BENCHMARK.json` gates it.
    ///
    /// Only the metrics whose run-to-run spread stays well inside the
    /// largest allowed bound on the reference host are gated: set-up time
    /// (which every benchmark must gate), CPU time per request and
    /// simulated time per request. Latency and throughput also count the
    /// time a thread waits for the shared host, and over ten seeds their
    /// spread came within reach of, or past, the largest bound a gate may
    /// have (see the README); so did the tail's and peak memory's. The
    /// failure ratios are 0 at this commit, which a gated metric must
    /// never be. All of these are printed beside the gated ones.
    fn metrics(&self) -> Vec<(&'static str, &'static str, f64, String, bool)> {
        let e = &self.e2e;
        let (p50, p50_over) = if e.round_mean_ms.is_empty() {
            (
                median(&e.latency_ms).unwrap_or(f64::NAN),
                format!("{} requests", e.latency_ms.len()),
            )
        } else {
            (
                median(&e.round_mean_ms).unwrap_or(f64::NAN),
                format!(
                    "{} round means of {} requests",
                    e.round_mean_ms.len(),
                    e.latency_ms.len()
                ),
            )
        };
        let (tail_ms, tail_note) = match tail(&e.latency_ms) {
            Some(t) => (
                t.value,
                format!("p{:.1} of {} samples, {} beyond", t.pct, t.n, t.beyond),
            ),
            None => (
                f64::NAN,
                format!(
                    "{} samples: no percentile above p50 has {MIN_BEYOND} beyond",
                    e.latency_ms.len()
                ),
            ),
        };
        let rounds = Round::total(&e.rounds);
        let phase = e.phase.unwrap_or(rounds);
        let fail_ratio = self.failed as f64 / self.attempted.max(1) as f64;
        let (slo, slo_note) = match e.slo_miss_ratio {
            Some(r) => (r, String::new()),
            None => (f64::NAN, "no latency limit".into()),
        };
        vec![
            (
                "setup_s",
                "s",
                median(&e.setup_s).unwrap_or(f64::NAN),
                format!("median of {} set-ups", e.setup_s.len()),
                true,
            ),
            (
                "cpu_ms_per_req",
                "ms",
                phase.cpu_ms_per_req(),
                format!(
                    "user+sys {:.2} s over the measured phase, {} requests",
                    phase.cpu_s, phase.requests
                ),
                true,
            ),
            (
                "sim_us_per_req",
                "us",
                median(&e.sim_us).unwrap_or(f64::NAN),
                format!("median of {}", e.sim_us.len()),
                true,
            ),
            (
                "latency_p50_ms",
                "ms",
                p50,
                format!(
                    "median of {p50_over}; requests min {:.3} max {:.3}",
                    e.latency_ms.iter().copied().fold(f64::INFINITY, f64::min),
                    e.latency_ms.iter().copied().fold(0.0, f64::max)
                ),
                false,
            ),
            ("latency_tail_ms", "ms", tail_ms, tail_note, false),
            (
                "req_per_s",
                "1/s",
                rounds.req_per_s(),
                format!(
                    "{} requests in {:.3} s over {} rounds",
                    rounds.requests,
                    rounds.wall_s,
                    e.rounds.len()
                ),
                false,
            ),
            (
                "peak_rss_mb",
                "MiB",
                e.peak_rss_mb,
                "VmHWM after the measured phase".into(),
                false,
            ),
            (
                "fail_ratio",
                "ratio",
                fail_ratio,
                format!("{} of {} attempted", self.failed, self.attempted),
                false,
            ),
            ("slo_miss_ratio", "ratio", slo, slo_note, false),
        ]
    }

    /// Whether every output check passed and nothing failed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0
    }

    /// The human-readable report.
    pub fn render(&self, workload: &str, traced: bool) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "== {workload}: end-to-end ==");
        for gated in [true, false] {
            let _ = writeln!(
                s,
                "  {}",
                if gated {
                    "gated in BENCHMARK.json:"
                } else {
                    "printed, not gated:"
                }
            );
            for (name, unit, v, note, _) in self.metrics().into_iter().filter(|m| m.4 == gated) {
                let v = if v.is_nan() {
                    "n/a".into()
                } else {
                    format!("{v:.4}")
                };
                let _ = writeln!(s, "    {name:<18} {v:>12} {unit:<5} {note}");
            }
        }
        let e = &self.e2e;
        // In run order, so the host's swings within a run show.
        let lat = if e.round_mean_ms.is_empty() {
            &e.latency_ms
        } else {
            &e.round_mean_ms
        };
        let rates: Vec<f64> = e.rounds.iter().map(Round::req_per_s).collect();
        let _ = writeln!(s, "  set-ups in order (s): {}", join(&e.setup_s, 3));
        let _ = writeln!(s, "  latency samples in order (ms): {}", join(lat, 0));
        let _ = writeln!(s, "  round req/s in order: {}", join(&rates, 3));
        for n in &self.notes {
            let _ = writeln!(s, "  {n}");
        }
        if traced {
            let _ = writeln!(s, "== {workload}: per-layer (traced run) ==");
            for (name, unit) in PER_LAYER {
                let v = self.layers.get(name).copied().unwrap_or(0.0);
                let _ = writeln!(s, "  {name:<28} {v:>14.4} {unit}");
            }
        }
        for f in &self.failures {
            let _ = writeln!(s, "  CHECK FAILED: {f}");
        }
        s
    }

    /// The one-line result: gated end-to-end metrics, or every per-layer
    /// metric when traced.
    pub fn json(&self, traced: bool) -> Value {
        let metrics: Vec<(&str, Value)> = if traced {
            PER_LAYER
                .iter()
                .map(|&(name, unit)| {
                    let v = self.layers.get(name).copied().unwrap_or(0.0);
                    (name, metric(v, unit))
                })
                .collect()
        } else {
            self.metrics()
                .into_iter()
                .filter(|m| m.4)
                .map(|(name, unit, v, _, _)| (name, metric(v, unit)))
                .collect()
        };
        obj(vec![
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::U64(self.attempted)),
            ("failed", Value::U64(self.failed)),
            ("metrics", obj(metrics)),
        ])
    }
}

fn join(values: &[f64], digits: usize) -> String {
    values
        .iter()
        .map(|v| format!("{v:.digits$}"))
        .collect::<Vec<_>>()
        .join(" ")
}

fn metric(value: f64, unit: &str) -> Value {
    obj(vec![
        ("value", Value::F64(value)),
        ("unit", Value::Str(unit.into())),
    ])
}

/// Per-layer self-time table of a breakdown: every layer's mean self
/// time per request and share of the traced time, the unattributed
/// remainder, whether the rows add up, and the largest layer and phase.
pub fn layer_table(title: &str, b: &Breakdown) -> Vec<String> {
    let traced = b.traced_ms();
    let mut lines = vec![format!(
        "{title}: {} requests, {traced:.3} ms traced per request",
        b.requests
    )];
    let layers = b.layer_self_ns();
    let mut sum_ms = 0.0;
    for (layer, &ns) in &layers {
        let ms = ns as f64 / 1e6 / b.requests.max(1) as f64;
        sum_ms += ms;
        lines.push(format!(
            "  self {layer:<14} {ms:>12.3} ms  {:>6.2}%",
            100.0 * ms / traced
        ));
    }
    lines.push(format!(
        "  sum of self times {sum_ms:.3} ms = traced {traced:.3} ms; requests not adding up: {}",
        b.unbalanced
    ));
    let largest_layer = layers
        .iter()
        .filter(|(l, _)| **l != UNATTRIBUTED)
        .max_by_key(|(_, &ns)| ns);
    let largest_phase = b
        .self_ns
        .iter()
        .filter(|((l, _), _)| *l != UNATTRIBUTED)
        .max_by_key(|(_, &ns)| ns);
    if let (Some((layer, &lns)), Some(((pl, pn), &pns))) = (largest_layer, largest_phase) {
        lines.push(format!(
            "  largest self-time layer: {layer} ({:.1}%); largest phase: {pl}.{pn} ({:.1}%)",
            100.0 * lns as f64 / b.traced_ns.max(1) as f64,
            100.0 * pns as f64 / b.traced_ns.max(1) as f64
        ));
    }
    lines
}

/// Share by which a traced replay's request time may differ from the
/// untraced program's before the run warns: about the run-to-run spread
/// of one request's time on the reference host.
pub const REPLAY_DRIFT_WARN: f64 = 0.25;

/// The tracing-overhead line: traced versus untraced time of the same
/// requests. The replays copy parts of the program (the walk, the
/// training step), so a replay that differs from the program by more
/// than [`REPLAY_DRIFT_WARN`] adds a warning that its breakdown may no
/// longer describe the program.
pub fn overhead_notes(program: &str, traced_ms: f64, untraced_ms: f64, n: usize) -> Vec<String> {
    let rel = (traced_ms - untraced_ms) / untraced_ms.max(1e-9);
    let mut lines = vec![format!(
        "tracing overhead: traced {traced_ms:.3} ms vs untraced {program} {untraced_ms:.3} ms per request over the same {n} requests ({:+.2}%)",
        100.0 * rel
    )];
    if rel.abs() > REPLAY_DRIFT_WARN {
        lines.push(format!(
            "WARNING: the traced replay differs from untraced {program} by {:+.0}%, more than the host's run-to-run spread of {:.0}%; the replay's copy of the program may have drifted from it, so the per-layer breakdown may not describe the program",
            100.0 * rel,
            100.0 * REPLAY_DRIFT_WARN
        ));
    }
    lines
}

/// `name=count` pairs of a tally, for accounting lines.
pub fn tally(counts: &BTreeMap<String, u64>) -> String {
    if counts.is_empty() {
        return "none".into();
    }
    counts
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_add_up_before_rates_are_taken() {
        let rounds = [
            Round {
                requests: 8,
                wall_s: 2.0,
                cpu_s: 4.0,
            },
            Round {
                requests: 8,
                wall_s: 6.0,
                cpu_s: 4.0,
            },
        ];
        let t = Round::total(&rounds);
        assert_eq!((t.requests, t.wall_s, t.cpu_s), (16, 8.0, 8.0));
        // 16 requests in 8 s, not the mean of 4/s and 4/3 per s.
        assert_eq!(t.req_per_s(), 2.0);
        assert_eq!(t.cpu_ms_per_req(), 500.0);
        assert_eq!(Round::total(&[]).requests, 0);
    }
}
