//! Latency reports produced by simulation and functional runs.

use serde::{Deserialize, Serialize};

use ts_gpusim::{KernelClass, KernelTrace};

/// Per-layer (or per-group mapping) timing entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerTiming {
    /// Layer or pseudo-entry name.
    pub name: String,
    /// Network node index (`usize::MAX` for group-level mapping entries).
    pub node: usize,
    /// Layer group, when the entry belongs to one.
    pub group: Option<usize>,
    /// Simulated time in microseconds.
    pub time_us: f64,
}

/// The result of simulating (or functionally running) a network pass.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    trace: KernelTrace,
    timings: Vec<LayerTiming>,
}

impl RunReport {
    /// Creates a report from a trace and per-layer timings.
    pub fn new(trace: KernelTrace, timings: Vec<LayerTiming>) -> Self {
        Self { trace, timings }
    }

    /// Total simulated latency in microseconds.
    pub fn total_us(&self) -> f64 {
        self.trace.total_us()
    }

    /// Total simulated latency in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.total_us() / 1e3
    }

    /// Time spent in mapping kernels.
    pub fn mapping_us(&self) -> f64 {
        self.trace.class_us(KernelClass::Mapping)
    }

    /// Time spent in compute (MMA) kernels.
    pub fn compute_us(&self) -> f64 {
        self.trace.class_us(KernelClass::Compute)
    }

    /// Time spent outside mapping kernels (the "kernel-only" latency of
    /// paper Table 4, i.e. compute + memory + reduction + elementwise).
    pub fn kernel_only_us(&self) -> f64 {
        self.total_us() - self.mapping_us()
    }

    /// The full kernel trace.
    pub fn trace(&self) -> &KernelTrace {
        &self.trace
    }

    /// Per-layer timings in execution order.
    pub fn timings(&self) -> &[LayerTiming] {
        &self.timings
    }

    /// Renders a human-readable per-layer table.
    pub fn layer_table(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "{:<28} {:>12} {:>8}", "layer", "time (us)", "group");
        for t in &self.timings {
            let g = t.group.map_or_else(|| "-".to_owned(), |g| g.to_string());
            let _ = writeln!(s, "{:<28} {:>12.1} {:>8}", t.name, t.time_us, g);
        }
        let _ = writeln!(s, "{:<28} {:>12.1}", "TOTAL", self.total_us());
        s
    }
}

/// Aggregate statistics over several runs (e.g. one per sample scene,
/// or one per served frame — the SLO unit of `ts-serve`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyStats {
    /// Number of runs aggregated.
    pub runs: usize,
    /// Mean latency in microseconds.
    pub mean_us: f64,
    /// Fastest run.
    pub min_us: f64,
    /// Slowest run.
    pub max_us: f64,
    /// Population standard deviation.
    pub std_us: f64,
    /// Median (50th percentile), linearly interpolated.
    pub p50_us: f64,
    /// 90th percentile, linearly interpolated.
    pub p90_us: f64,
    /// 99th percentile, linearly interpolated.
    pub p99_us: f64,
}

/// Interpolated percentile of an **ascending-sorted** sample set.
///
/// Uses the linear-interpolation definition (NIST R-7, the numpy
/// default): rank `q * (n - 1)` interpolated between its floor and
/// ceiling neighbours. `q` is clamped to `[0, 1]`. Returns `None` for
/// an empty sample set.
pub fn percentile_sorted(sorted_us: &[f64], q: f64) -> Option<f64> {
    if sorted_us.is_empty() {
        return None;
    }
    let q = q.clamp(0.0, 1.0);
    let rank = q * (sorted_us.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Some(sorted_us[lo] + (sorted_us[hi] - sorted_us[lo]) * frac)
}

impl LatencyStats {
    /// Aggregates total latencies of `reports`.
    ///
    /// # Panics
    ///
    /// Panics if `reports` is empty; use
    /// [`LatencyStats::from_latencies_us`] for a fallible variant.
    pub fn from_reports<'a>(reports: impl IntoIterator<Item = &'a RunReport>) -> LatencyStats {
        let totals: Vec<f64> = reports.into_iter().map(RunReport::total_us).collect();
        Self::from_latencies_us(&totals).expect("need at least one report")
    }

    /// Aggregates raw latency samples (microseconds); `None` when the
    /// sample set is empty.
    pub fn from_latencies_us(latencies_us: &[f64]) -> Option<LatencyStats> {
        if latencies_us.is_empty() {
            return None;
        }
        let mut sorted = latencies_us.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are comparable"));
        let n = sorted.len() as f64;
        let mean = sorted.iter().sum::<f64>() / n;
        let var = sorted.iter().map(|t| (t - mean).powi(2)).sum::<f64>() / n;
        Some(LatencyStats {
            runs: sorted.len(),
            mean_us: mean,
            min_us: sorted[0],
            max_us: sorted[sorted.len() - 1],
            std_us: var.sqrt(),
            p50_us: percentile_sorted(&sorted, 0.50).expect("non-empty"),
            p90_us: percentile_sorted(&sorted, 0.90).expect("non-empty"),
            p99_us: percentile_sorted(&sorted, 0.99).expect("non-empty"),
        })
    }

    /// Mean latency in milliseconds.
    pub fn mean_ms(&self) -> f64 {
        self.mean_us / 1e3
    }

    /// Merges two summaries as if their underlying samples were pooled.
    ///
    /// `runs`, `mean_us`, `min_us`, `max_us` and `std_us` (pooled
    /// variance) are exact. The percentiles are a run-weighted average
    /// of the two inputs' percentiles — the raw samples are gone, so
    /// this is an approximation; it is exact when both inputs have the
    /// same distribution. Used by `ServeReport::merge` to aggregate
    /// multi-server deployments.
    pub fn merge(&self, other: &LatencyStats) -> LatencyStats {
        if other.runs == 0 {
            return *self;
        }
        if self.runs == 0 {
            return *other;
        }
        let (n1, n2) = (self.runs as f64, other.runs as f64);
        let n = n1 + n2;
        let mean = (self.mean_us * n1 + other.mean_us * n2) / n;
        let var = (n1 * (self.std_us.powi(2) + (self.mean_us - mean).powi(2))
            + n2 * (other.std_us.powi(2) + (other.mean_us - mean).powi(2)))
            / n;
        let wavg = |a: f64, b: f64| (a * n1 + b * n2) / n;
        LatencyStats {
            runs: self.runs + other.runs,
            mean_us: mean,
            min_us: self.min_us.min(other.min_us),
            max_us: self.max_us.max(other.max_us),
            std_us: var.sqrt(),
            p50_us: wavg(self.p50_us, other.p50_us),
            p90_us: wavg(self.p90_us, other.p90_us),
            p99_us: wavg(self.p99_us, other.p99_us),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_gpusim::KernelDesc;

    fn sample() -> RunReport {
        let mut trace = KernelTrace::new();
        trace.push(KernelDesc::mapping("m", 10, 10), 5.0);
        trace.push(
            KernelDesc::gemm("g", 8, 8, 8, ts_gpusim::Precision::Fp32),
            20.0,
        );
        RunReport::new(
            trace,
            vec![
                LayerTiming {
                    name: "map".into(),
                    node: usize::MAX,
                    group: Some(0),
                    time_us: 5.0,
                },
                LayerTiming {
                    name: "conv".into(),
                    node: 1,
                    group: Some(0),
                    time_us: 20.0,
                },
            ],
        )
    }

    #[test]
    fn totals_and_breakdown() {
        let r = sample();
        assert_eq!(r.total_us(), 25.0);
        assert_eq!(r.mapping_us(), 5.0);
        assert_eq!(r.compute_us(), 20.0);
        assert_eq!(r.kernel_only_us(), 20.0);
        assert_eq!(r.total_ms(), 0.025);
    }

    #[test]
    fn table_contains_layers_and_total() {
        let t = sample().layer_table();
        assert!(t.contains("conv"));
        assert!(t.contains("TOTAL"));
    }

    #[test]
    fn latency_stats_aggregate() {
        let a = sample(); // 25 us
        let mut trace = KernelTrace::new();
        trace.push(KernelDesc::mapping("m", 1, 1), 75.0);
        let b = RunReport::new(trace, vec![]);
        let stats = LatencyStats::from_reports([&a, &b]);
        assert_eq!(stats.runs, 2);
        assert_eq!(stats.mean_us, 50.0);
        assert_eq!(stats.min_us, 25.0);
        assert_eq!(stats.max_us, 75.0);
        assert_eq!(stats.std_us, 25.0);
        assert_eq!(stats.mean_ms(), 0.05);
        assert_eq!(stats.p50_us, 50.0);
    }

    #[test]
    fn empty_sample_set_is_none_not_panic() {
        assert!(LatencyStats::from_latencies_us(&[]).is_none());
        assert!(percentile_sorted(&[], 0.5).is_none());
    }

    #[test]
    fn single_sample_percentiles_collapse() {
        let s = LatencyStats::from_latencies_us(&[42.0]).expect("one sample");
        assert_eq!(s.runs, 1);
        assert_eq!(s.mean_us, 42.0);
        assert_eq!(s.min_us, 42.0);
        assert_eq!(s.max_us, 42.0);
        assert_eq!(s.std_us, 0.0);
        assert_eq!(s.p50_us, 42.0);
        assert_eq!(s.p90_us, 42.0);
        assert_eq!(s.p99_us, 42.0);
    }

    #[test]
    fn percentile_interpolation_at_exact_boundaries() {
        let sorted = [10.0, 20.0, 30.0, 40.0, 50.0];
        // q = 0 and q = 1 hit the extremes exactly.
        assert_eq!(percentile_sorted(&sorted, 0.0), Some(10.0));
        assert_eq!(percentile_sorted(&sorted, 1.0), Some(50.0));
        // Ranks landing exactly on a sample return it without
        // interpolation: rank = 0.5 * 4 = 2.0 -> sorted[2].
        assert_eq!(percentile_sorted(&sorted, 0.5), Some(30.0));
        assert_eq!(percentile_sorted(&sorted, 0.25), Some(20.0));
        // A rank between samples interpolates linearly:
        // q = 0.9 -> rank 3.6 -> 40 + 0.6 * 10 = 46.
        assert!((percentile_sorted(&sorted, 0.9).unwrap() - 46.0).abs() < 1e-12);
        // Out-of-range quantiles clamp.
        assert_eq!(percentile_sorted(&sorted, -0.5), Some(10.0));
        assert_eq!(percentile_sorted(&sorted, 1.5), Some(50.0));
    }

    #[test]
    fn merged_stats_pool_exactly_for_count_mean_extremes_and_std() {
        let all = LatencyStats::from_latencies_us(&[1.0, 2.0, 3.0, 10.0, 20.0, 30.0]).unwrap();
        let a = LatencyStats::from_latencies_us(&[1.0, 2.0, 3.0]).unwrap();
        let b = LatencyStats::from_latencies_us(&[10.0, 20.0, 30.0]).unwrap();
        let merged = a.merge(&b);
        assert_eq!(merged.runs, all.runs);
        assert!((merged.mean_us - all.mean_us).abs() < 1e-12);
        assert_eq!(merged.min_us, all.min_us);
        assert_eq!(merged.max_us, all.max_us);
        assert!(
            (merged.std_us - all.std_us).abs() < 1e-9,
            "pooled variance is exact"
        );
        // Merge order does not matter.
        let rev = b.merge(&a);
        assert_eq!(merged.runs, rev.runs);
        assert!((merged.p90_us - rev.p90_us).abs() < 1e-12);
    }

    #[test]
    fn merged_percentiles_are_exact_on_identical_distributions() {
        let a = LatencyStats::from_latencies_us(&[1.0, 2.0, 3.0]).unwrap();
        let merged = a.merge(&a);
        assert_eq!(merged.runs, 6);
        assert_eq!(merged.p50_us, a.p50_us);
        assert_eq!(merged.p99_us, a.p99_us);
    }

    #[test]
    fn stats_are_order_invariant() {
        let a = LatencyStats::from_latencies_us(&[3.0, 1.0, 2.0]).unwrap();
        let b = LatencyStats::from_latencies_us(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.p50_us, 2.0);
    }
}
