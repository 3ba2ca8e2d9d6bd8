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
    fn empty_sample_set_is_none_not_panic() {
        assert!(percentile_sorted(&[], 0.5).is_none());
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
}
