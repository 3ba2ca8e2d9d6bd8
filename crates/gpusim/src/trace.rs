//! Kernel launch traces and per-category latency aggregation.

use serde::{Deserialize, Serialize};

use crate::{CostModel, KernelClass, KernelDesc};

/// One priced kernel launch inside a [`KernelTrace`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEntry {
    /// The workload descriptor.
    pub desc: KernelDesc,
    /// Simulated duration in microseconds (including launch overhead).
    pub time_us: f64,
}

/// An ordered record of every kernel a dataflow "launched", with
/// simulated timings.
///
/// Traces are how the reproduction distinguishes *kernel-only* latency
/// (paper Table 4) from *end-to-end* latency including mapping overhead
/// (paper Table 3): aggregate with [`KernelTrace::class_us`].
///
/// # Examples
///
/// ```
/// use ts_gpusim::{KernelClass, KernelDesc, KernelTrace};
///
/// let mut trace = KernelTrace::new();
/// trace.push(KernelDesc::mapping("hash build", 1000, 8000), 12.0);
/// assert_eq!(trace.total_us(), 12.0);
/// assert_eq!(trace.class_us(KernelClass::Mapping), 12.0);
/// assert_eq!(trace.class_us(KernelClass::Compute), 0.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct KernelTrace {
    entries: Vec<TraceEntry>,
}

impl KernelTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a priced kernel.
    pub fn push(&mut self, desc: KernelDesc, time_us: f64) {
        self.entries.push(TraceEntry { desc, time_us });
    }

    /// Appends every entry of `other`.
    pub fn merge(&mut self, other: KernelTrace) {
        self.entries.extend(other.entries);
    }

    /// The recorded entries in launch order.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Number of kernel launches recorded (counting multi-launch
    /// descriptors once per launch).
    pub fn launch_count(&self) -> u64 {
        self.entries.iter().map(|e| e.desc.launches as u64).sum()
    }

    /// Total simulated time in microseconds.
    pub fn total_us(&self) -> f64 {
        self.entries.iter().map(|e| e.time_us).sum()
    }

    /// Total simulated time of kernels in `class`.
    pub fn class_us(&self, class: KernelClass) -> f64 {
        self.entries
            .iter()
            .filter(|e| e.desc.class == class)
            .map(|e| e.time_us)
            .sum()
    }

    /// Per-class breakdown `(class, microseconds)` over all classes that
    /// appear in the trace.
    pub fn breakdown(&self) -> Vec<(KernelClass, f64)> {
        KernelClass::ALL
            .iter()
            .map(|&c| (c, self.class_us(c)))
            .filter(|&(_, t)| t > 0.0)
            .collect()
    }

    /// Total MACs across all kernels (including warp-lockstep waste).
    pub fn total_macs(&self) -> u64 {
        self.entries.iter().map(|e| e.desc.macs).sum()
    }

    /// Total DRAM bytes moved.
    pub fn total_bytes(&self) -> u64 {
        self.entries.iter().map(|e| e.desc.total_bytes()).sum()
    }

    /// True when no kernels were recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Emits every entry as a `ts-trace` simulated-kernel span
    /// (subsystem `gpusim`, per-thread `gpu#tid` lane) carrying kernel
    /// class, MAC count and the occupancy `cost` attributes to it.
    ///
    /// Call this on a *final* merged trace (e.g. a completed
    /// `RunReport`), not at record time: prepared sub-traces are cached
    /// and re-merged across frames, so record-time emission would miss
    /// cache hits and double-count sub-trace merges. No-op unless a
    /// tracer is installed on the calling thread.
    pub fn emit_trace_spans(&self, cost: &CostModel) {
        if !ts_trace::active() {
            return;
        }
        for e in &self.entries {
            ts_trace::sim_kernel(
                &e.desc.name,
                e.desc.class.label(),
                e.desc.macs,
                cost.utilization(&e.desc),
                e.time_us,
            );
        }
    }

    /// Renders a human-readable multi-line summary.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "trace: {} launches, {:.1} us total",
            self.launch_count(),
            self.total_us()
        );
        for (class, t) in self.breakdown() {
            let _ = writeln!(s, "  {:<12} {:>10.1} us", class.label(), t);
        }
        s
    }
}

impl FromIterator<TraceEntry> for KernelTrace {
    fn from_iter<T: IntoIterator<Item = TraceEntry>>(iter: T) -> Self {
        Self {
            entries: iter.into_iter().collect(),
        }
    }
}

impl Extend<TraceEntry> for KernelTrace {
    fn extend<T: IntoIterator<Item = TraceEntry>>(&mut self, iter: T) {
        self.entries.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Precision;

    #[test]
    fn totals_accumulate() {
        let mut t = KernelTrace::new();
        t.push(KernelDesc::mapping("a", 10, 10), 5.0);
        t.push(KernelDesc::gemm("b", 8, 8, 8, Precision::Fp32), 7.5);
        assert_eq!(t.total_us(), 12.5);
        assert_eq!(t.class_us(KernelClass::Mapping), 5.0);
        assert_eq!(t.class_us(KernelClass::Compute), 7.5);
        assert_eq!(t.entries().len(), 2);
    }

    #[test]
    fn merge_concatenates() {
        let mut a = KernelTrace::new();
        a.push(KernelDesc::mapping("a", 1, 1), 1.0);
        let mut b = KernelTrace::new();
        b.push(KernelDesc::mapping("b", 1, 1), 2.0);
        a.merge(b);
        assert_eq!(a.total_us(), 3.0);
    }

    #[test]
    fn launch_count_respects_multi_launch_descs() {
        let mut t = KernelTrace::new();
        t.push(KernelDesc::mapping("m", 1, 1).with_launches(27), 1.0);
        assert_eq!(t.launch_count(), 27);
    }

    #[test]
    fn breakdown_skips_empty_classes() {
        let mut t = KernelTrace::new();
        t.push(KernelDesc::mapping("m", 1, 1), 1.0);
        let b = t.breakdown();
        assert_eq!(b.len(), 1);
        assert_eq!(b[0].0, KernelClass::Mapping);
    }

    #[test]
    fn summary_mentions_classes() {
        let mut t = KernelTrace::new();
        t.push(KernelDesc::mapping("m", 1, 1), 1.0);
        let s = t.summary();
        assert!(s.contains("mapping"));
        assert!(!s.is_empty());
    }

    #[test]
    fn from_iterator_collects() {
        let t: KernelTrace = vec![TraceEntry {
            desc: KernelDesc::mapping("x", 1, 1),
            time_us: 4.0,
        }]
        .into_iter()
        .collect();
        assert_eq!(t.total_us(), 4.0);
    }
}
