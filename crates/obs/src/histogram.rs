//! Log-bucketed latency histograms.
//!
//! Values (microseconds) land in one of [`BUCKETS`] fixed buckets: four
//! sub-buckets per power-of-two octave, so relative bucket width — and
//! therefore percentile error — is bounded at ~±12.5% everywhere from
//! 1us to ~2000s. A [`RollingHistogram`] keeps plain atomic buckets on
//! the same time wheel as [`WindowedCounter`](crate::WindowedCounter):
//! recording is lock-free, and a read merges the live slots into an
//! owned [`HistogramSnapshot`] that percentiles are computed from. A
//! [`LatencyHistogram`] is the cumulative, mergeable form a serve
//! report keeps per stream: the same buckets plus exact moments and
//! extrema.

use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

/// Sub-buckets per power-of-two octave.
const SUBS: usize = 4;
/// Octaves covered (values up to `2^32` us ≈ 71 minutes; larger values
/// clamp into the top bucket).
const OCTAVES: usize = 32;
/// Total bucket count of every histogram in this module.
pub const BUCKETS: usize = OCTAVES * SUBS;

/// The bucket a value falls in.
pub fn bucket_index(value_us: u64) -> usize {
    let v = value_us.max(1);
    let octave = (63 - v.leading_zeros()) as usize;
    if octave >= OCTAVES {
        return BUCKETS - 1;
    }
    let sub = if octave < 2 {
        0
    } else {
        ((v >> (octave - 2)) & 3) as usize
    };
    octave * SUBS + sub
}

/// Upper edge of a bucket — the conservative value reported for any
/// sample inside it.
pub fn bucket_upper_us(index: usize) -> u64 {
    let octave = (index / SUBS).min(OCTAVES - 1);
    let sub = (index % SUBS) as u64;
    let base = 1u64 << octave;
    let width = (base / SUBS as u64).max(1);
    base + (sub + 1) * width
}

/// One wheel slot: epoch tag plus the bucket array it accumulates.
struct Slot {
    epoch: AtomicU64,
    count: AtomicU64,
    sum_us: AtomicU64,
    buckets: Vec<AtomicU64>,
}

impl Slot {
    fn new() -> Self {
        Self {
            epoch: AtomicU64::new(0),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum_us.store(0, Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

/// A log-bucketed histogram over a rolling time window, with the same
/// wheel/epoch mechanics (and the same transient-reset imprecision
/// contract) as [`WindowedCounter`](crate::WindowedCounter).
pub struct RollingHistogram {
    slot_us: u64,
    slots: Vec<Slot>,
}

impl RollingHistogram {
    /// A wheel of `slots` slots of `slot_us` microseconds each.
    pub fn new(slot_us: u64, slots: usize) -> Self {
        Self {
            slot_us: slot_us.max(1),
            slots: (0..slots.max(1)).map(|_| Slot::new()).collect(),
        }
    }

    /// Records one `value_us` sample at `now_us`.
    pub fn record_at(&self, now_us: u64, value_us: u64) {
        let epoch = now_us / self.slot_us + 1;
        let idx = (epoch % self.slots.len() as u64) as usize;
        let slot = &self.slots[idx];
        let cur = slot.epoch.load(Ordering::Acquire);
        if cur < epoch
            && slot
                .epoch
                .compare_exchange(cur, epoch, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
        {
            slot.reset();
        }
        slot.count.fetch_add(1, Ordering::Relaxed);
        slot.sum_us.fetch_add(value_us, Ordering::Relaxed);
        slot.buckets[bucket_index(value_us)].fetch_add(1, Ordering::Relaxed);
    }

    /// Merges the slots inside `(now_us - window_us, now_us]` into an
    /// owned snapshot.
    pub fn snapshot_at(&self, now_us: u64, window_us: u64) -> HistogramSnapshot {
        let cur_epoch = now_us / self.slot_us + 1;
        let span_slots = window_us
            .div_ceil(self.slot_us)
            .min(self.slots.len() as u64)
            .max(1);
        let oldest = cur_epoch.saturating_sub(span_slots - 1);
        let mut snap = HistogramSnapshot::empty();
        for slot in &self.slots {
            let e = slot.epoch.load(Ordering::Acquire);
            if e >= oldest && e <= cur_epoch {
                snap.count += slot.count.load(Ordering::Relaxed);
                snap.sum_us += slot.sum_us.load(Ordering::Relaxed);
                for (acc, b) in snap.buckets.iter_mut().zip(&slot.buckets) {
                    *acc += b.load(Ordering::Relaxed);
                }
            }
        }
        snap
    }
}

/// An owned, mergeable bucket view read out of one or more
/// [`RollingHistogram`] shards.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Samples in the window.
    pub count: u64,
    /// Sum of sample values (exact, not bucketed), microseconds.
    pub sum_us: u64,
    /// Per-bucket sample counts (see [`bucket_index`]).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// A snapshot with no samples.
    pub fn empty() -> Self {
        Self {
            count: 0,
            sum_us: 0,
            buckets: vec![0; BUCKETS],
        }
    }

    /// Adds another snapshot (e.g. a per-worker shard) into this one.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum_us += other.sum_us;
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }

    /// Exact mean of the windowed samples (0 when empty).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.count as f64
        }
    }

    /// Approximate quantile `q` in `[0, 1]`: the upper edge of the
    /// bucket where the cumulative count crosses `q * count` (0 when
    /// empty). Bounded by the bucket width: at most ~12.5% above the
    /// true quantile.
    pub fn quantile_us(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        bucket_upper_us(bucket_of_rank(&self.buckets, rank - 1)) as f64
    }
}

/// The bucket holding the `k`-th smallest sample (0-based) of
/// `buckets`; the top bucket when `k` is out of range.
fn bucket_of_rank(buckets: &[u64], k: u64) -> usize {
    let mut seen = 0u64;
    for (i, &c) in buckets.iter().enumerate() {
        seen += c;
        if seen > k {
            return i;
        }
    }
    BUCKETS - 1
}

/// A cumulative latency distribution of fixed size: the [`BUCKETS`]
/// log buckets plus the exact count, sum, sum of squares and extrema of
/// every sample recorded. Merging adds buckets and moments, so a merge
/// of two histograms equals the histogram of their pooled samples —
/// count, extrema, buckets and percentiles exactly, mean and standard
/// deviation up to the order of f64 additions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyHistogram {
    /// Samples recorded.
    pub count: u64,
    /// Sum of the samples, microseconds.
    pub sum_us: f64,
    /// Sum of the squared samples, square microseconds.
    pub sum_sq_us: f64,
    /// Smallest sample (0 when empty).
    pub min_us: f64,
    /// Largest sample (0 when empty).
    pub max_us: f64,
    /// Per-bucket sample counts; a sample `v` counts in
    /// `bucket_index(v.ceil())`, so its bucket's upper edge is never
    /// below it.
    pub buckets: Vec<u64>,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            count: 0,
            sum_us: 0.0,
            sum_sq_us: 0.0,
            min_us: 0.0,
            max_us: 0.0,
            buckets: vec![0; BUCKETS],
        }
    }
}

impl LatencyHistogram {
    /// Records one sample, microseconds.
    pub fn record(&mut self, value_us: f64) {
        self.add(1, value_us, value_us * value_us, value_us, value_us);
        self.buckets[bucket_index(value_us.ceil() as u64)] += 1;
    }

    /// Adds `other`'s samples into this histogram.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        if other.count > 0 {
            let o = other;
            self.add(o.count, o.sum_us, o.sum_sq_us, o.min_us, o.max_us);
        }
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }

    /// Adds a non-empty sample set's count, moments and extrema.
    fn add(&mut self, count: u64, sum: f64, sum_sq: f64, min: f64, max: f64) {
        let first = self.count == 0;
        self.min_us = if first { min } else { self.min_us.min(min) };
        self.max_us = if first { max } else { self.max_us.max(max) };
        self.count += count;
        self.sum_us += sum;
        self.sum_sq_us += sum_sq;
    }

    /// Exact mean (0 when empty).
    pub fn mean_us(&self) -> f64 {
        self.sum_us / self.count.max(1) as f64
    }

    /// Exact population standard deviation (0 when empty).
    pub fn std_us(&self) -> f64 {
        let mean = self.mean_us();
        (self.sum_sq_us / self.count.max(1) as f64 - mean * mean)
            .max(0.0)
            .sqrt()
    }

    /// Quantile `q` in `[0, 1]` at bucket resolution (0 when empty):
    /// linear interpolation between order statistics, as
    /// `ts_core::percentile_sorted` does over raw samples, with the
    /// smallest sample read exactly and every other order statistic
    /// read as its bucket's upper edge clamped to `[min_us, max_us]`
    /// (so the largest is exact too). The result is never below the
    /// exact interpolated percentile and overshoots it by less than
    /// the width of the buckets it interpolates between.
    pub fn quantile_us(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * (self.count - 1) as f64;
        let (lo, hi) = (rank.floor(), rank.ceil());
        let at = |k: f64| {
            if k == 0.0 {
                return self.min_us;
            }
            let edge = bucket_upper_us(bucket_of_rank(&self.buckets, k as u64)) as f64;
            edge.clamp(self.min_us, self.max_us)
        };
        let lo_us = at(lo);
        lo_us + (at(hi) - lo_us) * (rank - lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_math_is_monotone_and_bounded() {
        let mut last = 0;
        for v in [1u64, 2, 3, 4, 7, 8, 100, 1_000, 65_536, u64::MAX] {
            let idx = bucket_index(v);
            assert!(idx >= last, "bucket index must not decrease with value");
            assert!(idx < BUCKETS);
            last = idx;
            if v > 4 && idx < BUCKETS - 1 {
                let upper = bucket_upper_us(idx);
                assert!(upper >= v, "upper edge {upper} below sample {v}");
                assert!(
                    (upper as f64) <= v as f64 * 1.3,
                    "upper edge {upper} more than 30% above sample {v}"
                );
            }
        }
    }

    #[test]
    fn quantiles_track_the_samples() {
        let h = RollingHistogram::new(1_000_000, 4);
        for v in 1..=1000u64 {
            h.record_at(10, v * 10); // 10us .. 10ms
        }
        let snap = h.snapshot_at(10, 1_000_000);
        assert_eq!(snap.count, 1000);
        let p50 = snap.quantile_us(0.50);
        let p99 = snap.quantile_us(0.99);
        assert!((4_000.0..=7_000.0).contains(&p50), "p50 = {p50}");
        assert!((9_000.0..=13_000.0).contains(&p99), "p99 = {p99}");
        assert!((snap.mean_us() - 5_005.0).abs() < 1.0);
    }

    #[test]
    fn window_rotation_forgets_old_samples() {
        let h = RollingHistogram::new(1_000, 4);
        h.record_at(500, 42);
        assert_eq!(h.snapshot_at(500, 4_000).count, 1);
        // 4 slots later the sample's slot has been recycled.
        h.record_at(4_700, 7);
        let snap = h.snapshot_at(4_700, 4_000);
        assert_eq!(snap.count, 1);
        assert_eq!(
            snap.quantile_us(1.0),
            bucket_upper_us(bucket_index(7)) as f64
        );
    }

    /// Bounds, pooling and the merge property over random samples are
    /// pinned by `tests/serving.rs`; this covers the edge cases.
    #[test]
    fn latency_histogram_edge_cases() {
        let mut h = LatencyHistogram::default();
        assert_eq!(
            (h.quantile_us(0.5), h.mean_us(), h.std_us()),
            (0.0, 0.0, 0.0)
        );
        h.record(42.0);
        assert!([0.0, 0.5, 0.99].iter().all(|&q| h.quantile_us(q) == 42.0));
        assert_eq!((h.mean_us(), h.std_us()), (42.0, 0.0));
        for v in [300.0, 2.5] {
            h.record(v);
        }
        // The extremes are exact, not bucket edges.
        assert_eq!((h.quantile_us(0.0), h.quantile_us(1.0)), (2.5, 300.0));
        // Recording order does not matter; merging with empty is identity.
        let mut rev = LatencyHistogram::default();
        rev.merge(&LatencyHistogram::default());
        for v in [2.5, 300.0, 42.0] {
            rev.record(v);
        }
        assert_eq!(rev, h);
    }

    #[test]
    fn snapshot_merge_pools_shards() {
        let a = RollingHistogram::new(1_000, 4);
        let b = RollingHistogram::new(1_000, 4);
        a.record_at(100, 10);
        b.record_at(100, 1_000);
        let mut snap = a.snapshot_at(100, 4_000);
        snap.merge(&b.snapshot_at(100, 4_000));
        assert_eq!(snap.count, 2);
        assert_eq!(snap.sum_us, 1_010);
    }
}
