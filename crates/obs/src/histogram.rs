//! Log-bucketed latency histograms.
//!
//! Values (microseconds) land in one of [`BUCKETS`] fixed buckets: four
//! sub-buckets per power-of-two octave, so relative bucket width — and
//! therefore percentile error — is bounded at ~±12.5% everywhere from
//! 1us to ~2000s. A [`LatencyHistogram`] is the one latency
//! distribution in the crate: the same buckets plus exact moments and
//! extrema, mergeable. A serve report keeps one per stream and one
//! overall, and each slot of a rolling latency window holds one, so
//! the cumulative and the windowed percentiles follow one rule.

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
}
