//! Order statistics shared by every workload.

/// A tail percentile must leave at least this many samples above it, so
/// that one slow sample cannot set the reported value on its own.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle samples for an even
/// count); `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// Arithmetic mean; `None` for an empty slice.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// A tail percentile together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at the reported rank.
    pub value: f64,
    /// Nearest-rank percentile of that sample, in percent.
    pub pct: f64,
    /// Samples ranked above it.
    pub beyond: usize,
    /// Samples in total.
    pub n: usize,
}

/// The highest nearest-rank percentile that still has at least
/// [`MIN_BEYOND`] samples ranked above it, or `None` when the run has
/// too few samples for any percentile above the median to qualify.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let s = sorted(values);
    let n = s.len();
    if n <= MIN_BEYOND {
        return None;
    }
    let rank = n - MIN_BEYOND; // 1-based rank of the reported sample
    let pct = 100.0 * rank as f64 / n as f64;
    (pct > 50.0).then(|| Tail {
        value: s[rank - 1],
        pct,
        beyond: n - rank,
        n,
    })
}

/// Means of consecutive whole groups of `n` values; a partial last group
/// is dropped.
pub fn round_means(values: &[f64], n: usize) -> Vec<f64> {
    values
        .chunks_exact(n)
        .map(|r| r.iter().sum::<f64>() / n as f64)
        .collect()
}

/// `hits / (hits + misses)`, 0 when nothing was looked up.
pub fn hit_ratio(hits: u64, misses: u64) -> f64 {
    hits as f64 / (hits + misses).max(1) as f64
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn round_means_drop_a_partial_round() {
        assert_eq!(round_means(&[1.0, 3.0, 5.0, 7.0, 9.0], 2), vec![2.0, 6.0]);
        assert!(round_means(&[1.0], 2).is_empty());
    }

    #[test]
    fn tail_leaves_at_least_ten_samples_beyond() {
        for n in 21..300 {
            let values: Vec<f64> = (0..n).rev().map(f64::from).collect();
            let t = tail(&values).expect("enough samples");
            let above = values.iter().filter(|&&v| v > t.value).count();
            assert_eq!(above, MIN_BEYOND, "n = {n}");
            assert_eq!(t.beyond, MIN_BEYOND);
            // The next rank up would leave only nine samples beyond.
            let next = values.iter().filter(|&&v| v > t.value + 1.0).count();
            assert!(next < MIN_BEYOND);
        }
    }

    #[test]
    fn tail_of_one_hundred_samples_is_p90() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&values).expect("enough samples");
        assert_eq!((t.value, t.pct, t.beyond, t.n), (90.0, 90.0, 10, 100));
    }

    #[test]
    fn tail_needs_a_percentile_above_the_median() {
        // With 20 samples the rule lands on p50, whose nearest-rank value
        // sits below the interpolated median.
        let few: Vec<f64> = (0..20).map(f64::from).collect();
        assert_eq!(tail(&few), None);
        let enough: Vec<f64> = (0..21).map(f64::from).collect();
        let t = tail(&enough).expect("21 samples qualify");
        assert_eq!((t.value, t.beyond), (10.0, 10));
        assert!(t.pct > 50.0);
    }
}
