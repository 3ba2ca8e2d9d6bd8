//! Mask splits and redundant-computation accounting.
//!
//! Implicit GEMM executes warps in lockstep: whenever *any* row in a warp
//! has a neighbor at offset k, all rows spend the cycles (Figure 5 of the
//! paper). SpConv v2 reduces this waste by argsorting rows by bitmask
//! (Figure 6); TorchSparse++ generalises to an arbitrary number of *mask
//! splits* (Figure 10): the offset axis is partitioned into `s` ranges,
//! each range is sorted independently and computed as its own (more
//! parallel) GEMM whose partial sums are reduced at the end.
//!
//! The host computes every range from the pair lists, whose sums do not
//! depend on row order, so a plan holds its offset ranges and the MAC
//! census of each range in sorted order, never the row orders
//! themselves.

use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

use crate::KernelMap;

/// Number of rows that execute in lockstep for redundancy accounting:
/// one warp's worth of output rows. Whenever any of them has a neighbor
/// at offset k, the whole warp spends the cycles (Figure 5 of the paper
/// illustrates the effect with 4 rows; real kernels skip at warp
/// granularity).
pub const LOCKSTEP_ROWS: usize = 16;

/// Rounds `n` up to a multiple of `m` (the map padding of Section 3.2
/// that eliminates boundary checks).
///
/// # Panics
///
/// Panics if `m == 0`.
pub fn pad_to_multiple(n: usize, m: usize) -> usize {
    assert!(m > 0, "padding multiple must be positive");
    n.div_ceil(m) * m
}

const DIGIT_BITS: usize = 11;
const RADIX: usize = 1 << DIGIT_BITS;

/// Sort key of the paper's convention (Figure 6): the range's
/// sub-bitmask read with the *first* offset as the most significant bit,
/// rows ascending (the row with bitmask value 17 computes first). The
/// masked sub-word bit-reversed, computed in O(1) per row. `width` must
/// be in `1..=32`.
#[inline]
fn sort_key(mask: u32, k_begin: usize, width: usize) -> u32 {
    let field: u32 = if width >= 32 { !0 } else { (1u32 << width) - 1 };
    ((mask >> k_begin) & field).reverse_bits() >> (32 - width)
}

#[inline]
fn prefix_sum(counts: &mut [u32; RADIX]) {
    let mut pos = 0u32;
    for c in counts.iter_mut() {
        let run = *c;
        *c = pos;
        pos += run;
    }
}

/// Sorts bitmask keys ascending with LSD radix passes: ceil(width / 11)
/// linear passes beat O(n log n) comparisons on the map sizes the tuner
/// prepares. Equal keys are indistinguishable, so the census of the
/// sorted keys is that of the paper's stable row argsort.
fn radix_sort_keys(keys: &mut Vec<u32>, width: usize) {
    let mut next = vec![0u32; keys.len()];
    let mut shift = 0;
    while shift < width {
        let mut counts = [0u32; RADIX];
        for &k in keys.iter() {
            counts[(k >> shift) as usize & (RADIX - 1)] += 1;
        }
        prefix_sum(&mut counts);
        for &k in keys.iter() {
            let d = (k >> shift) as usize & (RADIX - 1);
            next[counts[d] as usize] = k;
            counts[d] += 1;
        }
        std::mem::swap(keys, &mut next);
        shift += DIGIT_BITS;
    }
}

/// One contiguous offset range of a split plan.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SplitRange {
    /// First offset index (inclusive).
    pub k_begin: usize,
    /// Last offset index (exclusive).
    pub k_end: usize,
    sorted: bool,
}

impl SplitRange {
    /// Number of offsets in this range.
    pub fn width(&self) -> usize {
        self.k_end - self.k_begin
    }

    /// True when rows of this range are bitmask-sorted.
    pub fn is_sorted(&self) -> bool {
        self.sorted
    }
}

/// A complete mask-split execution plan for implicit GEMM.
///
/// `split_count` uses the paper's encoding: `0` = unsorted single range
/// (Figure 5), `1` = sorted single range (Figure 6, SpConv v2 default),
/// `s >= 2` = `s` independently sorted ranges (Figure 10).
///
/// # Examples
///
/// ```
/// use ts_kernelmap::{KernelMap, SplitPlan};
///
/// let map = KernelMap::from_pairs(2, 2, vec![vec![(0, 0)], vec![(1, 1)], vec![]]);
/// let unsorted = SplitPlan::from_split_count(&map, 0);
/// assert_eq!(unsorted.ranges().len(), 1);
/// let two = SplitPlan::from_split_count(&map, 2);
/// assert_eq!(two.ranges().len(), 2);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SplitPlan {
    split_count: u32,
    sorted: bool,
    ranges: Vec<SplitRange>,
    #[serde(skip)]
    unit_counts: OnceLock<Vec<MacCounts>>,
}

impl PartialEq for SplitPlan {
    fn eq(&self, other: &Self) -> bool {
        self.split_count == other.split_count
            && self.sorted == other.sorted
            && self.ranges == other.ranges
    }
}

impl SplitPlan {
    /// Builds the plan for the paper's split encoding `s`.
    ///
    /// # Panics
    ///
    /// Panics if the map has no output-stationary view: the MAC census
    /// reads bitmasks, which relational maps do not have.
    pub fn from_split_count(map: &KernelMap, s: u32) -> Self {
        assert!(
            map.has_dense_repr(),
            "implicit GEMM needs an output-stationary map"
        );
        let kvol = map.kernel_volume();
        if s == 0 {
            let range = SplitRange {
                k_begin: 0,
                k_end: kvol,
                sorted: false,
            };
            return Self {
                split_count: 0,
                sorted: false,
                ranges: vec![range],
                unit_counts: OnceLock::new(),
            };
        }
        let n_ranges = (s as usize).min(kvol.max(1));
        let mut ranges = Vec::with_capacity(n_ranges);
        let base = kvol / n_ranges;
        let extra = kvol % n_ranges;
        let mut k = 0;
        for r in 0..n_ranges {
            let width = base + usize::from(r < extra);
            let (k_begin, k_end) = (k, k + width);
            k = k_end;
            ranges.push(SplitRange {
                k_begin,
                k_end,
                sorted: true,
            });
        }
        Self {
            split_count: s,
            sorted: true,
            ranges,
            unit_counts: OnceLock::new(),
        }
    }

    /// Per-range MAC counts at unit channel size (`c_in = c_out = 1`),
    /// computed once and cached (counts scale linearly with
    /// `c_in * c_out`, so executors multiply instead of recounting).
    /// `map` must be the map the plan was built for.
    pub fn unit_counts<'a>(&'a self, map: &KernelMap) -> &'a [MacCounts] {
        self.unit_counts.get_or_init(|| {
            self.ranges
                .iter()
                .map(|r| mac_counts_range(map, r, LOCKSTEP_ROWS, 1, 1))
                .collect()
        })
    }

    /// The paper's split encoding this plan was built with.
    pub fn split_count(&self) -> u32 {
        self.split_count
    }

    /// True when rows are bitmask-sorted (`split_count >= 1`).
    pub fn is_sorted(&self) -> bool {
        self.sorted
    }

    /// The offset ranges.
    pub fn ranges(&self) -> &[SplitRange] {
        &self.ranges
    }

    /// Number of partial-sum buffers the executor needs (1 means the
    /// output can be written directly).
    pub fn partial_buffers(&self) -> usize {
        self.ranges.len()
    }
}

/// Effective vs. executed MAC counts of an implicit GEMM under a split
/// plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MacCounts {
    /// MACs that contribute to the output.
    pub effective: u64,
    /// MACs actually executed, including warp-lockstep waste.
    pub total: u64,
}

impl MacCounts {
    /// `total / effective`; 1.0 for an empty workload.
    pub fn overhead_ratio(&self) -> f64 {
        if self.effective == 0 {
            1.0
        } else {
            self.total as f64 / self.effective as f64
        }
    }
}

/// Counts effective and executed MACs for `map` under `plan`, with
/// `lockstep_rows` rows executing in lockstep and `c_in * c_out` MACs per
/// (row, offset) slot.
///
/// This is the exact computation behind Figures 5, 6, 10 and 11 of the
/// paper: a lockstep group executes offset `k` iff any of its rows has a
/// neighbor there.
pub fn mac_counts(
    map: &KernelMap,
    plan: &SplitPlan,
    lockstep_rows: usize,
    c_in: usize,
    c_out: usize,
) -> MacCounts {
    let mut acc = MacCounts {
        effective: 0,
        total: 0,
    };
    for range in plan.ranges() {
        let c = mac_counts_range(map, range, lockstep_rows, c_in, c_out);
        acc.effective += c.effective;
        acc.total += c.total;
    }
    acc
}

/// [`mac_counts`] restricted to one [`SplitRange`] (one compute kernel).
///
/// # Panics
///
/// Panics if `lockstep_rows` is 0 or the map has no bitmasks.
pub fn mac_counts_range(
    map: &KernelMap,
    range: &SplitRange,
    lockstep_rows: usize,
    c_in: usize,
    c_out: usize,
) -> MacCounts {
    assert!(lockstep_rows > 0, "lockstep group must be non-empty");
    assert!(map.has_dense_repr(), "the MAC census reads bitmasks");
    let per_slot = (c_in * c_out) as u64;
    let width = range.width();
    if width == 0 {
        return MacCounts {
            effective: 0,
            total: 0,
        };
    }
    // Bit k of a row's bitmask is set iff the row has a neighbor at
    // offset k, so the per-group active-lane census reduces to popcounts:
    // effective slots are set bits per row, and the group executes offset
    // k (all lanes) iff any row has bit k set. The census only needs the
    // *sequence* of keys in execution order — popcount and OR commute
    // with the key's bit reversal — so a keys-only radix sort reproduces
    // the sorted order's counts without ever materialising row indices.
    let mut keys: Vec<u32> = map
        .bitmasks()
        .iter()
        .map(|&m| sort_key(m, range.k_begin, width))
        .collect();
    if range.is_sorted() {
        radix_sort_keys(&mut keys, width);
    }
    let mut effective = 0u64;
    let mut total = 0u64;
    for group in keys.chunks(lockstep_rows) {
        let mut or_mask = 0u32;
        for &k in group {
            effective += u64::from(k.count_ones());
            or_mask |= k;
        }
        // All lockstep lanes spend the cycles on every executed offset,
        // including the padding lanes of a ragged final group.
        total += u64::from(or_mask.count_ones()) * lockstep_rows as u64;
    }
    MacCounts {
        effective: effective * per_slot,
        total: total * per_slot,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 8-output example of paper Figures 5/6/10, reconstructed from
    /// the decimal bitmask values in Figure 6a (x0=25, x1=58, x2=52,
    /// x3=464, x4=17, x5=20, x6=272, x7=80; leftmost offset = MSB).
    fn paper_example() -> KernelMap {
        let rows: [[u8; 9]; 8] = [
            [0, 0, 0, 0, 1, 1, 0, 0, 1],
            [0, 0, 0, 1, 1, 1, 0, 1, 0],
            [0, 0, 0, 1, 1, 0, 1, 0, 0],
            [1, 1, 1, 0, 1, 0, 0, 0, 0],
            [0, 0, 0, 0, 1, 0, 0, 0, 1],
            [0, 0, 0, 0, 1, 0, 1, 0, 0],
            [1, 0, 0, 0, 1, 0, 0, 0, 0],
            [0, 0, 1, 0, 1, 0, 0, 0, 0],
        ];
        let masks: Vec<u32> = rows
            .iter()
            .map(|row| (0..9).map(|k| u32::from(row[k]) << k).sum())
            .collect();
        map_of_masks(&masks, 9)
    }

    /// A map whose output `o` has a neighbor at offset `k` iff bit `k` of
    /// `masks[o]` is set.
    fn map_of_masks(masks: &[u32], kvol: usize) -> KernelMap {
        let mut pairs = vec![Vec::new(); kvol];
        for (o, &m) in masks.iter().enumerate() {
            for (k, list) in pairs.iter_mut().enumerate() {
                if m >> k & 1 == 1 {
                    // Input index is irrelevant for MAC counting; use o.
                    list.push((o as u32, o as u32));
                }
            }
        }
        KernelMap::from_pairs(masks.len(), masks.len(), pairs)
    }

    /// Deterministic pseudo-random masks over the full 32-bit width.
    fn pseudo_random_masks(n: usize) -> Vec<u32> {
        let mut state = 0x2545_f491u32;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 17;
                state ^= state << 5;
                state
            })
            .collect()
    }

    /// Per offset, each output's neighbor presence, from the pair lists.
    fn presence(map: &KernelMap) -> Vec<Vec<bool>> {
        let mut present = vec![vec![false; map.n_out()]; map.kernel_volume()];
        for (offset, list) in present.iter_mut().zip(map.all_pairs()) {
            for &(_, o) in list {
                offset[o as usize] = true;
            }
        }
        present
    }

    /// Rows in the paper's execution order: a sorted range orders them by
    /// its sub-bitmask read with its first offset as the most significant
    /// bit, ascending, with a stable comparison sort (Figure 6).
    fn row_order(present: &[Vec<bool>], range: &SplitRange) -> Vec<usize> {
        let offsets = &present[range.k_begin..range.k_end];
        let mut order: Vec<usize> = (0..present[0].len()).collect();
        if range.is_sorted() {
            order.sort_by_key(|&r| {
                offsets
                    .iter()
                    .fold(0u64, |key, offset| key << 1 | u64::from(offset[r]))
            });
        }
        order
    }

    /// The census by its definition: a lockstep group executes offset k
    /// iff any of its rows has a neighbor there.
    fn reference_census(map: &KernelMap, range: &SplitRange, lockstep: usize) -> MacCounts {
        let present = presence(map);
        let (mut effective, mut total) = (0, 0);
        for group in row_order(&present, range).chunks(lockstep) {
            for offset in &present[range.k_begin..range.k_end] {
                let active = group.iter().filter(|&&r| offset[r]).count() as u64;
                if active > 0 {
                    effective += active;
                    total += lockstep as u64;
                }
            }
        }
        MacCounts { effective, total }
    }

    #[test]
    fn unsorted_redundancy_matches_paper_figure5() {
        let map = paper_example();
        let plan = SplitPlan::from_split_count(&map, 0);
        let c = mac_counts(&map, &plan, 4, 1, 1);
        // Paper: 22 effective MACs, 34 redundant => 56 executed.
        assert_eq!(c.effective, 22);
        assert_eq!(c.total, 56);
    }

    #[test]
    fn sorting_reduces_redundancy_like_figure6() {
        let map = paper_example();
        let unsorted = mac_counts(&map, &SplitPlan::from_split_count(&map, 0), 4, 1, 1);
        let sorted = mac_counts(&map, &SplitPlan::from_split_count(&map, 1), 4, 1, 1);
        // Paper: redundant MACs drop from 34 to 26.
        assert_eq!(unsorted.total - unsorted.effective, 34);
        assert_eq!(sorted.total - sorted.effective, 26);
        assert_eq!(sorted.effective, unsorted.effective);
    }

    #[test]
    fn more_splits_do_not_increase_redundancy() {
        let map = paper_example();
        let mut prev = u64::MAX;
        for s in 1..=4u32 {
            let c = mac_counts(&map, &SplitPlan::from_split_count(&map, s), 4, 1, 1);
            assert!(c.total <= prev, "splits={s} total={} prev={prev}", c.total);
            prev = c.total;
        }
    }

    #[test]
    fn three_splits_match_paper_figure10() {
        let map = paper_example();
        let plan = SplitPlan::from_split_count(&map, 3);
        let c = mac_counts(&map, &plan, 4, 1, 1);
        // Paper: redundant computation drops to 22 effective + 22 waste = 44
        // ("redundant computation is further reduced from 26 to 22").
        assert_eq!(c.effective, 22);
        assert_eq!(c.total - c.effective, 22);
    }

    #[test]
    fn paper_order_matches_figure6() {
        let map = paper_example();
        let plan = SplitPlan::from_split_count(&map, 1);
        // Paper Figure 6a ranks: x4 1st, x5 2nd, x0 3rd, x2 4th, x1 5th,
        // x7 6th, x6 7th, x3 8th.
        let order = row_order(&presence(&map), &plan.ranges()[0]);
        assert_eq!(order, vec![4, 5, 0, 2, 1, 7, 6, 3]);
    }

    #[test]
    fn split_ranges_partition_offsets() {
        let map = paper_example();
        for s in 1..=5u32 {
            let plan = SplitPlan::from_split_count(&map, s);
            let mut covered = vec![false; map.kernel_volume()];
            for r in plan.ranges() {
                for (k, slot) in covered.iter_mut().enumerate().take(r.k_end).skip(r.k_begin) {
                    assert!(!*slot, "offset {k} covered twice");
                    *slot = true;
                }
            }
            assert!(covered.iter().all(|&c| c));
        }
    }

    #[test]
    fn split_zero_is_one_unsorted_range() {
        let map = paper_example();
        let plan = SplitPlan::from_split_count(&map, 0);
        assert!(!plan.is_sorted());
        assert_eq!(plan.ranges().len(), 1);
        assert_eq!((plan.ranges()[0].k_begin, plan.ranges()[0].k_end), (0, 9));
        assert!(!plan.ranges()[0].is_sorted());
    }

    #[test]
    fn radix_key_sort_matches_comparison_sort() {
        let masks = pseudo_random_masks(1000);
        for (k_begin, k_end) in [(0, 32), (0, 27), (5, 14), (31, 32), (0, 1)] {
            let width = k_end - k_begin;
            let mut keys: Vec<u32> = masks.iter().map(|&m| sort_key(m, k_begin, width)).collect();
            let mut reference = keys.clone();
            reference.sort_unstable();
            radix_sort_keys(&mut keys, width);
            assert_eq!(keys, reference, "range [{k_begin}, {k_end})");
        }
    }

    #[test]
    fn census_matches_the_reference_census() {
        let masks: Vec<u32> = pseudo_random_masks(300)
            .iter()
            .map(|m| m & 0x7ff_ffff)
            .collect();
        for map in [paper_example(), map_of_masks(&masks, 27)] {
            for s in 0..=5u32 {
                let plan = SplitPlan::from_split_count(&map, s);
                for lockstep in [1, 3, 4, 16] {
                    for range in plan.ranges() {
                        let want = reference_census(&map, range, lockstep);
                        assert_eq!(
                            mac_counts_range(&map, range, lockstep, 2, 3),
                            MacCounts {
                                effective: want.effective * 6,
                                total: want.total * 6
                            },
                            "s = {s}, lockstep = {lockstep}, range {range:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn padding_rounds_up() {
        assert_eq!(pad_to_multiple(0, 128), 0);
        assert_eq!(pad_to_multiple(1, 128), 128);
        assert_eq!(pad_to_multiple(128, 128), 128);
        assert_eq!(pad_to_multiple(129, 128), 256);
    }

    #[test]
    fn overhead_ratio_of_empty_map_is_one() {
        let c = MacCounts {
            effective: 0,
            total: 0,
        };
        assert_eq!(c.overhead_ratio(), 1.0);
    }
}
