//! Structural invariant checking for kernel maps and split plans.
//!
//! [`KernelMap::from_pairs`] panics on malformed input, which is the
//! right contract for in-process construction — but deserialized,
//! transposed or fuzzer-built maps want a *reporting* pass instead: one
//! that walks the structure and returns every violated invariant as a
//! typed [`MapViolation`]. `ts-core` runs this pass in debug builds
//! when compiling a session, and `ts-verify` runs it on every stream
//! frame and kernel-scenario replay.

use std::collections::HashSet;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{pad_to_multiple, KernelMap, SplitPlan};

/// One violated kernel-map or split-plan invariant.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum MapViolation {
    /// A pair references an input or output index outside the map.
    PairIndexOutOfRange {
        /// Kernel offset of the offending pair list.
        offset: usize,
        /// Input index of the pair.
        input: u32,
        /// Output index of the pair.
        output: u32,
        /// Number of input points the map declares.
        n_in: usize,
        /// Number of output points the map declares.
        n_out: usize,
    },
    /// The same `(offset, input, output)` pair appears more than once.
    DuplicatePair {
        /// Kernel offset the pair repeats under.
        offset: usize,
        /// Input index of the pair.
        input: u32,
        /// Output index of the pair.
        output: u32,
    },
    /// The output-stationary views disagree with the pair lists: bit
    /// `offset` of output `output`'s bitmask does not match whether a
    /// pair exists there.
    BitmaskInconsistent {
        /// Output row whose bitmask is wrong.
        output: usize,
        /// Kernel offset of the disagreeing bit.
        offset: usize,
        /// Whether the bitmask claims a neighbor.
        mask_bit: bool,
        /// Whether the pair lists record a neighbor.
        has_pair: bool,
    },
    /// The neighbor matrix records a different input than the pair list
    /// for the same `(output, offset)` slot.
    NeighborInconsistent {
        /// Output row of the slot.
        output: usize,
        /// Kernel offset of the slot.
        offset: usize,
        /// Input recorded in the neighbor matrix (`None` = no neighbor).
        neighbor: Option<u32>,
    },
    /// The plan's ranges do not partition `[0, kernel_volume)`: an
    /// offset is covered zero or multiple times.
    SplitNotPartition {
        /// The offset covered `covered` times.
        offset: usize,
        /// How many ranges covered it.
        covered: usize,
    },
    /// A range's row order is not a permutation of `0..n_out`.
    SplitOrderNotPermutation {
        /// Index of the offending range in the plan.
        range: usize,
    },
    /// The padded row count for a range is not the minimal multiple of
    /// `cta_m` covering the map's rows.
    PaddingNotMinimal {
        /// Rows the map has.
        rows: usize,
        /// Rows after padding.
        padded: usize,
        /// CTA row-tile size the padding must be a multiple of.
        cta_m: usize,
    },
}

impl fmt::Display for MapViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapViolation::PairIndexOutOfRange {
                offset,
                input,
                output,
                n_in,
                n_out,
            } => write!(
                f,
                "offset {offset}: pair ({input}, {output}) outside {n_in}x{n_out} map"
            ),
            MapViolation::DuplicatePair {
                offset,
                input,
                output,
            } => write!(f, "offset {offset}: duplicate pair ({input}, {output})"),
            MapViolation::BitmaskInconsistent {
                output,
                offset,
                mask_bit,
                has_pair,
            } => write!(
                f,
                "output {output} offset {offset}: bitmask bit {mask_bit} but pair present = {has_pair}"
            ),
            MapViolation::NeighborInconsistent {
                output,
                offset,
                neighbor,
            } => write!(
                f,
                "output {output} offset {offset}: neighbor matrix says {neighbor:?}, pair lists disagree"
            ),
            MapViolation::SplitNotPartition { offset, covered } => {
                write!(f, "offset {offset} covered by {covered} split ranges")
            }
            MapViolation::SplitOrderNotPermutation { range } => {
                write!(f, "split range {range}: row order is not a permutation")
            }
            MapViolation::PaddingNotMinimal {
                rows,
                padded,
                cta_m,
            } => write!(
                f,
                "{rows} rows padded to {padded}, not the minimal multiple of cta_m = {cta_m}"
            ),
        }
    }
}

/// Checks every structural invariant of `map`, returning one
/// [`MapViolation`] per defect (empty = clean).
///
/// Checked invariants:
/// * every pair's indices are inside `n_in x n_out`;
/// * no `(offset, input, output)` pair repeats;
/// * when the output-stationary representation exists, the bitmasks
///   and neighbor matrix agree slot-for-slot with the pair lists.
pub fn check_map(map: &KernelMap) -> Vec<MapViolation> {
    let mut out = Vec::new();
    let (n_in, n_out, kvol) = (map.n_in(), map.n_out(), map.kernel_volume());
    let mut seen: HashSet<(usize, u32, u32)> = HashSet::new();
    for (k, list) in map.all_pairs().iter().enumerate() {
        for &(i, o) in list {
            if (i as usize) >= n_in || (o as usize) >= n_out {
                out.push(MapViolation::PairIndexOutOfRange {
                    offset: k,
                    input: i,
                    output: o,
                    n_in,
                    n_out,
                });
                continue;
            }
            if !seen.insert((k, i, o)) {
                out.push(MapViolation::DuplicatePair {
                    offset: k,
                    input: i,
                    output: o,
                });
            }
        }
    }
    if map.has_dense_repr() {
        // The dense views are only well-defined once pair indices are in
        // range; cross-checking them against corrupt indices would just
        // duplicate the reports above.
        let indices_ok = !out
            .iter()
            .any(|v| matches!(v, MapViolation::PairIndexOutOfRange { .. }));
        if indices_ok {
            for o in 0..n_out {
                let mask = map.bitmasks()[o];
                for k in 0..kvol {
                    let pair = map.all_pairs()[k]
                        .iter()
                        .rev()
                        .find(|&&(_, q)| q as usize == o)
                        .map(|&(i, _)| i);
                    let mask_bit = mask & (1 << k) != 0;
                    if mask_bit != pair.is_some() {
                        out.push(MapViolation::BitmaskInconsistent {
                            output: o,
                            offset: k,
                            mask_bit,
                            has_pair: pair.is_some(),
                        });
                    }
                    // `from_pairs` writes the *last* pair into a slot, so
                    // cross-check against the last matching pair.
                    let neighbor = map.neighbor(o, k);
                    if neighbor != pair {
                        out.push(MapViolation::NeighborInconsistent {
                            output: o,
                            offset: k,
                            neighbor,
                        });
                    }
                }
            }
        }
    }
    out
}

/// Checks a [`SplitPlan`] against its map: ranges must partition the
/// offset axis, every sorted range's row order must be a permutation of
/// the output rows, and padding each range to `cta_m` rows must be the
/// minimal covering multiple.
pub fn check_plan(map: &KernelMap, plan: &SplitPlan, cta_m: usize) -> Vec<MapViolation> {
    let mut out = Vec::new();
    let kvol = map.kernel_volume();
    let mut covered = vec![0usize; kvol];
    for r in plan.ranges() {
        for slot in covered.iter_mut().take(r.k_end.min(kvol)).skip(r.k_begin) {
            *slot += 1;
        }
    }
    for (offset, &count) in covered.iter().enumerate() {
        if count != 1 {
            out.push(MapViolation::SplitNotPartition {
                offset,
                covered: count,
            });
        }
    }
    for (ri, r) in plan.ranges().iter().enumerate() {
        let order = r.order(map);
        let mut seen = vec![false; map.n_out()];
        let mut ok = order.len() == map.n_out();
        for &row in order {
            match seen.get_mut(row as usize) {
                Some(s) if !*s => *s = true,
                _ => {
                    ok = false;
                    break;
                }
            }
        }
        if !ok {
            out.push(MapViolation::SplitOrderNotPermutation { range: ri });
        }
    }
    if cta_m > 0 {
        let padded = pad_to_multiple(map.n_out(), cta_m);
        if !padded.is_multiple_of(cta_m) || padded < map.n_out() || padded - map.n_out() >= cta_m {
            out.push(MapViolation::PaddingNotMinimal {
                rows: map.n_out(),
                padded,
                cta_m,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_submanifold_map, Coord, KernelOffsets};

    fn map() -> KernelMap {
        let coords: Vec<Coord> = (0..30).map(|i| Coord::new(0, i % 6, i / 6, 0)).collect();
        build_submanifold_map(&coords, &KernelOffsets::cube(3))
    }

    #[test]
    fn built_maps_are_clean() {
        let m = map();
        assert!(check_map(&m).is_empty());
        assert!(check_map(&m.transposed()).is_empty());
    }

    #[test]
    fn duplicate_pairs_are_reported() {
        let m = KernelMap::from_pairs(2, 2, vec![vec![(0, 0), (0, 0)], vec![(1, 1)]]);
        let v = check_map(&m);
        assert!(v
            .iter()
            .any(|x| matches!(x, MapViolation::DuplicatePair { offset: 0, .. })));
    }

    #[test]
    fn relational_maps_skip_dense_checks() {
        let m = KernelMap::from_relational_pairs(2, 1, vec![vec![(0, 0), (1, 0)]]);
        assert!(check_map(&m).is_empty(), "multi-edges are legal here");
    }

    #[test]
    fn plans_of_all_split_counts_are_clean() {
        let m = map();
        for s in 0..=6 {
            let plan = SplitPlan::from_split_count(&m, s);
            assert!(check_plan(&m, &plan, 128).is_empty(), "splits = {s}");
        }
    }

    #[test]
    fn empty_map_plan_is_clean() {
        let m = KernelMap::from_pairs(0, 0, vec![vec![], vec![], vec![]]);
        let plan = SplitPlan::from_split_count(&m, 2);
        assert!(check_map(&m).is_empty());
        assert!(check_plan(&m, &plan, 128).is_empty());
    }

    #[test]
    fn violations_render() {
        let m = KernelMap::from_pairs(2, 2, vec![vec![(0, 0), (0, 0)]]);
        for v in check_map(&m) {
            assert!(!v.to_string().is_empty());
        }
    }
}
