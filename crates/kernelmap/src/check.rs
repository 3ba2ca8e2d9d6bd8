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
    /// The output-stationary view disagrees with the pair lists: bit
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
    /// The map claims the output-stationary view but carries a bitmask
    /// count other than its output count (a deserialized map can).
    BitmaskCountMismatch {
        /// Bitmasks the map carries.
        bitmasks: usize,
        /// Output points the map declares.
        n_out: usize,
    },
    /// The plan's ranges do not partition `[0, kernel_volume)`: an
    /// offset is covered zero or multiple times.
    SplitNotPartition {
        /// The offset covered `covered` times.
        offset: usize,
        /// How many ranges covered it.
        covered: usize,
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
            MapViolation::BitmaskCountMismatch { bitmasks, n_out } => {
                write!(f, "{bitmasks} bitmasks for {n_out} outputs")
            }
            MapViolation::SplitNotPartition { offset, covered } => {
                write!(f, "offset {offset} covered by {covered} split ranges")
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
/// * when the output-stationary view exists, it holds one bitmask per
///   output, and the bitmasks agree slot-for-slot with the pair lists.
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
        // The bitmasks are compared slot for slot only when there is one
        // per output and the pair indices are in range; cross-checking
        // them against corrupt indices would just duplicate the reports
        // above.
        let indices_ok = !out
            .iter()
            .any(|v| matches!(v, MapViolation::PairIndexOutOfRange { .. }));
        let bitmasks = map.bitmasks().len();
        if bitmasks != n_out {
            out.push(MapViolation::BitmaskCountMismatch { bitmasks, n_out });
        } else if indices_ok {
            // One pass over the pair lists: bit k of `present[o]` is set
            // iff offset k has a pair into output o.
            let mut present = vec![0u32; n_out];
            for (k, list) in map.all_pairs().iter().enumerate() {
                for &(_, o) in list {
                    present[o as usize] |= 1 << k;
                }
            }
            // Only the map's offsets are compared.
            let offsets = ((1u64 << kvol) - 1) as u32;
            for (o, &has) in present.iter().enumerate() {
                let mask = map.bitmasks()[o];
                let mut diff = (mask ^ has) & offsets;
                while diff != 0 {
                    let k = diff.trailing_zeros() as usize;
                    diff &= diff - 1;
                    out.push(MapViolation::BitmaskInconsistent {
                        output: o,
                        offset: k,
                        mask_bit: mask & (1 << k) != 0,
                        has_pair: has & (1 << k) != 0,
                    });
                }
            }
        }
    }
    out
}

/// Checks a [`SplitPlan`] against its map: ranges must partition the
/// offset axis, and padding each range to `cta_m` rows must be the
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

    /// A deserialized map that claims the output-stationary view with
    /// fewer bitmasks than outputs is reported, not indexed past its end.
    #[test]
    fn a_short_bitmask_list_is_reported() {
        let m = KernelMap::from_pairs(2, 2, vec![vec![(0, 0)], vec![(1, 1)]]);
        let json = serde_json::to_string(&m).expect("serializes");
        let cut = json.replace("\"bitmasks\":[1,2]", "\"bitmasks\":[1]");
        assert_ne!(cut, json, "the map serializes its bitmasks as [1,2]");
        let m: KernelMap = serde_json::from_str(&cut).expect("deserializes");
        assert_eq!(
            check_map(&m),
            [MapViolation::BitmaskCountMismatch {
                bitmasks: 1,
                n_out: 2
            }]
        );
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
