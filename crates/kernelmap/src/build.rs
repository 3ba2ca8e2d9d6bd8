//! Kernel-map builders for submanifold and strided sparse convolution.
//!
//! Every builder fills a temporary output-stationary neighbor matrix and
//! hands it to [`KernelMap::from_neighbors`], which derives the bitmasks
//! and the per-offset pair lists in output order. Each builder asks the
//! coordinate table only what it cannot know otherwise:
//!
//! * a submanifold map over an odd kernel and duplicate-free coordinates
//!   queries only the offsets below the center. `(p, q) ∈ M_δ ⟺ (q, p)
//!   ∈ M_{-δ}`, so each hit also fills the mirrored slot of its
//!   neighbor's row, and the center pairs every point with itself;
//! * a strided map scatters from the fine side: one hash pass finds the
//!   coarse outputs and each fine voxel's floor output, and each fine
//!   voxel then feeds every output whose window holds it, querying the
//!   coarse table only for outputs other than its floor one.
//!
//! [`MapStats`] describes the mapping of the *simulated* GPU, which
//! queries every offset of every output, so it is the same whichever
//! path built the map.

use serde::{Deserialize, Serialize};

use crate::{Coord, CoordHashMap, KernelMap, KernelOffsets};

/// Instrumentation of a map build, used by the layer runner to price
/// mapping kernels on the simulated GPU. It counts the work of the
/// GPU's builder (one query per offset per output), not the host's.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MapStats {
    /// Number of hash-table insertions performed.
    pub inserts: u64,
    /// Number of hash-table queries performed: `n_out · K³` for a full
    /// build.
    pub queries: u64,
    /// Number of (input, output) pairs produced.
    pub pairs: u64,
}

/// Deduplicates coordinates, preserving first occurrence order.
///
/// This is the `unique` step applied after coordinate quantization
/// (Section 2 of the paper).
pub fn unique_coords(coords: &[Coord]) -> Vec<Coord> {
    unique_with_table(coords).0
}

/// [`unique_coords`] plus the table it fills, which maps each key to its
/// index in the unique list.
pub(crate) fn unique_with_table(coords: &[Coord]) -> (Vec<Coord>, CoordHashMap) {
    let mut table = CoordHashMap::with_capacity(coords.len());
    let mut out = Vec::new();
    for &c in coords {
        if table.insert(c.key(), out.len() as i32).is_none() {
            out.push(c);
        }
    }
    (out, table)
}

/// Downsamples coordinates by `stride` (floor division) and deduplicates.
///
/// Produces the output coordinate set of a strided sparse convolution.
pub fn downsample_coords(coords: &[Coord], stride: i32) -> Vec<Coord> {
    Downsample::new(coords, stride).coarse
}

/// One hash pass over fine coordinates at a stride.
struct Downsample {
    /// The distinct floor-divided coordinates, in first-occurrence order.
    coarse: Vec<Coord>,
    /// Each coarse coordinate's key to its index in `coarse`.
    table: CoordHashMap,
    /// Each fine coordinate's floor output: its index in `coarse`.
    floor: Vec<u32>,
}

impl Downsample {
    fn new(coords: &[Coord], stride: i32) -> Self {
        let mut table = CoordHashMap::with_capacity(coords.len());
        let mut coarse = Vec::new();
        let floor = coords
            .iter()
            .map(|c| {
                let d = c.downsample(stride);
                match table.insert(d.key(), coarse.len() as i32) {
                    Some(o) => o as u32,
                    None => {
                        coarse.push(d);
                        (coarse.len() - 1) as u32
                    }
                }
            })
            .collect();
        Self {
            coarse,
            table,
            floor,
        }
    }
}

/// Builds the kernel map of a *submanifold* convolution: outputs sit at
/// exactly the input coordinates, and offset δ pairs `(p + δ, p)` when
/// both coordinates exist.
///
/// # Examples
///
/// ```
/// use ts_kernelmap::{build_submanifold_map, Coord, KernelOffsets};
///
/// let coords = vec![Coord::new(0, 0, 0, 0)];
/// let map = build_submanifold_map(&coords, &KernelOffsets::cube(3));
/// // An isolated point only sees itself through the center offset.
/// assert_eq!(map.total_pairs(), 1);
/// ```
pub fn build_submanifold_map(coords: &[Coord], offsets: &KernelOffsets) -> KernelMap {
    build_submanifold_map_with_stats(coords, offsets).0
}

/// [`build_submanifold_map`] plus mapping-cost instrumentation.
pub fn build_submanifold_map_with_stats(
    coords: &[Coord],
    offsets: &KernelOffsets,
) -> (KernelMap, MapStats) {
    let (map, stats, _) = submanifold_with_table(coords, &CoordHashMap::build(coords), offsets);
    (map, stats)
}

/// The submanifold builder over `table`, which maps each key of
/// `coords` to its first index there. Also returns the neighbor matrix
/// it filled, which [`crate::IncrementalMap`] keeps to patch.
pub(crate) fn submanifold_with_table(
    coords: &[Coord],
    table: &CoordHashMap,
    offsets: &KernelOffsets,
) -> (KernelMap, MapStats, Vec<i32>) {
    let (n, kvol) = (coords.len(), offsets.volume());
    let deltas = offsets.deltas();
    let mut neighbors = vec![-1i32; n * kvol];
    let query =
        |q: Coord, delta: (i32, i32, i32)| q.offset_key(delta).and_then(|key| table.get(key));
    if offsets.kernel_size() % 2 == 1 && table.len() == n {
        // Odd kernel, no duplicates: the offsets below the center find
        // every pair once, from one end or the other.
        let center = offsets.center().expect("an odd kernel has a center");
        for (o, &q) in coords.iter().enumerate() {
            neighbors[o * kvol + center] = o as i32;
            for (k, &delta) in deltas[..center].iter().enumerate() {
                if let Some(i) = query(q, delta) {
                    neighbors[o * kvol + k] = i;
                    neighbors[i as usize * kvol + offsets.mirror(k)] = o as i32;
                }
            }
        }
    } else {
        // Even kernels and duplicated coordinates (whose table answers
        // the first copy only) ask every offset of every output.
        for (row, &q) in neighbors.chunks_exact_mut(kvol).zip(coords) {
            for (slot, &delta) in row.iter_mut().zip(deltas) {
                if let Some(i) = query(q, delta) {
                    *slot = i;
                }
            }
        }
    }
    let map = KernelMap::from_neighbors(n, kvol, &neighbors);
    let stats = MapStats {
        inserts: n as u64,
        queries: (n * kvol) as u64,
        pairs: map.total_pairs(),
    };
    (map, stats, neighbors)
}

/// Builds the kernel map of a *strided* convolution: outputs are the
/// deduplicated floor-divided input coordinates, and offset δ pairs
/// `(s*q + δ, q)` for every input coordinate `s*q + δ` that exists.
///
/// Returns the map and the output coordinate set.
pub fn build_strided_map(
    coords: &[Coord],
    offsets: &KernelOffsets,
    stride: i32,
) -> (KernelMap, Vec<Coord>) {
    let (map, out, _) = build_strided_map_with_stats(coords, offsets, stride);
    (map, out)
}

/// [`build_strided_map`] plus mapping-cost instrumentation.
///
/// Each fine voxel `p` feeds output `q` at offset `d = p - s*q` for every
/// `d` in the kernel range. On one axis, with `r = p mod s` and floor
/// output `f`, those are the `d = r + m*s` in range, feeding `q = f - m`.
/// The floor output (`m = 0` on every axis) is known from the
/// downsample pass; any other costs one query of the coarse table. When
/// duplicated fine voxels claim the same slot, the first one keeps it.
pub fn build_strided_map_with_stats(
    coords: &[Coord],
    offsets: &KernelOffsets,
    stride: i32,
) -> (KernelMap, Vec<Coord>, MapStats) {
    let Downsample {
        coarse,
        table,
        floor,
    } = Downsample::new(coords, stride);
    let kvol = offsets.volume();
    let ks = offsets.kernel_size() as usize;
    let lo = offsets.delta(0).0;
    // Per remainder r: each in-range window position d as (axis index
    // d - lo, output shift -m).
    let axis: Vec<Vec<(usize, i32)>> = (0..stride)
        .map(|r| {
            (lo..lo + ks as i32)
                .filter(|d| (d - r).rem_euclid(stride) == 0)
                .map(|d| ((d - lo) as usize, (r - d) / stride))
                .collect()
        })
        .collect();
    let r = |v: i32| v.rem_euclid(stride) as usize;
    let mut neighbors = vec![-1i32; coarse.len() * kvol];
    for (i, (&p, &f)) in coords.iter().zip(&floor).enumerate() {
        let base = coarse[f as usize];
        for &(ix, ex) in &axis[r(p.x)] {
            for &(iy, ey) in &axis[r(p.y)] {
                for &(iz, ez) in &axis[r(p.z)] {
                    let out = if (ex, ey, ez) == (0, 0, 0) {
                        Some(f as i32)
                    } else {
                        base.offset_key((ex, ey, ez)).and_then(|key| table.get(key))
                    };
                    if let Some(o) = out {
                        let slot = &mut neighbors[o as usize * kvol + (ix * ks + iy) * ks + iz];
                        if *slot < 0 {
                            *slot = i as i32;
                        }
                    }
                }
            }
        }
    }
    let map = KernelMap::from_neighbors(coords.len(), kvol, &neighbors);
    let stats = MapStats {
        inserts: (coords.len() + coarse.len()) as u64,
        queries: (coarse.len() * kvol) as u64,
        pairs: map.total_pairs(),
    };
    (map, coarse, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: i32) -> Vec<Coord> {
        (0..n).map(|i| Coord::new(0, i, 0, 0)).collect()
    }

    #[test]
    fn unique_preserves_first_occurrence() {
        let coords = vec![
            Coord::new(0, 1, 0, 0),
            Coord::new(0, 2, 0, 0),
            Coord::new(0, 1, 0, 0),
        ];
        let u = unique_coords(&coords);
        assert_eq!(u, vec![Coord::new(0, 1, 0, 0), Coord::new(0, 2, 0, 0)]);
    }

    #[test]
    fn downsample_merges_voxels() {
        let coords = vec![
            Coord::new(0, 0, 0, 0),
            Coord::new(0, 1, 0, 0),
            Coord::new(0, 2, 0, 0),
            Coord::new(0, 3, 0, 0),
        ];
        let d = downsample_coords(&coords, 2);
        assert_eq!(d, vec![Coord::new(0, 0, 0, 0), Coord::new(0, 1, 0, 0)]);
    }

    #[test]
    fn submanifold_line_has_expected_pairs() {
        // 5 colinear points, kernel 3: interior points have 3 neighbors
        // along x, end points 2.
        let map = build_submanifold_map(&line(5), &KernelOffsets::cube(3));
        assert_eq!(map.n_in(), 5);
        assert_eq!(map.n_out(), 5);
        assert_eq!(map.total_pairs(), 3 * 3 + 2 * 2);
    }

    #[test]
    fn submanifold_center_offset_is_identity() {
        let coords = line(4);
        let offsets = KernelOffsets::cube(3);
        let map = build_submanifold_map(&coords, &offsets);
        let center = offsets.center().unwrap();
        let center_pairs = map.pairs(center);
        assert_eq!(center_pairs.len(), 4);
        assert!(center_pairs.iter().all(|&(i, o)| i == o));
    }

    #[test]
    fn submanifold_map_pairs_are_symmetric() {
        // If (p, q) in M_delta then (q, p) in M_{-delta}.
        let coords: Vec<Coord> = (0..4)
            .flat_map(|x| (0..3).map(move |y| Coord::new(0, x, y, 0)))
            .collect();
        let offsets = KernelOffsets::cube(3);
        let map = build_submanifold_map(&coords, &offsets);
        for k in 0..offsets.volume() {
            let mirrored = offsets.mirror(k);
            let mut fwd: Vec<_> = map.pairs(k).iter().map(|&(i, o)| (o, i)).collect();
            let mut bwd: Vec<_> = map.pairs(mirrored).to_vec();
            fwd.sort_unstable();
            bwd.sort_unstable();
            assert_eq!(fwd, bwd, "offset {k} vs {mirrored}");
        }
    }

    #[test]
    fn strided_map_covers_all_inputs_for_k2_s2() {
        // With K=2 offsets {0,1}^3 and stride 2, every input p maps to
        // exactly one output floor(p/2): the map partitions inputs.
        let coords: Vec<Coord> = (0..4)
            .flat_map(|x| (0..4).flat_map(move |y| (0..4).map(move |z| Coord::new(0, x, y, z))))
            .collect();
        let (map, out) = build_strided_map(&coords, &KernelOffsets::cube(2), 2);
        assert_eq!(out.len(), 8);
        assert_eq!(map.total_pairs(), coords.len() as u64);
    }

    #[test]
    fn strided_map_k3_s2_overlaps() {
        // K=3 stride 2: windows overlap, inputs can feed several outputs.
        let coords = line(8);
        let (map, out) = build_strided_map(&coords, &KernelOffsets::cube(3), 2);
        assert_eq!(out.len(), 4);
        assert!(map.total_pairs() > coords.len() as u64);
    }

    #[test]
    fn stats_count_queries_and_pairs() {
        let coords = line(5);
        let offsets = KernelOffsets::cube(3);
        let (map, stats) = build_submanifold_map_with_stats(&coords, &offsets);
        assert_eq!(stats.inserts, 5);
        assert_eq!(stats.queries, 5 * 27);
        assert_eq!(stats.pairs, map.total_pairs());
    }

    #[test]
    fn batch_isolation() {
        // Points in different batches never pair.
        let coords = vec![Coord::new(0, 0, 0, 0), Coord::new(1, 1, 0, 0)];
        let map = build_submanifold_map(&coords, &KernelOffsets::cube(3));
        assert_eq!(map.total_pairs(), 2); // center offsets only
    }

    #[test]
    fn neighbors_across_the_16_bit_edge_do_not_alias() {
        // x = 32767 + 1 must not carry into the batch field and find the
        // batch-1 point at x = -32768.
        let coords = vec![Coord::new(0, 32767, 0, 0), Coord::new(1, -32768, 0, 0)];
        for k in [2, 3] {
            let offsets = KernelOffsets::cube(k);
            let map = build_submanifold_map(&coords, &offsets);
            let center = offsets.center().unwrap();
            assert_eq!(map.total_pairs(), 2, "kernel {k}");
            assert_eq!(map.pairs(center), &[(0, 0), (1, 1)]);
        }
    }

    #[test]
    fn empty_input_produces_empty_map() {
        let map = build_submanifold_map(&[], &KernelOffsets::cube(3));
        assert_eq!(map.n_out(), 0);
        assert_eq!(map.total_pairs(), 0);
    }
}
