//! The kernel-map builders against the reference loops they replaced:
//! every output asks the coordinate table for every offset, and the pair
//! lists are collected per offset and handed to `KernelMap::from_pairs`.
//! The builders must give the same map (pairs and their order, bitmasks,
//! multi-edge flag), the same coarse coordinates and the same
//! `MapStats`, on duplicated coordinates and at the edges of the 16-bit
//! coordinate range too.

use std::collections::HashSet;

use proptest::prelude::*;

use ts_kernelmap::{
    build_strided_map_with_stats, build_submanifold_map_with_stats, downsample_coords,
    unique_coords, Coord, CoordHashMap, KernelMap, KernelOffsets, MapStats,
};

/// Every offset of every output, queried against `table`, with pairs
/// collected per offset in output order.
fn query_all(
    outputs: impl Iterator<Item = Coord>,
    table: &CoordHashMap,
    offsets: &KernelOffsets,
    stats: &mut MapStats,
) -> Vec<Vec<(u32, u32)>> {
    let mut pairs: Vec<Vec<(u32, u32)>> = vec![Vec::new(); offsets.volume()];
    for (out_idx, base) in outputs.enumerate() {
        for (k, &delta) in offsets.deltas().iter().enumerate() {
            stats.queries += 1;
            if let Some(in_idx) = base.offset_key(delta).and_then(|key| table.get(key)) {
                pairs[k].push((in_idx as u32, out_idx as u32));
            }
        }
    }
    stats.pairs = pairs.iter().map(|p| p.len() as u64).sum();
    pairs
}

fn reference_submanifold(coords: &[Coord], offsets: &KernelOffsets) -> (KernelMap, MapStats) {
    let table = CoordHashMap::build(coords);
    let mut stats = MapStats {
        inserts: coords.len() as u64,
        ..MapStats::default()
    };
    let pairs = query_all(coords.iter().copied(), &table, offsets, &mut stats);
    (
        KernelMap::from_pairs(coords.len(), coords.len(), pairs),
        stats,
    )
}

fn reference_strided(
    coords: &[Coord],
    offsets: &KernelOffsets,
    stride: i32,
) -> (KernelMap, Vec<Coord>, MapStats) {
    let mut seen = HashSet::new();
    let out_coords: Vec<Coord> = coords
        .iter()
        .map(|c| c.downsample(stride))
        .filter(|c| seen.insert(*c))
        .collect();
    let in_table = CoordHashMap::build(coords);
    let mut stats = MapStats {
        inserts: (coords.len() + out_coords.len()) as u64,
        ..MapStats::default()
    };
    let bases = out_coords.iter().map(|q| q.upscale(stride));
    let pairs = query_all(bases, &in_table, offsets, &mut stats);
    let map = KernelMap::from_pairs(coords.len(), out_coords.len(), pairs);
    (map, out_coords, stats)
}

/// One axis value: mostly a small signed range, so points have
/// neighbors, sometimes within 8 of either end of the 16-bit range.
fn axis() -> impl Strategy<Value = i32> {
    (0u8..6, -6i32..6, 0i32..8).prop_map(|(pick, small, edge)| match pick {
        0 => 32767 - edge,
        1 => -32768 + edge,
        _ => small,
    })
}

fn point() -> impl Strategy<Value = Coord> {
    (0..3i32, axis(), axis(), axis()).prop_map(|(b, x, y, z)| Coord::new(b, x, y, z))
}

/// 0–400 points: half the cases deduplicated (the mirror path of the
/// submanifold builder), the rest with extra copies inserted at random
/// positions.
fn cloud() -> impl Strategy<Value = Vec<Coord>> {
    (
        prop::collection::vec(point(), 0..400),
        prop::collection::vec((0usize..400, 0usize..401), 0..24),
        0u8..2,
    )
        .prop_map(|(points, copies, dedup)| {
            if dedup == 1 {
                return unique_coords(&points);
            }
            let mut points = points;
            for (from, to) in copies {
                if !points.is_empty() {
                    let c = points[from % points.len()];
                    points.insert(to % (points.len() + 1), c);
                }
            }
            points
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn builders_equal_the_reference_loops(coords in cloud()) {
        for k in 1..=3u32 {
            let offsets = KernelOffsets::cube(k);
            let (map, stats) = build_submanifold_map_with_stats(&coords, &offsets);
            let (want, want_stats) = reference_submanifold(&coords, &offsets);
            prop_assert_eq!(&map, &want, "submanifold k={}", k);
            prop_assert_eq!(stats, want_stats);

            for s in 1..=3i32 {
                let (map, out, stats) = build_strided_map_with_stats(&coords, &offsets, s);
                let (want, want_out, want_stats) = reference_strided(&coords, &offsets, s);
                prop_assert_eq!(&map, &want, "strided k={} s={}", k, s);
                prop_assert_eq!(&out, &want_out);
                prop_assert_eq!(&downsample_coords(&coords, s), &want_out);
                prop_assert_eq!(stats, want_stats);
            }
        }
    }
}
