//! Property-based tests for coordinate hashing, kernel maps, and split
//! plans.

use proptest::prelude::*;

use ts_kernelmap::{
    build_strided_map, build_submanifold_map, check_map, check_plan, mac_counts, pad_to_multiple,
    unique_coords, Coord, CoordHashMap, DeltaConfig, IncrementalMap, KernelMap, KernelOffsets,
    MapUpdate, SplitPlan,
};

fn coord_strategy() -> impl Strategy<Value = Coord> {
    (0..3i32, -60..60i32, -60..60i32, -20..20i32).prop_map(|(b, x, y, z)| Coord::new(b, x, y, z))
}

fn coords_strategy(max: usize) -> impl Strategy<Value = Vec<Coord>> {
    prop::collection::vec(coord_strategy(), 1..max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn coord_key_round_trips(c in coord_strategy()) {
        prop_assert_eq!(Coord::from_key(c.key()), c);
    }

    #[test]
    fn hash_map_agrees_with_std_hashmap(coords in coords_strategy(300)) {
        let table = CoordHashMap::build(&coords);
        let mut model = std::collections::HashMap::new();
        for (i, c) in coords.iter().enumerate() {
            model.entry(c.key()).or_insert(i as i32);
        }
        for c in &coords {
            prop_assert_eq!(table.get(c.key()), model.get(&c.key()).copied());
        }
        // Absent keys miss.
        let absent = Coord::new(7, 999, 999, 999);
        prop_assert_eq!(table.get(absent.key()), None);
        prop_assert_eq!(table.len(), model.len());
    }

    #[test]
    fn unique_preserves_set_and_order(coords in coords_strategy(300)) {
        let u = unique_coords(&coords);
        // No duplicates.
        let set: std::collections::HashSet<_> = u.iter().map(|c| c.key()).collect();
        prop_assert_eq!(set.len(), u.len());
        // Same set as input.
        let input_set: std::collections::HashSet<_> = coords.iter().map(|c| c.key()).collect();
        prop_assert_eq!(set, input_set);
        // First-occurrence order.
        let mut seen = std::collections::HashSet::new();
        let expected: Vec<Coord> = coords
            .iter()
            .filter(|c| seen.insert(c.key()))
            .copied()
            .collect();
        prop_assert_eq!(u, expected);
    }

    #[test]
    fn submanifold_map_is_symmetric_and_bounded(coords in coords_strategy(200)) {
        let coords = unique_coords(&coords);
        let offsets = KernelOffsets::cube(3);
        let map = build_submanifold_map(&coords, &offsets);
        // Self pairs exist for every point via the center offset.
        let center = offsets.center().unwrap();
        prop_assert_eq!(map.pairs(center).len(), coords.len());
        // Pair count bounded by n * kvol.
        prop_assert!(map.total_pairs() <= (coords.len() * 27) as u64);
        // delta/-delta symmetry.
        for k in 0..offsets.volume() {
            prop_assert_eq!(map.pairs(k).len(), map.pairs(offsets.mirror(k)).len());
        }
    }

    #[test]
    fn transpose_is_involution(coords in coords_strategy(150)) {
        let coords = unique_coords(&coords);
        let map = build_submanifold_map(&coords, &KernelOffsets::cube(3));
        let back = map.transposed().transposed();
        prop_assert_eq!(back.all_pairs(), map.all_pairs());
        prop_assert_eq!(map.transposed().total_pairs(), map.total_pairs());
    }

    #[test]
    fn strided_map_partitions_k2_s2(coords in coords_strategy(200)) {
        let coords = unique_coords(&coords);
        let (map, out) = build_strided_map(&coords, &KernelOffsets::cube(2), 2);
        // Every input appears exactly once (K=2/s=2 windows tile space).
        prop_assert_eq!(map.total_pairs(), coords.len() as u64);
        // Outputs are the unique downsampled coords.
        let expected: std::collections::HashSet<_> =
            coords.iter().map(|c| c.downsample(2).key()).collect();
        prop_assert_eq!(out.len(), expected.len());
    }

    #[test]
    fn split_plans_partition_offsets(coords in coords_strategy(150), s in 0u32..6) {
        let coords = unique_coords(&coords);
        let map = build_submanifold_map(&coords, &KernelOffsets::cube(3));
        let plan = SplitPlan::from_split_count(&map, s);
        let mut covered = vec![0u8; map.kernel_volume()];
        for r in plan.ranges() {
            for slot in covered.iter_mut().take(r.k_end).skip(r.k_begin) {
                *slot += 1;
            }
        }
        prop_assert!(covered.iter().all(|&c| c == 1));
    }

    #[test]
    fn mac_counts_invariants(coords in coords_strategy(150), s in 0u32..5, lockstep in 1usize..33) {
        let coords = unique_coords(&coords);
        let map = build_submanifold_map(&coords, &KernelOffsets::cube(3));
        let plan = SplitPlan::from_split_count(&map, s);
        let c = mac_counts(&map, &plan, lockstep, 4, 8);
        // Effective MACs are exactly pairs * c_in * c_out, independent of
        // the plan or lockstep width.
        prop_assert_eq!(c.effective, map.effective_macs(4, 8));
        // Total >= effective, and bounded by full-density execution.
        prop_assert!(c.total >= c.effective);
        let dense_bound = (map.n_out() as u64 + lockstep as u64) * 27 * 4 * 8;
        prop_assert!(c.total <= dense_bound);
        // Lockstep of 1 has zero waste.
        let exact = mac_counts(&map, &plan, 1, 4, 8);
        prop_assert_eq!(exact.total, exact.effective);
    }

    #[test]
    fn sorting_never_increases_waste(coords in coords_strategy(150)) {
        let coords = unique_coords(&coords);
        let map = build_submanifold_map(&coords, &KernelOffsets::cube(3));
        let unsorted = mac_counts(&map, &SplitPlan::from_split_count(&map, 0), 16, 1, 1);
        let sorted = mac_counts(&map, &SplitPlan::from_split_count(&map, 1), 16, 1, 1);
        prop_assert!(sorted.total <= unsorted.total,
            "sorted {} > unsorted {}", sorted.total, unsorted.total);
    }

    #[test]
    fn padding_properties(n in 0usize..100_000, m in 1usize..512) {
        let p = pad_to_multiple(n, m);
        prop_assert!(p >= n);
        prop_assert!(p < n + m);
        prop_assert_eq!(p % m, 0);
    }

    #[test]
    fn relational_maps_reject_dense_paths(edges in prop::collection::vec((0u32..50, 0u32..50), 1..200)) {
        let map = KernelMap::from_relational_pairs(50, 50, vec![edges.clone(), edges]);
        prop_assert!(!map.has_dense_repr());
        prop_assert!(map.has_multi_edges());
        // Transpose keeps the sparse-only representation.
        prop_assert!(!map.transposed().has_dense_repr());
    }
}

/// Full-state equivalence of an [`IncrementalMap`] against the
/// from-scratch reference: pairs and bitmasks (via [`KernelMap`]'s
/// structural equality), plus map and split-plan invariants.
fn assert_state_matches_fresh(inc: &IncrementalMap) -> Result<(), TestCaseError> {
    let fresh = build_submanifold_map(inc.coords(), inc.offsets());
    prop_assert_eq!(inc.map(), &fresh);
    prop_assert!(
        check_map(inc.map()).is_empty(),
        "{:?}",
        check_map(inc.map())
    );
    let plan_errs = check_plan(inc.map(), inc.plan(), 16);
    prop_assert!(plan_errs.is_empty(), "{plan_errs:?}");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole property: a random frame stream driven through
    /// `update` at a random churn threshold stays bit-identical to a
    /// from-scratch build after every frame, whichever path (patch or
    /// rebuild) each frame took.
    #[test]
    fn incremental_stream_equals_full_rebuild(
        base in coords_strategy(120),
        steps in prop::collection::vec(
            (
                prop::collection::vec(0usize..4096, 0..20),
                prop::collection::vec(coord_strategy(), 0..20),
            ),
            1..5,
        ),
        threshold in 0.0f32..1.2,
        split in 1u32..4,
    ) {
        let mut frame = unique_coords(&base);
        let cfg = DeltaConfig { churn_threshold: threshold };
        let mut inc = IncrementalMap::new(&frame, KernelOffsets::cube(3), split);
        for (drops, adds) in &steps {
            for &idx in drops {
                if !frame.is_empty() {
                    frame.remove(idx % frame.len());
                }
            }
            frame.extend(adds.iter().copied());
            frame = unique_coords(&frame);

            let out = inc.update(&frame, &cfg);

            // The decision follows the threshold exactly.
            if out.churn > threshold {
                prop_assert_eq!(out.kind, MapUpdate::Rebuilt);
            } else {
                prop_assert_eq!(out.kind, MapUpdate::Patched);
            }
            // The state's coordinate set is the frame's set.
            prop_assert_eq!(inc.coords().len(), frame.len());
            let got: std::collections::HashSet<u64> =
                inc.coords().iter().map(|c| c.key()).collect();
            let want: std::collections::HashSet<u64> =
                frame.iter().map(|c| c.key()).collect();
            prop_assert_eq!(got, want);
            assert_state_matches_fresh(&inc)?;
        }
    }

    /// Degenerate frames: identical re-send (0% churn), empty frame,
    /// then a fully disjoint set (100% churn) — at arbitrary thresholds.
    #[test]
    fn degenerate_churn_extremes_match_rebuild(
        coords in coords_strategy(100),
        far in coords_strategy(100),
        threshold in 0.0f32..1.2,
    ) {
        let cfg = DeltaConfig { churn_threshold: threshold };
        let coords = unique_coords(&coords);
        let mut inc = IncrementalMap::new(&coords, KernelOffsets::cube(3), 2);

        // 0% churn: identical frame is always a (no-op) patch.
        let out = inc.update(&coords, &cfg);
        prop_assert_eq!(out.kind, MapUpdate::Patched);
        prop_assert_eq!((out.entered, out.exited), (0, 0));
        assert_state_matches_fresh(&inc)?;

        // Empty frame: everything exits.
        inc.update(&[], &cfg);
        prop_assert_eq!(inc.map().n_out(), 0);
        assert_state_matches_fresh(&inc)?;

        // 100% churn: a disjoint far-away set.
        let far: Vec<Coord> = unique_coords(&far)
            .into_iter()
            .map(|c| Coord::new(c.batch, c.x + 500, c.y, c.z))
            .collect();
        let out = inc.update(&far, &cfg);
        prop_assert!(out.churn >= 1.0);
        prop_assert_eq!(inc.map().n_out(), far.len());
        assert_state_matches_fresh(&inc)?;
    }

    /// Duplicate coordinates inside a frame collapse to first-occurrence
    /// order, exactly like `unique_coords` on the rebuild path.
    #[test]
    fn duplicate_frame_entries_collapse(
        coords in coords_strategy(80),
        extra in prop::collection::vec(coord_strategy(), 0..10),
        threshold in 0.0f32..1.2,
    ) {
        let cfg = DeltaConfig { churn_threshold: threshold };
        let base = unique_coords(&coords);
        let mut inc = IncrementalMap::new(&base, KernelOffsets::cube(3), 1);
        // Every entry duplicated, plus a few fresh ones (also doubled).
        let mut noisy = base.clone();
        noisy.extend(extra.iter().copied());
        noisy.extend(noisy.clone());
        inc.update(&noisy, &cfg);
        prop_assert_eq!(inc.coords().len(), unique_coords(&noisy).len());
        assert_state_matches_fresh(&inc)?;
    }
}
