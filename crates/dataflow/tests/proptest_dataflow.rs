//! Property-based cross-dataflow equivalence: every executor computes
//! the same convolution as the direct evaluation of Equation 1, on
//! arbitrary sparse geometries.

use proptest::prelude::*;

use ts_dataflow::{
    dgrad, forward, forward_trace, prepare, reference_dgrad, reference_forward, reference_wgrad,
    wgrad, ConvWeights, DataflowConfig, ExecCtx,
};
use ts_gpusim::Device;
use ts_kernelmap::{build_strided_map, build_submanifold_map, unique_coords, Coord, KernelOffsets};
use ts_tensor::{rng_from_seed, uniform_matrix, ErrorBudget, Precision};

fn coords_strategy() -> impl Strategy<Value = Vec<Coord>> {
    prop::collection::vec(
        (0..2i32, -8..8i32, -8..8i32, -3..3i32).prop_map(|(b, x, y, z)| Coord::new(b, x, y, z)),
        1..80,
    )
    .prop_map(|v| unique_coords(&v))
}

fn all_configs() -> Vec<DataflowConfig> {
    vec![
        DataflowConfig::gather_scatter(false),
        DataflowConfig::gather_scatter(true),
        DataflowConfig::fetch_on_demand(false),
        DataflowConfig::fetch_on_demand(true),
        DataflowConfig::implicit_gemm(0),
        DataflowConfig::implicit_gemm(1),
        DataflowConfig::implicit_gemm(2),
        DataflowConfig::implicit_gemm(4),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn all_dataflows_match_reference_forward(coords in coords_strategy(), seed in 0u64..500) {
        let map = build_submanifold_map(&coords, &KernelOffsets::cube(3));
        let mut rng = rng_from_seed(seed);
        let c_in = 3 + (seed % 5) as usize;
        let c_out = 2 + (seed % 7) as usize;
        let x = uniform_matrix(&mut rng, coords.len(), c_in, -1.0, 1.0);
        let w = ConvWeights::random(&mut rng, 27, c_in, c_out);
        let expected = reference_forward(&x, &w, &map);
        let ctx = ExecCtx::functional(Device::rtx3090(), Precision::Fp32);
        for cfg in all_configs() {
            let got = forward(&x, &w, &map, &cfg, &ctx).features.unwrap();
            prop_assert!(got.approx_eq(&expected, 1e-3), "dataflow {cfg} diverged");
        }
    }

    #[test]
    fn strided_maps_match_reference(coords in coords_strategy(), seed in 0u64..500) {
        let (map, _out) = build_strided_map(&coords, &KernelOffsets::cube(2), 2);
        let mut rng = rng_from_seed(seed);
        let x = uniform_matrix(&mut rng, coords.len(), 4, -1.0, 1.0);
        let w = ConvWeights::random(&mut rng, 8, 4, 6);
        let expected = reference_forward(&x, &w, &map);
        let ctx = ExecCtx::functional(Device::a100(), Precision::Fp32);
        for cfg in [DataflowConfig::implicit_gemm(2), DataflowConfig::fetch_on_demand(true)] {
            let got = forward(&x, &w, &map, &cfg, &ctx).features.unwrap();
            prop_assert!(got.approx_eq(&expected, 1e-3), "dataflow {cfg} diverged");
        }
    }

    #[test]
    fn dgrad_matches_reference(coords in coords_strategy(), seed in 0u64..500) {
        let map = build_submanifold_map(&coords, &KernelOffsets::cube(3));
        let map_t = map.transposed();
        let mut rng = rng_from_seed(seed);
        let x_unused = uniform_matrix(&mut rng, coords.len(), 4, -1.0, 1.0);
        let _ = x_unused;
        let w = ConvWeights::random(&mut rng, 27, 4, 5);
        let dy = uniform_matrix(&mut rng, map.n_out(), 5, -1.0, 1.0);
        let expected = reference_dgrad(&dy, &w, &map);
        let ctx = ExecCtx::functional(Device::rtx3090(), Precision::Fp32);
        for cfg in [DataflowConfig::gather_scatter(true), DataflowConfig::implicit_gemm(1)] {
            let got = dgrad(&dy, &w, &map_t, &cfg, &ctx).features.unwrap();
            prop_assert!(got.approx_eq(&expected, 1e-3), "dgrad {cfg} diverged");
        }
    }

    #[test]
    fn wgrad_matches_reference_across_all_dataflows(coords in coords_strategy(), seed in 0u64..500) {
        // The training path over the FULL design space: every dataflow
        // family and every mask split must produce the same weight
        // gradient as the direct evaluation, within an error budget
        // derived from the reduction depth (the longest per-offset pair
        // list) instead of a hard-coded epsilon.
        let map = build_submanifold_map(&coords, &KernelOffsets::cube(3));
        let mut rng = rng_from_seed(seed);
        let x = uniform_matrix(&mut rng, coords.len(), 3, -1.0, 1.0);
        let dy = uniform_matrix(&mut rng, map.n_out(), 4, -1.0, 1.0);
        let expected = reference_wgrad(&x, &dy, &map);
        let depth = (0..27).map(|k| map.pairs(k).len()).max().unwrap_or(1);
        let tol = ErrorBudget::new(Precision::Fp32, depth).rel_tol();
        let ctx = ExecCtx::functional(Device::rtx3090(), Precision::Fp32);
        for cfg in all_configs() {
            let got = wgrad(&x, &dy, &map, &cfg, &ctx).dw.unwrap();
            for k in 0..27 {
                prop_assert!(
                    got.offset(k).approx_eq(expected.offset(k), tol),
                    "wgrad {cfg} diverged at offset {k} (tol {tol})"
                );
            }
        }
    }

    #[test]
    fn wgrad_matches_reference_on_every_mask_split(coords in coords_strategy(), seed in 0u64..500) {
        // Mask splits exhaustively, including degenerate over-splitting
        // (more splits than the map can fill).
        let map = build_submanifold_map(&coords, &KernelOffsets::cube(3));
        let mut rng = rng_from_seed(seed);
        let x = uniform_matrix(&mut rng, coords.len(), 5, -1.0, 1.0);
        let dy = uniform_matrix(&mut rng, map.n_out(), 2, -1.0, 1.0);
        let expected = reference_wgrad(&x, &dy, &map);
        let depth = (0..27).map(|k| map.pairs(k).len()).max().unwrap_or(1);
        let tol = ErrorBudget::new(Precision::Fp32, depth).rel_tol();
        let ctx = ExecCtx::functional(Device::rtx3090(), Precision::Fp32);
        for splits in 0..=6u32 {
            let cfg = DataflowConfig::implicit_gemm(splits);
            let got = wgrad(&x, &dy, &map, &cfg, &ctx).dw.unwrap();
            for k in 0..27 {
                prop_assert!(
                    got.offset(k).approx_eq(expected.offset(k), tol),
                    "wgrad splits={splits} diverged at offset {k} (tol {tol})"
                );
            }
        }
    }

    #[test]
    fn traces_are_scale_monotone(coords in coords_strategy()) {
        // Doubling channel width must not make any dataflow faster.
        let map = build_submanifold_map(&coords, &KernelOffsets::cube(3));
        let ctx = ExecCtx::simulate(Device::rtx3090(), Precision::Fp16);
        for cfg in all_configs() {
            let plan = prepare(&map, &cfg, &ctx);
            let t_small = forward_trace(8, 8, &map, &plan, &cfg, &ctx).total_us();
            let t_large = forward_trace(16, 16, &map, &plan, &cfg, &ctx).total_us();
            prop_assert!(t_large >= t_small * 0.99, "{cfg}: {t_large} < {t_small}");
        }
    }
}

// Bit identity: the functional path of every dataflow performs, per
// output element, exactly the additions and multiplications of the
// direct evaluation, so it must equal the oracle to the bit — not
// merely within a tolerance. Output widths cover the kernel's
// 16-column tile: narrower than one tile, whole tiles (16, 48), and a
// remainder after one or more whole tiles (17, 19, 35). dgrad swaps
// each pair, so narrow dgrad outputs (4, 1) and odd input widths (33)
// occur too. The random clouds give pair counts on both sides of every
// pair-block edge and offsets with no pairs at all.

use rand::Rng;
use ts_kernelmap::{KernelMap, SplitPlan};
use ts_tensor::Matrix;

/// `(c_in, c_out)` pairs every bit-identity case runs.
const WIDTHS: [(usize, usize); 12] = [
    (1, 1),
    (1, 4),
    (3, 5),
    (4, 8),
    (7, 1),
    (8, 9),
    (16, 17),
    (4, 16),
    (16, 4),
    (32, 48),
    (48, 19),
    (33, 35),
];

/// The dataflows whose functional path is one offset range.
fn single_range_configs() -> [DataflowConfig; 6] {
    [
        DataflowConfig::gather_scatter(false),
        DataflowConfig::gather_scatter(true),
        DataflowConfig::fetch_on_demand(false),
        DataflowConfig::fetch_on_demand(true),
        DataflowConfig::implicit_gemm(0),
        DataflowConfig::implicit_gemm(1),
    ]
}

/// A matrix's shape and element bit patterns (`-0.0 != 0.0` here).
fn bits(m: &Matrix) -> (usize, usize, Vec<u32>) {
    let b = m.as_slice().iter().map(|v| v.to_bits()).collect();
    (m.rows(), m.cols(), b)
}

/// A submanifold (3x3x3) and a strided (2x2x2, stride 2) map over
/// `coords`.
fn conv_maps(coords: &[Coord]) -> [KernelMap; 2] {
    let sub = build_submanifold_map(coords, &KernelOffsets::cube(3));
    let (strided, _) = build_strided_map(coords, &KernelOffsets::cube(2), 2);
    [sub, strided]
}

/// `map` with the pairs of offsets outside `offsets` removed.
fn restrict(map: &KernelMap, offsets: std::ops::Range<usize>) -> KernelMap {
    let pairs = (0..map.kernel_volume())
        .map(|k| {
            if offsets.contains(&k) {
                map.pairs(k).to_vec()
            } else {
                Vec::new()
            }
        })
        .collect();
    KernelMap::from_pairs(map.n_in(), map.n_out(), pairs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn single_range_dataflows_equal_reference_bit_for_bit(
        coords in coords_strategy(),
        seed in 0u64..500,
    ) {
        let ctx = ExecCtx::functional(Device::rtx3090(), Precision::Fp32);
        let mut rng = rng_from_seed(seed);
        for map in conv_maps(&coords) {
            for (c_in, c_out) in WIDTHS {
                let x = uniform_matrix(&mut rng, map.n_in(), c_in, -1.0, 1.0);
                let w = ConvWeights::random(&mut rng, map.kernel_volume(), c_in, c_out);
                let want = bits(&reference_forward(&x, &w, &map));
                for cfg in single_range_configs() {
                    let got = forward(&x, &w, &map, &cfg, &ctx).features.unwrap();
                    prop_assert_eq!(bits(&got), want.clone(), "{} at {}x{}", cfg, c_in, c_out);
                }
            }
        }
    }

    #[test]
    fn mask_splits_equal_per_range_reference_partials_bit_for_bit(
        coords in coords_strategy(),
        seed in 0u64..500,
    ) {
        // Each split range sums into its own partial buffer; the buffers
        // are then added in range order.
        let ctx = ExecCtx::functional(Device::a100(), Precision::Fp32);
        let mut rng = rng_from_seed(seed);
        for map in conv_maps(&coords) {
            for (c_in, c_out) in WIDTHS {
                let x = uniform_matrix(&mut rng, map.n_in(), c_in, -1.0, 1.0);
                let w = ConvWeights::random(&mut rng, map.kernel_volume(), c_in, c_out);
                for splits in [2u32, 3, 5, 40] {
                    let plan = SplitPlan::from_split_count(&map, splits);
                    let mut want = Matrix::zeros(map.n_out(), c_out);
                    for range in plan.ranges() {
                        let part = restrict(&map, range.k_begin..range.k_end);
                        want.add_assign(&reference_forward(&x, &w, &part));
                    }
                    let cfg = DataflowConfig::implicit_gemm(splits);
                    let got = forward(&x, &w, &map, &cfg, &ctx).features.unwrap();
                    prop_assert_eq!(bits(&got), bits(&want), "{} at {}x{}", cfg, c_in, c_out);
                }
            }
        }
    }

    #[test]
    fn dgrad_equals_reference_forward_over_transposed_map_bit_for_bit(
        coords in coords_strategy(),
        seed in 0u64..500,
    ) {
        let ctx = ExecCtx::functional(Device::rtx3090(), Precision::Fp32);
        let mut rng = rng_from_seed(seed);
        for map in conv_maps(&coords) {
            let map_t = map.transposed();
            for (c_in, c_out) in WIDTHS {
                let w = ConvWeights::random(&mut rng, map.kernel_volume(), c_in, c_out);
                let dy = uniform_matrix(&mut rng, map.n_out(), c_out, -1.0, 1.0);
                let want = bits(&reference_forward(&dy, &w.transposed(), &map_t));
                for cfg in single_range_configs() {
                    let got = dgrad(&dy, &w, &map_t, &cfg, &ctx).features.unwrap();
                    prop_assert_eq!(bits(&got), want.clone(), "dgrad {} at {}x{}", cfg, c_in, c_out);
                }
            }
        }
    }

    #[test]
    fn relational_multi_edge_maps_equal_reference_bit_for_bit(
        n_in in 1usize..24,
        n_out in 1usize..24,
        relations in 1usize..7,
        seed in 0u64..500,
    ) {
        // Random edge lists: empty relations, repeated edges and one
        // output reached several times within one relation (and so
        // within one 4-pair block) all occur.
        let mut rng = rng_from_seed(seed);
        let pairs = (0..relations)
            .map(|_| {
                let len = rng.gen_range(0..40usize);
                (0..len)
                    .map(|_| (rng.gen_range(0..n_in) as u32, rng.gen_range(0..n_out) as u32))
                    .collect()
            })
            .collect();
        let map = KernelMap::from_relational_pairs(n_in, n_out, pairs);
        let map_t = map.transposed();
        let ctx = ExecCtx::functional(Device::rtx3090(), Precision::Fp32);
        for (c_in, c_out) in WIDTHS {
            let x = uniform_matrix(&mut rng, n_in, c_in, -1.0, 1.0);
            let w = ConvWeights::random(&mut rng, relations, c_in, c_out);
            let dy = uniform_matrix(&mut rng, n_out, c_out, -1.0, 1.0);
            let want = bits(&reference_forward(&x, &w, &map));
            let want_dx = bits(&reference_forward(&dy, &w.transposed(), &map_t));
            for cfg in &single_range_configs()[..4] {
                let got = forward(&x, &w, &map, cfg, &ctx).features.unwrap();
                prop_assert_eq!(bits(&got), want.clone(), "{} at {}x{}", cfg, c_in, c_out);
                let dx = dgrad(&dy, &w, &map_t, cfg, &ctx).features.unwrap();
                prop_assert_eq!(bits(&dx), want_dx.clone(), "dgrad {} at {}x{}", cfg, c_in, c_out);
            }
        }
    }
}
