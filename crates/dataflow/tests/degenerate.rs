//! Degenerate-shape regression tests: empty kernel maps, single-point
//! clouds and 1-wide channels must flow through every dataflow without
//! panicking, and still match the reference where there is anything to
//! compute.

use ts_dataflow::{
    dgrad, forward, prepare, prepare_trace, reference_dgrad, reference_forward, reference_wgrad,
    wgrad, ConvWeights, DataflowConfig, ExecCtx,
};
use ts_gpusim::Device;
use ts_kernelmap::{build_strided_map, build_submanifold_map, Coord, KernelMap, KernelOffsets};
use ts_tensor::{rng_from_seed, uniform_matrix, Matrix, Precision};

fn all_configs() -> Vec<DataflowConfig> {
    let mut v = vec![
        DataflowConfig::gather_scatter(false),
        DataflowConfig::fetch_on_demand(false),
    ];
    v.extend(DataflowConfig::full_space(4));
    v
}

fn contexts() -> Vec<ExecCtx> {
    vec![
        ExecCtx::functional(Device::rtx3090(), Precision::Fp32),
        ExecCtx::simulate(Device::rtx3090(), Precision::Fp16),
    ]
}

#[test]
fn empty_map_runs_every_dataflow() {
    // Zero active sites: an empty cloud builds a 0x0 map with 27 empty
    // pair lists. Every dataflow must accept it in both functional and
    // simulate modes.
    let map = build_submanifold_map(&[], &KernelOffsets::cube(3));
    assert_eq!(map.n_in(), 0);
    assert_eq!(map.n_out(), 0);
    let x = Matrix::zeros(0, 4);
    let dy = Matrix::zeros(0, 6);
    let w = ConvWeights::random(&mut rng_from_seed(1), 27, 4, 6);
    for ctx in contexts() {
        for cfg in all_configs() {
            let out = forward(&x, &w, &map, &cfg, &ctx);
            if ctx.functional {
                let y = out.features.expect("features in functional mode");
                assert_eq!(y.shape(), (0, 6), "{cfg}");
            }
            let gout = dgrad(&dy, &w, &map.transposed(), &cfg, &ctx);
            if ctx.functional {
                assert_eq!(gout.features.unwrap().shape(), (0, 4), "{cfg}");
            }
            let wout = wgrad(&x, &dy, &map, &cfg, &ctx);
            if ctx.functional {
                let dw = wout.dw.unwrap();
                for k in 0..27 {
                    assert_eq!(dw.offset(k).as_slice().iter().sum::<f32>(), 0.0, "{cfg}");
                }
            }
            let p = prepare(&map, &cfg, &ctx);
            let _ = prepare_trace(&map, &p, &cfg, &ctx).total_us();
        }
    }
}

#[test]
fn empty_strided_map_runs_every_dataflow() {
    let (map, out_coords) = build_strided_map(&[], &KernelOffsets::cube(2), 2);
    assert!(out_coords.is_empty());
    let x = Matrix::zeros(0, 3);
    let w = ConvWeights::random(&mut rng_from_seed(2), 8, 3, 5);
    for ctx in contexts() {
        for cfg in all_configs() {
            let out = forward(&x, &w, &map, &cfg, &ctx);
            if ctx.functional {
                assert_eq!(out.features.unwrap().shape(), (0, 5), "{cfg}");
            }
        }
    }
}

#[test]
fn single_point_matches_reference_everywhere() {
    let coords = [Coord::new(0, 0, 0, 0)];
    let map = build_submanifold_map(&coords, &KernelOffsets::cube(3));
    assert_eq!(map.total_pairs(), 1, "one self-pair via the center offset");
    let mut rng = rng_from_seed(3);
    let x = uniform_matrix(&mut rng, 1, 4, -1.0, 1.0);
    let dy = uniform_matrix(&mut rng, 1, 6, -1.0, 1.0);
    let w = ConvWeights::random(&mut rng, 27, 4, 6);
    let want_y = reference_forward(&x, &w, &map);
    let want_dx = reference_dgrad(&dy, &w, &map);
    let want_dw = reference_wgrad(&x, &dy, &map);
    let ctx = ExecCtx::functional(Device::rtx3090(), Precision::Fp32);
    for cfg in all_configs() {
        let y = forward(&x, &w, &map, &cfg, &ctx).features.unwrap();
        assert!(y.approx_eq(&want_y, 1e-5), "{cfg} fwd");
        let dx = dgrad(&dy, &w, &map.transposed(), &cfg, &ctx)
            .features
            .unwrap();
        assert!(dx.approx_eq(&want_dx, 1e-5), "{cfg} dgrad");
        let dw = wgrad(&x, &dy, &map, &cfg, &ctx).dw.unwrap();
        for k in 0..27 {
            assert!(
                dw.offset(k).approx_eq(want_dw.offset(k), 1e-5),
                "{cfg} wgrad offset {k}"
            );
        }
    }
}

#[test]
fn one_wide_channels_match_reference_everywhere() {
    // c_in = c_out = 1: GEMMs collapse to dot products; tile/padding
    // logic must not assume channels >= one tile.
    let coords: Vec<Coord> = (0..9).map(|i| Coord::new(0, i % 3, i / 3, 0)).collect();
    let map = build_submanifold_map(&coords, &KernelOffsets::cube(3));
    let mut rng = rng_from_seed(4);
    let x = uniform_matrix(&mut rng, 9, 1, -1.0, 1.0);
    let dy = uniform_matrix(&mut rng, 9, 1, -1.0, 1.0);
    let w = ConvWeights::random(&mut rng, 27, 1, 1);
    let want_y = reference_forward(&x, &w, &map);
    let want_dx = reference_dgrad(&dy, &w, &map);
    let want_dw = reference_wgrad(&x, &dy, &map);
    let ctx = ExecCtx::functional(Device::rtx3090(), Precision::Fp32);
    for cfg in all_configs() {
        let y = forward(&x, &w, &map, &cfg, &ctx).features.unwrap();
        assert!(y.approx_eq(&want_y, 1e-4), "{cfg} fwd");
        let dx = dgrad(&dy, &w, &map.transposed(), &cfg, &ctx)
            .features
            .unwrap();
        assert!(dx.approx_eq(&want_dx, 1e-4), "{cfg} dgrad");
        let dw = wgrad(&x, &dy, &map, &cfg, &ctx).dw.unwrap();
        for k in 0..27 {
            assert!(
                dw.offset(k).approx_eq(want_dw.offset(k), 1e-4),
                "{cfg} wgrad offset {k}"
            );
        }
    }
}

#[test]
fn oversplit_single_point_is_sound() {
    // More mask splits than offsets with any pairs: ranges degenerate
    // but must still partition and execute.
    let coords = [Coord::new(0, 5, 5, 5)];
    let map = build_submanifold_map(&coords, &KernelOffsets::cube(3));
    let x = uniform_matrix(&mut rng_from_seed(5), 1, 2, -1.0, 1.0);
    let w = ConvWeights::random(&mut rng_from_seed(6), 27, 2, 3);
    let want = reference_forward(&x, &w, &map);
    let ctx = ExecCtx::functional(Device::rtx3090(), Precision::Fp32);
    for splits in [8, 16] {
        let cfg = DataflowConfig::implicit_gemm(splits);
        let y = forward(&x, &w, &map, &cfg, &ctx).features.unwrap();
        assert!(y.approx_eq(&want, 1e-5), "splits={splits}");
    }
}

#[test]
fn manually_built_empty_map_prepares_under_all_splits() {
    let map = KernelMap::from_pairs(0, 0, vec![Vec::new(); 27]);
    let ctx = ExecCtx::simulate(Device::a100(), Precision::Tf32);
    for splits in 0..=4 {
        let p = prepare(&map, &DataflowConfig::implicit_gemm(splits), &ctx);
        let plan = p.plan.expect("implicit gemm always plans");
        assert!(!plan.ranges().is_empty());
    }
}
