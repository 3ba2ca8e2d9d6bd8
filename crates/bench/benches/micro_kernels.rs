//! Criterion micro-benchmarks of the actual Rust implementation (not the
//! simulated GPU): hashing, map building, sorting, GEMM and functional
//! dataflow execution. These measure the reproduction's own hot paths.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use ts_dataflow::{forward, ConvWeights, DataflowConfig, ExecCtx};
use ts_gpusim::Device;
use ts_kernelmap::{build_submanifold_map, Coord, CoordHashMap, KernelOffsets, SplitPlan};
use ts_tensor::{gemm, gemm_tn, gemm_tn_naive, rng_from_seed, uniform_matrix, Precision};
use ts_workloads::{LidarConfig, LidarScene};

fn scene_coords(n_side: i32) -> Vec<Coord> {
    (0..n_side)
        .flat_map(|x| (0..n_side).flat_map(move |y| (0..3).map(move |z| Coord::new(0, x, y, z))))
        .collect()
}

fn bench_hash(c: &mut Criterion) {
    let coords = scene_coords(60); // 10.8k coords
    c.bench_function("hash_build_10k", |b| {
        b.iter(|| CoordHashMap::build(black_box(&coords)))
    });
    let table = CoordHashMap::build(&coords);
    c.bench_function("hash_query_10k", |b| {
        b.iter(|| {
            let mut hits = 0u32;
            for co in &coords {
                if co
                    .offset_key((1, 0, 0))
                    .and_then(|k| table.get(k))
                    .is_some()
                {
                    hits += 1;
                }
            }
            hits
        })
    });
}

fn bench_map_build(c: &mut Criterion) {
    let coords = scene_coords(40);
    let offsets = KernelOffsets::cube(3);
    c.bench_function("submanifold_map_4.8k_k27", |b| {
        b.iter(|| build_submanifold_map(black_box(&coords), &offsets))
    });
}

fn bench_sorting(c: &mut Criterion) {
    let coords = scene_coords(60);
    let map = build_submanifold_map(&coords, &KernelOffsets::cube(3));
    c.bench_function("split_plan_s3_10k", |b| {
        // Plan construction is lazy; unit_counts forces the per-range
        // key sort + MAC census the cost model actually pays.
        b.iter(|| {
            let plan = SplitPlan::from_split_count(black_box(&map), 3);
            plan.unit_counts(&map).to_vec()
        })
    });
}

fn bench_gemm(c: &mut Criterion) {
    let mut rng = rng_from_seed(1);
    let a = uniform_matrix(&mut rng, 256, 256, -1.0, 1.0);
    let b_m = uniform_matrix(&mut rng, 256, 256, -1.0, 1.0);
    c.bench_function("gemm_256", |b| {
        b.iter(|| gemm(black_box(&a), black_box(&b_m)))
    });

    // The wgrad shape: tall-skinny operands reduced over many points.
    // Compares the reduction-blocked gemm_tn against the row-at-a-time
    // reference it replaced.
    let ta = uniform_matrix(&mut rng, 8192, 64, -1.0, 1.0);
    let tb = uniform_matrix(&mut rng, 8192, 64, -1.0, 1.0);
    c.bench_function("gemm_tn_8k_x64_blocked", |b| {
        b.iter(|| gemm_tn(black_box(&ta), black_box(&tb)))
    });
    c.bench_function("gemm_tn_8k_x64_naive", |b| {
        b.iter(|| gemm_tn_naive(black_box(&ta), black_box(&tb)))
    });
}

fn bench_dataflow_forward(c: &mut Criterion) {
    let coords = scene_coords(24);
    let map = build_submanifold_map(&coords, &KernelOffsets::cube(3));
    let mut rng = rng_from_seed(2);
    let x = uniform_matrix(&mut rng, coords.len(), 16, -1.0, 1.0);
    let w = ConvWeights::random(&mut rng, 27, 16, 16);
    let ctx = ExecCtx::functional(Device::rtx3090(), Precision::Fp32);
    for (name, cfg) in [
        (
            "forward_gather_scatter",
            DataflowConfig::gather_scatter(true),
        ),
        ("forward_implicit_s1", DataflowConfig::implicit_gemm(1)),
        ("forward_fod", DataflowConfig::fetch_on_demand(true)),
    ] {
        c.bench_function(name, |b| {
            b.iter_batched(
                || (),
                |_| forward(black_box(&x), &w, &map, &cfg, &ctx),
                BatchSize::SmallInput,
            )
        });
    }
}

fn bench_lidar(c: &mut Criterion) {
    let cfg = LidarConfig {
        beams: 16,
        azimuth_steps: 256,
        elevation_min_deg: -25.0,
        elevation_max_deg: 3.0,
        max_range_m: 50.0,
        voxel_size_m: 0.1,
        obstacles: 20,
        dropout: 0.1,
    };
    c.bench_function("lidar_scene_4k_rays", |b| {
        b.iter(|| LidarScene::generate(black_box(&cfg), 1, 1, 0))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_hash, bench_map_build, bench_sorting, bench_gemm, bench_dataflow_forward, bench_lidar
}
criterion_main!(benches);
