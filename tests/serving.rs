//! Integration: the serving subsystem end to end — batched inference is
//! bit-identical to serial, schedules persist across server restarts,
//! and SLO accounting is consistent.

use std::time::Duration;

use proptest::prelude::*;

use torchsparse::autotune::TunerOptions;
use torchsparse::cache::{tune_cached, warm_boot, BootOrigin, DriftPolicy, ScheduleCache};
use torchsparse::core::{
    percentile_sorted, Engine, GroupConfigs, NetworkBuilder, Session, SparseTensor,
};
use torchsparse::dataflow::{DataflowConfig, ExecCtx};
use torchsparse::gpusim::Device;
use torchsparse::kernelmap::{unique_coords, Coord};
use torchsparse::obs::{bucket_index, bucket_upper_us, LatencyHistogram};
use torchsparse::serve::{sort_by_coord, ServeConfig, Server};
use torchsparse::tensor::{rng_from_seed, uniform_matrix, Precision};
use torchsparse::workloads::Workload;

/// A small U-Net: downsample, transposed upsample and a skip concat,
/// so batching is exercised across stride levels and group kinds.
fn unet_engine() -> Engine {
    let mut b = NetworkBuilder::new("serve-unet", 4);
    let c1 = b.conv_block("enc", NetworkBuilder::INPUT, 8, 3, 1);
    let d = b.conv_block("down", c1, 12, 2, 2);
    let u = b.conv_block_transposed("up", d, 8, 2, 2);
    let cat = b.concat("skip", u, c1);
    let _ = b.conv("head", cat, 4, 1, 1);
    let net = b.build();
    let weights = net.init_weights(3);
    Engine::new(
        net,
        weights,
        GroupConfigs::uniform(DataflowConfig::implicit_gemm(1)),
        ExecCtx::functional(Device::rtx3090(), Precision::Fp16),
    )
}

fn frame_strategy() -> impl Strategy<Value = SparseTensor> {
    (
        prop::collection::vec(
            (-10..10i32, -10..10i32, -3..3i32).prop_map(|(x, y, z)| (x, y, z)),
            5..60,
        ),
        0..4i32,
        1u64..1_000_000,
    )
        .prop_map(|(pts, batch, seed)| {
            let coords: Vec<Coord> = pts
                .into_iter()
                .map(|(x, y, z)| Coord::new(batch, x, y, z))
                .collect();
            let coords = unique_coords(&coords);
            let n = coords.len();
            SparseTensor::new(
                coords,
                uniform_matrix(&mut rng_from_seed(seed), n, 4, -1.0, 1.0),
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The acceptance property: whatever batches the server forms,
    /// splitting them back yields outputs bit-identical to running each
    /// frame alone through `Engine::infer`.
    #[test]
    fn batched_serving_is_bit_identical_to_serial(
        frames in prop::collection::vec(frame_strategy(), 1..7),
        max_batch in 1usize..5,
        workers in 1usize..4,
    ) {
        let engine = unet_engine();
        let server = Server::new(
            engine.clone(),
            ServeConfig::default()
                .with_workers(workers)
                .with_max_batch(max_batch)
                .with_max_wait(Duration::from_millis(3)),
        );
        let handles: Vec<_> = frames
            .iter()
            .enumerate()
            .map(|(i, f)| server.submit(i as u64, f.clone()).expect("admitted"))
            .collect();
        for (f, h) in frames.iter().zip(handles) {
            let served = h.wait().expect("served").output;
            let (serial, _) = engine.infer(f);
            let serial = sort_by_coord(&serial);
            prop_assert_eq!(served.coords(), serial.coords());
            // Bit-identical features, not approximate equality.
            let a = served.feats().as_slice();
            let b = serial.feats().as_slice();
            prop_assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        let report = server.shutdown();
        prop_assert_eq!(report.completed, frames.len() as u64);
    }
}

/// Tune once into a directory store, reopen it as a restarted server
/// would and boot from it: the restored engine serves the same outputs
/// and simulates bit-identical latency.
#[test]
fn server_boots_from_persisted_schedule() {
    let w = Workload::NuScenesMinkUNet1f;
    let net = w.network();
    let tuning_scene = w.scene_scaled(1, 0.05);
    let sessions = [Session::new(&net, tuning_scene.coords())];
    let sim_ctx = ExecCtx::simulate(Device::rtx3090(), Precision::Fp16);
    let policy = DriftPolicy::default();
    let dir = std::env::temp_dir().join(format!("ts_serving_store_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = ScheduleCache::open(&dir).expect("create store");
    let opts = TunerOptions::default();
    let result = tune_cached(&mut store, &sessions, &sim_ctx, &opts, &policy)
        .expect("store write")
        .result;
    let configs = result
        .group_configs()
        .expect("tuner yields configs")
        .clone();

    let ctx = ExecCtx::functional(Device::rtx3090(), Precision::Fp16);
    let weights = net.init_weights(5);
    let tuned = Engine::new(net.clone(), weights.clone(), configs, ctx.clone());

    // Reopen the store and boot from it, as a server restart would.
    let mut store = ScheduleCache::open(&dir).expect("reopen store");
    let (restored, boot) = warm_boot(
        &mut store,
        net,
        weights,
        ctx,
        tuning_scene.coords(),
        &policy,
    );
    assert_eq!(boot.origin, BootOrigin::Cached);
    let _ = std::fs::remove_dir_all(&dir);

    let scene = w.scene_scaled(9, 0.04);
    assert_eq!(
        tuned.simulate(&scene).total_us().to_bits(),
        restored.simulate(&scene).total_us().to_bits(),
        "restored schedule must time bit-identically"
    );

    let server = Server::new(restored, ServeConfig::default());
    let resp = server
        .submit(0, scene.clone())
        .expect("admitted")
        .wait()
        .expect("served");
    let (serial, report) = tuned.infer(&scene);
    assert_eq!(resp.output, sort_by_coord(&serial));
    assert_eq!(resp.sim_us.to_bits(), report.total_us().to_bits());
    server.shutdown();
}

/// SLO accounting: per-stream percentiles are ordered and the report
/// survives its JSON round trip.
#[test]
fn slo_report_is_consistent_and_serializable() {
    let engine = unet_engine();
    let server = Server::new(
        engine,
        ServeConfig::default()
            .with_workers(2)
            .with_max_batch(4)
            .with_max_wait(Duration::from_millis(1)),
    );
    let mut handles = Vec::new();
    for i in 0..12u64 {
        let mut frame = None;
        // Reuse the proptest generator deterministically.
        let coords: Vec<Coord> = (0..20)
            .map(|k| Coord::new(0, k % 5, k / 5 + (i % 3) as i32, k % 2))
            .collect();
        let coords = unique_coords(&coords);
        let n = coords.len();
        frame.replace(SparseTensor::new(
            coords,
            uniform_matrix(&mut rng_from_seed(i), n, 4, -1.0, 1.0),
        ));
        handles.push(
            server
                .submit(i % 3, frame.take().expect("built"))
                .expect("admitted"),
        );
    }
    for h in handles {
        h.wait().expect("served");
    }
    let report = server.shutdown();
    assert_eq!(report.completed, 12);
    assert_eq!(report.streams.len(), 3);
    for s in &report.streams {
        let q = |q| s.latency.quantile_us(q);
        assert!(q(0.50) <= q(0.90));
        assert!(q(0.90) <= q(0.99));
        assert!(s.latency.min_us <= q(0.50));
        assert!(q(0.99) <= s.latency.max_us);
    }
    assert_eq!(report.overall.count, 12);
    assert!(report.throughput_fps > 0.0);
    let json = report.to_json().expect("serializes");
    let back = torchsparse::serve::ServeReport::from_json(&json).expect("parses");
    assert_eq!(back, report);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Pins the report histogram's merge contract: folding `a` and `b`
    /// separately and merging equals folding `a ++ b` — count, extrema,
    /// buckets and every percentile exactly, mean and variance to
    /// floating-point accuracy (only the order of f64 additions
    /// differs). Every percentile lies in `[min, max]` and within one
    /// bucket of `percentile_sorted` on the raw samples: not below it,
    /// and not above the same percentile of the samples' bucket upper
    /// edges.
    #[test]
    fn latency_merge_equals_stats_over_concatenated_samples(
        a in prop::collection::vec(1.0f64..10_000.0, 1..48),
        b in prop::collection::vec(1.0f64..10_000.0, 1..48),
    ) {
        let fold = |xs: &[f64]| {
            let mut h = LatencyHistogram::default();
            for &x in xs {
                h.record(x);
            }
            h
        };
        let mut merged = fold(&a);
        merged.merge(&fold(&b));
        let concat: Vec<f64> = a.iter().chain(&b).copied().collect();
        let pooled = fold(&concat);

        prop_assert_eq!(merged.count, pooled.count);
        prop_assert_eq!(merged.min_us, pooled.min_us, "min is exact");
        prop_assert_eq!(merged.max_us, pooled.max_us, "max is exact");
        prop_assert_eq!(&merged.buckets, &pooled.buckets);
        let mean_tol = 1e-9 * (1.0 + pooled.mean_us().abs());
        prop_assert!(
            (merged.mean_us() - pooled.mean_us()).abs() <= mean_tol,
            "pooled mean {} vs concatenated {}", merged.mean_us(), pooled.mean_us()
        );
        // Both variances come from the same sums of squares, so any
        // difference is rounding, bounded by a few ulps of the squared
        // data range.
        let var_tol = 1e-9 * (1.0 + pooled.max_us * pooled.max_us);
        prop_assert!(
            (merged.std_us().powi(2) - pooled.std_us().powi(2)).abs() <= var_tol,
            "pooled variance {} vs concatenated {}",
            merged.std_us().powi(2), pooled.std_us().powi(2)
        );
        // Merge is symmetric in its inputs.
        let mut rev = fold(&b);
        rev.merge(&fold(&a));
        prop_assert_eq!(rev.count, merged.count);
        prop_assert_eq!(&rev.buckets, &merged.buckets);

        let mut sorted = concat;
        sorted.sort_by(|x, y| x.partial_cmp(y).expect("finite samples"));
        let uppers: Vec<f64> = sorted
            .iter()
            .map(|&x| bucket_upper_us(bucket_index(x.ceil() as u64)) as f64)
            .collect();
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            let got = merged.quantile_us(q);
            prop_assert_eq!(got, pooled.quantile_us(q), "q{} merges exactly", q);
            prop_assert!(merged.min_us <= got && got <= merged.max_us, "q{} = {}", q, got);
            // Slack for the rounding of the interpolation arithmetic.
            let slack = 1e-12 * got;
            let exact = percentile_sorted(&sorted, q).expect("non-empty");
            let edge = percentile_sorted(&uppers, q).expect("non-empty");
            prop_assert!(
                exact <= got + slack && got <= edge + slack,
                "q{}: {} outside [{}, {}]", q, got, exact, edge
            );
        }
    }
}

/// `ServeReport::merge` on two real serving runs: counters sum and the
/// overall latency pool carries exactly the union of the samples.
#[test]
fn reports_from_two_servers_merge_consistently() {
    let run = |streams: u64, frames: u64, seed: u64| {
        let server = Server::new(
            unet_engine(),
            ServeConfig::default()
                .with_workers(2)
                .with_max_wait(Duration::from_millis(1)),
        );
        let handles: Vec<_> = (0..frames)
            .map(|i| {
                let coords: Vec<Coord> = (0..18)
                    .map(|k| Coord::new(0, k % 5, k / 5 + (i % 2) as i32, k % 2))
                    .collect();
                let coords = unique_coords(&coords);
                let n = coords.len();
                let f = SparseTensor::new(
                    coords,
                    uniform_matrix(&mut rng_from_seed(seed + i), n, 4, -1.0, 1.0),
                );
                server.submit(i % streams, f).expect("admitted")
            })
            .collect();
        for h in handles {
            h.wait().expect("served");
        }
        server.shutdown()
    };
    let a = run(2, 5, 100);
    let b = run(3, 7, 200);
    let merged = a.merge(&b);
    assert_eq!(merged.completed, 12);
    assert_eq!(merged.overall.count, 12);
    // Stream 0 exists in both runs; its pooled run count is the sum.
    let s0 = merged.streams.iter().find(|s| s.stream == 0).expect("s0");
    let a0 = a.streams.iter().find(|s| s.stream == 0).expect("a0");
    let b0 = b.streams.iter().find(|s| s.stream == 0).expect("b0");
    assert_eq!(s0.latency.count, a0.latency.count + b0.latency.count);
    assert!(merged.throughput_fps > 0.0);
    assert!(!merged.saw_faults(), "clean runs report no faults");
}
