//! Degenerate-shape regressions end to end: single-point clouds and
//! 1-wide channels must flow through the engine (compile + run, every
//! dataflow) and the serving path without panics.

use std::time::Duration;

use ts_core::{run_network, Engine, GroupConfigs, NetworkBuilder, SparseTensor};
use ts_dataflow::{DataflowConfig, ExecCtx};
use ts_gpusim::Device;
use ts_kernelmap::Coord;
use ts_serve::{ServeConfig, Server};
use ts_tensor::{rng_from_seed, uniform_matrix, Matrix, Precision};

fn all_configs() -> Vec<DataflowConfig> {
    let mut v = vec![
        DataflowConfig::gather_scatter(false),
        DataflowConfig::fetch_on_demand(false),
    ];
    v.extend(DataflowConfig::full_space(4));
    v
}

/// A narrow network: 1-channel input, a strided conv and a 1-channel
/// head, so both `c_in = 1` and `c_out = 1` convs execute.
fn narrow_network() -> (ts_core::Network, ts_core::NetworkWeights) {
    let mut b = NetworkBuilder::new("narrow", 1);
    let stem = b.conv("stem", NetworkBuilder::INPUT, 3, 3, 1);
    let down = b.conv("down", stem, 2, 2, 2);
    let _ = b.conv("head", down, 1, 1, 1);
    let net = b.build();
    let weights = net.init_weights(77);
    (net, weights)
}

#[test]
fn single_point_runs_through_every_dataflow_in_the_engine() {
    let (net, weights) = narrow_network();
    let input = SparseTensor::new(
        vec![Coord::new(0, 0, 0, 0)],
        uniform_matrix(&mut rng_from_seed(1), 1, 1, -1.0, 1.0),
    );
    let ctx = ExecCtx::functional(Device::rtx3090(), Precision::Fp32);
    for cfg in all_configs() {
        let cfgs = GroupConfigs::uniform(cfg);
        let (out, report) = run_network(&net, &weights, &input, &cfgs, &ctx);
        assert_eq!(out.channels(), 1, "{cfg}");
        assert!(out.num_points() >= 1, "{cfg}");
        assert!(report.total_us() > 0.0, "{cfg}");
    }
}

#[test]
fn single_point_compiles_and_simulates() {
    let (net, weights) = narrow_network();
    let engine = Engine::new(
        net,
        weights,
        GroupConfigs::uniform(DataflowConfig::implicit_gemm(2)),
        ExecCtx::functional(Device::rtx3090(), Precision::Fp16),
    );
    let input = SparseTensor::new(
        vec![Coord::new(0, 3, 3, 3)],
        Matrix::from_rows(&[&[0.5f32]]),
    );
    let session = engine.compile(&input).expect("single point compiles");
    let report = engine.simulate_in(&session);
    assert!(report.total_us() > 0.0);
}

#[test]
fn one_wide_channels_run_through_the_serve_path() {
    let (net, weights) = narrow_network();
    let engine = Engine::new(
        net,
        weights,
        GroupConfigs::uniform(DataflowConfig::implicit_gemm(1)),
        ExecCtx::functional(Device::rtx3090(), Precision::Fp16),
    );
    let server = Server::new(
        engine,
        ServeConfig::default()
            .with_workers(1)
            .with_max_wait(Duration::from_millis(1)),
    );
    // Mix of single-point and few-point frames, all 1-channel.
    let handles: Vec<_> = (0..4)
        .map(|i| {
            let coords: Vec<Coord> = (0..=i).map(|j| Coord::new(0, j, i, 0)).collect();
            let n = coords.len();
            let frame = SparseTensor::new(
                coords,
                uniform_matrix(&mut rng_from_seed(10 + i as u64), n, 1, -1.0, 1.0),
            );
            server.submit(i as u64, frame).expect("admitted")
        })
        .collect();
    for h in handles {
        let out = h.wait().expect("served");
        assert_eq!(out.output.channels(), 1);
    }
    let report = server.shutdown();
    assert_eq!(report.completed, 4);
}

#[test]
fn engine_rejects_empty_and_duplicate_inputs_with_typed_errors() {
    let (net, weights) = narrow_network();
    let engine = Engine::new(
        net,
        weights,
        GroupConfigs::uniform(DataflowConfig::implicit_gemm(1)),
        ExecCtx::functional(Device::rtx3090(), Precision::Fp16),
    );
    // Duplicate coords: typed CompileError, not a panic.
    let dup = SparseTensor::new(
        vec![Coord::new(0, 1, 1, 1), Coord::new(0, 1, 1, 1)],
        uniform_matrix(&mut rng_from_seed(2), 2, 1, -1.0, 1.0),
    );
    assert!(matches!(
        engine.compile(&dup),
        Err(ts_core::CompileError::DuplicateCoords {
            points: 2,
            unique: 1
        })
    ));
}
