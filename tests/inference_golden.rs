//! Integration: served outputs are pinned to the bit.
//!
//! One line per case holds an FNV-1a digest of an `Engine::try_infer`
//! output (coordinates, stride, width and every feature's bits):
//! serve's network (MinkUNet 0.5×, FP16) on one frame and on a merged
//! 4-frame batch, and a small UNet with a residual add, a concat skip
//! and a transposed conv under every dataflow family, plus one run that
//! rounds stored activations to FP16. Schedules are fixed, so a tuner
//! change cannot move the digests. The lines are compared with the
//! checked-in `tests/golden/inference.json`; regenerate it with
//! `TS_UPDATE_GOLDEN=1 cargo test -q --test inference_golden` only when
//! a change is meant to move served outputs.

use std::path::PathBuf;

use torchsparse::core::{Engine, GroupConfigs, Network, NetworkBuilder, SparseTensor};
use torchsparse::dataflow::{DataflowConfig, ExecCtx};
use torchsparse::gpusim::Device;
use torchsparse::serve::merge_frames;
use torchsparse::tensor::Precision;
use torchsparse::workloads::Workload;

/// Serve's network. Its frames are a quarter of the served sensor scale
/// (0.02), which keeps the test to seconds in a debug build.
const SERVE: Workload = Workload::SemanticKittiMinkUNet05;
const SERVE_SCALE: f32 = 0.005;

/// One configuration of every dataflow family.
fn families() -> [DataflowConfig; 7] {
    [
        DataflowConfig::gather_scatter(false),
        DataflowConfig::gather_scatter(true),
        DataflowConfig::fetch_on_demand(false),
        DataflowConfig::fetch_on_demand(true),
        DataflowConfig::implicit_gemm(0),
        DataflowConfig::implicit_gemm(1),
        DataflowConfig::implicit_gemm(3),
    ]
}

/// FNV-1a over an output's coordinates, stride, width and feature bits.
fn digest(t: &SparseTensor) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |bytes: [u8; 4]| {
        for b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    mix(t.stride().to_le_bytes());
    mix((t.channels() as u32).to_le_bytes());
    for c in t.coords() {
        for v in [c.batch, c.x, c.y, c.z] {
            mix(v.to_le_bytes());
        }
    }
    for v in t.feats().as_slice() {
        mix(v.to_bits().to_le_bytes());
    }
    format!("{} points {h:016x}", t.num_points())
}

fn infer(engine: &Engine, input: &SparseTensor) -> String {
    let (out, _) = engine.try_infer(input).expect("frame compiles");
    digest(&out)
}

/// A small UNet: a residual block (add), a strided conv, a transposed
/// conv back up and a concat skip.
fn unet() -> Network {
    let mut b = NetworkBuilder::new("golden-unet", 4);
    let c1 = b.conv_block("enc", NetworkBuilder::INPUT, 8, 3, 1);
    let r = b.residual_block("res", c1, 8, 3);
    let d = b.conv_block("down", r, 12, 2, 2);
    let u = b.conv_block_transposed("up", d, 8, 2, 2);
    let cat = b.concat("skip", u, r);
    let _ = b.conv("head", cat, 5, 1, 1);
    b.build()
}

fn lines() -> Vec<String> {
    let mut lines = Vec::new();

    // Serve's network under a fixed mixed schedule: its 13 groups cycle
    // through the dataflow families.
    let net = SERVE.network();
    let weights = net.init_weights(31);
    let mut schedule = GroupConfigs::uniform(DataflowConfig::implicit_gemm(1));
    for (g, cfg) in families().into_iter().cycle().take(13).enumerate() {
        schedule.set(g, cfg);
    }
    let ctx = ExecCtx::functional(Device::rtx3090(), Precision::Fp16);
    let engine = Engine::new(net, weights, schedule, ctx);
    let mut stream = SERVE.stream_scaled(7, SERVE_SCALE);
    let frames: Vec<SparseTensor> = (0..5).map(|_| stream.next_frame().into_tensor()).collect();
    lines.push(format!("serve frame: {}", infer(&engine, &frames[0])));
    let batch: Vec<&SparseTensor> = frames[1..].iter().collect();
    let (merged, _) = merge_frames(&batch);
    lines.push(format!("serve 4-frame batch: {}", infer(&engine, &merged)));

    // The small UNet under each family, then once with FP16 storage.
    let net = unet();
    let weights = net.init_weights(5);
    let frame = SERVE.stream_scaled(11, 0.008).next_frame().into_tensor();
    let fp32 = ExecCtx::functional(Device::a100(), Precision::Fp32);
    for cfg in families() {
        let engine = Engine::new(
            net.clone(),
            weights.clone(),
            GroupConfigs::uniform(cfg),
            fp32.clone(),
        );
        lines.push(format!("unet {cfg}: {}", infer(&engine, &frame)));
    }
    let fp16_storage =
        ExecCtx::functional(Device::a100(), Precision::Fp16).with_storage_quantization(true);
    let cfg = DataflowConfig::implicit_gemm(2);
    let engine = Engine::new(net, weights, GroupConfigs::uniform(cfg), fp16_storage);
    let digest = infer(&engine, &frame);
    lines.push(format!("unet {cfg}, fp16 storage: {digest}"));
    lines
}

#[test]
fn served_outputs_are_bit_identical_to_golden() {
    let lines = lines();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("inference.json");
    if std::env::var("TS_UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("golden dir");
        let json = serde_json::to_string_pretty(&lines).expect("serializes");
        std::fs::write(&path, json).expect("writes golden");
        return;
    }
    let text = std::fs::read_to_string(&path)
        .expect("golden file missing: regenerate with TS_UPDATE_GOLDEN=1");
    let golden: Vec<String> = serde_json::from_str(&text).expect("golden parses");
    for (i, (g, l)) in golden.iter().zip(&lines).enumerate() {
        assert_eq!(g, l, "inference line {i} drifted from golden");
    }
    assert_eq!(golden.len(), lines.len(), "inference line count drifted");
}
