//! Integration: functional training convergence and the Sparse Autotuner
//! end-to-end.

use torchsparse::autotune::{tune_inference, tune_training, BindingScheme, TunerOptions};
use torchsparse::core::{NetworkBuilder, Session};
use torchsparse::dataflow::{DataflowConfig, ExecCtx};
use torchsparse::gpusim::Device;
use torchsparse::tensor::Precision;
use torchsparse::train::{Trainer, TrainerConfig};
use torchsparse::workloads::Workload;

#[test]
fn training_a_small_unet_converges() {
    let mut b = NetworkBuilder::new("mini-unet", 4);
    let c1 = b.conv_block("enc", NetworkBuilder::INPUT, 8, 3, 1);
    let d = b.conv_block("down", c1, 12, 2, 2);
    let u = b.conv_block_transposed("up", d, 8, 2, 2);
    let cat = b.concat("skip", u, c1);
    let _ = b.conv("head", cat, 3, 1, 1);
    let net = b.build();

    let scene = Workload::NuScenesMinkUNet1f.scene_scaled(4, 0.02);
    let ctx = ExecCtx::functional(Device::a100(), Precision::Fp32);
    // Plain SGD in FP32 over the whole scene.
    let cfg = TrainerConfig {
        lr: 8e-3,
        momentum: 0.0,
        amp: false,
        micro_batches: 1,
        ..TrainerConfig::default()
    };
    let mut trainer = Trainer::new(&net, 5, &ctx, cfg);

    let losses: Vec<f32> = (0..10)
        .map(|_| trainer.step(&scene).expect("scene compiles").loss)
        .collect();
    assert!(
        losses.last().unwrap() < &(losses[0] * 0.8),
        "loss did not drop: {losses:?}"
    );
    assert!(losses.iter().all(|l| l.is_finite()));
}

#[test]
fn tuner_beats_every_uniform_configuration() {
    let w = Workload::NuScenesMinkUNet1f;
    let net = w.network();
    let scene = w.scene_scaled(8, 0.04);
    let session = Session::new(&net, scene.coords());
    let ctx = ExecCtx::simulate(Device::rtx3090(), Precision::Fp16);

    let tuned = tune_inference(
        std::slice::from_ref(&session),
        &ctx,
        &TunerOptions::default(),
    );
    for cfg in DataflowConfig::full_space(4) {
        let uniform = session
            .simulate_inference(&torchsparse::core::GroupConfigs::uniform(cfg), &ctx)
            .total_us();
        assert!(
            tuned.tuned_latency_us <= uniform + 1e-6,
            "tuned {} lost to uniform {cfg}: {uniform}",
            tuned.tuned_latency_us
        );
    }
}

#[test]
fn training_tuner_improves_over_bound_default_on_both_devices() {
    let w = Workload::NuScenesMinkUNet1f;
    let net = w.network();
    let batch = w.batch_scaled(3, 0.035, 2);
    let session = Session::new(&net, batch.coords());
    for device in [Device::a100(), Device::rtx2080ti()] {
        let ctx = ExecCtx::simulate(device.clone(), Precision::Fp16);
        for scheme in [BindingScheme::ForwardDgrad, BindingScheme::DgradWgrad] {
            let r = tune_training(
                std::slice::from_ref(&session),
                &ctx,
                &TunerOptions::default(),
                scheme,
            );
            assert!(
                r.tuned_latency_us <= r.default_latency_us + 1e-6,
                "{} / {}: tuned {} > default {}",
                device.name,
                scheme.name(),
                r.tuned_latency_us,
                r.default_latency_us
            );
        }
    }
}

#[test]
fn tuned_configs_serialize_to_json() {
    let w = Workload::NuScenesCenterPoint10f;
    let net = w.network();
    let scene = w.scene_scaled(6, 0.03);
    let session = Session::new(&net, scene.coords());
    let ctx = ExecCtx::simulate(Device::jetson_orin(), Precision::Fp16);
    let result = tune_inference(
        std::slice::from_ref(&session),
        &ctx,
        &TunerOptions::default(),
    );

    // The per-group schedule is what deployments persist and reuse for
    // millions of scenes (Section 4.2).
    let json = serde_json::to_string(&result.per_group_choice).expect("serializable");
    let parsed: Vec<(torchsparse::core::GroupKey, DataflowConfig)> =
        serde_json::from_str(&json).expect("deserializable");
    assert_eq!(parsed.len(), result.per_group_choice.len());
    assert_eq!(parsed[0].1, result.per_group_choice[0].1);
}
