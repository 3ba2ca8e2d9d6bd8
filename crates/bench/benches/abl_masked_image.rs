//! Section 6.3 "future applications": sparse convolution on masked
//! images.
//!
//! Masked autoencoders drop 75 % of patches during pre-training; running
//! the encoder as a sparse convolution ("selective computation on a
//! sparse subset of pixels") should approach a proportional speedup over
//! the dense equivalent. This bench sweeps the keep ratio and reports
//! the sparse-vs-dense speedup on an A100.

use serde_json::json;
use ts_bench::{paper_check, print_table, write_json};
use ts_core::{GroupConfigs, Session};
use ts_dataflow::{DataflowConfig, ExecCtx};
use ts_gpusim::{Device, Precision};
use ts_workloads::{masked_image_batch, masked_image_encoder, MaskedImageConfig};

fn latency_ms(keep_ratio: f32, ctx: &ExecCtx) -> f64 {
    let cfg = MaskedImageConfig {
        grid_h: 96,
        grid_w: 96,
        keep_ratio,
        channels: 16,
    };
    let net = masked_image_encoder(cfg.channels);
    let total_ms: f64 = (0..3)
        .map(|seed| {
            let batch = masked_image_batch(&cfg, seed, 4);
            Session::new(&net, batch.coords())
                .simulate_inference(
                    &GroupConfigs::uniform(DataflowConfig::implicit_gemm(1)),
                    ctx,
                )
                .total_ms()
        })
        .sum();
    total_ms / 3.0
}

fn main() {
    let ctx = ExecCtx::simulate(Device::a100(), Precision::Fp16);
    let dense = latency_ms(1.0, &ctx);

    let mut rows = Vec::new();
    let mut records = Vec::new();
    let mut mae_speedup = 0.0;
    for keep in [1.0f32, 0.75, 0.5, 0.25, 0.1] {
        let ms = latency_ms(keep, &ctx);
        let speedup = dense / ms;
        if (keep - 0.25).abs() < 1e-6 {
            mae_speedup = speedup;
        }
        records.push(json!({ "keep_ratio": keep, "latency_ms": ms, "speedup_vs_dense": speedup }));
        rows.push(vec![
            format!("{:.0}%", keep * 100.0),
            format!("{ms:.2}"),
            format!("{speedup:.2}x"),
        ]);
    }

    print_table(
        "Masked-image encoder (96x96 patches, batch 4, A100 FP16)",
        &["visible patches", "latency (ms)", "speedup vs dense"],
        &rows,
    );
    paper_check(
        "MAE-style sparsity exploitation",
        "selective computation on sparse pixels can significantly enhance efficiency (Sec. 6.3)",
        &format!("{mae_speedup:.2}x at the MAE keep ratio (25%)"),
    );
    // Sub-linear but substantial: mapping overhead and fixed costs keep
    // it well below the ideal 4x — consistent with the 1.5-2.8x speedups
    // published for sparse MAE encoders (SparK, GreenMIM), and itself an
    // instance of the paper's mapping-overhead thesis.
    assert!(
        mae_speedup > 1.4,
        "sparse execution must clearly pay off: {mae_speedup:.2}"
    );
    assert!(
        mae_speedup < 4.5,
        "speedup cannot exceed the compute ratio by much"
    );

    write_json(
        "abl_masked_image",
        &json!({ "sweep": records, "mae_speedup": mae_speedup }),
    );
}
