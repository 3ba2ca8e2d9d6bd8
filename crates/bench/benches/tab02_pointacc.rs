//! Table 2: TorchSparse++ on RTX 3090 vs the scaled PointAcc-L ASIC.
//!
//! The paper scales PointAcc's systolic array from 64x64 to 128x128 to
//! roughly match the 3090's MAC count, normalises the measured GPU
//! latency by the clock (1.7x) and MAC (1.3x) differences, and finds the
//! GPU reaches 56 % of ASIC speed.

use serde_json::json;
use ts_autotune::{tune_inference, TunerOptions};
use ts_baselines::pointacc::{
    gpu_vs_asic_fraction, normalize_gpu_latency_ms, PointAccSpec, Rtx3090Tensor,
};
use ts_bench::{paper_check, print_table, session_for, write_json};
use ts_dataflow::ExecCtx;
use ts_gpusim::{Device, Precision};
use ts_workloads::Workload;

fn main() {
    let asic = PointAccSpec::large();
    let session = session_for(Workload::SemanticKittiMinkUNet10, 3);
    let ctx = ExecCtx::simulate(Device::rtx3090(), Precision::Fp16);
    let gpu_ms = tune_inference(
        std::slice::from_ref(&session),
        &ctx,
        &TunerOptions::default(),
    )
    .tuned_latency_us
        / 1e3;
    let gpu_projected = normalize_gpu_latency_ms(gpu_ms, &asic);

    // ASIC latency model: the network's exact effective MACs at high
    // systolic utilization (PointAcc's bitonic-sorter mapping units
    // overlap with compute, so mapping adds no latency).
    let net = Workload::SemanticKittiMinkUNet10.network();
    let eff_macs: u64 = net
        .nodes()
        .iter()
        .enumerate()
        .filter_map(|(i, n)| match n.op {
            ts_core::Op::Conv(c) => {
                let map = session.conv_maps(i)?.0;
                Some(map.total_pairs() * (c.c_in * c.c_out) as u64)
            }
            _ => None,
        })
        .sum();
    // PointAcc's own evaluation shows ~50-70% systolic utilization on
    // MinkUNet layers (channel counts do not always fill the array).
    let asic_util = 0.5;
    // TMACS = 1e12 MACs/s = 1e6 MACs/us.
    let asic_ms = eff_macs as f64 / (asic.peak_tmacs() * 1e6 * asic_util) / 1e3;

    let fraction = gpu_vs_asic_fraction(gpu_projected, asic_ms);

    print_table(
        "Table 2: TorchSparse++ (RTX 3090) vs scaled PointAcc",
        &["metric", "RTX 3090", "PointAcc", "PointAcc-L"],
        &[
            vec![
                "cores".into(),
                Rtx3090Tensor::CORES.to_string(),
                "64^2".into(),
                "128^2".into(),
            ],
            vec![
                "MACs".into(),
                Rtx3090Tensor::macs().to_string(),
                PointAccSpec::base().macs().to_string(),
                asic.macs().to_string(),
            ],
            vec![
                "peak (TMACS)".into(),
                format!("{:.1}", Rtx3090Tensor::peak_tmacs()),
                format!("{:.1}", PointAccSpec::base().peak_tmacs()),
                format!("{:.1}", asic.peak_tmacs()),
            ],
            vec![
                "latency (ms)".into(),
                format!("{gpu_ms:.1} (proj. {gpu_projected:.1})"),
                "-".into(),
                format!("{asic_ms:.1}"),
            ],
        ],
    );
    paper_check(
        "GPU fraction of ASIC speed",
        "56% (31.6 ms projected vs 17.8 ms; Table 2)",
        &format!(
            "{:.0}% ({gpu_projected:.1} ms vs {asic_ms:.1} ms)",
            fraction * 100.0
        ),
    );
    assert!(
        (0.1..1.0).contains(&fraction),
        "general-purpose GPU should trail but stay same-order vs ASIC: {fraction:.2}"
    );

    write_json(
        "tab02_pointacc",
        &json!({
            "gpu_ms": gpu_ms, "gpu_projected_ms": gpu_projected,
            "asic_ms": asic_ms, "fraction_of_asic": fraction,
        }),
    );
}
