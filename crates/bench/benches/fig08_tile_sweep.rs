//! Figure 8: generated sparse kernels vs cuBLAS on equivalent GEMMs.
//!
//! The paper's idealized experiment: for MinkUNet-on-SemanticKITTI
//! layers, exhaustively sweep *tile sizes only* and compare the achieved
//! utilization against cuBLAS running the equivalent-sized dense GEMM on
//! an RTX 3090 (FP16). The paper finds >= 100 % of cuBLAS utilization on
//! average, with the largest layer's dense GEMM itself running at ~90 %
//! of device peak.

use serde_json::json;
use ts_baselines::cublas::cublas_utilization;
use ts_bench::{geomean, paper_check, print_table, session_for, write_json};
use ts_core::Op;
use ts_gpusim::{best_tile_for, Device, Precision};
use ts_workloads::Workload;

fn main() {
    let device = Device::rtx3090();
    let precision = Precision::Fp16;
    let w = Workload::SemanticKittiMinkUNet10;
    let net = w.network();
    let session = session_for(w, 1);

    // Pick 7 representative conv layers spread through the network.
    let convs: Vec<(usize, ts_core::ConvSpec)> = net
        .nodes()
        .iter()
        .enumerate()
        .filter_map(|(i, n)| match n.op {
            Op::Conv(c) if c.kernel_size == 3 => Some((i, c)),
            _ => None,
        })
        .collect();
    let step = (convs.len() / 7).max(1);
    let picks: Vec<_> = convs.iter().step_by(step).take(7).collect();

    let mut rows = Vec::new();
    let mut ratios = Vec::new();
    let mut records = Vec::new();
    for (node, spec) in picks {
        let map = session.conv_maps(*node).expect("conv map").0;
        let m = map.n_out() as u64;
        let n = spec.c_out as u64;
        let k = (spec.kernel_volume() * spec.c_in) as u64;

        let (tile, ours) = best_tile_for(m, n, k, &device, precision);
        let cublas = cublas_utilization(m, n, k, &device, precision);
        let ratio = ours / cublas.max(1e-9);
        ratios.push(ratio);
        records.push(json!({
            "layer": net.nodes()[*node].name,
            "m": m, "n": n, "k": k,
            "best_tile": tile.to_string(),
            "ours_util": ours,
            "cublas_util": cublas,
            "ratio": ratio,
        }));
        rows.push(vec![
            net.nodes()[*node].name.clone(),
            format!("{m}x{n}x{k}"),
            tile.to_string(),
            format!("{:.1}%", ours * 100.0),
            format!("{:.1}%", cublas * 100.0),
            format!("{:.2}x", ratio),
        ]);
    }

    print_table(
        "Figure 8: tile-size-only tuning vs cuBLAS (RTX 3090, FP16)",
        &[
            "layer",
            "GEMM shape",
            "best tile",
            "ours",
            "cuBLAS",
            "ratio",
        ],
        &rows,
    );
    let gm = geomean(&ratios);
    println!("\ngeomean utilization ratio (ours / cuBLAS): {gm:.2}x");
    paper_check(
        "avg cuBLAS-relative utilization",
        ">= 100% on average (Fig. 8)",
        &format!("{:.0}%", gm * 100.0),
    );
    assert!(
        gm >= 0.95,
        "generated kernels should be cuBLAS-competitive, got {gm:.2}"
    );

    write_json(
        "fig08_tile_sweep",
        &json!({ "layers": records, "geomean_ratio": gm }),
    );
}
