//! Export artifacts for external tools: the network as Graphviz DOT and
//! the simulated kernel timeline as Chrome-tracing JSON (open in
//! `chrome://tracing` or Perfetto), written by `ts-trace`. Built with
//! tracing compiled out (`--no-default-features`), the timeline is empty.
//!
//! ```sh
//! cargo run --release --example visualize
//! dot -Tsvg /tmp/torchsparse_net.dot -o net.svg        # if graphviz is installed
//! ```

use torchsparse::core::{GroupConfigs, Session};
use torchsparse::dataflow::{DataflowConfig, ExecCtx};
use torchsparse::gpusim::Device;
use torchsparse::tensor::Precision;
use torchsparse::trace::Tracer;
use torchsparse::workloads::Workload;

fn main() {
    let workload = Workload::NuScenesCenterPoint10f;
    let net = workload.network();
    let scene = workload.scene_scaled(3, 0.2);

    // 1. Network topology as DOT.
    let dot_path = std::env::temp_dir().join("torchsparse_net.dot");
    std::fs::write(&dot_path, net.to_dot()).expect("write dot");
    println!(
        "wrote {} ({} layers, {} parameters)",
        dot_path.display(),
        net.conv_count(),
        net.param_count()
    );

    // 2. Simulated kernel timeline as a Chrome trace: the installed
    // tracer receives each priced kernel on its `gpu#tid` lane.
    let device = Device::rtx3090();
    println!("device: {device}");
    let session = Session::new(&net, scene.coords());
    let ctx = ExecCtx::simulate(device, Precision::Fp16);
    let tracer = Tracer::new();
    tracer.install();
    let report = session.simulate_inference(
        &GroupConfigs::uniform(DataflowConfig::implicit_gemm(0)),
        &ctx,
    );
    torchsparse::trace::uninstall();
    let trace_path = std::env::temp_dir().join("torchsparse_trace.json");
    tracer.write_chrome_trace(&trace_path).expect("write trace");
    println!(
        "wrote {} ({} kernel launches, {:.2} ms simulated)",
        trace_path.display(),
        report.trace().launch_count(),
        report.total_ms()
    );
    println!("\nper-class breakdown:\n{}", report.trace().summary());
}
