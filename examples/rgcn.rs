//! Relational graph convolution: R-GCN on heterogeneous graphs through
//! the sparse-conv engine, compared against DGL/PyG/Graphiler execution
//! models (Figure 16 of the paper).
//!
//! ```sh
//! cargo run --release --example rgcn
//! ```

use torchsparse::dataflow::{DataflowConfig, ExecCtx};
use torchsparse::gpusim::Device;
use torchsparse::graph::{graph_to_map, GraphSystem, RgcnModel, ALL_GRAPH_SYSTEMS};
use torchsparse::tensor::{rng_from_seed, uniform_matrix, Precision};
use torchsparse::workloads::graphs::HeteroGraph;

fn main() {
    // Relations are kernel offsets: the per-relation edge lists form a
    // weight-stationary kernel map.
    let demo = HeteroGraph::generate("demo", 1000, 6, 6000, 3);
    let map = graph_to_map(&demo, true);
    println!(
        "demo graph: {} nodes, {} edges, {} relations -> kernel map with {} 'offsets'",
        demo.n_nodes,
        demo.n_edges(),
        demo.n_relations,
        map.kernel_volume()
    );

    // Functional forward pass through the fused fetch-on-demand kernels.
    let model = RgcnModel::new(&demo, 16, 16, 4, 9);
    let x = uniform_matrix(&mut rng_from_seed(1), demo.n_nodes, 16, -1.0, 1.0);
    let ctx = ExecCtx::functional(Device::rtx3090(), Precision::Fp32);
    let out = model
        .forward(&x, &DataflowConfig::fetch_on_demand(true), &ctx)
        .expect("functional run");
    println!(
        "R-GCN output: {} nodes x {} classes",
        out.rows(),
        out.cols()
    );

    // The Figure 16 comparison across the five benchmark graphs.
    let device = Device::rtx3090();
    println!(
        "\n{:<10} {:>10} {:>6}  latency (ms) / peak memory (MB)",
        "graph", "edges", "rels"
    );
    for g in HeteroGraph::paper_suite(11) {
        let m = RgcnModel::new(&g, 64, 64, 8, 5);
        print!("{:<10} {:>10} {:>6}  ", g.name, g.n_edges(), g.n_relations);
        for sys in ALL_GRAPH_SYSTEMS {
            let r = sys.run(&g, &m, device.clone());
            print!(
                "{}: {:.2}ms/{:.0}MB  ",
                sys.name(),
                r.latency_us / 1e3,
                r.peak_bytes as f64 / 1e6
            );
        }
        println!();
        let ours = GraphSystem::TorchSparsePP.run(&g, &m, device.clone());
        let dgl = GraphSystem::Dgl.run(&g, &m, device.clone());
        println!(
            "{:<29} -> {:.1}x faster, {:.1}x less memory than DGL",
            "",
            dgl.latency_us / ours.latency_us,
            dgl.peak_bytes as f64 / ours.peak_bytes as f64
        );
    }
}
