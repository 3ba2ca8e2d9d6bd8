//! Execution models of the graph deep-learning systems of Figure 16.
//!
//! The latency gap the paper measures comes from three structural
//! sources, all modelled here from the same graphs and cost model:
//!
//! 1. **kernel-launch count** — DGL and PyG loop over relations in
//!    Python, launching gather/GEMM/scatter per relation with framework
//!    dispatch overhead on every operator;
//! 2. **edge-message materialisation** — message-passing frameworks
//!    write per-edge message tensors to DRAM (and hold them for
//!    autograd), which TorchSparse++'s fused kernels never create;
//! 3. **compiled but unfused** — Graphiler removes the Python overhead
//!    but still materialises messages and cannot fuse across the
//!    gather/GEMM/scatter boundary.

use serde::{Deserialize, Serialize};

use ts_dataflow::{forward_trace, prepare, prepare_trace, DataflowConfig, ExecCtx};
use ts_gpusim::{Device, KernelDesc, Precision};
use ts_workloads::graphs::HeteroGraph;

use crate::RgcnModel;

/// Per-operator host/framework dispatch overhead in microseconds.
const DGL_FRAMEWORK_US: f64 = 10.0;
const PYG_FRAMEWORK_US: f64 = 15.0;
const GRAPHILER_FRAMEWORK_US: f64 = 4.0;

/// A graph deep-learning system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GraphSystem {
    /// Deep Graph Library: per-relation Python loop.
    Dgl,
    /// PyTorch Geometric: edge-wise message materialisation.
    Pyg,
    /// Graphiler: compiled message-passing data flow graph.
    Graphiler,
    /// TorchSparse++ running R-GCN through fused sparse-conv kernels.
    TorchSparsePP,
}

/// All systems in the paper's comparison order.
pub const ALL_GRAPH_SYSTEMS: [GraphSystem; 4] = [
    GraphSystem::Dgl,
    GraphSystem::Pyg,
    GraphSystem::Graphiler,
    GraphSystem::TorchSparsePP,
];

/// Result of simulating one R-GCN inference.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GraphRunReport {
    /// End-to-end latency in microseconds.
    pub latency_us: f64,
    /// Peak DRAM footprint in bytes (features + materialised buffers +
    /// graph structure).
    pub peak_bytes: u64,
}

impl GraphSystem {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            GraphSystem::Dgl => "DGL",
            GraphSystem::Pyg => "PyG",
            GraphSystem::Graphiler => "Graphiler",
            GraphSystem::TorchSparsePP => "TorchSparse++",
        }
    }

    /// Simulates one inference of `model` on `device`.
    pub fn run(self, graph: &HeteroGraph, model: &RgcnModel, device: Device) -> GraphRunReport {
        let ctx = ExecCtx::simulate(device, Precision::Fp16);
        let map = model.map();
        let e = map.total_pairs();
        let n = graph.n_nodes as u64;
        let elem = 2u64; // fp16 bytes

        // Feature storage common to everyone: input + both layer outputs
        // + weights.
        let dims = model.layer_dims();
        let feat_bytes: u64 = dims
            .iter()
            .map(|&(ci, co)| n * (ci + co) as u64 * elem)
            .sum::<u64>();
        let weight_bytes: u64 = dims
            .iter()
            .map(|&(ci, co)| (map.kernel_volume() * ci * co) as u64 * elem)
            .sum();
        // Graph structure in COO form.
        let structure_bytes = e * 8;

        match self {
            GraphSystem::TorchSparsePP => {
                // Tuned between the two fused dataflows; mapping cost
                // (edge sort by relation) charged once.
                let mut best = f64::INFINITY;
                for cfg in [
                    DataflowConfig::fetch_on_demand(true),
                    DataflowConfig::gather_scatter(true),
                ] {
                    let prep = prepare(map, &cfg, &ctx);
                    let mut t = prepare_trace(map, &prep, &cfg, &ctx).total_us();
                    for &(ci, co) in &dims {
                        t += forward_trace(ci, co, map, &prep, &cfg, &ctx).total_us();
                    }
                    best = best.min(t);
                }
                GraphRunReport {
                    latency_us: best,
                    peak_bytes: feat_bytes + weight_bytes + structure_bytes,
                }
            }
            GraphSystem::Dgl | GraphSystem::Pyg | GraphSystem::Graphiler => {
                let (framework_us, fused_memops, message_copies) = match self {
                    GraphSystem::Dgl => (DGL_FRAMEWORK_US, false, 2),
                    GraphSystem::Pyg => (PYG_FRAMEWORK_US, true, 2),
                    GraphSystem::Graphiler => (GRAPHILER_FRAMEWORK_US, true, 1),
                    GraphSystem::TorchSparsePP => unreachable!(),
                };
                let cfg = DataflowConfig::gather_scatter(fused_memops);
                let prep = prepare(map, &cfg, &ctx);
                let mut trace = prepare_trace(map, &prep, &cfg, &ctx);
                for &(ci, co) in &dims {
                    trace.merge(forward_trace(ci, co, map, &prep, &cfg, &ctx));
                    // Message-passing frameworks materialise per-edge
                    // message tensors (an extra DRAM round-trip per
                    // copy beyond the gather buffers already counted).
                    for copy in 0..message_copies - 1 {
                        let msg = KernelDesc::memory(
                            format!("edge-messages[{copy}]"),
                            e * co as u64 * elem,
                            e * co as u64 * elem,
                        );
                        ctx.record(&mut trace, msg);
                    }
                }
                let latency_us = trace.total_us() + framework_us * trace.launch_count() as f64;

                // Peak memory: gather buffers + materialised messages,
                // held simultaneously for autograd.
                let max_c = dims.iter().map(|&(ci, co)| ci.max(co)).max().unwrap_or(0) as u64;
                let buffers = e * max_c * elem * (1 + message_copies as u64);
                GraphRunReport {
                    latency_us,
                    peak_bytes: feat_bytes + weight_bytes + structure_bytes + buffers,
                }
            }
        }
    }

    /// Convenience: latency-only.
    pub fn latency_us(self, graph: &HeteroGraph, model: &RgcnModel, device: Device) -> f64 {
        self.run(graph, model, device).latency_us
    }
}

impl std::fmt::Display for GraphSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (HeteroGraph, RgcnModel) {
        let g = HeteroGraph::mutag(3);
        let m = RgcnModel::new(&g, 64, 64, 8, 5);
        (g, m)
    }

    #[test]
    fn tspp_beats_all_frameworks() {
        let (g, m) = setup();
        let d = Device::rtx3090();
        let ours = GraphSystem::TorchSparsePP.latency_us(&g, &m, d.clone());
        for sys in [GraphSystem::Dgl, GraphSystem::Pyg, GraphSystem::Graphiler] {
            let theirs = sys.latency_us(&g, &m, d.clone());
            let speedup = theirs / ours;
            assert!(
                speedup > 1.5,
                "{}: speedup only {speedup:.2} ({theirs:.0} vs {ours:.0} us)",
                sys.name()
            );
        }
    }

    #[test]
    fn dgl_is_the_slowest_on_many_relations() {
        // DGL's per-relation Python loop scales worst with relation
        // count (the paper's 7.6x worst case).
        let (g, m) = setup();
        let d = Device::rtx3090();
        let dgl = GraphSystem::Dgl.latency_us(&g, &m, d.clone());
        let pyg = GraphSystem::Pyg.latency_us(&g, &m, d.clone());
        let graphiler = GraphSystem::Graphiler.latency_us(&g, &m, d);
        assert!(dgl > pyg);
        assert!(dgl > graphiler);
    }

    #[test]
    fn memory_savings_in_paper_band() {
        let (g, m) = setup();
        let d = Device::rtx3090();
        let ours = GraphSystem::TorchSparsePP.run(&g, &m, d.clone()).peak_bytes as f64;
        for sys in [GraphSystem::Dgl, GraphSystem::Pyg, GraphSystem::Graphiler] {
            let theirs = sys.run(&g, &m, d.clone()).peak_bytes as f64;
            let ratio = theirs / ours;
            assert!(
                (1.5..12.0).contains(&ratio),
                "{}: memory ratio {ratio:.2}",
                sys.name()
            );
        }
    }

    #[test]
    fn speedups_hold_across_the_suite() {
        let d = Device::rtx3090();
        for g in HeteroGraph::paper_suite(1) {
            let m = RgcnModel::new(&g, 32, 32, 8, 9);
            let ours = GraphSystem::TorchSparsePP.latency_us(&g, &m, d.clone());
            let dgl = GraphSystem::Dgl.latency_us(&g, &m, d.clone());
            assert!(dgl / ours > 1.5, "{}: only {:.2}x", g.name, dgl / ours);
        }
    }
}
