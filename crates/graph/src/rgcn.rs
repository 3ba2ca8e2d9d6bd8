//! R-GCN layers expressed as relational kernel maps.

use ts_dataflow::{forward, ConvWeights, DataflowConfig, ExecCtx};
use ts_kernelmap::KernelMap;
use ts_tensor::{relu, rng_from_seed, Matrix};
use ts_workloads::graphs::HeteroGraph;

/// Converts a heterogeneous graph to a relational kernel map: relation
/// `r`'s edge list becomes the weight-stationary pair list of "offset"
/// `r`; an optional self-loop relation is appended (standard R-GCN).
pub fn graph_to_map(graph: &HeteroGraph, self_loop: bool) -> KernelMap {
    let mut pairs: Vec<Vec<(u32, u32)>> = graph.edges.clone();
    if self_loop {
        pairs.push((0..graph.n_nodes as u32).map(|i| (i, i)).collect());
    }
    KernelMap::from_relational_pairs(graph.n_nodes, graph.n_nodes, pairs)
}

/// A two-layer R-GCN model (the standard entity-classification
/// configuration benchmarked by DGL/PyG/Graphiler):
/// `in -> hidden (ReLU) -> out`.
#[derive(Debug, Clone)]
pub struct RgcnModel {
    map: KernelMap,
    layers: Vec<ConvWeights>,
}

impl RgcnModel {
    /// Builds the model with Xavier-initialised per-relation weights.
    pub fn new(
        graph: &HeteroGraph,
        in_dim: usize,
        hidden_dim: usize,
        out_dim: usize,
        seed: u64,
    ) -> Self {
        let map = graph_to_map(graph, true);
        let kvol = map.kernel_volume();
        let mut rng = rng_from_seed(seed);
        let layers = vec![
            ConvWeights::random(&mut rng, kvol, in_dim, hidden_dim),
            ConvWeights::random(&mut rng, kvol, hidden_dim, out_dim),
        ];
        Self { map, layers }
    }

    /// Number of layers (always 2 in the benchmark configuration).
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// The relational kernel map.
    pub fn map(&self) -> &KernelMap {
        &self.map
    }

    /// Layer weight dimensions `(c_in, c_out)` per layer.
    pub fn layer_dims(&self) -> Vec<(usize, usize)> {
        self.layers.iter().map(|w| (w.c_in(), w.c_out())).collect()
    }

    /// Runs the model through the given dataflow, returning the output
    /// features (`None` unless `ctx.functional`). Computes and never
    /// prices: [`crate::GraphSystem::run`] prices the model.
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong number of rows or channels.
    pub fn forward(&self, x: &Matrix, cfg: &DataflowConfig, ctx: &ExecCtx) -> Option<Matrix> {
        assert_eq!(x.rows(), self.map.n_in(), "one feature row per node");
        let mut feats = ctx.functional.then(|| x.clone())?;
        for (i, w) in self.layers.iter().enumerate() {
            feats = forward(&feats, w, &self.map, cfg, ctx).features?;
            if i + 1 < self.layers.len() {
                relu(&mut feats);
            }
        }
        Some(feats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_dataflow::{forward_trace, prepare, reference_forward};
    use ts_gpusim::{Device, KernelTrace};
    use ts_tensor::{uniform_matrix, Precision};

    fn tiny() -> (HeteroGraph, Matrix) {
        let g = HeteroGraph::generate("t", 50, 3, 200, 11);
        let x = uniform_matrix(&mut rng_from_seed(1), 50, 8, -1.0, 1.0);
        (g, x)
    }

    #[test]
    fn map_includes_self_loop() {
        let (g, _) = tiny();
        let with = graph_to_map(&g, true);
        let without = graph_to_map(&g, false);
        assert_eq!(with.kernel_volume(), 4);
        assert_eq!(without.kernel_volume(), 3);
        assert_eq!(with.total_pairs(), without.total_pairs() + 50);
        assert!(!with.has_dense_repr());
    }

    #[test]
    fn forward_matches_reference_per_layer() {
        let (g, x) = tiny();
        let model = RgcnModel::new(&g, 8, 6, 4, 3);
        let ctx = ExecCtx::functional(Device::a100(), Precision::Fp32);
        let cfg = DataflowConfig::gather_scatter(true);
        let out = model.forward(&x, &cfg, &ctx);
        // Recompute by hand: layer1 + relu + layer2.
        let mut h = reference_forward(&x, &model.layers[0], model.map());
        relu(&mut h);
        let expected = reference_forward(&h, &model.layers[1], model.map());
        assert!(out.unwrap().approx_eq(&expected, 1e-3));
    }

    #[test]
    fn gather_scatter_and_fod_agree_on_graphs() {
        let (g, x) = tiny();
        let model = RgcnModel::new(&g, 8, 6, 4, 3);
        let ctx = ExecCtx::functional(Device::a100(), Precision::Fp32);
        let a = model.forward(&x, &DataflowConfig::gather_scatter(false), &ctx);
        let b = model.forward(&x, &DataflowConfig::fetch_on_demand(true), &ctx);
        assert!(a.unwrap().approx_eq(&b.unwrap(), 1e-3));
    }

    /// The model prices as its layer dimensions through `forward_trace`
    /// (what `GraphSystem::run` charges), and a simulate-only forward
    /// computes nothing.
    #[test]
    fn trace_has_work_for_both_layers() {
        let (g, x) = tiny();
        let model = RgcnModel::new(&g, 8, 6, 4, 3);
        let ctx = ExecCtx::simulate(Device::a100(), Precision::Fp16);
        let cfg = DataflowConfig::fetch_on_demand(true);
        assert!(model.forward(&x, &cfg, &ctx).is_none());
        let plan = prepare(model.map(), &cfg, &ctx);
        let mut trace = KernelTrace::new();
        for (c_in, c_out) in model.layer_dims() {
            trace.merge(forward_trace(c_in, c_out, model.map(), &plan, &cfg, &ctx));
        }
        assert!(trace.total_us() > 0.0);
        assert!(trace.total_macs() >= model.map().total_pairs() * (8 * 6 + 6 * 4) as u64);
    }
}
