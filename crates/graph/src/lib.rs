//! Relational graph convolution (R-GCN) on the TorchSparse++ engine,
//! plus execution models of DGL, PyG and Graphiler (Figure 16).
//!
//! The paper observes that relational graph convolution has the same
//! computation pattern as sparse convolution: relations play the role of
//! kernel offsets, and the per-relation edge lists are exactly
//! weight-stationary kernel maps. TorchSparse++ therefore runs R-GCN
//! through its fused sparse-conv kernels, avoiding the per-relation
//! kernel launches and edge-message materialisation that dominate graph
//! frameworks — yielding the paper's 2.6–7.6x speedups and 3.4–5.6x
//! memory savings.
//!
//! # Examples
//!
//! ```
//! use ts_graph::{graph_to_map, RgcnModel};
//! use ts_workloads::graphs::HeteroGraph;
//!
//! let g = HeteroGraph::generate("tiny", 100, 4, 500, 1);
//! let map = graph_to_map(&g, true);
//! assert_eq!(map.kernel_volume(), 5); // 4 relations + self-loop
//! let model = RgcnModel::new(&g, 16, 16, 4, 7);
//! assert_eq!(model.layer_count(), 2);
//! ```

#![forbid(unsafe_code)]

mod rgcn;
mod systems;

pub use rgcn::{graph_to_map, RgcnModel};
pub use systems::{GraphRunReport, GraphSystem, ALL_GRAPH_SYSTEMS};
