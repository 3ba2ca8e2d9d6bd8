//! Heterogeneous graph generators for the R-GCN benchmarks (Figure 16).
//!
//! The paper evaluates on five heterogeneous graph datasets (the
//! standard R-GCN suite: AIFB, MUTAG, BGS, AM, plus a large
//! Freebase-style graph). The raw datasets are not redistributable here,
//! so this module generates synthetic heterogeneous graphs matched to
//! each dataset's published node/edge/relation counts, with a skewed
//! relation-size distribution and power-law-ish degrees — the properties
//! that drive R-GCN kernel performance. The largest graphs are scaled
//! down (documented per preset) to keep the CPU-side reproduction fast;
//! speedup *ratios* are preserved because all systems run the same
//! graph.

use rand::Rng;
use serde::{Deserialize, Serialize};

use ts_tensor::rng_from_seed;

/// A heterogeneous graph: typed edges over `n_nodes` nodes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HeteroGraph {
    /// Dataset-style name.
    pub name: String,
    /// Number of nodes.
    pub n_nodes: usize,
    /// Number of relation types.
    pub n_relations: usize,
    /// Edges grouped by relation: `edges[r]` is a list of
    /// `(src, dst)` pairs.
    pub edges: Vec<Vec<(u32, u32)>>,
}

impl HeteroGraph {
    /// Total edge count across relations.
    pub fn n_edges(&self) -> usize {
        self.edges.iter().map(Vec::len).sum()
    }

    /// Generates a graph with a skewed relation-size distribution
    /// (Zipf-like over relations) and preferential-attachment-flavoured
    /// endpoints.
    pub fn generate(
        name: impl Into<String>,
        n_nodes: usize,
        n_relations: usize,
        n_edges: usize,
        seed: u64,
    ) -> HeteroGraph {
        assert!(n_nodes >= 2 && n_relations >= 1);
        let mut rng = rng_from_seed(seed);

        // Zipf weights over relations.
        let weights: Vec<f64> = (1..=n_relations).map(|r| 1.0 / r as f64).collect();
        let total_w: f64 = weights.iter().sum();
        let mut counts: Vec<usize> = weights
            .iter()
            .map(|w| ((w / total_w) * n_edges as f64) as usize)
            .collect();
        let assigned: usize = counts.iter().sum();
        counts[0] += n_edges - assigned;

        // Power-law-ish endpoints: square a uniform draw to bias toward
        // low node ids (hub nodes).
        let draw = |rng: &mut rand_chacha::ChaCha8Rng, n: usize| -> u32 {
            let u: f64 = rng.gen();
            ((u * u * n as f64) as usize).min(n - 1) as u32
        };

        let edges = counts
            .iter()
            .map(|&c| {
                (0..c)
                    .map(|_| (draw(&mut rng, n_nodes), draw(&mut rng, n_nodes)))
                    .collect()
            })
            .collect();
        HeteroGraph {
            name: name.into(),
            n_nodes,
            n_relations,
            edges,
        }
    }

    /// AIFB-like: 8.3k nodes, 29k edges, 45 relations.
    pub fn aifb(seed: u64) -> HeteroGraph {
        Self::generate("AIFB", 8_285, 45, 29_043, seed)
    }

    /// MUTAG-like: 23.6k nodes, 74k edges, 46 relations.
    pub fn mutag(seed: u64) -> HeteroGraph {
        Self::generate("MUTAG", 23_644, 46, 74_227, seed)
    }

    /// BGS-like: 334k nodes, 916k edges, 206 relations — scaled 4x down
    /// (83k nodes, 229k edges) to keep the CPU reproduction fast.
    pub fn bgs(seed: u64) -> HeteroGraph {
        Self::generate("BGS", 83_461, 206, 229_049, seed)
    }

    /// AM-like: 1.88M nodes, 5.7M edges, 266 relations — scaled 16x down
    /// (118k nodes, 356k edges).
    pub fn am(seed: u64) -> HeteroGraph {
        Self::generate("AM", 117_821, 266, 356_212, seed)
    }

    /// A Freebase-style large graph: 64 relations, heavy hubs — scaled
    /// to 200k nodes / 500k edges.
    pub fn freebase(seed: u64) -> HeteroGraph {
        Self::generate("Freebase", 200_000, 64, 500_000, seed)
    }

    /// The five benchmark graphs of Figure 16.
    pub fn paper_suite(seed: u64) -> Vec<HeteroGraph> {
        vec![
            Self::aifb(seed),
            Self::mutag(seed + 1),
            Self::bgs(seed + 2),
            Self::am(seed + 3),
            Self::freebase(seed + 4),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_counts_match_request() {
        let g = HeteroGraph::generate("t", 1000, 10, 5000, 1);
        assert_eq!(g.n_edges(), 5000);
        assert_eq!(g.edges.len(), 10);
    }

    #[test]
    fn relation_sizes_are_skewed() {
        let g = HeteroGraph::generate("t", 1000, 20, 20_000, 2);
        assert!(g.edges[0].len() > g.edges[19].len() * 3);
    }

    #[test]
    fn endpoints_in_range() {
        let g = HeteroGraph::generate("t", 100, 5, 1000, 3);
        for rel in &g.edges {
            for &(s, d) in rel {
                assert!((s as usize) < 100 && (d as usize) < 100);
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(HeteroGraph::aifb(7), HeteroGraph::aifb(7));
    }

    #[test]
    fn degrees_are_hubby() {
        let g = HeteroGraph::generate("t", 10_000, 5, 50_000, 4);
        // Node 0's neighborhood should be far above average degree.
        let hub_degree = g
            .edges
            .iter()
            .flatten()
            .filter(|&&(s, d)| s < 100 || d < 100)
            .count();
        let expected_uniform = (g.n_edges() as f64 * 2.0 * 100.0 / 10_000.0) as usize;
        assert!(
            hub_degree > expected_uniform * 2,
            "{hub_degree} vs {expected_uniform}"
        );
    }

    #[test]
    fn paper_suite_has_five_graphs() {
        let suite = HeteroGraph::paper_suite(1);
        assert_eq!(suite.len(), 5);
        let names: Vec<_> = suite.iter().map(|g| g.name.as_str()).collect();
        assert_eq!(names, vec!["AIFB", "MUTAG", "BGS", "AM", "Freebase"]);
    }
}
