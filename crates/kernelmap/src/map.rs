//! The kernel map: input/output pairs per kernel offset, with the
//! per-output bitmasks of the output-stationary view.

use serde::{Deserialize, Serialize};

/// Kernel map of one sparse convolution layer.
///
/// The paper (Section 4.2) contrasts two GPU layouts of the same map:
///
/// * **weight-stationary** — per offset δ, the pair list
///   `M_δ = {(p_j, q_k) | p_j = s*q_k + δ}` used by gather-GEMM-scatter
///   and fetch-on-demand;
/// * **output-stationary** — the `N_out x K³` neighbor matrix
///   (`-1` = no neighbor) plus a per-output bitmask, used by implicit
///   GEMM.
///
/// On the host every dataflow runs from the pair lists, and the split
/// plan's MAC census reads the bitmasks, so a map holds those two. The
/// neighbor matrix lives only while a map is built: builders fill it
/// and hand it to [`KernelMap::from_neighbors`]. The *cost* of
/// materialising each layout on the simulated GPU is charged separately
/// by the layer runner, which is what makes intra-group heterogeneous
/// dataflows expensive exactly as the paper describes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelMap {
    n_in: usize,
    n_out: usize,
    kvol: usize,
    pairs: Vec<Vec<(u32, u32)>>,
    bitmasks: Vec<u32>,
    multi_edges: bool,
    dense_repr: bool,
}

impl KernelMap {
    /// Builds a map from per-offset `(input, output)` pair lists.
    ///
    /// # Panics
    ///
    /// Panics if a pair references an index out of range, or if
    /// `kvol > 32` (bitmasks are 32-bit; the paper's largest kernel is
    /// 3³ = 27 — relational graph maps with more relations should use
    /// [`KernelMap::from_relational_pairs`]).
    pub fn from_pairs(n_in: usize, n_out: usize, pairs: Vec<Vec<(u32, u32)>>) -> Self {
        let kvol = pairs.len();
        assert_bitmask_capacity(kvol);
        let mut bitmasks = vec![0u32; n_out];
        let mut multi_edges = false;
        for (k, list) in pairs.iter().enumerate() {
            for &(i, o) in list {
                assert!((i as usize) < n_in, "input index {i} out of range {n_in}");
                assert!(
                    (o as usize) < n_out,
                    "output index {o} out of range {n_out}"
                );
                // A slot whose bit is already set received an input before.
                let mask = &mut bitmasks[o as usize];
                multi_edges |= *mask & (1 << k) != 0;
                *mask |= 1 << k;
            }
        }
        Self {
            n_in,
            n_out,
            kvol,
            pairs,
            bitmasks,
            multi_edges,
            dense_repr: true,
        }
    }

    /// Builds a map from its output-stationary neighbor matrix: row-major
    /// `N_out x kvol` (so `N_out = neighbors.len() / kvol`), entry `-1`
    /// for "no neighbor". The bitmasks and the per-offset pair lists are
    /// derived from it, each list in ascending output order — the order
    /// every builder emits — so a builder that fills the matrix never
    /// collects pair lists of its own. The map does not keep the matrix.
    ///
    /// ```
    /// use ts_kernelmap::KernelMap;
    ///
    /// // Two outputs over two offsets; output 1 has no neighbor at offset 0.
    /// let m = KernelMap::from_neighbors(3, 2, &[0, 2, -1, 1]);
    /// assert_eq!(m.all_pairs(), &[vec![(0, 0)], vec![(2, 0), (1, 1)]]);
    /// assert_eq!(m, KernelMap::from_pairs(3, 2, m.all_pairs().to_vec()));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `kvol` is 0 or above 32, if the matrix length is not a
    /// multiple of `kvol`, or if an entry is below `-1` or not below
    /// `n_in`.
    pub fn from_neighbors(n_in: usize, kvol: usize, neighbors: &[i32]) -> Self {
        assert!(kvol > 0, "kernel volume must be positive");
        assert_bitmask_capacity(kvol);
        assert_eq!(
            neighbors.len() % kvol,
            0,
            "neighbor matrix length is not a multiple of the kernel volume {kvol}"
        );
        let n_out = neighbors.len() / kvol;
        let mut bitmasks = Vec::with_capacity(n_out);
        let mut counts = vec![0usize; kvol];
        let (mut lo, mut hi) = (-1i32, -1i32);
        for row in neighbors.chunks_exact(kvol) {
            let mut mask = 0u32;
            for (k, (&i, count)) in row.iter().zip(counts.iter_mut()).enumerate() {
                let hit = i >= 0;
                mask |= (hit as u32) << k;
                *count += hit as usize;
                lo = lo.min(i);
                hi = hi.max(i);
            }
            bitmasks.push(mask);
        }
        assert!(lo >= -1, "neighbor entry {lo} is neither -1 nor an input");
        assert!(
            hi < 0 || (hi as usize) < n_in,
            "input index {hi} out of range {n_in}"
        );
        let mut pairs: Vec<Vec<(u32, u32)>> = counts.into_iter().map(Vec::with_capacity).collect();
        for (o, (row, &mask)) in neighbors.chunks_exact(kvol).zip(&bitmasks).enumerate() {
            let mut m = mask;
            while m != 0 {
                let k = m.trailing_zeros() as usize;
                m &= m - 1;
                pairs[k].push((row[k] as u32, o as u32));
            }
        }
        Self {
            n_in,
            n_out,
            kvol,
            pairs,
            bitmasks,
            multi_edges: false,
            dense_repr: true,
        }
    }

    /// Builds a weight-stationary-only map from relational edge lists
    /// (one list per relation). No output-stationary representation is
    /// materialised — relational maps have unbounded relations and
    /// multi-edges, so only the gather-scatter and fetch-on-demand
    /// dataflows apply (exactly how the paper runs R-GCN).
    pub fn from_relational_pairs(n_in: usize, n_out: usize, pairs: Vec<Vec<(u32, u32)>>) -> Self {
        let kvol = pairs.len();
        for list in &pairs {
            for &(i, o) in list {
                assert!((i as usize) < n_in, "input index {i} out of range {n_in}");
                assert!(
                    (o as usize) < n_out,
                    "output index {o} out of range {n_out}"
                );
            }
        }
        Self {
            n_in,
            n_out,
            kvol,
            pairs,
            bitmasks: Vec::new(),
            multi_edges: true,
            dense_repr: false,
        }
    }

    /// True when the map has the output-stationary view (per-output
    /// bitmasks); implicit GEMM requires it.
    pub fn has_dense_repr(&self) -> bool {
        self.dense_repr
    }

    /// Number of input points.
    pub fn n_in(&self) -> usize {
        self.n_in
    }

    /// Number of output points.
    pub fn n_out(&self) -> usize {
        self.n_out
    }

    /// Kernel volume `K³` (number of offsets).
    pub fn kernel_volume(&self) -> usize {
        self.kvol
    }

    /// Weight-stationary pair list for offset `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k >= kernel_volume()`.
    pub fn pairs(&self, k: usize) -> &[(u32, u32)] {
        &self.pairs[k]
    }

    /// All weight-stationary pair lists.
    pub fn all_pairs(&self) -> &[Vec<(u32, u32)>] {
        &self.pairs
    }

    /// Per-output neighbor-presence bitmasks (bit `k` set iff offset `k`
    /// has a neighbor).
    pub fn bitmasks(&self) -> &[u32] {
        &self.bitmasks
    }

    /// True when some (output, offset) slot received more than one input
    /// (possible for relational graph maps, never for convolutions).
    /// Implicit GEMM requires this to be `false`.
    pub fn has_multi_edges(&self) -> bool {
        self.multi_edges
    }

    /// Total number of (input, output) pairs across all offsets.
    pub fn total_pairs(&self) -> u64 {
        self.pairs.iter().map(|p| p.len() as u64).sum()
    }

    /// Number of pairs for each offset.
    pub fn pairs_per_offset(&self) -> Vec<usize> {
        self.pairs.iter().map(Vec::len).collect()
    }

    /// Mean number of neighbors per output point (the paper quotes
    /// 4–10 for real LiDAR workloads).
    pub fn avg_neighbors(&self) -> f64 {
        if self.n_out == 0 {
            return 0.0;
        }
        self.total_pairs() as f64 / self.n_out as f64
    }

    /// Effective MACs of a convolution through this map with the given
    /// channel counts (no warp waste).
    pub fn effective_macs(&self, c_in: usize, c_out: usize) -> u64 {
        self.total_pairs() * c_in as u64 * c_out as u64
    }

    /// Histogram of neighbor counts: entry `i` is the number of output
    /// points with exactly `i` neighbors (length `kernel_volume() + 1`).
    ///
    /// Useful for validating synthetic workloads against the paper's
    /// "4-10 neighbors per point" characterisation.
    pub fn neighbor_histogram(&self) -> Vec<u64> {
        let mut counts = vec![0u32; self.n_out];
        for list in &self.pairs {
            for &(_, o) in list {
                counts[o as usize] += 1;
            }
        }
        let mut hist = vec![0u64; self.kvol + 1];
        for c in counts {
            let idx = (c as usize).min(self.kvol);
            hist[idx] += 1;
        }
        hist
    }

    /// Approximate DRAM footprint of this map's structures on the GPU in
    /// bytes: weight-stationary pair lists (8 B/pair) plus, for maps
    /// with the output-stationary view, the `N_out x K³` neighbor matrix
    /// and the bitmasks (4 B per entry each).
    pub fn memory_bytes(&self) -> u64 {
        let pairs = self.total_pairs() * 8;
        let dense = if self.dense_repr {
            (self.n_out * self.kvol * 4 + self.bitmasks.len() * 4) as u64
        } else {
            0
        };
        pairs + dense
    }

    /// The transposed map: every pair `(p, q)` becomes `(q, p)` under the
    /// same offset index.
    ///
    /// This is the map used by the dgrad (input-gradient) kernel, which
    /// convolves output gradients with transposed weights; it is also the
    /// map of an inverse/transposed convolution layer, which is why
    /// decoder layers in U-Nets can *reuse* encoder maps (the grouping
    /// property the Sparse Autotuner exploits).
    pub fn transposed(&self) -> KernelMap {
        let pairs: Vec<Vec<(u32, u32)>> = self
            .pairs
            .iter()
            .map(|list| list.iter().map(|&(i, o)| (o, i)).collect())
            .collect();
        if self.dense_repr {
            KernelMap::from_pairs(self.n_out, self.n_in, pairs)
        } else {
            KernelMap::from_relational_pairs(self.n_out, self.n_in, pairs)
        }
    }
}

/// Bitmasks are 32-bit: the paper's largest kernel is 3³ = 27.
fn assert_bitmask_capacity(kvol: usize) {
    assert!(
        kvol <= 32,
        "kernel volume {kvol} exceeds 32-bit bitmask capacity"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_map() -> KernelMap {
        // 3 inputs, 2 outputs, 3 offsets.
        KernelMap::from_pairs(3, 2, vec![vec![(0, 0), (1, 1)], vec![(2, 0)], vec![]])
    }

    #[test]
    fn pair_and_bitmask_views_agree() {
        let m = sample_map();
        assert_eq!(m.total_pairs(), 3);
        assert_eq!(m.bitmasks(), &[0b011, 0b001]);
    }

    #[test]
    fn from_neighbors_builds_the_pair_built_map() {
        // Rows of `sample_map`: output 0 reads 0, 2 and nothing; output 1
        // reads 1 at offset 0 only.
        let m = KernelMap::from_neighbors(3, 3, &[0, 2, -1, 1, -1, -1]);
        assert_eq!(m, sample_map());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_neighbors_rejects_out_of_range_inputs() {
        let _ = KernelMap::from_neighbors(2, 1, &[0, 2]);
    }

    #[test]
    fn transpose_round_trip_preserves_pairs() {
        let m = sample_map();
        let t = m.transposed();
        assert_eq!(t.n_in(), 2);
        assert_eq!(t.n_out(), 3);
        assert_eq!(t.total_pairs(), m.total_pairs());
        let back = t.transposed();
        assert_eq!(back.all_pairs(), m.all_pairs());
    }

    #[test]
    fn avg_neighbors_counts_all_offsets() {
        let m = sample_map();
        assert!((m.avg_neighbors() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn effective_macs_scale_with_channels() {
        let m = sample_map();
        assert_eq!(m.effective_macs(4, 8), 3 * 4 * 8);
    }

    #[test]
    fn multi_edges_detected() {
        let m = KernelMap::from_pairs(2, 1, vec![vec![(0, 0), (1, 0)]]);
        assert!(m.has_multi_edges());
        let m2 = sample_map();
        assert!(!m2.has_multi_edges());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_indices() {
        let _ = KernelMap::from_pairs(1, 1, vec![vec![(5, 0)]]);
    }

    #[test]
    fn neighbor_histogram_sums_to_outputs() {
        let m = sample_map();
        let h = m.neighbor_histogram();
        assert_eq!(h.iter().sum::<u64>(), m.n_out() as u64);
        // Output 0 has 2 neighbors, output 1 has 1.
        assert_eq!(h[1], 1);
        assert_eq!(h[2], 1);
    }

    #[test]
    fn memory_bytes_counts_both_representations() {
        let m = sample_map();
        let expected =
            m.total_pairs() * 8 + (m.n_out() * m.kernel_volume()) as u64 * 4 + m.n_out() as u64 * 4;
        assert_eq!(m.memory_bytes(), expected);
        let rel = KernelMap::from_relational_pairs(2, 2, vec![vec![(0, 0), (1, 1)]]);
        assert_eq!(rel.memory_bytes(), 16);
    }

    #[test]
    fn empty_map_has_zero_stats() {
        let m = KernelMap::from_pairs(0, 0, vec![vec![], vec![]]);
        assert_eq!(m.total_pairs(), 0);
        assert_eq!(m.avg_neighbors(), 0.0);
    }
}
