//! The one host kernel behind every dataflow's functional path.
//!
//! Every dataflow computes the same indirect product (Insum's point):
//! `out[o] += x[i] · W_k` over the pairs `(i, o)` of each offset `k`.
//! On the GPU they differ in loop order, buffering and write-back; on
//! the host those differences change nothing but speed, so gather-
//! scatter, fetch-on-demand and implicit GEMM all run [`conv`], and
//! dgrad runs it through the transposed map.

use std::ops::Range;

use ts_kernelmap::KernelMap;
use ts_tensor::Matrix;

use crate::ConvWeights;

/// Pairs computed together: each row of `W_k` is loaded once per block
/// and multiplied into this many accumulator rows.
const BLOCK: usize = 4;

/// `out[o] += x[i] · W_k` for every pair `(i, o)` of every offset `k` in
/// `offsets`, into a fresh `map.n_out() x c_out` matrix.
///
/// Per pair, an accumulator row starts at `+0.0`, sums `x[i][r] · W_k[r]`
/// over the input channels `r` in order, and is then added to `out[o]`;
/// offsets run in order, pairs in map order. Every output element
/// therefore sees exactly the operations of [`crate::reference_forward`]
/// restricted to `offsets`, so the result is bit-identical to it. Only
/// the schedule differs: [`BLOCK`] pairs share each contiguous weight-row
/// load, and the column loop vectorizes.
pub(crate) fn conv(x: &Matrix, w: &ConvWeights, map: &KernelMap, offsets: Range<usize>) -> Matrix {
    let c_out = w.c_out();
    let mut out = Matrix::zeros(map.n_out(), c_out);
    if c_out == 0 {
        return out;
    }
    let mut acc: [Vec<f32>; BLOCK] = std::array::from_fn(|_| vec![0.0; c_out]);
    for k in offsets {
        let wk = w.offset(k).as_slice();
        for block in map.pairs(k).chunks(BLOCK) {
            // A short last block repeats its final pair in the spare
            // lanes; only the block's own pairs are scattered.
            let xs: [&[f32]; BLOCK] =
                std::array::from_fn(|j| x.row(block[j.min(block.len() - 1)].0 as usize));
            for a in &mut acc {
                a.fill(0.0);
            }
            let [a0, a1, a2, a3] = &mut acc;
            for (r, w_row) in wk.chunks_exact(c_out).enumerate() {
                let (x0, x1, x2, x3) = (xs[0][r], xs[1][r], xs[2][r], xs[3][r]);
                for ((((&wv, d0), d1), d2), d3) in w_row
                    .iter()
                    .zip(a0.iter_mut())
                    .zip(a1.iter_mut())
                    .zip(a2.iter_mut())
                    .zip(a3.iter_mut())
                {
                    *d0 += x0 * wv;
                    *d1 += x1 * wv;
                    *d2 += x2 * wv;
                    *d3 += x3 * wv;
                }
            }
            // In pair order, so two pairs of one block that share an
            // output (relational multi-edges) add in map order.
            for (a, &(_, o)) in acc.iter().zip(block) {
                for (d, &v) in out.row_mut(o as usize).iter_mut().zip(a) {
                    *d += v;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference_forward;

    /// Zero inputs are multiplied like any other, so a non-finite weight
    /// turns `0 · ∞` into NaN exactly as the oracle does (the gathered
    /// GEMM this kernel replaced skipped zero inputs).
    #[test]
    fn zero_times_infinity_is_nan_like_the_oracle() {
        let map = KernelMap::from_pairs(2, 1, vec![vec![(0, 0), (1, 0)]]);
        let x = Matrix::from_vec(2, 1, vec![0.0, 1.0]);
        let w = ConvWeights::new(vec![Matrix::from_vec(1, 2, vec![f32::INFINITY, 2.0])]);
        let got = conv(&x, &w, &map, 0..1);
        let want = reference_forward(&x, &w, &map);
        assert!(got[(0, 0)].is_nan());
        assert_eq!(got[(0, 1)], 2.0);
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want));
    }
}
