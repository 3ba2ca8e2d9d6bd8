//! Convolution weights: one `C_in x C_out` matrix per kernel offset.

use serde::{Deserialize, Serialize};

use rand_chacha::ChaCha8Rng;
use ts_tensor::{xavier_matrix, Matrix};

/// Weights of a sparse convolution layer: `W_δ ∈ R^{C_in x C_out}` for
/// each offset δ.
///
/// # Examples
///
/// ```
/// use ts_dataflow::ConvWeights;
/// use ts_tensor::rng_from_seed;
///
/// let w = ConvWeights::random(&mut rng_from_seed(0), 27, 16, 32);
/// assert_eq!(w.kernel_volume(), 27);
/// assert_eq!(w.offset(0).shape(), (16, 32));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConvWeights {
    per_offset: Vec<Matrix>,
    c_in: usize,
    c_out: usize,
}

impl ConvWeights {
    /// Creates weights from per-offset matrices.
    ///
    /// # Panics
    ///
    /// Panics if matrices have inconsistent shapes or the list is empty.
    pub fn new(per_offset: Vec<Matrix>) -> Self {
        let first = per_offset
            .first()
            .expect("weights need at least one offset");
        let (c_in, c_out) = first.shape();
        assert!(
            per_offset.iter().all(|m| m.shape() == (c_in, c_out)),
            "all offset weights must share one shape"
        );
        Self {
            per_offset,
            c_in,
            c_out,
        }
    }

    /// Xavier-initialised random weights for `kvol` offsets.
    pub fn random(rng: &mut ChaCha8Rng, kvol: usize, c_in: usize, c_out: usize) -> Self {
        // Fan-in counts every offset, like dense 3D convolution.
        let bound_fan = c_in * kvol;
        let per_offset = (0..kvol)
            .map(|_| {
                let mut m = xavier_matrix(rng, c_in, c_out);
                m.scale((c_in as f32 / bound_fan as f32).sqrt());
                m
            })
            .collect();
        Self::new(per_offset)
    }

    /// Zero-initialised weights (for gradient accumulators).
    pub fn zeros(kvol: usize, c_in: usize, c_out: usize) -> Self {
        Self::new((0..kvol).map(|_| Matrix::zeros(c_in, c_out)).collect())
    }

    /// Number of kernel offsets.
    pub fn kernel_volume(&self) -> usize {
        self.per_offset.len()
    }

    /// Input channels.
    pub fn c_in(&self) -> usize {
        self.c_in
    }

    /// Output channels.
    pub fn c_out(&self) -> usize {
        self.c_out
    }

    /// The weight matrix of offset `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k >= kernel_volume()`.
    pub fn offset(&self, k: usize) -> &Matrix {
        &self.per_offset[k]
    }

    /// Mutable weight matrix of offset `k`.
    pub fn offset_mut(&mut self, k: usize) -> &mut Matrix {
        &mut self.per_offset[k]
    }

    /// Per-offset transposed weights (`C_out x C_in`), used by dgrad.
    pub fn transposed(&self) -> ConvWeights {
        Self::new(self.per_offset.iter().map(Matrix::transposed).collect())
    }

    /// Total parameter count.
    pub fn param_count(&self) -> usize {
        self.per_offset.len() * self.c_in * self.c_out
    }

    /// Adds `other` scaled by `alpha` (SGD-style update step).
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &ConvWeights) {
        assert_eq!(self.kernel_volume(), other.kernel_volume());
        for (w, g) in self.per_offset.iter_mut().zip(other.per_offset.iter()) {
            assert_eq!(w.shape(), g.shape(), "axpy shape mismatch");
            for (a, &b) in w.as_mut_slice().iter_mut().zip(g.as_slice()) {
                *a += alpha * b;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_tensor::rng_from_seed;

    #[test]
    fn random_weights_have_requested_shape() {
        let w = ConvWeights::random(&mut rng_from_seed(3), 8, 4, 6);
        assert_eq!(w.kernel_volume(), 8);
        assert_eq!(w.c_in(), 4);
        assert_eq!(w.c_out(), 6);
        assert_eq!(w.param_count(), 8 * 4 * 6);
    }

    #[test]
    fn transpose_swaps_channels() {
        let w = ConvWeights::random(&mut rng_from_seed(4), 2, 3, 5);
        let t = w.transposed();
        assert_eq!(t.c_in(), 5);
        assert_eq!(t.c_out(), 3);
        assert_eq!(t.offset(1)[(0, 2)], w.offset(1)[(2, 0)]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut w = ConvWeights::zeros(1, 2, 2);
        let g = ConvWeights::new(vec![Matrix::filled(2, 2, 1.0)]);
        w.axpy(-0.5, &g);
        assert_eq!(w.offset(0), &Matrix::filled(2, 2, -0.5));
    }

    #[test]
    #[should_panic(expected = "share one shape")]
    fn rejects_inconsistent_shapes() {
        let _ = ConvWeights::new(vec![Matrix::zeros(2, 2), Matrix::zeros(2, 3)]);
    }
}
