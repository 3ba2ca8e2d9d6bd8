//! Element-wise layer kernels: bias, ReLU, batch normalisation.

use serde::{Deserialize, Serialize};

use crate::Matrix;

/// Adds a per-channel bias vector to every row of `m`.
///
/// # Panics
///
/// Panics if `bias.len() != m.cols()`.
pub fn add_bias(m: &mut Matrix, bias: &[f32]) {
    assert_eq!(bias.len(), m.cols(), "bias length must equal channel count");
    for i in 0..m.rows() {
        for (v, b) in m.row_mut(i).iter_mut().zip(bias) {
            *v += b;
        }
    }
}

/// Applies ReLU in place. A select, not a branch: it compiles to a
/// vector max, and it keeps NaN and `-0.0` as they are (which
/// `f32::max` would not).
pub fn relu(m: &mut Matrix) {
    for v in m.as_mut_slice() {
        *v = if *v < 0.0 { 0.0 } else { *v };
    }
}

/// Backward of ReLU: zeroes gradient entries where the forward input was
/// non-positive.
///
/// # Panics
///
/// Panics if shapes differ.
pub fn relu_backward(grad: &mut Matrix, forward_input: &Matrix) {
    assert_eq!(
        grad.shape(),
        forward_input.shape(),
        "relu_backward shape mismatch"
    );
    for (g, &x) in grad.as_mut_slice().iter_mut().zip(forward_input.as_slice()) {
        *g = if x <= 0.0 { 0.0 } else { *g };
    }
}

/// Learned batch-norm parameters (inference form: fold running statistics
/// into scale/shift).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchNormParams {
    /// Per-channel multiplicative factor `gamma / sqrt(var + eps)`.
    pub scale: Vec<f32>,
    /// Per-channel additive factor `beta - mean * scale`.
    pub shift: Vec<f32>,
}

impl BatchNormParams {
    /// Identity normalisation over `channels` channels.
    pub fn identity(channels: usize) -> Self {
        Self {
            scale: vec![1.0; channels],
            shift: vec![0.0; channels],
        }
    }

    /// Number of channels this layer normalises.
    pub fn channels(&self) -> usize {
        self.scale.len()
    }
}

/// Applies folded batch normalisation `y = x * scale + shift` in place.
///
/// # Panics
///
/// Panics if the parameter channel count does not match `m.cols()`.
pub fn batch_norm(m: &mut Matrix, params: &BatchNormParams) {
    assert_eq!(params.channels(), m.cols(), "batch-norm channel mismatch");
    for i in 0..m.rows() {
        for (j, v) in m.row_mut(i).iter_mut().enumerate() {
            *v = *v * params.scale[j] + params.shift[j];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bias_adds_per_channel() {
        let mut m = Matrix::zeros(2, 3);
        add_bias(&mut m, &[1.0, 2.0, 3.0]);
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(m.row(1), &[1.0, 2.0, 3.0]);
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Inputs whose ReLU is easy to get wrong bit-wise: NaN, both
    /// zeros, both infinities and both subnormal signs.
    const SUB: f32 = f32::MIN_POSITIVE / 2.0;
    const EDGES: [f32; 7] = [
        f32::NAN,
        -0.0,
        0.0,
        f32::INFINITY,
        -f32::INFINITY,
        SUB,
        -SUB,
    ];

    #[test]
    fn relu_clamps_negatives() {
        let mut m = Matrix::from_rows(&[&[-1.0, 2.0], &[0.0, -0.5]]);
        relu(&mut m);
        assert_eq!(m, Matrix::from_rows(&[&[0.0, 2.0], &[0.0, 0.0]]));
        // Only values below zero change: NaN and -0.0 pass through.
        let mut m = Matrix::from_rows(&[&EDGES]);
        relu(&mut m);
        let expected = [f32::NAN, -0.0, 0.0, f32::INFINITY, 0.0, SUB, 0.0];
        assert_eq!(bits(&m), bits(&Matrix::from_rows(&[&expected])));
    }

    #[test]
    fn relu_backward_masks_gradient() {
        let x = Matrix::from_rows(&[&[-1.0, 2.0], &[0.0, 3.0]]);
        let mut g = Matrix::filled(2, 2, 1.0);
        relu_backward(&mut g, &x);
        assert_eq!(g, Matrix::from_rows(&[&[0.0, 1.0], &[0.0, 1.0]]));
        // A (here NaN) gradient survives where the input is above zero
        // or NaN, and is zeroed everywhere else.
        let mut g = Matrix::filled(1, EDGES.len(), f32::NAN);
        relu_backward(&mut g, &Matrix::from_rows(&[&EDGES]));
        let n = f32::NAN;
        let expected = [n, 0.0, 0.0, n, 0.0, n, 0.0];
        assert_eq!(bits(&g), bits(&Matrix::from_rows(&[&expected])));
    }

    #[test]
    fn batch_norm_scales_and_shifts() {
        let mut m = Matrix::from_rows(&[&[1.0, 2.0]]);
        let params = BatchNormParams {
            scale: vec![2.0, 0.5],
            shift: vec![1.0, -1.0],
        };
        batch_norm(&mut m, &params);
        assert_eq!(m, Matrix::from_rows(&[&[3.0, 0.0]]));
    }

    #[test]
    fn identity_batch_norm_is_noop() {
        let mut m = Matrix::from_rows(&[&[1.5, -2.5]]);
        let before = m.clone();
        batch_norm(&mut m, &BatchNormParams::identity(2));
        assert_eq!(m, before);
    }
}
