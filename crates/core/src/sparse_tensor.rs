//! The sparse tensor: quantized coordinates plus per-point features.

use ts_kernelmap::Coord;
use ts_tensor::Matrix;

/// A point-cloud sparse tensor: an unordered set of (coordinate,
/// feature) pairs at a given tensor stride.
///
/// # Examples
///
/// ```
/// use ts_core::SparseTensor;
/// use ts_kernelmap::Coord;
/// use ts_tensor::Matrix;
///
/// let t = SparseTensor::new(vec![Coord::new(0, 1, 2, 3)], Matrix::zeros(1, 16));
/// assert_eq!(t.num_points(), 1);
/// assert_eq!(t.channels(), 16);
/// assert_eq!(t.stride(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SparseTensor {
    coords: Vec<Coord>,
    feats: Matrix,
    stride: i32,
}

impl SparseTensor {
    /// Creates a sparse tensor at stride 1.
    ///
    /// # Panics
    ///
    /// Panics if `feats.rows() != coords.len()`.
    pub fn new(coords: Vec<Coord>, feats: Matrix) -> Self {
        Self::with_stride(coords, feats, 1)
    }

    /// Creates a sparse tensor at an explicit stride.
    ///
    /// # Panics
    ///
    /// Panics if `feats.rows() != coords.len()` or `stride <= 0`.
    pub fn with_stride(coords: Vec<Coord>, feats: Matrix, stride: i32) -> Self {
        assert_eq!(coords.len(), feats.rows(), "one feature row per coordinate");
        assert!(stride > 0, "stride must be positive");
        Self {
            coords,
            feats,
            stride,
        }
    }

    /// The coordinates.
    pub fn coords(&self) -> &[Coord] {
        &self.coords
    }

    /// The feature matrix (`num_points x channels`).
    pub fn feats(&self) -> &Matrix {
        &self.feats
    }

    /// Mutable features.
    pub fn feats_mut(&mut self) -> &mut Matrix {
        &mut self.feats
    }

    /// Number of points.
    pub fn num_points(&self) -> usize {
        self.coords.len()
    }

    /// Feature channels per point.
    pub fn channels(&self) -> usize {
        self.feats.cols()
    }

    /// Tensor stride (1 at input resolution, doubling per downsample).
    pub fn stride(&self) -> i32 {
        self.stride
    }

    /// Number of distinct batch indices.
    pub fn batch_size(&self) -> usize {
        let set: std::collections::HashSet<i32> = self.coords.iter().map(|c| c.batch).collect();
        set.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let coords = vec![Coord::new(0, 0, 0, 0), Coord::new(1, 1, 1, 1)];
        let t = SparseTensor::new(coords.clone(), Matrix::zeros(2, 3));
        assert_eq!(t.num_points(), 2);
        assert_eq!(t.channels(), 3);
        assert_eq!(t.batch_size(), 2);
        assert_eq!(t.coords(), &coords[..]);
    }

    #[test]
    #[should_panic(expected = "one feature row per coordinate")]
    fn rejects_mismatched_features() {
        let _ = SparseTensor::new(vec![Coord::new(0, 0, 0, 0)], Matrix::zeros(2, 3));
    }

    #[test]
    fn stride_round_trip() {
        let t = SparseTensor::with_stride(vec![Coord::new(0, 0, 0, 0)], Matrix::zeros(1, 1), 4);
        assert_eq!(t.stride(), 4);
        assert_eq!(t.coords().len(), 1);
        assert_eq!(t.feats().rows(), 1);
    }
}
