//! Quantized point-cloud coordinates.

use serde::{Deserialize, Serialize};

/// A quantized coordinate in batched 3D space: `(batch, x, y, z)`.
///
/// Spatial components are voxel indices after quantization
/// `p = floor(p_raw / voxel_size)` and may be negative. Each component
/// must fit in 16 bits (with a +32768 bias) so coordinates pack into a
/// single `u64` hash key — the same trick GPU libraries use.
///
/// # Examples
///
/// ```
/// use ts_kernelmap::Coord;
///
/// let c = Coord::new(0, -5, 3, 12);
/// assert_eq!(Coord::from_key(c.key()), c);
/// assert_eq!(c.offset((1, 0, -1)), Coord::new(0, -4, 3, 11));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Coord {
    /// Batch index.
    pub batch: i32,
    /// Voxel index along x.
    pub x: i32,
    /// Voxel index along y.
    pub y: i32,
    /// Voxel index along z.
    pub z: i32,
}

const BIAS: i64 = 1 << 15;
const RANGE: i64 = 1 << 16;

impl Coord {
    /// Creates a coordinate.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if any component is outside `[-32768, 32767]`.
    pub fn new(batch: i32, x: i32, y: i32, z: i32) -> Self {
        debug_assert!(
            [batch, x, y, z]
                .iter()
                .all(|&v| (-(BIAS as i32)..BIAS as i32).contains(&v)),
            "coordinate component out of 16-bit range: ({batch},{x},{y},{z})"
        );
        Self { batch, x, y, z }
    }

    /// Packs the coordinate into a unique 64-bit key.
    pub fn key(self) -> u64 {
        let b = (self.batch as i64 + BIAS) as u64;
        let x = (self.x as i64 + BIAS) as u64;
        let y = (self.y as i64 + BIAS) as u64;
        let z = (self.z as i64 + BIAS) as u64;
        (b << 48) | (x << 32) | (y << 16) | z
    }

    /// Inverse of [`Coord::key`].
    pub fn from_key(key: u64) -> Self {
        let unpack = |v: u64| (v as i64 % RANGE - BIAS) as i32;
        Self {
            batch: unpack(key >> 48),
            x: unpack((key >> 32) & 0xffff),
            y: unpack((key >> 16) & 0xffff),
            z: unpack(key & 0xffff),
        }
    }

    /// The key of the neighbour `self.offset(delta)`, or `None` when a
    /// component of that neighbour leaves `[-32768, 32767]`: no
    /// coordinate lives there, and its unchecked key would carry into
    /// the next field and alias another coordinate. Every neighbour
    /// query forms its key here.
    ///
    /// ```
    /// use ts_kernelmap::Coord;
    ///
    /// let edge = Coord::new(0, 32767, 0, 0);
    /// assert_eq!(edge.offset_key((-1, 0, 0)), Some(Coord::new(0, 32766, 0, 0).key()));
    /// assert_eq!(edge.offset_key((1, 0, 0)), None);
    /// ```
    #[inline]
    pub fn offset_key(self, (dx, dy, dz): (i32, i32, i32)) -> Option<u64> {
        // A biased component outside [0, 2^16) wraps to a large u64.
        let field = |v: i32, d: i32| (v as i64 + d as i64 + BIAS) as u64;
        let (x, y, z) = (field(self.x, dx), field(self.y, dy), field(self.z, dz));
        if (x | y | z) >= RANGE as u64 {
            return None;
        }
        let b = (self.batch as i64 + BIAS) as u64;
        Some((b << 48) | (x << 32) | (y << 16) | z)
    }

    /// Translates the spatial components by `(dx, dy, dz)`.
    pub fn offset(self, (dx, dy, dz): (i32, i32, i32)) -> Self {
        Self {
            batch: self.batch,
            x: self.x + dx,
            y: self.y + dy,
            z: self.z + dz,
        }
    }

    /// Scales the spatial components by `stride` (used to map a
    /// downsampled output coordinate back to input resolution).
    pub fn upscale(self, stride: i32) -> Self {
        Self {
            batch: self.batch,
            x: self.x * stride,
            y: self.y * stride,
            z: self.z * stride,
        }
    }

    /// Floor-divides the spatial components by `stride` (coordinate
    /// downsampling; correct for negative coordinates).
    ///
    /// # Panics
    ///
    /// Panics if `stride <= 0`.
    pub fn downsample(self, stride: i32) -> Self {
        assert!(stride > 0, "stride must be positive");
        Self {
            batch: self.batch,
            x: self.x.div_euclid(stride),
            y: self.y.div_euclid(stride),
            z: self.z.div_euclid(stride),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_round_trip() {
        for c in [
            Coord::new(0, 0, 0, 0),
            Coord::new(3, -100, 250, -32768),
            Coord::new(0, 32767, -1, 1),
        ] {
            assert_eq!(Coord::from_key(c.key()), c);
        }
    }

    #[test]
    fn keys_are_unique_for_distinct_coords() {
        let coords = [
            Coord::new(0, 1, 0, 0),
            Coord::new(0, 0, 1, 0),
            Coord::new(0, 0, 0, 1),
            Coord::new(1, 0, 0, 0),
            Coord::new(0, -1, 0, 0),
        ];
        let keys: std::collections::HashSet<_> = coords.iter().map(|c| c.key()).collect();
        assert_eq!(keys.len(), coords.len());
    }

    #[test]
    fn downsample_floors_negatives() {
        let c = Coord::new(0, -1, -2, -3);
        let d = c.downsample(2);
        assert_eq!(d, Coord::new(0, -1, -1, -2));
    }

    #[test]
    fn downsample_then_upscale_is_floor() {
        let c = Coord::new(0, 5, -5, 7);
        let back = c.downsample(2).upscale(2);
        assert_eq!(back, Coord::new(0, 4, -6, 6));
    }

    #[test]
    fn offset_key_is_the_neighbour_key_inside_the_range_and_none_outside() {
        for c in [Coord::new(2, 32767, -32768, 0), Coord::new(0, -5, 3, 12)] {
            for d in [(1, 0, 0), (-1, 0, 0), (0, 1, -1), (0, -1, 1), (2, 2, 2)] {
                let n = c.offset(d);
                let inside = [n.x, n.y, n.z].iter().all(|v| (-32768..=32767).contains(v));
                let want = inside.then(|| n.key());
                assert_eq!(c.offset_key(d), want, "{c:?} + {d:?}");
            }
        }
    }

    #[test]
    fn offset_translates_spatial_only() {
        let c = Coord::new(2, 1, 1, 1).offset((-1, 0, 2));
        assert_eq!(c, Coord::new(2, 0, 1, 3));
    }

    #[test]
    fn ordering_is_total() {
        let mut v = [Coord::new(0, 1, 0, 0), Coord::new(0, 0, 0, 0)];
        v.sort();
        assert_eq!(v[0], Coord::new(0, 0, 0, 0));
    }
}
