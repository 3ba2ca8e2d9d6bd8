//! Numerical precision descriptors.
//!
//! The simulated GPU prices compute throughput per precision; the
//! functional path always runs in `f32` but can apply storage rounding to
//! model FP16/TF32 quantisation error.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Data precision a kernel executes in.
///
/// Matches the three precisions evaluated in the paper (Figure 14):
/// FP16 (tensor cores), TF32 (Ampere tensor cores) and FP32 (CUDA cores).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Precision {
    /// IEEE half precision, executed on tensor cores where available.
    Fp16,
    /// NVIDIA TensorFloat-32 (19-bit mantissa truncation of FP32).
    Tf32,
    /// IEEE single precision on CUDA cores.
    Fp32,
}

impl Precision {
    /// All precisions in the order the paper reports them.
    pub const ALL: [Precision; 3] = [Precision::Fp16, Precision::Tf32, Precision::Fp32];

    /// Bytes per element when stored in DRAM.
    pub fn bytes(self) -> usize {
        match self {
            Precision::Fp16 => 2,
            Precision::Tf32 | Precision::Fp32 => 4,
        }
    }

    /// Rounds `v` to the representable grid of this precision.
    ///
    /// FP16 performs a round-trip through IEEE binary16 (with overflow to
    /// infinity clamped to the max finite half). TF32 truncates the
    /// mantissa to 10 explicit bits. FP32 is the identity.
    pub fn quantize(self, v: f32) -> f32 {
        match self {
            Precision::Fp32 => v,
            Precision::Tf32 => {
                // Zero out the 13 low mantissa bits (23 -> 10 explicit bits).
                f32::from_bits(v.to_bits() & !0x1fff)
            }
            Precision::Fp16 => f16_round_trip(v),
        }
    }

    /// Applies [`Self::quantize`] to every element of a slice.
    pub fn quantize_slice(self, vs: &mut [f32]) {
        if self == Precision::Fp32 {
            return;
        }
        for v in vs {
            *v = self.quantize(*v);
        }
    }
}

impl fmt::Display for Precision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Precision::Fp16 => write!(f, "FP16"),
            Precision::Tf32 => write!(f, "TF32"),
            Precision::Fp32 => write!(f, "FP32"),
        }
    }
}

/// ULP-aware error budget for comparing two computations of the same
/// reduction at a given storage precision.
///
/// Differential tests quantize inputs (and outputs) to the precision's
/// representable grid and compute in `f32`, like tensor cores
/// accumulating in FP32. The budget then has two terms:
///
/// * a *storage* term — two values that agree to well under one ULP of
///   the storage precision may still land on adjacent grid points when
///   rounded, so the budget always admits a couple of ULPs at the
///   stored magnitude;
/// * an *accumulation* term — reassociating a `depth`-term `f32`
///   reduction (different dataflows sum in different orders) perturbs
///   the result by at most a small multiple of `depth` `f32` ULPs.
///
/// The per-precision unit roundoff comes from the same mantissa widths
/// [`Precision::quantize`] implements, so the budget is derived, not
/// hand-tuned.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ErrorBudget {
    /// Storage precision being modelled.
    pub precision: Precision,
    /// Length of the longest reduction feeding one output element.
    pub depth: usize,
}

impl ErrorBudget {
    /// Safety factor on the accumulation term: reassociation error is
    /// bounded by `depth * u_f32` relative per summand, and uniform
    /// random data realises only a fraction of the bound; 8 leaves
    /// generous headroom without masking real defects (a sign flip is
    /// ~2x relative error, four orders of magnitude above the budget).
    const ACCUM_SAFETY: f32 = 8.0;

    /// Budget for a reduction of `depth` terms stored at `precision`.
    pub fn new(precision: Precision, depth: usize) -> Self {
        Self {
            precision,
            depth: depth.max(1),
        }
    }

    /// Unit roundoff of one stored element: the worst-case relative
    /// error [`Precision::quantize`] introduces for a normal value.
    /// FP16 rounds to nearest (half an ULP of a 10-bit mantissa), TF32
    /// truncates (a full ULP of a 10-bit mantissa), FP32 is exact in
    /// storage so only the `f32` compute roundoff remains.
    pub fn unit_roundoff(precision: Precision) -> f32 {
        match precision {
            Precision::Fp16 => 4.8828125e-4, // 2^-11
            Precision::Tf32 => 9.765625e-4,  // 2^-10
            Precision::Fp32 => 5.9604645e-8, // 2^-24
        }
    }

    /// Relative tolerance usable with `Matrix::approx_eq`-style
    /// comparisons (`|a - b| <= tol * max(|a|, |b|, 1)`).
    pub fn rel_tol(&self) -> f32 {
        let storage = 2.0 * Self::unit_roundoff(self.precision);
        let accum = Self::ACCUM_SAFETY * Self::unit_roundoff(Precision::Fp32) * self.depth as f32;
        storage + accum
    }

    /// Whether `a` and `b` agree within this budget.
    pub fn allows(&self, a: f32, b: f32) -> bool {
        let scale = a.abs().max(b.abs()).max(1.0);
        (a - b).abs() <= self.rel_tol() * scale
    }

    /// The budget-normalised error of `(a, b)`: values above 1.0 are
    /// out of budget. Useful for reporting *how far* out a mismatch is.
    pub fn normalized_error(&self, a: f32, b: f32) -> f32 {
        let scale = a.abs().max(b.abs()).max(1.0);
        (a - b).abs() / (self.rel_tol() * scale)
    }
}

/// Round-trips an `f32` through IEEE binary16 with round-to-nearest-even.
fn f16_round_trip(v: f32) -> f32 {
    let bits = v.to_bits();
    let sign = bits >> 31;
    let exp = ((bits >> 23) & 0xff) as i32;
    let frac = bits & 0x7f_ffff;

    if exp == 0xff {
        // Inf / NaN pass through.
        return v;
    }
    let clamp = if sign == 1 { -65504.0 } else { 65504.0 };
    let unbiased = exp - 127;
    if unbiased > 15 {
        // Overflow: clamp to max finite half (65504).
        return clamp;
    }
    if unbiased < -14 {
        // Below the smallest normal half, the grid is the multiples of
        // 2^-24. `|v| * 2^24` is exact and at most 1024; adding and
        // subtracting 2^23 rounds it to an integer, ties to even,
        // without a libm call (`round_ties_even` is one on baseline
        // x86-64, and exact zeros take this path). The sign goes back
        // on last, so a result that rounds to zero keeps it.
        let q = (v.abs() * 2f32.powi(24) + 2f32.powi(23)) - 2f32.powi(23);
        return (q * 2f32.powi(-24)).copysign(v);
    }
    // Normal half: keep 10 mantissa bits with round-to-nearest-even.
    let shift = 13;
    let halfway = 1u32 << (shift - 1);
    let tie_to_even = (frac >> shift) & 1;
    let rounded = frac + (halfway - 1) + tie_to_even;
    let new_frac = rounded >> shift << shift;
    if new_frac > 0x7f_ffff {
        // Mantissa overflowed into the exponent; past 2^15 that is an
        // overflow too.
        if unbiased == 15 {
            return clamp;
        }
        return f32::from_bits((sign << 31) | (((exp + 1) as u32) << 23));
    }
    f32::from_bits((sign << 31) | ((exp as u32) << 23) | new_frac)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fp32_is_identity() {
        for v in [0.0, -1.5, std::f32::consts::PI, 1e-30, 1e30] {
            assert_eq!(Precision::Fp32.quantize(v), v);
        }
    }

    #[test]
    fn fp16_preserves_exact_halves() {
        for v in [0.0f32, 1.0, -2.0, 0.5, 65504.0, 1024.0] {
            assert_eq!(
                Precision::Fp16.quantize(v),
                v,
                "{v} should be exact in fp16"
            );
        }
    }

    #[test]
    fn fp16_rounds_fine_values() {
        let v = 1.0 + 1e-4; // below half-precision resolution near 1.0
        let q = Precision::Fp16.quantize(v);
        assert!((q - 1.0).abs() < 1e-3);
        assert_ne!(q, v);
    }

    #[test]
    fn fp16_clamps_overflow() {
        assert_eq!(Precision::Fp16.quantize(1e6), 65504.0);
        assert_eq!(Precision::Fp16.quantize(-1e6), -65504.0);
    }

    #[test]
    fn fp16_flushes_tiny_values() {
        assert_eq!(Precision::Fp16.quantize(1e-30), 0.0);
    }

    /// The positive finite binary16 value with bit pattern `h`, decoded
    /// from its fields: `m · 2^-24` for subnormals, `(1024 + m) ·
    /// 2^(e - 25)` for normals.
    fn half(h: u16) -> f32 {
        let (e, m) = (i32::from(h >> 10), f32::from(h & 0x3ff));
        if e == 0 {
            m * 2f32.powi(-24)
        } else {
            (1024.0 + m) * 2f32.powi(e - 25)
        }
    }

    /// Every finite half is a fixed point. Between two neighbouring
    /// halves, the midpoint rounds to the one with the even mantissa and
    /// the `f32` one ulp to either side of it rounds to its own side:
    /// this covers subnormal ties, the gap between 0 and 2^-24, and the
    /// carry into the next binade. From 65504 up to 65536 every value
    /// rounds to 65504 or beyond it, so it clamps to 65504.
    #[test]
    fn fp16_rounds_to_nearest_even_at_every_half() {
        let q = |v: f32| Precision::Fp16.quantize(v).to_bits();
        for sign in [1.0f32, -1.0] {
            for h in 0..0x7bffu16 {
                let (lo, hi) = (sign * half(h), sign * half(h + 1));
                let mid = (lo + hi) / 2.0;
                let even = if h % 2 == 0 { lo } else { hi };
                assert_eq!(q(lo), lo.to_bits(), "{lo:e} is a half");
                assert_eq!(q(mid), even.to_bits(), "midpoint {mid:e}");
                let (toward_lo, toward_hi) = if sign > 0.0 {
                    (mid.next_down(), mid.next_up())
                } else {
                    (mid.next_up(), mid.next_down())
                };
                assert_eq!(q(toward_lo), lo.to_bits(), "{toward_lo:e}");
                assert_eq!(q(toward_hi), hi.to_bits(), "{toward_hi:e}");
            }
            let max = sign * 65504.0;
            assert_eq!(q(max), max.to_bits());
            for v in [65519.996f32, 65520.0, 65520.004, 65535.996] {
                assert_eq!(q(sign * v), max.to_bits(), "{v} clamps");
            }
        }
    }

    #[test]
    fn tf32_truncates_mantissa() {
        let v = 1.0 + 2f32.powi(-20);
        assert_eq!(Precision::Tf32.quantize(v), 1.0);
        let w = 1.0 + 2f32.powi(-9);
        assert_eq!(Precision::Tf32.quantize(w), w);
    }

    #[test]
    fn bytes_per_element() {
        assert_eq!(Precision::Fp16.bytes(), 2);
        assert_eq!(Precision::Tf32.bytes(), 4);
        assert_eq!(Precision::Fp32.bytes(), 4);
    }

    #[test]
    fn quantize_error_is_relative() {
        for &v in &[0.1f32, 1.7, 123.456, 9999.0] {
            let q = Precision::Fp16.quantize(v);
            assert!((q - v).abs() / v < 1e-3, "v={v} q={q}");
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(Precision::Fp16.to_string(), "FP16");
        assert_eq!(Precision::Tf32.to_string(), "TF32");
        assert_eq!(Precision::Fp32.to_string(), "FP32");
    }

    #[test]
    fn budget_orders_by_precision() {
        let fp16 = ErrorBudget::new(Precision::Fp16, 32).rel_tol();
        let tf32 = ErrorBudget::new(Precision::Tf32, 32).rel_tol();
        let fp32 = ErrorBudget::new(Precision::Fp32, 32).rel_tol();
        assert!(fp32 < fp16, "FP32 budget must be the tightest");
        assert!(fp16 < tf32, "TF32 truncation is coarser than FP16 rounding");
    }

    #[test]
    fn budget_grows_with_depth() {
        let shallow = ErrorBudget::new(Precision::Fp32, 4).rel_tol();
        let deep = ErrorBudget::new(Precision::Fp32, 4096).rel_tol();
        assert!(deep > shallow);
    }

    #[test]
    fn budget_admits_one_quantization_ulp() {
        let b = ErrorBudget::new(Precision::Fp16, 1);
        for v in [0.3f32, 1.7, -42.5, 913.0] {
            assert!(b.allows(v, Precision::Fp16.quantize(v)), "v={v}");
        }
    }

    #[test]
    fn budget_rejects_a_sign_flip() {
        let b = ErrorBudget::new(Precision::Tf32, 1024);
        assert!(!b.allows(0.5, -0.5));
        assert!(b.normalized_error(0.5, -0.5) > 100.0);
    }

    #[test]
    fn zero_depth_is_clamped() {
        assert_eq!(ErrorBudget::new(Precision::Fp32, 0).depth, 1);
    }
}
