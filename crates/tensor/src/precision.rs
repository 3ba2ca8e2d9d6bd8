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
        match self {
            Precision::Fp32 => {}
            // One loop per precision, so the FP16 one vectorises.
            Precision::Fp16 => vs.iter_mut().for_each(|v| *v = f16_round_trip(*v)),
            Precision::Tf32 => vs.iter_mut().for_each(|v| *v = self.quantize(*v)),
        }
    }
}

/// Finishes one loss-scaled gradient in a single sweep: with `fp16`,
/// each value is rounded to the FP16 grid; it is then multiplied by
/// `1 / loss_scale` unless `loss_scale` is 1. Returns whether any value
/// overflowed before the un-scaling: it is non-finite or, with `fp16`,
/// reached the largest finite half (65504). This is the deferred-update
/// check of mixed-precision training, and a step with an overflowed
/// gradient is skipped.
///
/// Every value gets the same operations as [`Precision::quantize`]
/// followed by [`crate::Matrix::scale`], so the result is bit-identical
/// to those two sweeps. The overflow flag is an OR without early exit,
/// so each variant of the loop vectorises.
pub fn unscale_grad(vs: &mut [f32], fp16: bool, loss_scale: f32) -> bool {
    let inv = 1.0 / loss_scale;
    match (fp16, loss_scale != 1.0) {
        (true, true) => unscale_sweep::<true, true>(vs, inv),
        (true, false) => unscale_sweep::<true, false>(vs, inv),
        (false, true) => unscale_sweep::<false, true>(vs, inv),
        (false, false) => unscale_sweep::<false, false>(vs, inv),
    }
}

/// One variant of [`unscale_grad`]'s loop, with its two choices fixed.
#[inline(always)]
fn unscale_sweep<const FP16: bool, const UNSCALE: bool>(vs: &mut [f32], inv: f32) -> bool {
    let mut overflow = false;
    for v in vs {
        let q = if FP16 { f16_round_trip(*v) } else { *v };
        // `|`, not `||`: no early exit, so the loop vectorises.
        overflow |= !q.is_finite() | (FP16 & (q.abs() >= 65504.0));
        *v = if UNSCALE { q * inv } else { q };
    }
    overflow
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

/// Round-trips an `f32` through IEEE binary16 with round-to-nearest-even,
/// clamping past the largest finite half to ±65504; infinities and NaN
/// pass through unchanged.
///
/// Branch-free, so a loop over it vectorises: both candidate results
/// are computed and selected.
/// * From 2^-14 up, the 13 mantissa bits binary16 lacks are rounded off
///   in the bit pattern: adding `0x0fff` plus the lowest kept bit rounds
///   to nearest with ties to even, and a carry out of the mantissa
///   moves into the exponent, which is the next binade's first value.
/// * Below 2^-14 the grid is the multiples of 2^-24. `|v| · 2^24` is
///   exact there and at most 1024; adding and subtracting 2^23 rounds it
///   to an integer, ties to even, without a libm call
///   (`round_ties_even` is one on baseline x86-64). The sign goes back
///   on last, so a result that rounds to zero keeps it.
/// * A rounded magnitude above 65504 is at least 65536, past the
///   largest finite half, and clamps.
#[inline]
fn f16_round_trip(v: f32) -> f32 {
    let bits = v.to_bits();
    // Wrapping: only a NaN pattern can carry out of the top bit, and
    // the select below discards the result for it.
    let normal = f32::from_bits(bits.wrapping_add(0x0fff + ((bits >> 13) & 1)) & !0x1fff);
    let scaled = v.abs() * 2f32.powi(24);
    let subnormal = (((scaled + 2f32.powi(23)) - 2f32.powi(23)) * 2f32.powi(-24)).copysign(v);
    let rounded = if v.abs() < 2f32.powi(-14) {
        subnormal
    } else {
        normal
    };
    let clamped = if rounded.abs() > 65504.0 {
        65504f32.copysign(v)
    } else {
        rounded
    };
    if v.is_finite() {
        clamped
    } else {
        v
    }
}

/// The branchy form [`f16_round_trip`] replaced, kept as the reference
/// it is checked against.
#[cfg(test)]
fn f16_round_trip_reference(v: f32) -> f32 {
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

    /// The values where FP16 rounding changes behaviour, each with its
    /// f32 neighbours, in both signs: every finite half and every
    /// midpoint between neighbouring halves, the subnormal, normal and
    /// overflow thresholds, infinities, NaN payloads and both zeros.
    fn rounding_boundaries() -> Vec<f32> {
        let mut edges: Vec<f32> = (0..0x7bffu16)
            .flat_map(|h| [half(h), (half(h) + half(h + 1)) / 2.0])
            .collect();
        edges.extend([
            half(0x7bff),
            2f32.powi(-25),
            65520.0,
            65536.0,
            f32::MIN_POSITIVE,
            f32::from_bits(1),
            f32::MAX,
        ]);
        let mut out = Vec::new();
        for v in edges {
            for s in [v, -v] {
                out.extend([s.next_down(), s, s.next_up()]);
            }
        }
        out.extend([f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0]);
        out.extend(
            [0x7f80_0001u32, 0x7fa5_a5a5, 0x7fc0_0000, 0x7fff_ffff]
                .into_iter()
                .flat_map(|nan| [f32::from_bits(nan), f32::from_bits(nan | 1 << 31)]),
        );
        out
    }

    fn assert_matches_reference(v: f32) {
        assert_eq!(
            f16_round_trip(v).to_bits(),
            f16_round_trip_reference(v).to_bits(),
            "{v:e} ({:#010x})",
            v.to_bits()
        );
    }

    /// The branch-free rounding equals the branchy reference on every
    /// rounding boundary and on a strided sweep of all bit patterns.
    #[test]
    fn branch_free_fp16_rounding_equals_the_reference() {
        rounding_boundaries()
            .into_iter()
            .for_each(assert_matches_reference);
        // An odd stride reaches every exponent and both signs, with
        // varied low mantissa bits.
        (0..=u32::MAX)
            .step_by(4093)
            .for_each(|b| assert_matches_reference(f32::from_bits(b)));
    }

    /// Every one of the 2^32 bit patterns; ~15 s in a release build on
    /// two threads: `cargo test --release -p ts-tensor -- --include-ignored`.
    #[test]
    #[ignore = "exhaustive; run in release with --include-ignored"]
    fn branch_free_fp16_rounding_equals_the_reference_on_every_pattern() {
        const THREADS: u32 = 2;
        let share = (1u64 << 32) / u64::from(THREADS);
        std::thread::scope(|s| {
            for t in 0..u64::from(THREADS) {
                s.spawn(move || {
                    for b in t * share..(t + 1) * share {
                        assert_matches_reference(f32::from_bits(b as u32));
                    }
                });
            }
        });
    }

    /// `unscale_grad` gives the bits and the overflow verdict of the
    /// sweeps it fuses: quantize, check, then multiply by the inverse
    /// scale.
    #[test]
    fn unscale_grad_equals_quantize_check_then_scale() {
        let values = rounding_boundaries();
        for fp16 in [false, true] {
            for loss_scale in [1.0f32, 1024.0, 3.0] {
                for chunk in values.chunks(7) {
                    let mut want = crate::Matrix::from_vec(1, chunk.len(), chunk.to_vec());
                    if fp16 {
                        Precision::Fp16.quantize_slice(want.as_mut_slice());
                    }
                    let overflowed = want
                        .as_slice()
                        .iter()
                        .any(|v| !v.is_finite() || (fp16 && v.abs() >= 65504.0));
                    if loss_scale != 1.0 {
                        want.scale(1.0 / loss_scale);
                    }
                    let mut got = chunk.to_vec();
                    let flagged = unscale_grad(&mut got, fp16, loss_scale);
                    let bits = |vs: &[f32]| vs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&got), bits(want.as_slice()), "{chunk:?}");
                    assert_eq!(flagged, overflowed, "{chunk:?}");
                }
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
