//! The one host kernel behind every dataflow's functional path.
//!
//! Every dataflow computes the same indirect product (Insum's point):
//! `out[o] += x[i] · W_k` over the pairs `(i, o)` of each offset `k`.
//! On the GPU they differ in loop order, buffering and write-back; on
//! the host those differences change nothing but speed, so gather-
//! scatter, fetch-on-demand and implicit GEMM all run [`conv`], and
//! dgrad runs it through the transposed map.
//!
//! The kernel is one register-tiled body, [`tiled`], compiled twice: a
//! portable copy for the build's baseline ISA and an AVX2 copy that
//! [`conv`] selects when the CPU has AVX2. Neither copy uses `mul_add`
//! or intrinsics, and rustc never contracts `a * b + c` into a fused
//! multiply-add, so both copies perform the same IEEE operations in the
//! same order and give the same bits.

use std::ops::Range;

use ts_kernelmap::KernelMap;
use ts_tensor::Matrix;

use crate::ConvWeights;

/// `out[o] += x[i] · W_k` for every pair `(i, o)` of every offset `k` in
/// `offsets`, into a fresh `map.n_out() x c_out` matrix.
///
/// Per pair, an accumulator starts at `+0.0`, sums `x[i][r] · W_k[r]`
/// over the input channels `r` in order, and is then added to `out[o]`;
/// offsets run in order, pairs in map order. Every output element
/// therefore sees exactly the operations of [`crate::reference_forward`]
/// restricted to `offsets`, so the result is bit-identical to it. Only
/// the schedule differs (see [`tiled`]).
#[allow(unsafe_code)]
pub(crate) fn conv(x: &Matrix, w: &ConvWeights, map: &KernelMap, offsets: Range<usize>) -> Matrix {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if is_x86_feature_detected!("avx2") {
        // SAFETY: `conv_avx2`'s only requirement is that the CPU
        // supports AVX2, which the check above has just established.
        return unsafe { conv_avx2(x, w, map, offsets) };
    }
    conv_portable(x, w, map, offsets)
}

/// Output columns per tile in both copies.
const COLS: usize = 16;

/// [`tiled`] for the build's baseline ISA: 2 pairs x [`COLS`] columns,
/// eight 4-lane accumulators on baseline x86-64 (SSE2).
fn conv_portable(x: &Matrix, w: &ConvWeights, map: &KernelMap, offsets: Range<usize>) -> Matrix {
    tiled::<2>(x, w, map, offsets)
}

/// [`tiled`] compiled for AVX2: 4 pairs x [`COLS`] columns, eight 8-lane
/// accumulators. Six pairs (twelve accumulators) leave too few of the
/// sixteen vector registers for the weight, broadcast and product
/// temporaries, and spill.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
fn conv_avx2(x: &Matrix, w: &ConvWeights, map: &KernelMap, offsets: Range<usize>) -> Matrix {
    tiled::<4>(x, w, map, offsets)
}

/// [`conv`] in tiles of `P` pairs x [`COLS`] output columns.
///
/// A tile's accumulators live in registers across the whole
/// input-channel loop, and each contiguous [`COLS`]-column slice of a
/// weight row is loaded once per tile for all `P` pairs. A short last
/// pair block repeats its final pair in the spare lanes; only the
/// block's own pairs are scattered, in map order, so two pairs of one
/// block that share an output (relational multi-edges) add in map
/// order. The last `c_out % COLS` columns run as one more tile over a
/// zero-padded copy of those weight columns, and only the real columns
/// are scattered.
#[inline(always)]
fn tiled<const P: usize>(
    x: &Matrix,
    w: &ConvWeights,
    map: &KernelMap,
    offsets: Range<usize>,
) -> Matrix {
    let (c_in, c_out) = (w.c_in(), w.c_out());
    let mut out = Matrix::zeros(map.n_out(), c_out);
    if c_out == 0 {
        return out;
    }
    let full = c_out - c_out % COLS;
    let mut tail = vec![[0.0f32; COLS]; if full < c_out { c_in } else { 0 }];
    for k in offsets {
        let wk = w.offset(k).as_slice();
        for (t, w_row) in tail.iter_mut().zip(wk.chunks_exact(c_out)) {
            t[..c_out - full].copy_from_slice(&w_row[full..]);
        }
        for block in map.pairs(k).chunks(P) {
            let xs: [&[f32]; P] = std::array::from_fn(|p| {
                let (i, _) = block[p.min(block.len() - 1)];
                &x.row(i as usize)[..c_in]
            });
            for c0 in (0..full).step_by(COLS) {
                let acc = tile(&xs, |r| {
                    wk[r * c_out + c0..][..COLS]
                        .try_into()
                        .expect("a COLS-column slice")
                });
                scatter(&mut out, block, c0, &acc);
            }
            if full < c_out {
                let acc = tile(&xs, |r| &tail[r]);
                scatter(&mut out, block, full, &acc);
            }
        }
    }
    out
}

/// One tile: `acc[p][j] = Σ_r xs[p][r] · w_row(r)[j]`, summed from
/// `+0.0` over `r` in order.
#[inline(always)]
fn tile<'w, const P: usize>(
    xs: &[&[f32]; P],
    w_row: impl Fn(usize) -> &'w [f32; COLS],
) -> [[f32; COLS]; P] {
    // Every row is `c_in` long; slicing them to one length here lets
    // the compiler drop the bounds checks from the loop below.
    let c_in = xs[0].len();
    let xs: [&[f32]; P] = std::array::from_fn(|p| &xs[p][..c_in]);
    let mut acc = [[0.0f32; COLS]; P];
    for r in 0..c_in {
        let wr = w_row(r);
        for (a, xp) in acc.iter_mut().zip(&xs) {
            let xv = xp[r];
            for (d, &wv) in a.iter_mut().zip(wr) {
                *d += xv * wv;
            }
        }
    }
    acc
}

/// Adds the rows of `acc` for `block`'s own pairs, in pair order, into
/// `out`'s columns from `c0` (at most [`COLS`] of them).
#[inline(always)]
fn scatter<const P: usize>(
    out: &mut Matrix,
    block: &[(u32, u32)],
    c0: usize,
    acc: &[[f32; COLS]; P],
) {
    let cols = COLS.min(out.cols() - c0);
    for (a, &(_, o)) in acc.iter().zip(block) {
        for (d, &v) in out.row_mut(o as usize)[c0..c0 + cols].iter_mut().zip(a) {
            *d += v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference_forward;
    use proptest::prelude::*;
    use rand::Rng;
    use ts_tensor::{rng_from_seed, uniform_matrix};

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The portable copy, and the AVX2 copy [`conv`] runs on a CPU
        /// with AVX2, both give the oracle's bits on the same random
        /// relational map: every pair-block remainder, repeated outputs
        /// within a block, empty offsets, and widths on both sides of
        /// every multiple of [`COLS`] up to three tiles.
        #[test]
        fn both_isa_copies_equal_the_oracle_bit_for_bit(
            n_in in 1usize..24,
            n_out in 1usize..24,
            kvol in 1usize..5,
            c_in in 1usize..40,
            c_out in 1usize..50,
            seed in 0u64..1000,
        ) {
            let mut rng = rng_from_seed(seed);
            let pairs = (0..kvol)
                .map(|_| {
                    let len = rng.gen_range(0..30usize);
                    (0..len)
                        .map(|_| (rng.gen_range(0..n_in) as u32, rng.gen_range(0..n_out) as u32))
                        .collect()
                })
                .collect();
            let map = KernelMap::from_relational_pairs(n_in, n_out, pairs);
            let x = uniform_matrix(&mut rng, n_in, c_in, -1.0, 1.0);
            let w = ConvWeights::random(&mut rng, kvol, c_in, c_out);
            let want = bits(&reference_forward(&x, &w, &map));
            let portable = bits(&conv_portable(&x, &w, &map, 0..kvol));
            prop_assert_eq!(&portable, &want, "portable at {}x{}", c_in, c_out);
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            let avx2 = is_x86_feature_detected!("avx2");
            #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
            let avx2 = false;
            if !avx2 {
                eprintln!("no AVX2 on this CPU: only the portable copy was checked");
                return Ok(());
            }
            let got = bits(&conv(&x, &w, &map, 0..kvol));
            prop_assert_eq!(&got, &portable, "AVX2 at {}x{}", c_in, c_out);
        }
    }

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
