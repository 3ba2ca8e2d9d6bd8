//! The weight-stationary gather-GEMM-scatter dataflow (Section 2.2.1).
//!
//! Naive form (SparseConvNet, SpConv v1): a host loop over the K³ kernel
//! offsets; each iteration launches a gather kernel, a vendor GEMM and a
//! scatter kernel. Nothing overlaps across the three kernels, which is
//! the dataflow's fundamental limitation (Figure 3a).
//!
//! Fused form (TorchSparse, MLSys'22): all gathers fuse into one
//! locality-aware kernel, GEMMs are *adaptively grouped* into batched
//! GEMMs (padding group members to the group maximum, trading redundant
//! computation for fewer launches), and all scatters fuse.

use ts_gpusim::{KernelDesc, KernelTrace, Overlap};
use ts_kernelmap::KernelMap;

use crate::ExecCtx;

/// Fraction of padding waste the adaptive grouping accepts within one
/// batched-GEMM group before starting a new group.
const GROUP_WASTE_LIMIT: f64 = 0.25;

/// Simulated trace of the naive or fused form (the functional path is
/// the shared host kernel, [`crate::forward_prepared`]).
pub(crate) fn trace(
    c_in: usize,
    c_out: usize,
    map: &KernelMap,
    fused: bool,
    ctx: &ExecCtx,
) -> KernelTrace {
    if fused {
        trace_fused(c_in as u64, c_out as u64, map, ctx)
    } else {
        trace_naive(c_in as u64, c_out as u64, map, ctx)
    }
}

fn trace_naive(c_in: u64, c_out: u64, map: &KernelMap, ctx: &ExecCtx) -> KernelTrace {
    let mut trace = KernelTrace::new();
    let b = ctx.elem_bytes();
    for k in 0..map.kernel_volume() {
        let m = map.pairs(k).len() as u64;
        if m == 0 {
            continue;
        }
        // Gather: random-access reads (poorly coalesced) + indices,
        // write the DRAM gather buffer.
        let gather = KernelDesc::memory(
            format!("gather[{k}]"),
            m * c_in * b * 2 + m * 4,
            m * c_in * b,
        )
        .with_latency_stretch(crate::implicit_gemm::gather_kernel_stretch());
        ctx.cost.record(&mut trace, gather);

        // Vendor GEMM on the gathered buffer: dense cuBLAS behaviour,
        // including tile/wave quantization on these skinny (n = C_out)
        // shapes. The buffer round-trips through DRAM, which is the
        // no-overlap cost of this dataflow.
        let mut gemm = KernelDesc::gemm(format!("gemm[{k}]"), m, c_out, c_in, ctx.precision);
        gemm.dram_read = m * c_in * b + c_in * c_out * b;
        gemm.dram_write = m * c_out * b;
        gemm.overlap = Overlap::None;
        gemm.addr_overhead = ctx.system_eff;
        ctx.cost.record(&mut trace, gemm);

        // Scatter-add: read products, read-modify-write outputs at
        // random addresses.
        let scatter = KernelDesc::memory(
            format!("scatter[{k}]"),
            m * c_out * b + m * c_out * b * 2 + m * 4,
            m * c_out * b,
        )
        .with_latency_stretch(crate::implicit_gemm::gather_kernel_stretch());
        ctx.cost.record(&mut trace, scatter);
    }
    trace
}

/// Adaptive grouping: offsets sorted by pair count descending, greedily
/// grouped while the padding waste stays under [`GROUP_WASTE_LIMIT`].
/// Returns `(group max size, member count)` per group.
pub(crate) fn adaptive_groups(sizes: &[usize]) -> Vec<(usize, usize)> {
    let mut nonzero: Vec<usize> = sizes.iter().copied().filter(|&s| s > 0).collect();
    nonzero.sort_unstable_by(|a, b| b.cmp(a));
    let mut groups = Vec::new();
    let mut idx = 0;
    while idx < nonzero.len() {
        let max = nonzero[idx];
        let mut count = 1;
        let mut real = max;
        while idx + count < nonzero.len() {
            let next = nonzero[idx + count];
            let padded = max * (count + 1);
            let waste = 1.0 - (real + next) as f64 / padded as f64;
            if waste > GROUP_WASTE_LIMIT {
                break;
            }
            real += next;
            count += 1;
        }
        groups.push((max, count));
        idx += count;
    }
    groups
}

fn trace_fused(c_in: u64, c_out: u64, map: &KernelMap, ctx: &ExecCtx) -> KernelTrace {
    let mut trace = KernelTrace::new();
    let b = ctx.elem_bytes();
    let pairs = map.total_pairs();

    // One fused, locality-aware gather over all offsets (the fused
    // kernel reorders accesses, recovering some coalescing: 1.5x rather
    // than the naive 2x amplification).
    let gather = KernelDesc::memory(
        "gather(fused)",
        pairs * c_in * b * 3 / 2 + pairs * 4,
        pairs * c_in * b,
    )
    .with_latency_stretch(crate::implicit_gemm::gather_kernel_stretch());
    ctx.cost.record(&mut trace, gather);

    // Adaptively grouped batched GEMMs: members padded to the group max.
    for (g, (max, count)) in adaptive_groups(&map.pairs_per_offset())
        .into_iter()
        .enumerate()
    {
        let m_padded = (max * count) as u64;
        let mut gemm = KernelDesc::gemm(
            format!("batched-gemm[group {g}]"),
            m_padded,
            c_out,
            c_in,
            ctx.precision,
        );
        gemm.dram_read = m_padded * c_in * b + count as u64 * c_in * c_out * b;
        gemm.dram_write = m_padded * c_out * b;
        gemm.overlap = Overlap::None;
        gemm.addr_overhead = ctx.system_eff;
        ctx.cost.record(&mut trace, gemm);
    }

    // One fused scatter-add (read products + read-modify-write outputs).
    let scatter = KernelDesc::memory(
        "scatter(fused)",
        pairs * c_out * b + pairs * c_out * b * 3 / 2 + pairs * 4,
        pairs * c_out * b,
    )
    .with_latency_stretch(crate::implicit_gemm::gather_kernel_stretch());
    ctx.cost.record(&mut trace, scatter);
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_gpusim::Device;
    use ts_kernelmap::{build_submanifold_map, Coord, KernelOffsets};
    use ts_tensor::Precision;

    fn map() -> KernelMap {
        let coords: Vec<Coord> = (0..40).map(|i| Coord::new(0, i % 8, i / 8, 0)).collect();
        build_submanifold_map(&coords, &KernelOffsets::cube(3))
    }

    #[test]
    fn naive_launches_three_kernels_per_nonempty_offset() {
        let map = map();
        let ctx = ExecCtx::simulate(Device::rtx3090(), Precision::Fp16);
        let naive = trace(5, 7, &map, false, &ctx);
        let nonempty = map.pairs_per_offset().iter().filter(|&&s| s > 0).count() as u64;
        assert_eq!(naive.launch_count(), 3 * nonempty);
    }

    #[test]
    fn fused_launches_far_fewer_kernels_and_is_faster() {
        let map = map();
        let ctx = ExecCtx::simulate(Device::rtx3090(), Precision::Fp16);
        let naive = trace(5, 7, &map, false, &ctx);
        let fused = trace(5, 7, &map, true, &ctx);
        assert!(fused.launch_count() < naive.launch_count() / 3);
        assert!(fused.total_us() < naive.total_us());
    }

    #[test]
    fn adaptive_groups_cover_all_offsets_with_bounded_waste() {
        let sizes = vec![100, 90, 85, 40, 39, 38, 10, 9, 1, 0, 0];
        let groups = adaptive_groups(&sizes);
        let members: usize = groups.iter().map(|&(_, c)| c).sum();
        assert_eq!(members, sizes.iter().filter(|&&s| s > 0).count());
        // Waste bound is respected per group by construction; check the
        // padded totals dominate the real totals.
        let padded: usize = groups.iter().map(|&(m, c)| m * c).sum();
        let real: usize = sizes.iter().sum();
        assert!(padded >= real);
    }

    #[test]
    fn grouping_equal_sizes_yields_one_group() {
        let groups = adaptive_groups(&[50, 50, 50, 50]);
        assert_eq!(groups, vec![(50, 4)]);
    }
}
