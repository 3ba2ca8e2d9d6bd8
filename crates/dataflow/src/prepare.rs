//! Per-group dataflow preparation: bitmask building, sorting, reordering
//! and padding — the *mapping overhead* the paper identifies as a
//! first-class cost (Tables 3/4).

use ts_gpusim::{KernelClass, KernelDesc, KernelTrace};
use ts_kernelmap::{pad_to_multiple, KernelMap, SplitPlan};

use crate::{DataflowConfig, DataflowKind, ExecCtx, ReorderMode};

/// A prepared execution plan for one (map, dataflow-config) pair.
///
/// A plan depends only on the map and the configuration, never on the
/// execution context, so layers that share a kernel map (a *group* in
/// the autotuner's sense) share one `Prepared` under every context, and
/// [`prepare_trace`] prices its mapping cost once per group — which is
/// exactly why the paper forces intra-group dataflow homogeneity.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// Split plan (implicit GEMM only).
    pub plan: Option<SplitPlan>,
}

impl Prepared {
    /// The split plan of an implicit-GEMM configuration with `splits`.
    ///
    /// # Panics
    ///
    /// Panics if this plan was not prepared for that configuration.
    pub(crate) fn split_plan(&self, splits: u32) -> &SplitPlan {
        match &self.plan {
            Some(p) if p.split_count() == splits => p,
            _ => panic!("plan was not prepared for implicit GEMM with {splits} splits"),
        }
    }
}

/// Builds the dataflow-specific map structures of `cfg` over `map`: the
/// split plan for implicit GEMM, nothing for the weight-stationary
/// dataflows. Computes and never prices: [`prepare_trace`] prices the
/// mapping kernels that build these structures on a GPU.
///
/// `_ctx` is unused: a plan is the same under every context.
pub fn prepare(map: &KernelMap, cfg: &DataflowConfig, _ctx: &ExecCtx) -> Prepared {
    let DataflowKind::ImplicitGemm { splits } = cfg.kind else {
        return Prepared { plan: None };
    };
    let plan = SplitPlan::from_split_count(map, splits);
    // The padding target [`prepare_trace`] prices and the plan itself
    // must satisfy the split-plan invariants (ranges partition the
    // offset axis, minimal cta_m padding); checked in debug builds.
    #[cfg(debug_assertions)]
    {
        let violations = ts_kernelmap::check_plan(map, &plan, 128);
        debug_assert!(
            violations.is_empty(),
            "split plan (splits = {splits}) violates invariants: {violations:?}"
        );
    }
    Prepared { plan: Some(plan) }
}

/// Prices the mapping kernels that build `prepared`'s structures for
/// `cfg` over `map`, under `ctx`, without computing anything.
///
/// The *base* map construction (hashing + neighbor queries) is charged
/// separately by the pricing walk in `ts-core`; this prices only what
/// the chosen dataflow adds on top:
///
/// * weight-stationary layouts (gather-scatter, fetch-on-demand): a map
///   transposition pass;
/// * implicit GEMM: bitmask building, per-split argsort, offline map
///   reordering (skipped when [`ReorderMode::Online`]) and padding to a
///   multiple of `cta_m`.
///
/// # Panics
///
/// Panics if `prepared` was not prepared for `cfg`.
pub fn prepare_trace(
    map: &KernelMap,
    prepared: &Prepared,
    cfg: &DataflowConfig,
    ctx: &ExecCtx,
) -> KernelTrace {
    let mut trace = KernelTrace::new();
    let kvol = map.kernel_volume() as u64;
    let n_out = map.n_out() as u64;
    let pairs = map.total_pairs();

    match cfg.kind {
        DataflowKind::GatherScatter { .. } | DataflowKind::FetchOnDemand { .. } => {
            // Convert the output-stationary map into per-offset pair
            // lists (a counting sort over offsets on GPU).
            let k = KernelDesc::mapping("map:to-weight-stationary", pairs * 8, pairs * 16)
                .with_class(KernelClass::Mapping);
            ctx.record(&mut trace, k);
        }
        DataflowKind::ImplicitGemm { splits } => {
            let ranges = prepared.split_plan(splits).ranges().len() as u64;
            if splits >= 1 {
                // Bitmask construction: one pass over the neighbor matrix.
                let bm = KernelDesc::mapping(
                    "map:bitmask-build",
                    n_out * kvol * 4,
                    n_out * kvol * 4 + n_out * 4,
                );
                ctx.record(&mut trace, bm);

                // One argsort per split (bitonic sort on GPU: n log^2 n
                // compare-exchanges with n log n key passes over DRAM).
                let log_n = (n_out.max(2) as f64).log2().ceil() as u64;
                for s in 0..ranges {
                    let sort = KernelDesc::mapping(
                        format!("map:argsort[{s}]"),
                        n_out * log_n * log_n,
                        n_out * 8 * log_n,
                    );
                    ctx.record(&mut trace, sort);
                }

                // Offline reordering materialises the permuted map once;
                // online reordering skips this kernel and pays inside the
                // compute kernels instead (Figure 19).
                if ctx.reorder == ReorderMode::Offline {
                    let reorder = KernelDesc::mapping(
                        "map:reorder",
                        n_out * kvol * 6,
                        ranges * n_out * kvol * 4 * 2,
                    );
                    ctx.record(&mut trace, reorder);
                }
            }

            if ctx.gen_flags.padded_map {
                // Pad each range's row dimension to a multiple of cta_m.
                let cta_m = 128; // padding target is the largest tile row count
                let padded = pad_to_multiple(map.n_out(), cta_m) as u64;
                let pad_rows = padded - n_out;
                if pad_rows > 0 {
                    let pad = KernelDesc::mapping("map:pad", pad_rows * kvol, pad_rows * kvol * 4);
                    ctx.record(&mut trace, pad);
                }
            }
        }
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_gpusim::Device;
    use ts_kernelmap::{build_submanifold_map, Coord, KernelOffsets};
    use ts_tensor::Precision;

    fn map() -> KernelMap {
        let coords: Vec<Coord> = (0..200)
            .map(|i| Coord::new(0, i % 20, (i / 20) % 10, i / 200))
            .collect();
        build_submanifold_map(&coords, &KernelOffsets::cube(3))
    }

    fn ctx() -> ExecCtx {
        ExecCtx::simulate(Device::rtx3090(), Precision::Fp16)
    }

    /// The mapping kernels of preparing `cfg` over `m`, priced under `c`.
    fn mapping(m: &KernelMap, cfg: &DataflowConfig, c: &ExecCtx) -> KernelTrace {
        prepare_trace(m, &prepare(m, cfg, c), cfg, c)
    }

    #[test]
    fn implicit_gemm_prepare_builds_plan() {
        let cfg = DataflowConfig::implicit_gemm(2);
        let plan = prepare(&map(), &cfg, &ctx()).plan.unwrap();
        assert_eq!(plan.ranges().len(), 2);
        assert!(mapping(&map(), &cfg, &ctx()).total_us() > 0.0);
    }

    #[test]
    fn unsorted_is_cheaper_to_prepare_than_sorted() {
        let m = map();
        let c = ctx();
        let unsorted = mapping(&m, &DataflowConfig::implicit_gemm(0), &c);
        let sorted = mapping(&m, &DataflowConfig::implicit_gemm(1), &c);
        assert!(
            sorted.total_us() > unsorted.total_us(),
            "sorted {} <= unsorted {}",
            sorted.total_us(),
            unsorted.total_us()
        );
    }

    #[test]
    fn more_splits_cost_more_mapping_time() {
        let m = map();
        let c = ctx();
        let s1 = mapping(&m, &DataflowConfig::implicit_gemm(1), &c);
        let s4 = mapping(&m, &DataflowConfig::implicit_gemm(4), &c);
        assert!(s4.total_us() > s1.total_us());
    }

    #[test]
    fn online_reorder_skips_the_reorder_kernel() {
        let m = map();
        let cfg = DataflowConfig::implicit_gemm(1);
        let offline = mapping(&m, &cfg, &ctx());
        let online = mapping(&m, &cfg, &ctx().with_reorder(ReorderMode::Online));
        assert!(online.total_us() < offline.total_us());
        assert!(!online
            .entries()
            .iter()
            .any(|e| e.desc.name.contains("reorder")));
    }

    #[test]
    fn weight_stationary_prepare_has_no_plan() {
        let cfg = DataflowConfig::gather_scatter(true);
        assert!(prepare(&map(), &cfg, &ctx()).plan.is_none());
        assert!(mapping(&map(), &cfg, &ctx()).total_us() > 0.0);
    }

    #[test]
    fn all_prepare_kernels_are_mapping_class() {
        for cfg in DataflowConfig::full_space(4) {
            for e in mapping(&map(), &cfg, &ctx()).entries() {
                assert_eq!(e.desc.class, KernelClass::Mapping, "{}", e.desc.name);
            }
        }
    }
}
