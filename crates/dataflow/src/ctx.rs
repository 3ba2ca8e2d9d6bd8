//! Execution contexts shared by all dataflow executors.

use serde::{Deserialize, Serialize};

use ts_gpusim::{CostModel, Device, Precision};
use ts_kernelgen::{GeneratedDataflow, KernelSpec, PenaltyFactors, ShapeMode};
use ts_tensor::Matrix;

/// Sparse Kernel Generator flags active for generated kernels
/// (Section 3.2 ablations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GenFlags {
    /// Hoist loop-invariant address arithmetic.
    pub hoist_invariants: bool,
    /// Pad maps to a multiple of `cta_m` (removes boundary checks).
    pub padded_map: bool,
    /// Compile shapes as constants (idealized, non-deployable).
    pub fixed_shape: bool,
}

impl Default for GenFlags {
    fn default() -> Self {
        Self {
            hoist_invariants: true,
            padded_map: true,
            fixed_shape: false,
        }
    }
}

impl GenFlags {
    /// The naive dynamic-shape port (everything off).
    pub fn naive() -> Self {
        Self {
            hoist_invariants: false,
            padded_map: false,
            fixed_shape: false,
        }
    }

    /// Penalty factors for a generated kernel of `dataflow` with `tile`.
    pub fn penalties(
        &self,
        dataflow: GeneratedDataflow,
        tile: ts_gpusim::TileShape,
        precision: Precision,
    ) -> PenaltyFactors {
        let spec = KernelSpec {
            dataflow,
            tile,
            precision,
            shape_mode: if self.fixed_shape {
                ShapeMode::Fixed
            } else {
                ShapeMode::Dynamic
            },
            hoist_invariants: self.hoist_invariants,
            padded_map: self.padded_map,
        };
        PenaltyFactors::for_spec(&spec)
    }
}

/// When map reordering for sorted implicit GEMM happens (Figure 19).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum ReorderMode {
    /// Reorder the map once, offline, at map-build time (TorchSparse++
    /// default; 4 % faster inference, 12 % faster training).
    #[default]
    Offline,
    /// Reorder inside the compute kernel through an extra level of
    /// indirection (the "fuse everything" conventional wisdom).
    Online,
}

/// Shared execution context: the simulated device, precision, functional
/// toggle and generator flags.
#[derive(Debug, Clone)]
pub struct ExecCtx {
    /// Cost model for the target device.
    pub cost: CostModel,
    /// Execution precision.
    pub precision: Precision,
    /// Compute calls return real feature values (`true`) or skip them
    /// (`false`). Pricing calls ignore it.
    pub functional: bool,
    /// Sparse Kernel Generator flags.
    pub gen_flags: GenFlags,
    /// Reordering placement for sorted implicit GEMM.
    pub reorder: ReorderMode,
    /// System-level compute inefficiency multiplier (>= 1). Our generated
    /// kernels are 1.0; baseline emulations use this to model their
    /// hand-written kernels (e.g. the paper measures TorchSparse++
    /// kernels 1.1–1.2x faster than SpConv v2 at identical dataflow
    /// parameters).
    pub system_eff: f64,
    /// Mapping-kernel inefficiency multiplier (>= 1), scaling the work
    /// of hash/sort/reorder kernels. MinkowskiEngine's coordinate
    /// manager is substantially slower than the GPU hash tables of
    /// SpConv/TorchSparse; baselines model that here.
    pub mapping_eff: f64,
    /// In functional mode, round feature storage to the context
    /// precision between layers (models FP16/TF32 activation storage;
    /// compute stays f32, like tensor cores accumulating in FP32).
    pub quantize_storage: bool,
}

impl ExecCtx {
    /// A functional context (compute calls return features).
    pub fn functional(device: Device, precision: Precision) -> Self {
        Self {
            cost: CostModel::new(device),
            precision,
            functional: true,
            gen_flags: GenFlags::default(),
            reorder: ReorderMode::Offline,
            system_eff: 1.0,
            mapping_eff: 1.0,
            quantize_storage: false,
        }
    }

    /// A simulate-only context (compute calls skip features; fast for
    /// sweeps).
    pub fn simulate(device: Device, precision: Precision) -> Self {
        Self {
            functional: false,
            ..Self::functional(device, precision)
        }
    }

    /// The simulated device.
    pub fn device(&self) -> &Device {
        self.cost.device()
    }

    /// Returns a copy with different generator flags.
    pub fn with_gen_flags(mut self, flags: GenFlags) -> Self {
        self.gen_flags = flags;
        self
    }

    /// Returns a copy with a different reorder mode.
    pub fn with_reorder(mut self, reorder: ReorderMode) -> Self {
        self.reorder = reorder;
        self
    }

    /// Returns a copy with a system inefficiency multiplier.
    pub fn with_system_eff(mut self, eff: f64) -> Self {
        self.system_eff = eff;
        self
    }

    /// Returns a copy with a mapping inefficiency multiplier.
    pub fn with_mapping_eff(mut self, eff: f64) -> Self {
        self.mapping_eff = eff;
        self
    }

    /// Returns a copy that rounds stored activations to the context
    /// precision between layers (functional mode only).
    pub fn with_storage_quantization(mut self, on: bool) -> Self {
        self.quantize_storage = on;
        self
    }

    /// Prices `desc` and appends it to `trace`, applying the context's
    /// mapping inefficiency to mapping-class kernels. Every pricing call
    /// records its kernels through this method.
    pub fn record(
        &self,
        trace: &mut ts_gpusim::KernelTrace,
        mut desc: ts_gpusim::KernelDesc,
    ) -> f64 {
        if desc.class == ts_gpusim::KernelClass::Mapping && self.mapping_eff != 1.0 {
            desc.cuda_ops = (desc.cuda_ops as f64 * self.mapping_eff) as u64;
            desc.dram_read = (desc.dram_read as f64 * self.mapping_eff) as u64;
            desc.dram_write = (desc.dram_write as f64 * self.mapping_eff) as u64;
        }
        self.cost.record(trace, desc)
    }

    /// Bytes per feature element at this precision.
    pub fn elem_bytes(&self) -> u64 {
        self.precision.bytes() as u64
    }
}

/// Features computed by a forward or dgrad pass.
#[derive(Debug, Clone)]
pub struct ConvOutput {
    /// Output features (`None` in simulate-only mode).
    pub features: Option<Matrix>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn functional_vs_simulate_flag() {
        let f = ExecCtx::functional(Device::rtx3090(), Precision::Fp16);
        assert!(f.functional);
        let s = ExecCtx::simulate(Device::rtx3090(), Precision::Fp16);
        assert!(!s.functional);
    }

    #[test]
    fn default_flags_are_optimised() {
        let g = GenFlags::default();
        assert!(g.hoist_invariants && g.padded_map && !g.fixed_shape);
        let p = g.penalties(
            GeneratedDataflow::ImplicitGemm,
            ts_gpusim::TileShape::large(),
            Precision::Fp16,
        );
        assert_eq!(p.combined(), 1.0);
    }

    #[test]
    fn naive_flags_penalise() {
        let p = GenFlags::naive().penalties(
            GeneratedDataflow::ImplicitGemm,
            ts_gpusim::TileShape::large(),
            Precision::Fp16,
        );
        assert!(p.combined() > 1.5);
    }

    #[test]
    fn builder_methods() {
        let ctx = ExecCtx::simulate(Device::a100(), Precision::Fp32)
            .with_reorder(ReorderMode::Online)
            .with_system_eff(1.15);
        assert_eq!(ctx.reorder, ReorderMode::Online);
        assert_eq!(ctx.system_eff, 1.15);
        assert_eq!(ctx.elem_bytes(), 4);
    }
}
