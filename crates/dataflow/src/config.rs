//! Dataflow configurations — the elements of the autotuner's design
//! space (Figure 9 of the paper).

use std::fmt;

use serde::{Deserialize, Serialize};

use ts_kernelgen::TilePolicy;

/// Which dataflow executes a sparse convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataflowKind {
    /// Weight-stationary gather-GEMM-scatter. `fused = false` is the
    /// SparseConvNet / SpConv v1 style (three launches per offset);
    /// `fused = true` is TorchSparse MLSys'22 (fused memory ops +
    /// adaptively grouped batched GEMM).
    GatherScatter {
        /// Fuse memory kernels and group GEMMs.
        fused: bool,
    },
    /// Fetch-on-demand. `fused = false` launches one kernel per offset
    /// (MinkowskiEngine); `fused = true` is the block-fused single
    /// kernel (PCEngine / TorchSparse++).
    FetchOnDemand {
        /// Convert the host offset loop into a thread-block dimension.
        fused: bool,
    },
    /// Output-stationary implicit GEMM with the paper's split encoding:
    /// `0` = unsorted, `1` = sorted (SpConv v2 default), `s >= 2` =
    /// `s` sorted mask splits with a final reduction.
    ImplicitGemm {
        /// Split encoding.
        splits: u32,
    },
}

impl fmt::Display for DataflowKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            DataflowKind::GatherScatter { fused: false } => write!(f, "gather-scatter"),
            DataflowKind::GatherScatter { fused: true } => write!(f, "gather-scatter(fused)"),
            DataflowKind::FetchOnDemand { fused: false } => write!(f, "fetch-on-demand"),
            DataflowKind::FetchOnDemand { fused: true } => write!(f, "fetch-on-demand(fused)"),
            DataflowKind::ImplicitGemm { splits: 0 } => write!(f, "implicit-gemm(unsorted)"),
            DataflowKind::ImplicitGemm { splits } => write!(f, "implicit-gemm(s={splits})"),
        }
    }
}

/// Largest split encoding any schedule may carry. The tuner's design
/// space tops out far below this (Figure 9 sweeps single-digit splits);
/// a persisted schedule asking for more is corrupt or hostile, and
/// [`DataflowConfig::validate`] rejects it.
pub const MAX_SPLITS: u32 = 16;

/// Why a [`DataflowConfig`] was rejected at schedule-compile time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ConfigError {
    /// Implicit-GEMM split encoding outside `0..=`[`MAX_SPLITS`].
    SplitsOutOfRange {
        /// The split count the config asked for.
        splits: u32,
        /// The largest split count any schedule may carry.
        max: u32,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ConfigError::SplitsOutOfRange { splits, max } => {
                write!(
                    f,
                    "implicit-gemm split count {splits} exceeds the maximum {max}"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// A complete dataflow configuration: the kind plus the tile policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DataflowConfig {
    /// Dataflow kind (and its parameters).
    pub kind: DataflowKind,
    /// How compute kernels pick their CTA tiles.
    pub tile_policy: TilePolicy,
}

impl DataflowConfig {
    /// Gather-GEMM-scatter (optionally fused) with adaptive tiling.
    pub fn gather_scatter(fused: bool) -> Self {
        Self {
            kind: DataflowKind::GatherScatter { fused },
            tile_policy: TilePolicy::Adaptive,
        }
    }

    /// Fetch-on-demand (optionally block-fused) with adaptive tiling.
    pub fn fetch_on_demand(fused: bool) -> Self {
        Self {
            kind: DataflowKind::FetchOnDemand { fused },
            tile_policy: TilePolicy::Adaptive,
        }
    }

    /// Implicit GEMM with the given split encoding and adaptive tiling.
    pub fn implicit_gemm(splits: u32) -> Self {
        Self {
            kind: DataflowKind::ImplicitGemm { splits },
            tile_policy: TilePolicy::Adaptive,
        }
    }

    /// Returns a copy with a different tile policy.
    pub fn with_tile_policy(mut self, policy: TilePolicy) -> Self {
        self.tile_policy = policy;
        self
    }

    /// The known-safe fallback dataflow: sorted implicit GEMM with one
    /// split — the TorchSparse (MLSys '22) / SpConv v2 default that
    /// every group can execute on every device. Degraded-mode paths
    /// (e.g. [`ConfigError`] at schedule load) drop to this config.
    pub fn safe_fallback() -> Self {
        Self::implicit_gemm(1)
    }

    /// Checks the config against the envelope a schedule is allowed to
    /// request. Tuner-produced configs always pass; this is the
    /// compile-time gate for configs read back from persisted (and
    /// possibly corrupted) schedules.
    ///
    /// # Errors
    ///
    /// [`ConfigError::SplitsOutOfRange`] when an implicit-GEMM split
    /// encoding exceeds [`MAX_SPLITS`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if let DataflowKind::ImplicitGemm { splits } = self.kind {
            if splits > MAX_SPLITS {
                return Err(ConfigError::SplitsOutOfRange {
                    splits,
                    max: MAX_SPLITS,
                });
            }
        }
        Ok(())
    }

    /// The full TorchSparse++ design space (Figure 9): both fused
    /// dataflow families plus implicit GEMM with splits 0 through
    /// `max_splits`.
    pub fn full_space(max_splits: u32) -> Vec<DataflowConfig> {
        let mut v = vec![Self::fetch_on_demand(true), Self::gather_scatter(true)];
        for s in 0..=max_splits {
            v.push(Self::implicit_gemm(s));
        }
        v
    }

    /// The restricted SpConv v2 design space: sorted implicit GEMM with
    /// splits 1 or 2 only (Section 4.1 explains how first-order proxies
    /// led to this restriction).
    pub fn spconv_v2_space() -> Vec<DataflowConfig> {
        vec![Self::implicit_gemm(1), Self::implicit_gemm(2)]
    }
}

impl fmt::Display for DataflowConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_space_contains_all_families() {
        let space = DataflowConfig::full_space(4);
        assert!(space
            .iter()
            .any(|c| matches!(c.kind, DataflowKind::FetchOnDemand { .. })));
        assert!(space
            .iter()
            .any(|c| matches!(c.kind, DataflowKind::GatherScatter { .. })));
        for s in 0..=4 {
            assert!(space
                .iter()
                .any(|c| c.kind == DataflowKind::ImplicitGemm { splits: s }));
        }
        assert_eq!(space.len(), 7);
    }

    #[test]
    fn spconv_space_is_restricted() {
        let space = DataflowConfig::spconv_v2_space();
        assert_eq!(space.len(), 2);
        assert!(!space
            .iter()
            .any(|c| c.kind == DataflowKind::ImplicitGemm { splits: 0 }));
    }

    #[test]
    fn display_names_are_informative() {
        assert_eq!(
            DataflowConfig::implicit_gemm(0).to_string(),
            "implicit-gemm(unsorted)"
        );
        assert_eq!(
            DataflowConfig::implicit_gemm(3).to_string(),
            "implicit-gemm(s=3)"
        );
        assert_eq!(
            DataflowConfig::fetch_on_demand(true).to_string(),
            "fetch-on-demand(fused)"
        );
    }

    #[test]
    fn full_space_is_a_superset_of_spconv_space() {
        let full = DataflowConfig::full_space(4);
        for c in DataflowConfig::spconv_v2_space() {
            assert!(full.iter().any(|f| f.kind == c.kind));
        }
    }

    #[test]
    fn every_design_space_config_validates() {
        for c in DataflowConfig::full_space(MAX_SPLITS) {
            assert!(c.validate().is_ok(), "{c} should validate");
        }
        assert!(DataflowConfig::safe_fallback().validate().is_ok());
    }

    #[test]
    fn oversized_splits_are_rejected_with_a_typed_error() {
        let bad = DataflowConfig::implicit_gemm(MAX_SPLITS + 1);
        match bad.validate() {
            Err(ConfigError::SplitsOutOfRange { splits, max }) => {
                assert_eq!(splits, MAX_SPLITS + 1);
                assert_eq!(max, MAX_SPLITS);
                assert!(bad.validate().unwrap_err().to_string().contains("split"));
            }
            Ok(()) => panic!("oversized splits must not validate"),
        }
    }

    #[test]
    fn safe_fallback_is_sorted_implicit_gemm() {
        assert_eq!(
            DataflowConfig::safe_fallback().kind,
            DataflowKind::ImplicitGemm { splits: 1 }
        );
    }
}
