//! Versioned persistence of tuned per-group schedules.
//!
//! The Sparse Autotuner's cost is amortised because "the tuned schedule
//! could be reused for millions of scenes" (paper Section 4.2) — which
//! only works if the schedule survives the tuning process. A
//! [`ScheduleArtifact`] is the on-disk form: the [`GroupConfigs`] table
//! keyed by (network name, device name, precision) plus a format
//! version, so a server can boot from an artifact instead of re-tuning
//! and refuses — with a typed error, never a panic — to apply a
//! schedule tuned for a different network, device, precision or format.

use serde::{Deserialize, Serialize};

use ts_dataflow::{ConfigError, DataflowConfig};
use ts_tensor::Precision;

use crate::GroupConfigs;

/// Current artifact format version. Bump on any breaking change to the
/// serialised [`GroupConfigs`] layout.
pub const SCHEDULE_VERSION: u32 = 1;

/// Error loading or applying a persisted schedule.
#[derive(Debug, Clone, PartialEq)]
pub enum ScheduleError {
    /// The JSON could not be parsed into an artifact.
    Parse(String),
    /// The artifact was written by an incompatible format version.
    VersionMismatch {
        /// Version recorded in the artifact.
        found: u32,
        /// Version this build understands.
        expected: u32,
    },
    /// The artifact was tuned for a different network.
    NetworkMismatch {
        /// Network name recorded in the artifact.
        artifact: String,
        /// Network the engine executes.
        engine: String,
    },
    /// The artifact was tuned for a different device.
    DeviceMismatch {
        /// Device name recorded in the artifact.
        artifact: String,
        /// Device of the engine's execution context.
        engine: String,
    },
    /// The artifact was tuned at a different precision.
    PrecisionMismatch {
        /// Precision recorded in the artifact.
        artifact: Precision,
        /// Precision of the engine's execution context.
        engine: Precision,
    },
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::Parse(msg) => write!(f, "schedule artifact does not parse: {msg}"),
            ScheduleError::VersionMismatch { found, expected } => write!(
                f,
                "schedule artifact version {found} is incompatible with supported version {expected}"
            ),
            ScheduleError::NetworkMismatch { artifact, engine } => write!(
                f,
                "schedule was tuned for network '{artifact}' but the engine runs '{engine}'"
            ),
            ScheduleError::DeviceMismatch { artifact, engine } => write!(
                f,
                "schedule was tuned for device '{artifact}' but the engine targets '{engine}'"
            ),
            ScheduleError::PrecisionMismatch { artifact, engine } => write!(
                f,
                "schedule was tuned at {artifact} but the engine executes at {engine}"
            ),
        }
    }
}

impl std::error::Error for ScheduleError {}

/// One degradation applied while loading a schedule leniently: instead
/// of failing, a slot of the schedule was dropped to the known-safe
/// fallback ([`DataflowConfig::safe_fallback`], the sorted
/// implicit-GEMM dataflow of TorchSparse MLSys '22), and this record
/// says why.
#[derive(Debug, Clone, PartialEq)]
pub enum Downgrade {
    /// The whole artifact was unusable (unparsable JSON, or tuned for a
    /// different network/device/precision/format version); every group
    /// runs the safe fallback.
    Artifact {
        /// The validation error that rejected the artifact.
        error: ScheduleError,
    },
    /// One tuned config was rejected at schedule-compile time; only
    /// that slot runs the safe fallback.
    Group {
        /// The group index, or `None` for the table's default slot
        /// (applied to every group without an explicit override).
        group: Option<usize>,
        /// The rejected config, as the artifact recorded it.
        from: DataflowConfig,
        /// Why the config was rejected.
        error: ConfigError,
    },
}

impl std::fmt::Display for Downgrade {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Downgrade::Artifact { error } => {
                write!(
                    f,
                    "schedule artifact rejected, all groups degraded: {error}"
                )
            }
            Downgrade::Group {
                group: Some(g),
                from,
                error,
            } => write!(f, "group {g} config {from} degraded: {error}"),
            Downgrade::Group {
                group: None,
                from,
                error,
            } => write!(f, "default config {from} degraded: {error}"),
        }
    }
}

/// Validates every slot of `configs` without modifying anything,
/// returning one `(group, config, error)` triple per rejected slot
/// (`None` = the default slot). This is the checking pass behind
/// [`sanitize_configs`], usable standalone to report illegal schedules.
pub fn check_configs(configs: &GroupConfigs) -> Vec<(Option<usize>, DataflowConfig, ConfigError)> {
    let mut rejected = Vec::new();
    if let Err(error) = configs.default.validate() {
        rejected.push((None, configs.default, error));
    }
    let mut groups: Vec<usize> = configs.per_group.keys().copied().collect();
    groups.sort_unstable();
    for g in groups {
        let cfg = configs.per_group[&g];
        if let Err(error) = cfg.validate() {
            rejected.push((Some(g), cfg, error));
        }
    }
    rejected
}

/// Validates every config in `configs` and replaces the rejected ones
/// with [`DataflowConfig::safe_fallback`], returning the sanitized
/// table plus one [`Downgrade::Group`] record per replacement. A table
/// that validates cleanly comes back unchanged with no records.
pub fn sanitize_configs(configs: &GroupConfigs) -> (GroupConfigs, Vec<Downgrade>) {
    let mut out = configs.clone();
    let mut downgrades = Vec::new();
    for (group, from, error) in check_configs(configs) {
        match group {
            None => out.default = DataflowConfig::safe_fallback(),
            Some(g) => {
                out.per_group.insert(g, DataflowConfig::safe_fallback());
            }
        }
        downgrades.push(Downgrade::Group { group, from, error });
    }
    (out, downgrades)
}

/// A persisted tuned schedule: the per-group dataflow table plus the
/// identity it was tuned for.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduleArtifact {
    /// Artifact format version ([`SCHEDULE_VERSION`] at save time).
    pub version: u32,
    /// Name of the network the schedule was tuned for.
    pub network: String,
    /// Name of the device the schedule was tuned on.
    pub device: String,
    /// Precision the schedule was tuned at.
    pub precision: Precision,
    /// The tuned per-group dataflow configuration table.
    pub configs: GroupConfigs,
    /// Tuned end-to-end latency recorded at save time (microseconds;
    /// 0.0 when unknown). Informational only — never validated.
    pub tuned_latency_us: f64,
}

impl ScheduleArtifact {
    /// Wraps a tuned configuration table with its identity key.
    pub fn new(network: &str, device: &str, precision: Precision, configs: GroupConfigs) -> Self {
        Self {
            version: SCHEDULE_VERSION,
            network: network.to_owned(),
            device: device.to_owned(),
            precision,
            configs,
            tuned_latency_us: 0.0,
        }
    }

    /// Records the tuned end-to-end latency for provenance.
    pub fn with_tuned_latency(mut self, us: f64) -> Self {
        self.tuned_latency_us = us;
        self
    }

    /// Serialises the artifact to pretty JSON.
    ///
    /// # Errors
    ///
    /// Returns the underlying `serde_json` error on failure.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Parses an artifact from JSON, validating the format version.
    ///
    /// # Errors
    ///
    /// [`ScheduleError::Parse`] on malformed JSON,
    /// [`ScheduleError::VersionMismatch`] when the artifact was written
    /// by an incompatible format version.
    pub fn from_json(json: &str) -> Result<ScheduleArtifact, ScheduleError> {
        let artifact: ScheduleArtifact =
            serde_json::from_str(json).map_err(|e| ScheduleError::Parse(e.to_string()))?;
        if artifact.version != SCHEDULE_VERSION {
            return Err(ScheduleError::VersionMismatch {
                found: artifact.version,
                expected: SCHEDULE_VERSION,
            });
        }
        Ok(artifact)
    }

    /// Validates the identity key against a deployment target.
    ///
    /// # Errors
    ///
    /// A [`ScheduleError`] naming the first mismatching component
    /// (version, then network, then device, then precision).
    pub fn validate(
        &self,
        network: &str,
        device: &str,
        precision: Precision,
    ) -> Result<(), ScheduleError> {
        if self.version != SCHEDULE_VERSION {
            return Err(ScheduleError::VersionMismatch {
                found: self.version,
                expected: SCHEDULE_VERSION,
            });
        }
        if self.network != network {
            return Err(ScheduleError::NetworkMismatch {
                artifact: self.network.clone(),
                engine: network.to_owned(),
            });
        }
        if self.device != device {
            return Err(ScheduleError::DeviceMismatch {
                artifact: self.device.clone(),
                engine: device.to_owned(),
            });
        }
        if self.precision != precision {
            return Err(ScheduleError::PrecisionMismatch {
                artifact: self.precision,
                engine: precision,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_dataflow::DataflowConfig;

    fn configs() -> GroupConfigs {
        let mut c = GroupConfigs::uniform(DataflowConfig::implicit_gemm(1));
        c.set(0, DataflowConfig::gather_scatter(true));
        c.set(2, DataflowConfig::implicit_gemm(3));
        c
    }

    #[test]
    fn json_round_trip_is_bit_identical() {
        let a = ScheduleArtifact::new("minkunet", "RTX 3090", Precision::Fp16, configs())
            .with_tuned_latency(1234.5);
        let back =
            ScheduleArtifact::from_json(&a.to_json().expect("serializes")).expect("deserializes");
        assert_eq!(a, back);
        assert_eq!(
            a.tuned_latency_us.to_bits(),
            back.tuned_latency_us.to_bits()
        );
    }

    #[test]
    fn wrong_version_is_typed_error() {
        let mut a = ScheduleArtifact::new("n", "d", Precision::Fp32, configs());
        a.version = 999;
        let json = a.to_json().expect("serializes");
        match ScheduleArtifact::from_json(&json) {
            Err(ScheduleError::VersionMismatch { found, expected }) => {
                assert_eq!(found, 999);
                assert_eq!(expected, SCHEDULE_VERSION);
            }
            other => panic!("expected version mismatch, got {other:?}"),
        }
    }

    #[test]
    fn malformed_json_is_typed_error() {
        assert!(matches!(
            ScheduleArtifact::from_json("{not json"),
            Err(ScheduleError::Parse(_))
        ));
    }

    #[test]
    fn sanitize_passes_a_clean_table_through_unchanged() {
        let c = configs();
        let (out, downgrades) = sanitize_configs(&c);
        assert_eq!(out, c);
        assert!(downgrades.is_empty());
    }

    #[test]
    fn sanitize_degrades_only_the_rejected_slots() {
        let mut c = configs();
        c.set(
            1,
            DataflowConfig::implicit_gemm(ts_dataflow::MAX_SPLITS + 7),
        );
        let (out, downgrades) = sanitize_configs(&c);
        assert_eq!(out.for_group(1), DataflowConfig::safe_fallback());
        // Untouched slots keep their tuned configs.
        assert_eq!(out.for_group(0), c.for_group(0));
        assert_eq!(out.for_group(2), c.for_group(2));
        assert_eq!(out.default, c.default);
        assert_eq!(downgrades.len(), 1);
        match &downgrades[0] {
            Downgrade::Group {
                group: Some(1),
                from,
                error: ConfigError::SplitsOutOfRange { .. },
            } => assert_eq!(*from, c.for_group(1)),
            other => panic!("expected group-1 downgrade, got {other}"),
        }
    }

    #[test]
    fn check_reports_without_mutating() {
        let mut c = configs();
        c.set(
            1,
            DataflowConfig::implicit_gemm(ts_dataflow::MAX_SPLITS + 7),
        );
        let before = c.clone();
        let rejected = check_configs(&c);
        assert_eq!(c, before, "checking must not sanitize");
        assert_eq!(rejected.len(), 1);
        let (group, from, error) = &rejected[0];
        assert_eq!(*group, Some(1));
        assert_eq!(*from, c.for_group(1));
        assert!(matches!(error, ConfigError::SplitsOutOfRange { .. }));
    }

    #[test]
    fn sanitize_degrades_a_rejected_default_slot() {
        let mut c = configs();
        c.default = DataflowConfig::implicit_gemm(9999);
        let (out, downgrades) = sanitize_configs(&c);
        assert_eq!(out.default, DataflowConfig::safe_fallback());
        assert_eq!(downgrades.len(), 1);
        assert!(matches!(
            downgrades[0],
            Downgrade::Group { group: None, .. }
        ));
        assert!(downgrades[0].to_string().contains("default config"));
    }

    #[test]
    fn validate_checks_each_key_component() {
        let a = ScheduleArtifact::new("net", "dev", Precision::Fp16, configs());
        assert!(a.validate("net", "dev", Precision::Fp16).is_ok());
        assert!(matches!(
            a.validate("other", "dev", Precision::Fp16),
            Err(ScheduleError::NetworkMismatch { .. })
        ));
        assert!(matches!(
            a.validate("net", "orin", Precision::Fp16),
            Err(ScheduleError::DeviceMismatch { .. })
        ));
        assert!(matches!(
            a.validate("net", "dev", Precision::Fp32),
            Err(ScheduleError::PrecisionMismatch { .. })
        ));
    }
}
