//! Lenient schedule validation.
//!
//! A tuned schedule outlives the process that tuned it: the ts-cache
//! store persists it, and a node boots from whatever the store holds.
//! [`check_configs`] reports every slot of a [`GroupConfigs`] table
//! outside the envelope a schedule may request, and
//! [`sanitize_configs`] replaces those slots with the known-safe
//! fallback. [`crate::Engine::new`] runs the sanitizer on every table
//! it is given, so an engine never refuses to boot over its schedule.

use ts_dataflow::{ConfigError, DataflowConfig};

use crate::GroupConfigs;

/// One slot of a schedule that an engine runs on the known-safe
/// fallback ([`DataflowConfig::safe_fallback`], the sorted
/// implicit-GEMM dataflow of TorchSparse MLSys '22) instead of what the
/// schedule asked for, and why.
#[derive(Debug, Clone, PartialEq)]
pub enum Downgrade {
    /// One config was rejected at schedule-compile time; only that
    /// slot runs the safe fallback.
    Group {
        /// The group index, or `None` for the table's default slot
        /// (applied to every group without an explicit override).
        group: Option<usize>,
        /// The rejected config, as the schedule recorded it.
        from: DataflowConfig,
        /// Why the config was rejected.
        error: ConfigError,
    },
}

impl std::fmt::Display for Downgrade {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn configs() -> GroupConfigs {
        let mut c = GroupConfigs::uniform(DataflowConfig::implicit_gemm(1));
        c.set(0, DataflowConfig::gather_scatter(true));
        c.set(2, DataflowConfig::implicit_gemm(3));
        c
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
}
