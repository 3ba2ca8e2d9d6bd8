//! Group-based greedy exhaustive search for inference (Figure 12).

use serde::{Deserialize, Serialize};

use ts_core::{GroupConfigs, GroupKey, Session};
use ts_dataflow::{DataflowConfig, ExecCtx};

use crate::search::{greedy, TunerStats, WarmStart};

/// How candidate configurations are priced during the greedy search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalMode {
    /// Decomposed objective: per-group latency contributions are cached
    /// and only the group under test is re-simulated per candidate.
    /// Chooses the same configurations as [`EvalMode::FullResimulation`]
    /// at a fraction of the cost (the contribution of a group depends
    /// only on its own configuration).
    Incremental,
    /// Re-simulate the whole network end-to-end for every candidate
    /// (the naive reference implementation; kept for validation).
    FullResimulation,
}

/// Options controlling the inference tuner.
#[derive(Debug, Clone, PartialEq)]
pub struct TunerOptions {
    /// The dataflow design space to search per group.
    pub space: Vec<DataflowConfig>,
    /// Configuration used for not-yet-tuned groups and as the
    /// comparison baseline (SpConv v2's default: sorted implicit GEMM).
    pub default: DataflowConfig,
    /// Candidate pricing strategy.
    pub mode: EvalMode,
    /// Worker threads for the candidate sweep; 0 means one per
    /// available CPU. The result does not depend on this value.
    pub threads: usize,
}

impl Default for TunerOptions {
    fn default() -> Self {
        Self {
            space: DataflowConfig::full_space(4),
            default: DataflowConfig::implicit_gemm(1),
            mode: EvalMode::Incremental,
            threads: 0,
        }
    }
}

impl TunerOptions {
    /// Tuner restricted to SpConv v2's design space (splits 1–2 only).
    pub fn spconv_v2() -> Self {
        Self {
            space: DataflowConfig::spconv_v2_space(),
            default: DataflowConfig::implicit_gemm(1),
            ..Self::default()
        }
    }

    /// Switches the candidate pricing strategy.
    pub fn with_mode(mut self, mode: EvalMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the candidate-sweep worker-thread count (0 = auto).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Expands the design space with explicit tile policies: every
    /// dataflow is tried under each policy (adaptive tiling is itself a
    /// tunable dimension, Section 6.2).
    pub fn with_tile_policies(mut self, policies: &[ts_kernelgen::TilePolicy]) -> Self {
        let base = std::mem::take(&mut self.space);
        self.space = base
            .into_iter()
            .flat_map(|cfg| policies.iter().map(move |&p| cfg.with_tile_policy(p)))
            .collect();
        self
    }

    /// Tuner over implicit GEMM with the given split choices only
    /// (Table 5's design-space-restriction study).
    pub fn implicit_only(splits: &[u32]) -> Self {
        Self {
            space: splits
                .iter()
                .map(|&s| DataflowConfig::implicit_gemm(s))
                .collect(),
            default: DataflowConfig::implicit_gemm(splits[0]),
            ..Self::default()
        }
    }
}

/// Result of an inference tuning run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TuneResult {
    /// Per-group winning configurations.
    pub configs: Option<GroupConfigs>,
    /// End-to-end latency with the tuned configuration (mean over
    /// sample scenes), microseconds.
    pub tuned_latency_us: f64,
    /// End-to-end latency with the uniform default configuration.
    pub default_latency_us: f64,
    /// Number of end-to-end evaluations performed — the tuner's cost,
    /// linear in (groups x space size) thanks to the greedy scheme.
    pub evaluations: usize,
    /// The winning choice per group, in group order.
    pub per_group_choice: Vec<(GroupKey, DataflowConfig)>,
    /// Wall-clock and cache instrumentation of the run.
    pub stats: TunerStats,
}

impl TuneResult {
    /// Speedup of the tuned configuration over the default.
    pub fn speedup(&self) -> f64 {
        self.default_latency_us / self.tuned_latency_us.max(1e-9)
    }

    /// The tuned per-group configuration table, or `None` if `configs`
    /// was stripped before serialization (e.g. a latency-only export).
    pub fn group_configs(&self) -> Option<&GroupConfigs> {
        self.configs.as_ref()
    }
}

/// Runs the group-based greedy exhaustive search over `sessions`
/// (typically a handful of sample scenes of the target workload — the
/// paper uses e.g. 100 Waymo scenes; the tuned schedule is then reused
/// for millions of scenes).
///
/// Groups are tuned in first-use order: group `k` tries every candidate
/// while groups `1..k` keep their tuned choices and groups `k+1..` the
/// default — reducing complexity from exponential to linear. End-to-end
/// latency is the objective, because U-Net groups interleave and
/// per-group times alone cannot capture mapping amortisation.
///
/// Under [`EvalMode::Incremental`] (the default) the end-to-end
/// objective is evaluated as `residual + Σ per-group contributions`
/// with every clean group's contribution served from a cache, so each
/// candidate only re-simulates the group under test; candidates are
/// additionally swept in parallel with scoped threads. Reported
/// latencies (`default_latency_us`, `tuned_latency_us`) always come
/// from full monolithic simulations, so they are bit-identical across
/// modes.
///
/// # Panics
///
/// Panics if `sessions` is empty or the search space is empty.
pub fn tune_inference(sessions: &[Session], ctx: &ExecCtx, opts: &TunerOptions) -> TuneResult {
    tune_impl(sessions, ctx, opts, None)
}

/// [`tune_inference`] warm-started from a transferred schedule: the
/// greedy search begins from `warm.seed` instead of the uniform
/// default and sweeps only the groups listed in `warm.retune`; every
/// other group keeps its seeded configuration.
///
/// This is the cross-workload transfer path of the schedule cache
/// (`ts-cache`): a new workload whose map statistics mostly match a
/// previously tuned one only pays `1 + |retune| x |space|` evaluations
/// instead of `1 + n_groups x |space|`. With
/// [`WarmStart::full`]`(GroupConfigs::uniform(opts.default), n)` the
/// result is bit-identical to a cold [`tune_inference`].
///
/// `default_latency_us` reports the latency of the *seeded* schedule
/// (the warm run's baseline), so [`TuneResult::speedup`] measures the
/// improvement re-tuning bought over the transferred schedule.
///
/// # Panics
///
/// Panics if `sessions` is empty or the search space is empty.
pub fn tune_inference_warm(
    sessions: &[Session],
    ctx: &ExecCtx,
    opts: &TunerOptions,
    warm: &WarmStart,
) -> TuneResult {
    tune_impl(sessions, ctx, opts, Some(warm))
}

fn tune_impl(
    sessions: &[Session],
    ctx: &ExecCtx,
    opts: &TunerOptions,
    warm: Option<&WarmStart>,
) -> TuneResult {
    let mut span = ts_trace::span!(
        ts_trace::Subsystem::Autotune,
        "tune_inference",
        sessions = sessions.len(),
        space = opts.space.len(),
        incremental = opts.mode == EvalMode::Incremental,
        warm = warm.is_some(),
    );
    let cold = GroupConfigs::uniform(opts.default);
    let t = greedy(sessions, ctx, opts, &[&[0]], cold, warm, &mut span);
    let per_group_choice = sessions[0]
        .groups()
        .iter()
        .enumerate()
        .map(|(g, info)| (info.key, t.configs.for_group(g)))
        .collect();
    TuneResult {
        configs: Some(t.configs),
        tuned_latency_us: t.tuned_latency_us,
        default_latency_us: t.default_latency_us,
        evaluations: t.evaluations,
        per_group_choice,
        stats: t.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_gpusim::Device;
    use ts_kernelmap::Coord;
    use ts_tensor::Precision;
    use ts_workloads::Workload;

    fn session(scale: f32) -> Session {
        let w = Workload::NuScenesMinkUNet1f;
        let net = w.network();
        let scene = w.scene_scaled(3, scale);
        Session::new(&net, scene.coords())
    }

    #[test]
    fn tuned_never_loses_to_default() {
        let s = session(0.06);
        let ctx = ExecCtx::simulate(Device::rtx3090(), Precision::Fp16);
        let r = tune_inference(&[s], &ctx, &TunerOptions::default());
        assert!(r.tuned_latency_us <= r.default_latency_us + 1e-6);
        assert!(r.speedup() >= 1.0);
    }

    #[test]
    fn evaluation_count_is_linear() {
        let s = session(0.06);
        let n_groups = s.groups().len();
        let ctx = ExecCtx::simulate(Device::rtx3090(), Precision::Fp16);
        let opts = TunerOptions::default();
        let r = tune_inference(&[s], &ctx, &opts);
        assert_eq!(r.evaluations, 1 + n_groups * opts.space.len());
    }

    #[test]
    fn full_space_beats_spconv_space() {
        let ctx = ExecCtx::simulate(Device::rtx3090(), Precision::Fp32);
        let s1 = session(0.06);
        let full = tune_inference(&[s1], &ctx, &TunerOptions::default());
        let s2 = session(0.06);
        let restricted = tune_inference(&[s2], &ctx, &TunerOptions::spconv_v2());
        assert!(
            full.tuned_latency_us <= restricted.tuned_latency_us + 1e-6,
            "full {} > restricted {}",
            full.tuned_latency_us,
            restricted.tuned_latency_us
        );
    }

    #[test]
    fn per_group_choices_cover_all_groups() {
        let s = session(0.05);
        let n = s.groups().len();
        let ctx = ExecCtx::simulate(Device::jetson_orin(), Precision::Fp16);
        let r = tune_inference(&[s], &ctx, &TunerOptions::default());
        assert_eq!(r.per_group_choice.len(), n);
    }

    #[test]
    fn works_on_multiple_scenes() {
        let w = Workload::NuScenesMinkUNet1f;
        let net = w.network();
        let sessions: Vec<Session> = (0..2)
            .map(|i| {
                let scene = w.scene_scaled(10 + i, 0.05);
                Session::new(&net, scene.coords())
            })
            .collect();
        let ctx = ExecCtx::simulate(Device::rtx2080ti(), Precision::Fp16);
        let r = tune_inference(&sessions, &ctx, &TunerOptions::default());
        assert!(r.tuned_latency_us > 0.0);
    }

    /// The tentpole equivalence claim: incremental pricing picks the
    /// same schedule as full re-simulation, bit for bit.
    #[test]
    fn incremental_matches_full_resimulation() {
        let ctx = ExecCtx::simulate(Device::rtx3090(), Precision::Fp16);
        let inc = tune_inference(&[session(0.06)], &ctx, &TunerOptions::default());
        let full = tune_inference(
            &[session(0.06)],
            &ctx,
            &TunerOptions::default().with_mode(EvalMode::FullResimulation),
        );
        assert_eq!(inc.per_group_choice, full.per_group_choice);
        assert_eq!(inc.tuned_latency_us, full.tuned_latency_us);
        assert_eq!(inc.default_latency_us, full.default_latency_us);
        assert_eq!(inc.evaluations, full.evaluations);
        assert!(inc.stats.incremental);
        assert!(!full.stats.incremental);
    }

    #[test]
    fn parallel_sweep_matches_serial() {
        let ctx = ExecCtx::simulate(Device::a100(), Precision::Fp16);
        let serial = tune_inference(
            &[session(0.05)],
            &ctx,
            &TunerOptions::default().with_threads(1),
        );
        let par = tune_inference(
            &[session(0.05)],
            &ctx,
            &TunerOptions::default().with_threads(4),
        );
        assert_eq!(serial.per_group_choice, par.per_group_choice);
        assert_eq!(serial.tuned_latency_us, par.tuned_latency_us);
        assert_eq!(par.stats.threads, 4);
    }

    #[test]
    fn stats_are_populated() {
        let s = session(0.05);
        let n = s.groups().len();
        let ctx = ExecCtx::simulate(Device::rtx3090(), Precision::Fp16);
        let r = tune_inference(&[s], &ctx, &TunerOptions::default());
        assert!(r.stats.wall_us > 0.0);
        assert_eq!(r.stats.group_wall_us.len(), n);
        assert!(
            r.stats.prepare_cache_hits > 0,
            "greedy sweep revisits configurations, so the cache must hit"
        );
        assert!(r.stats.prepare_cache_misses > 0);
    }

    #[test]
    fn tile_policy_dimension_never_loses() {
        let s = session(0.05);
        let ctx = ExecCtx::simulate(Device::rtx3090(), Precision::Fp16);
        let base = tune_inference(std::slice::from_ref(&s), &ctx, &TunerOptions::default());
        let with_tiles = tune_inference(
            &[s],
            &ctx,
            &TunerOptions::default().with_tile_policies(&[
                ts_kernelgen::TilePolicy::Adaptive,
                ts_kernelgen::TilePolicy::Fixed(ts_gpusim::TileShape::small()),
                ts_kernelgen::TilePolicy::Fixed(ts_gpusim::TileShape::large()),
            ]),
        );
        assert!(with_tiles.tuned_latency_us <= base.tuned_latency_us + 1e-6);
        assert_eq!(with_tiles.evaluations, 1 + s_groups(&with_tiles) * 7 * 3);
    }

    fn s_groups(r: &TuneResult) -> usize {
        r.per_group_choice.len()
    }

    #[test]
    fn tiny_grid_session_tunes() {
        let mut b = ts_core::NetworkBuilder::new("tiny", 4);
        let c = b.conv_block("c", ts_core::NetworkBuilder::INPUT, 8, 3, 1);
        let _ = b.conv_block("d", c, 16, 2, 2);
        let net = b.build();
        let coords: Vec<Coord> = (0..100).map(|i| Coord::new(0, i % 10, i / 10, 0)).collect();
        let s = Session::new(&net, &coords);
        let ctx = ExecCtx::simulate(Device::gtx1080ti(), Precision::Fp32);
        let r = tune_inference(&[s], &ctx, &TunerOptions::default());
        assert_eq!(r.per_group_choice.len(), 2);
    }
}
