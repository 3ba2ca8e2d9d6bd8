//! Training tuner with parameter-binding schemes (Figure 13 / 22).

use serde::{Deserialize, Serialize};

use ts_core::{Session, TrainConfigs};
use ts_dataflow::ExecCtx;
use ts_gpusim::Device;

use crate::search::{greedy, TunerStats, WarmStart};
use crate::TunerOptions;

/// How forward / dgrad / wgrad dataflow parameters are coupled during
/// training tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BindingScheme {
    /// One configuration for all three kernel families (the
    /// conventional design the paper challenges; cheapest to tune).
    AllBound,
    /// Bind forward + dgrad (same workload pattern), tune wgrad
    /// separately — the *workload-pattern oriented* scheme, best on
    /// low-parallelism devices like the 2080 Ti.
    ForwardDgrad,
    /// Bind dgrad + wgrad (they share maps, minimising mapping
    /// overhead), tune forward separately — the *sparse-mapping
    /// oriented* scheme, best on high-parallelism devices like the A100.
    DgradWgrad,
    /// Tune all three independently (O(K^3) if done exhaustively; here
    /// the greedy group tuner keeps it linear but it still pays maximal
    /// mapping overhead).
    Decoupled,
}

impl BindingScheme {
    /// All schemes, for sweeps.
    pub const ALL: [BindingScheme; 4] = [
        BindingScheme::AllBound,
        BindingScheme::ForwardDgrad,
        BindingScheme::DgradWgrad,
        BindingScheme::Decoupled,
    ];

    /// The family sets tuned together, in tuning order (0 = fwd,
    /// 1 = dgrad, 2 = wgrad).
    fn family_sets(self) -> &'static [&'static [usize]] {
        match self {
            BindingScheme::AllBound => &[&[0, 1, 2]],
            BindingScheme::ForwardDgrad => &[&[0, 1], &[2]],
            BindingScheme::DgradWgrad => &[&[1, 2], &[0]],
            BindingScheme::Decoupled => &[&[0], &[1], &[2]],
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            BindingScheme::AllBound => "bind fwd+dgrad+wgrad",
            BindingScheme::ForwardDgrad => "bind fwd+dgrad",
            BindingScheme::DgradWgrad => "bind dgrad+wgrad",
            BindingScheme::Decoupled => "decoupled",
        }
    }
}

/// Picks the paper's recommended scheme for a device: dgrad+wgrad
/// binding on high-parallelism GPUs (big tensor-to-CUDA-core gap),
/// forward+dgrad binding on low-end devices.
pub fn default_scheme_for(device: &Device) -> BindingScheme {
    if device.tensor_to_cuda_ratio(ts_gpusim::Precision::Fp16) >= 8.0 {
        BindingScheme::DgradWgrad
    } else {
        BindingScheme::ForwardDgrad
    }
}

/// Result of a training tuning run.
#[derive(Debug, Clone)]
pub struct TrainTuneResult {
    /// The tuned per-family configuration tables.
    pub configs: TrainConfigs,
    /// Tuned end-to-end training-iteration latency (mean over scenes).
    pub tuned_latency_us: f64,
    /// Latency of the all-bound default configuration.
    pub default_latency_us: f64,
    /// Number of end-to-end evaluations (tuning cost).
    pub evaluations: usize,
    /// The binding scheme used.
    pub scheme: BindingScheme,
    /// Wall-clock and cache instrumentation of the run.
    pub stats: TunerStats,
}

impl TrainTuneResult {
    /// Speedup over the all-bound default.
    pub fn speedup(&self) -> f64 {
        self.default_latency_us / self.tuned_latency_us.max(1e-9)
    }
}

/// A warm start for [`tune_training_warm`]: the per-family greedy
/// search begins from the seeded training schedule.
pub type TrainWarmStart = WarmStart<TrainConfigs>;

/// Tunes training dataflows under `scheme` by reusing the group-based
/// greedy tuner once per *bound family set* (the paper's trick that
/// brings tuning cost from O(K^2)–O(K^3) down to O(K)).
///
/// # Panics
///
/// Panics if `sessions` is empty or the space is empty.
pub fn tune_training(
    sessions: &[Session],
    ctx: &ExecCtx,
    opts: &TunerOptions,
    scheme: BindingScheme,
) -> TrainTuneResult {
    tune_training_impl(sessions, ctx, opts, scheme, None)
}

/// [`tune_training`] warm-started from a transferred training schedule:
/// the greedy per-family search begins from `warm.seed` and sweeps only
/// the groups in `warm.retune` — the training-schedule cache's transfer
/// path (`1 + |retune| × |family sets| × |space|` evaluations instead
/// of a full cold tune). `default_latency_us` reports the latency of
/// the *seeded* schedule, so [`TrainTuneResult::speedup`] measures what
/// re-tuning bought over the transfer.
///
/// # Panics
///
/// Panics if `sessions` is empty or the space is empty.
pub fn tune_training_warm(
    sessions: &[Session],
    ctx: &ExecCtx,
    opts: &TunerOptions,
    scheme: BindingScheme,
    warm: &TrainWarmStart,
) -> TrainTuneResult {
    tune_training_impl(sessions, ctx, opts, scheme, Some(warm))
}

fn tune_training_impl(
    sessions: &[Session],
    ctx: &ExecCtx,
    opts: &TunerOptions,
    scheme: BindingScheme,
    warm: Option<&TrainWarmStart>,
) -> TrainTuneResult {
    let mut span = ts_trace::span!(
        ts_trace::Subsystem::Autotune,
        "tune_training",
        scheme = scheme.name(),
        sessions = sessions.len(),
        space = opts.space.len(),
    );
    let (cold, sets) = (TrainConfigs::bound(opts.default), scheme.family_sets());
    let t = greedy(sessions, ctx, opts, sets, cold, warm, &mut span);
    TrainTuneResult {
        configs: t.configs,
        tuned_latency_us: t.tuned_latency_us,
        default_latency_us: t.default_latency_us,
        evaluations: t.evaluations,
        scheme,
        stats: t.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EvalMode;
    use ts_tensor::Precision;
    use ts_workloads::Workload;

    fn session() -> Session {
        let w = Workload::NuScenesMinkUNet1f;
        let net = w.network();
        let scene = w.batch_scaled(5, 0.05, 2);
        Session::new(&net, scene.coords())
    }

    #[test]
    fn all_schemes_beat_or_match_default() {
        let s = session();
        let ctx = ExecCtx::simulate(Device::a100(), Precision::Fp16);
        for scheme in BindingScheme::ALL {
            let r = tune_training(
                std::slice::from_ref(&s),
                &ctx,
                &TunerOptions::default(),
                scheme,
            );
            assert!(
                r.tuned_latency_us <= r.default_latency_us + 1e-6,
                "{}: {} > {}",
                scheme.name(),
                r.tuned_latency_us,
                r.default_latency_us
            );
        }
    }

    #[test]
    fn partial_binding_not_worse_than_all_bound() {
        let s = session();
        let ctx = ExecCtx::simulate(Device::a100(), Precision::Fp16);
        let all = tune_training(
            std::slice::from_ref(&s),
            &ctx,
            &TunerOptions::default(),
            BindingScheme::AllBound,
        );
        let dw = tune_training(
            &[s],
            &ctx,
            &TunerOptions::default(),
            BindingScheme::DgradWgrad,
        );
        assert!(dw.tuned_latency_us <= all.tuned_latency_us * 1.001);
    }

    #[test]
    fn evaluation_cost_ranks_by_scheme() {
        let s = session();
        let ctx = ExecCtx::simulate(Device::rtx2080ti(), Precision::Fp16);
        let opts = TunerOptions::default();
        let all = tune_training(
            std::slice::from_ref(&s),
            &ctx,
            &opts,
            BindingScheme::AllBound,
        );
        let fd = tune_training(
            std::slice::from_ref(&s),
            &ctx,
            &opts,
            BindingScheme::ForwardDgrad,
        );
        let dec = tune_training(&[s], &ctx, &opts, BindingScheme::Decoupled);
        assert!(all.evaluations < fd.evaluations);
        assert!(fd.evaluations < dec.evaluations);
    }

    #[test]
    fn incremental_matches_full_resimulation_for_training() {
        let s = session();
        let ctx = ExecCtx::simulate(Device::a100(), Precision::Fp16);
        for scheme in [BindingScheme::DgradWgrad, BindingScheme::Decoupled] {
            let inc = tune_training(
                std::slice::from_ref(&s),
                &ctx,
                &TunerOptions::default(),
                scheme,
            );
            let full = tune_training(
                std::slice::from_ref(&s),
                &ctx,
                &TunerOptions::default().with_mode(EvalMode::FullResimulation),
                scheme,
            );
            assert_eq!(inc.configs, full.configs, "{}", scheme.name());
            assert_eq!(inc.tuned_latency_us, full.tuned_latency_us);
            assert_eq!(inc.default_latency_us, full.default_latency_us);
            assert_eq!(inc.evaluations, full.evaluations);
        }
    }

    #[test]
    fn warm_start_with_empty_retune_reprices_seed() {
        let s = session();
        let ctx = ExecCtx::simulate(Device::a100(), Precision::Fp16);
        let opts = TunerOptions::default();
        let cold = tune_training(
            std::slice::from_ref(&s),
            &ctx,
            &opts,
            BindingScheme::DgradWgrad,
        );
        let warm = TrainWarmStart {
            seed: cold.configs.clone(),
            retune: Vec::new(),
        };
        let re = tune_training_warm(&[s], &ctx, &opts, BindingScheme::DgradWgrad, &warm);
        assert_eq!(re.evaluations, 1);
        assert_eq!(re.configs, cold.configs);
        assert_eq!(re.tuned_latency_us, cold.tuned_latency_us);
        // The warm baseline is the seed itself, so repricing is neutral.
        assert_eq!(re.default_latency_us, re.tuned_latency_us);
    }

    #[test]
    fn full_warm_start_from_default_matches_cold_tune() {
        let s = session();
        let n_groups = s.groups().len();
        let ctx = ExecCtx::simulate(Device::rtx2080ti(), Precision::Fp16);
        let opts = TunerOptions::default();
        let cold = tune_training(
            std::slice::from_ref(&s),
            &ctx,
            &opts,
            BindingScheme::ForwardDgrad,
        );
        let warm = TrainWarmStart::full(TrainConfigs::bound(opts.default), n_groups);
        let re = tune_training_warm(&[s], &ctx, &opts, BindingScheme::ForwardDgrad, &warm);
        assert_eq!(re.configs, cold.configs);
        assert_eq!(re.tuned_latency_us, cold.tuned_latency_us);
        assert_eq!(re.evaluations, cold.evaluations);
    }

    #[test]
    fn device_scheme_defaults_match_paper() {
        assert_eq!(
            default_scheme_for(&Device::a100()),
            BindingScheme::DgradWgrad
        );
        assert_eq!(
            default_scheme_for(&Device::rtx2080ti()),
            BindingScheme::ForwardDgrad
        );
    }
}
