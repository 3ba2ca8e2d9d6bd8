//! The group-based greedy search both tuners run (Figures 12 and 13):
//! inference sweeps the single family set `{fwd}`, training one family
//! set per bound group of its binding scheme.

use std::time::Instant;

use serde::{Deserialize, Serialize};

use ts_core::{GroupConfigs, Session, TrainConfigs};
use ts_dataflow::{DataflowConfig, ExecCtx};

use crate::{EvalMode, TunerOptions};

/// Kernel-family names by index, as family sets refer to them.
const FAMILIES: [&str; 3] = ["fwd", "dgrad", "wgrad"];

/// Instrumentation of one tuning run: wall-clock cost and prepare-cache
/// behaviour (the simulated-latency *result* is in the accompanying
/// tune result; these numbers describe the tuner itself).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TunerStats {
    /// End-to-end wall-clock time of the tuning run, microseconds.
    pub wall_us: f64,
    /// Wall-clock time of each group sweep, microseconds: one entry per
    /// swept (family set, group) pair, family sets in binding-scheme
    /// order and groups in group order within each. A cold inference
    /// tune sweeps every group once in the single family set `{fwd}`,
    /// so there entry `g` is group `g`.
    pub group_wall_us: Vec<f64>,
    /// Session prepare-cache hits during the run (summed over sessions).
    pub prepare_cache_hits: u64,
    /// Session prepare-cache misses during the run.
    pub prepare_cache_misses: u64,
    /// Worker threads used for candidate sweeps.
    pub threads: usize,
    /// Whether the incremental (decomposed) objective was used.
    pub incremental: bool,
}

/// A warm start for [`crate::tune_inference_warm`] (`C` =
/// [`GroupConfigs`]) or [`crate::tune_training_warm`] (`C` =
/// [`TrainConfigs`], alias [`crate::TrainWarmStart`]): begin the greedy
/// search from `seed` (typically the nearest cached schedule, via
/// `ts-cache`) and re-tune only the groups in `retune` — the groups
/// whose map statistics drifted from the workload the seed was tuned
/// on. Groups outside `retune` keep their seeded configuration
/// untouched.
#[derive(Debug, Clone, PartialEq)]
pub struct WarmStart<C = GroupConfigs> {
    /// Starting configuration table (the transferred schedule).
    pub seed: C,
    /// Indices of the groups to re-tune; duplicates and out-of-range
    /// indices are ignored. An empty list re-tunes nothing and the
    /// result simply reprices the seeded schedule.
    pub retune: Vec<usize>,
}

impl<C> WarmStart<C> {
    /// A warm start that re-tunes every group of a session with
    /// `n_groups` groups — equivalent to a cold tune that merely begins
    /// from `seed` instead of the default.
    pub fn full(seed: C, n_groups: usize) -> Self {
        Self {
            seed,
            retune: (0..n_groups).collect(),
        }
    }
}

/// What a greedy search minimises: the simulated latency of one pass
/// under a configuration table, priced whole or as the residual plus
/// per-group contributions. Implemented by the inference table
/// ([`GroupConfigs`], the forward family only) and the training table
/// ([`TrainConfigs`]).
pub(crate) trait Objective: Clone + Sync {
    /// Gauge that receives the tuned speedup when a tracer is installed.
    const SPEEDUP_GAUGE: &'static str;
    /// The whole pass under this table.
    fn pass_us(&self, s: &Session, ctx: &ExecCtx) -> f64;
    /// The configuration-independent part of the pass.
    fn residual_us(s: &Session, ctx: &ExecCtx) -> f64;
    /// Group `g`'s contribution with its families on `[fwd, dgrad,
    /// wgrad]`.
    fn group_us(s: &Session, g: usize, families: &[DataflowConfig; 3], ctx: &ExecCtx) -> f64;
    /// Group `g`'s current `[fwd, dgrad, wgrad]`.
    fn families(&self, g: usize) -> [DataflowConfig; 3];
    /// The table of family `f`.
    fn family_mut(&mut self, f: usize) -> &mut GroupConfigs;
}

/// Inference runs the forward family only: its dgrad and wgrad slots
/// mirror forward and are never priced.
impl Objective for GroupConfigs {
    const SPEEDUP_GAUGE: &'static str = "autotune.inference.speedup";

    fn pass_us(&self, s: &Session, ctx: &ExecCtx) -> f64 {
        s.simulate_inference(self, ctx).total_us()
    }

    fn residual_us(s: &Session, ctx: &ExecCtx) -> f64 {
        s.inference_residual_us(ctx)
    }

    fn group_us(s: &Session, g: usize, families: &[DataflowConfig; 3], ctx: &ExecCtx) -> f64 {
        s.group_inference_us(g, &families[0], ctx)
    }

    fn families(&self, g: usize) -> [DataflowConfig; 3] {
        [self.for_group(g); 3]
    }

    fn family_mut(&mut self, f: usize) -> &mut GroupConfigs {
        debug_assert_eq!(f, 0, "inference tunes the forward family only");
        self
    }
}

impl Objective for TrainConfigs {
    const SPEEDUP_GAUGE: &'static str = "autotune.training.speedup";

    fn pass_us(&self, s: &Session, ctx: &ExecCtx) -> f64 {
        s.simulate_training(self, ctx).total_us()
    }

    fn residual_us(s: &Session, ctx: &ExecCtx) -> f64 {
        s.training_residual_us(ctx)
    }

    fn group_us(s: &Session, g: usize, families: &[DataflowConfig; 3], ctx: &ExecCtx) -> f64 {
        let [fwd, dgrad, wgrad] = families;
        s.group_training_us(g, fwd, dgrad, wgrad, ctx)
    }

    fn families(&self, g: usize) -> [DataflowConfig; 3] {
        self.for_group(g)
    }

    fn family_mut(&mut self, f: usize) -> &mut GroupConfigs {
        match f {
            0 => &mut self.fwd,
            1 => &mut self.dgrad,
            2 => &mut self.wgrad,
            _ => unreachable!("family index is 0..3"),
        }
    }
}

/// Outcome of one greedy search.
pub(crate) struct Search<C> {
    pub configs: C,
    pub default_latency_us: f64,
    pub tuned_latency_us: f64,
    pub evaluations: usize,
    pub stats: TunerStats,
}

/// The greedy search behind [`crate::tune_inference`] (family sets
/// `[{fwd}]`) and [`crate::tune_training`] (its scheme's sets): starting
/// from `warm`'s seed, or `cold`, each family set sweeps `warm`'s
/// retune groups, or every group, in group order, and each group keeps
/// the candidate that minimises `C`'s end-to-end pass. `span`, the
/// caller's tune span, receives the evaluation count and both
/// latencies.
///
/// # Panics
///
/// Panics if `sessions` is empty or the search space is empty.
pub(crate) fn greedy<C: Objective>(
    sessions: &[Session],
    ctx: &ExecCtx,
    opts: &TunerOptions,
    family_sets: &[&[usize]],
    cold: C,
    warm: Option<&WarmStart<C>>,
    span: &mut ts_trace::SpanGuard,
) -> Search<C> {
    assert!(
        !sessions.is_empty(),
        "tuner needs at least one sample scene"
    );
    assert!(
        !opts.space.is_empty(),
        "tuner needs a non-empty design space"
    );
    // Candidate pricing floods the simulated-kernel lanes; keep the
    // trace to the tuner's own decision structure.
    let _quiet = ts_trace::suppress_sim_kernels();
    let wall_start = Instant::now();
    let n_groups = sessions[0].groups().len();
    let threads = effective_threads(opts.threads);
    let incremental = opts.mode == EvalMode::Incremental;
    let (hits0, misses0) = cache_stats(sessions);

    // A cold tune sweeps every group; a warm start only the drifted
    // ones, in group order.
    let sweep_groups: Vec<usize> = match warm {
        None => (0..n_groups).collect(),
        Some(w) => {
            let mut gs: Vec<usize> = w.retune.iter().copied().filter(|&g| g < n_groups).collect();
            gs.sort_unstable();
            gs.dedup();
            gs
        }
    };

    // With nothing to sweep (a schedule-cache hit) the table stays the
    // seed, and so does its price.
    let sweeps = !sweep_groups.is_empty() && !family_sets.is_empty();

    // A warm run's baseline is the seeded (transferred) schedule, so
    // the speedup measures what re-tuning bought over the transfer.
    let mut configs = warm.map_or(cold, |w| w.seed.clone());
    let mean_us = |cfgs: &C| {
        sessions.iter().map(|s| cfgs.pass_us(s, ctx)).sum::<f64>() / sessions.len() as f64
    };
    let default_latency_us = mean_us(&configs);
    let mut evaluations = 1;

    // Incremental state: per-session residual plus per-(session, group)
    // contributions under the current `configs`.
    let (residuals, mut contrib): (Vec<f64>, Vec<Vec<f64>>) = if incremental && sweeps {
        sessions
            .iter()
            .map(|s| {
                let groups = (0..s.groups().len())
                    .map(|g| C::group_us(s, g, &configs.families(g), ctx))
                    .collect();
                (C::residual_us(s, ctx), groups)
            })
            .unzip()
    } else {
        (Vec::new(), Vec::new())
    };

    let mut group_wall_us = Vec::new();
    for set in family_sets {
        let families = set
            .iter()
            .map(|&f| FAMILIES[f])
            .collect::<Vec<_>>()
            .join("+");
        let _fspan = ts_trace::span!(
            ts_trace::Subsystem::Autotune,
            "family_set",
            families = families.as_str(),
        );
        for &g in &sweep_groups {
            let mut gspan = ts_trace::span!(ts_trace::Subsystem::Autotune, "group", g = g);
            let group_start = Instant::now();
            let cand_us = if incremental {
                let current = configs.families(g);
                let (residuals, contrib) = (&residuals, &contrib);
                sweep(&opts.space, threads, |cand| {
                    let mut trial = current;
                    for &f in *set {
                        trial[f] = *cand;
                    }
                    let mut total = 0.0;
                    for (si, s) in sessions.iter().enumerate() {
                        let mut t = residuals[si];
                        for (g2, &clean) in contrib[si].iter().enumerate() {
                            t += if g2 == g {
                                C::group_us(s, g, &trial, ctx)
                            } else {
                                clean
                            };
                        }
                        total += t;
                    }
                    total / sessions.len() as f64
                })
            } else {
                let configs = &configs;
                sweep(&opts.space, threads, |cand| {
                    let mut trial = configs.clone();
                    for &f in *set {
                        trial.family_mut(f).set(g, *cand);
                    }
                    mean_us(&trial)
                })
            };
            evaluations += opts.space.len();

            // Serial argmin in candidate order with strict `<`: identical
            // tie-breaking to the naive serial tuner.
            let mut best = (opts.default, f64::INFINITY);
            for (i, &t) in cand_us.iter().enumerate() {
                if t < best.1 {
                    best = (opts.space[i], t);
                }
            }
            for &f in *set {
                configs.family_mut(f).set(g, best.0);
            }
            if incremental {
                for (si, s) in sessions.iter().enumerate() {
                    if g < contrib[si].len() {
                        contrib[si][g] = C::group_us(s, g, &configs.families(g), ctx);
                    }
                }
            }
            group_wall_us.push(group_start.elapsed().as_secs_f64() * 1e6);
            if gspan.active() {
                gspan.arg("candidates", opts.space.len());
                gspan.arg("best_us", best.1);
                gspan.arg("choice", format!("{:?}", best.0));
                ts_trace::counter_add("autotune.candidates.swept", opts.space.len() as i64);
                ts_trace::counter_add("autotune.groups.tuned", 1);
            }
        }
    }

    let tuned_latency_us = if sweeps {
        mean_us(&configs)
    } else {
        default_latency_us
    };
    let (hits1, misses1) = cache_stats(sessions);
    if span.active() {
        span.arg("evaluations", evaluations);
        span.arg("default_us", default_latency_us);
        span.arg("tuned_us", tuned_latency_us);
        if let Some(t) = ts_trace::current() {
            t.gauge_set(
                C::SPEEDUP_GAUGE,
                default_latency_us / tuned_latency_us.max(1e-9),
            );
        }
    }
    Search {
        configs,
        default_latency_us,
        tuned_latency_us,
        evaluations,
        stats: TunerStats {
            wall_us: wall_start.elapsed().as_secs_f64() * 1e6,
            group_wall_us,
            prepare_cache_hits: hits1 - hits0,
            prepare_cache_misses: misses1 - misses0,
            threads,
            incremental,
        },
    }
}

/// Resolves a requested thread count (0 = one per available CPU).
fn effective_threads(requested: usize) -> usize {
    if requested != 0 {
        return requested;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Evaluates `eval` on every candidate using up to `threads` scoped
/// worker threads, returning results in candidate order — so the
/// caller's argmin is deterministic and identical to a serial sweep
/// regardless of parallelism.
fn sweep<F>(space: &[DataflowConfig], threads: usize, eval: F) -> Vec<f64>
where
    F: Fn(&DataflowConfig) -> f64 + Sync,
{
    let n = space.len();
    let workers = effective_threads(threads).min(n).max(1);
    if workers == 1 {
        return space.iter().map(eval).collect();
    }
    let mut out = vec![0.0f64; n];
    let chunk = n.div_ceil(workers);
    let eval = &eval;
    // Propagate the caller's tracer (if any) into the scoped workers so
    // counters recorded during candidate evaluation land in one place.
    let tracer = ts_trace::current();
    crossbeam::thread::scope(|scope| {
        for (cands, outs) in space.chunks(chunk).zip(out.chunks_mut(chunk)) {
            let tracer = tracer.clone();
            scope.spawn(move |_| {
                ts_trace::install_opt(tracer.as_ref());
                for (cand, slot) in cands.iter().zip(outs.iter_mut()) {
                    *slot = eval(cand);
                }
            });
        }
    })
    .expect("candidate sweep worker panicked");
    out
}

/// Sums `(hits, misses)` of every session's prepare cache.
fn cache_stats(sessions: &[Session]) -> (u64, u64) {
    sessions.iter().fold((0, 0), |(h, m), s| {
        let c = s.prepare_cache_counters();
        (h + c.hits, m + c.misses)
    })
}
