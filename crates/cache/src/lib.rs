//! **Content-addressed schedule cache** with warm-start transfer
//! tuning.
//!
//! The Sparse Autotuner (`ts-autotune`) makes tuned schedules cheap —
//! but not free: a cold tune prices `1 + groups × |space|` end-to-end
//! simulations. Across a fleet, most of those tunes are re-derivations:
//! the same network on the same device tier, fed workloads whose map
//! statistics differ only by scene-to-scene jitter. This crate makes
//! that redundancy explicit by keying every tuned schedule by its
//! *content* — a canonical digest of the layer graph, device model,
//! precision and quantized per-group map statistics — and serving
//! three tiers of reuse:
//!
//! * **Hit** — same digest: load the cached schedule, pay one
//!   repricing simulation, tune nothing.
//! * **Warm start** — same structure (graph/device/precision/group
//!   shapes), nearby statistics: seed the tuner with the cached
//!   schedule and re-tune only the groups that drifted past the
//!   [`DriftPolicy`]. Cost: `1 + |drifted| × |space|`.
//! * **Miss** — nothing compatible: cold-tune (or, on the serving boot
//!   path, fall back to the safe dataflow and stay up).
//!
//! A store entry is the one persisted form of a tuned schedule, and
//! [`warm_boot`] ([`boot_schedule`] plus [`Engine::new`]) the one path
//! from a store to an engine.
//!
//! # Examples
//!
//! ```
//! use ts_autotune::TunerOptions;
//! use ts_cache::{tune_cached, DriftPolicy, ScheduleCache, TuneOrigin};
//! use ts_core::Session;
//! use ts_dataflow::ExecCtx;
//! use ts_gpusim::Device;
//! use ts_tensor::Precision;
//! use ts_workloads::Workload;
//!
//! let w = Workload::NuScenesMinkUNet1f;
//! let net = w.network();
//! let ctx = ExecCtx::simulate(Device::rtx3090(), Precision::Fp16);
//! let opts = TunerOptions::default();
//! let policy = DriftPolicy::default();
//! let mut cache = ScheduleCache::in_memory();
//!
//! // First encounter: cold tune, schedule written to the cache.
//! let scene = w.scene_scaled(1, 0.05);
//! let sessions = [Session::new(&net, scene.coords())];
//! let cold = tune_cached(&mut cache, &sessions, &ctx, &opts, &policy).unwrap();
//! assert_eq!(cold.origin, TuneOrigin::Cold);
//!
//! // Same workload again: exact hit, one repricing evaluation.
//! let again = tune_cached(&mut cache, &sessions, &ctx, &opts, &policy).unwrap();
//! assert_eq!(again.origin, TuneOrigin::Hit);
//! assert_eq!(again.result.evaluations, 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod digest;
mod store;

pub use digest::{
    census_distance, drifted_groups, hex64, network_digest, quantize_stat, Digest64, ScheduleKey,
};
pub use store::{
    CacheCounters, CacheEntry, DriftPolicy, Lookup, ScheduleCache, ScheduleStore, StoreEntry,
    TrainCacheEntry, TrainScheduleCache,
};

use std::io;

use ts_autotune::{
    tune_inference, tune_inference_warm, tune_training, tune_training_warm, BindingScheme,
    TrainTuneResult, TuneResult, TunerOptions, WarmStart,
};
use ts_core::{Engine, GroupConfigs, Network, NetworkWeights, Session};
use ts_dataflow::{DataflowConfig, ExecCtx};
use ts_kernelmap::Coord;

/// How a [`tune_cached`] run obtained its schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TuneOrigin {
    /// Exact digest match: cached schedule served as-is (one repricing
    /// evaluation, zero groups swept).
    Hit,
    /// Nearest-neighbor transfer: cached schedule seeded the tuner and
    /// only drifted groups re-tuned.
    WarmStart,
    /// No compatible entry: full cold tune.
    Cold,
}

/// A [`tune_cached`] (or, with [`TrainTuneResult`],
/// [`tune_training_cached`]) outcome: the tuner's result plus the
/// cache's account of how it was produced.
#[derive(Debug, Clone)]
pub struct CachedTune<R = TuneResult> {
    /// The (possibly repriced) tuning result.
    pub result: R,
    /// How the schedule was obtained.
    pub origin: TuneOrigin,
    /// Content digest of the schedule's cache entry (the hit entry, or
    /// the entry written back after tuning).
    pub digest: String,
    /// Groups that were actually swept (empty for [`TuneOrigin::Hit`];
    /// all groups for [`TuneOrigin::Cold`]).
    pub retuned: Vec<usize>,
    /// Census distance to the seed entry (0 for hits and exact-digest
    /// repairs; 0 for cold tunes, which have no seed).
    pub distance: f64,
}

/// A [`tune_training_cached`] outcome.
pub type TrainCachedTune = CachedTune<TrainTuneResult>;

/// The hit / warm / miss logic both cached tuners share: probes
/// `cache`, runs `tune` with the warm seed and the groups to re-tune
/// (`None` for a cold tune), and writes warm and cold results back as
/// `entry` builds them. A hit reprices the cached schedule with nothing
/// to re-tune rather than trusting the recorded latency, which was
/// measured on the *original* sample scenes.
fn tune_through<E: StoreEntry, R>(
    cache: &mut ScheduleStore<E>,
    key: ScheduleKey,
    scope: E::Scope,
    policy: &DriftPolicy,
    tune: impl FnOnce(Option<(E::Configs, Vec<usize>)>) -> R,
    entry: impl FnOnce(ScheduleKey, &R) -> E,
) -> io::Result<CachedTune<R>> {
    let n_groups = key.groups.len();
    let (result, origin, retuned, distance) = match cache.probe(&key, scope, policy) {
        Lookup::Hit {
            digest, configs, ..
        } => {
            return Ok(CachedTune {
                result: tune(Some((configs, Vec::new()))),
                origin: TuneOrigin::Hit,
                digest,
                retuned: Vec::new(),
                distance: 0.0,
            })
        }
        Lookup::Warm {
            seed,
            drifted,
            distance,
            ..
        } => (
            tune(Some((seed, drifted.clone()))),
            TuneOrigin::WarmStart,
            drifted,
            distance,
        ),
        Lookup::Miss => (tune(None), TuneOrigin::Cold, (0..n_groups).collect(), 0.0),
    };
    let digest = cache.insert(entry(key, &result))?;
    Ok(CachedTune {
        result,
        origin,
        digest,
        retuned,
        distance,
    })
}

/// Tunes `sessions` through the cache: exact hits reprice without
/// sweeping, structural matches warm-start the tuner over drifted
/// groups only, and misses cold-tune. Warm and cold results are
/// written back so the next structurally compatible workload pays
/// less. All sessions must share one compiled network (the usual
/// multi-sample-scene tuning setup); the key is taken from the first.
///
/// # Errors
///
/// Returns the underlying I/O error if the write-back to a
/// directory-backed store fails (the in-memory insert still happened
/// and the returned schedule is valid).
///
/// # Panics
///
/// Panics if `sessions` is empty or the search space is empty (same
/// contract as [`tune_inference`]).
pub fn tune_cached(
    cache: &mut ScheduleCache,
    sessions: &[Session],
    ctx: &ExecCtx,
    opts: &TunerOptions,
    policy: &DriftPolicy,
) -> io::Result<CachedTune> {
    assert!(
        !sessions.is_empty(),
        "tune_cached needs at least one sample scene"
    );
    let key = ScheduleKey::of(&sessions[0], ctx);
    tune_through(
        cache,
        key,
        (),
        policy,
        |warm| match warm {
            Some((seed, retune)) => {
                tune_inference_warm(sessions, ctx, opts, &WarmStart { seed, retune })
            }
            None => tune_inference(sessions, ctx, opts),
        },
        |key, result| CacheEntry {
            key,
            configs: result
                .configs
                .clone()
                .expect("tuner results carry their schedule"),
            tuned_latency_us: result.tuned_latency_us,
            default_latency_us: result.default_latency_us,
        },
    )
}

/// Tunes training schedules for `sessions` under `scheme` through the
/// cache — the training counterpart of [`tune_cached`]: exact hits
/// reprice without sweeping, structural matches tuned under the *same
/// scheme* warm-start the training tuner over drifted groups only, and
/// misses cold-tune. Warm and cold results are written back.
///
/// # Errors
///
/// Returns the underlying I/O error if the write-back to a
/// directory-backed store fails (the in-memory insert still happened
/// and the returned schedule is valid).
///
/// # Panics
///
/// Panics if `sessions` is empty or the search space is empty (same
/// contract as [`tune_training`]).
pub fn tune_training_cached(
    cache: &mut TrainScheduleCache,
    sessions: &[Session],
    ctx: &ExecCtx,
    opts: &TunerOptions,
    scheme: BindingScheme,
    policy: &DriftPolicy,
) -> io::Result<TrainCachedTune> {
    assert!(
        !sessions.is_empty(),
        "tune_training_cached needs at least one sample scene"
    );
    let key = ScheduleKey::of(&sessions[0], ctx);
    tune_through(
        cache,
        key,
        scheme,
        policy,
        |warm| match warm {
            Some((seed, retune)) => {
                tune_training_warm(sessions, ctx, opts, scheme, &WarmStart { seed, retune })
            }
            None => tune_training(sessions, ctx, opts, scheme),
        },
        |key, result| TrainCacheEntry {
            key,
            scheme: result.scheme,
            configs: result.configs.clone(),
            tuned_latency_us: result.tuned_latency_us,
            default_latency_us: result.default_latency_us,
        },
    )
}

/// Where a [`boot_schedule`] table came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BootOrigin {
    /// Exact digest hit: the cached tuned schedule, as-is.
    Cached,
    /// Structural match: a nearby workload's tuned schedule,
    /// transferred without re-tuning (some groups may be marked
    /// drifted — re-tune them offline via [`tune_cached`]). An exact
    /// entry with slots that fail validation boots here too, and its
    /// engine runs those slots on the safe fallback.
    Transferred,
    /// No compatible entry: the safe fallback dataflow everywhere.
    /// The node boots and serves; it is just untuned.
    Fallback,
}

/// A [`boot_schedule`] (and [`warm_boot`]) report: where the schedule
/// came from and how stale it might be.
#[derive(Debug, Clone)]
pub struct WarmBoot {
    /// Schedule provenance.
    pub origin: BootOrigin,
    /// Digest of the cache entry used (`None` on fallback boots).
    pub digest: Option<String>,
    /// Groups whose statistics drifted past policy relative to the
    /// entry (they run a transferred config that may be stale).
    pub drifted: Vec<usize>,
    /// Census distance to the entry used (0.0 on hits and fallbacks).
    pub distance: f64,
}

/// Resolves the schedule a node boots from `cache`: probes with
/// `sample_coords` (a representative scene for the node's workload)
/// under `ctx`'s device and precision, and returns the stored table of
/// the exact hit, or of the nearest structurally compatible entry on a
/// near-miss, or the uniform safe fallback on a miss, with its
/// provenance. The table is returned as stored, unsanitized, so the
/// [`Engine`] built from it records a [`ts_core::Downgrade`] for each
/// slot that fails validation. Never tunes: this is the node-boot path,
/// where availability beats optimality.
pub fn boot_schedule(
    cache: &mut ScheduleCache,
    network: &Network,
    ctx: &ExecCtx,
    sample_coords: &[Coord],
    policy: &DriftPolicy,
) -> (GroupConfigs, WarmBoot) {
    let key = ScheduleKey::of(&Session::new(network, sample_coords), ctx);
    let (origin, digest, drifted, distance) = match cache.lookup(&key, policy) {
        Lookup::Hit { digest, .. } => (BootOrigin::Cached, Some(digest), Vec::new(), 0.0),
        Lookup::Warm {
            digest,
            drifted,
            distance,
            ..
        } => (BootOrigin::Transferred, Some(digest), drifted, distance),
        Lookup::Miss => (BootOrigin::Fallback, None, Vec::new(), 0.0),
    };
    let schedule = match &digest {
        Some(d) => cache
            .get(d)
            .expect("a lookup names a stored entry")
            .configs
            .clone(),
        None => GroupConfigs::uniform(DataflowConfig::safe_fallback()),
    };
    let boot = WarmBoot {
        origin,
        digest,
        drifted,
        distance,
    };
    (schedule, boot)
}

/// Boots a serving engine from the cache: [`boot_schedule`] under
/// `ctx`, then [`Engine::new`], which runs any slot of the stored table
/// that fails validation on the safe fallback. Never fails and never
/// tunes; re-tune drifted groups offline with [`tune_cached`] and
/// restart.
pub fn warm_boot(
    cache: &mut ScheduleCache,
    network: Network,
    weights: NetworkWeights,
    ctx: ExecCtx,
    sample_coords: &[Coord],
    policy: &DriftPolicy,
) -> (Engine, WarmBoot) {
    let (schedule, boot) = boot_schedule(cache, &network, &ctx, sample_coords, policy);
    (Engine::new(network, weights, schedule, ctx), boot)
}
