//! Integration tests for the content-addressed schedule cache
//! (`ts-cache`): warm-start convergence, digest stability across disk
//! round trips, typed-mismatch fallback to cold tuning, poisoned-entry
//! repair, and the training store beside the inference store.

use ts_autotune::{tune_inference, tune_inference_warm, BindingScheme, TunerOptions, WarmStart};
use ts_cache::{
    tune_cached, tune_training_cached, warm_boot, BootOrigin, CacheEntry, DriftPolicy, Lookup,
    ScheduleCache, ScheduleKey, TrainScheduleCache, TuneOrigin,
};
use ts_core::{GroupConfigs, Session};
use ts_dataflow::{DataflowConfig, ExecCtx};
use ts_gpusim::Device;
use ts_tensor::Precision;
use ts_workloads::Workload;

const WORKLOAD: Workload = Workload::NuScenesMinkUNet1f;

fn sessions(seed: u64, scale: f32) -> Vec<Session> {
    let net = WORKLOAD.network();
    let scene = WORKLOAD.scene_scaled(seed, scale);
    vec![Session::new(&net, scene.coords())]
}

fn ctx() -> ExecCtx {
    ExecCtx::simulate(Device::rtx3090(), Precision::Fp16)
}

/// The tentpole's core claim: on a workload *adjacent* to a cached one
/// (same network, device, precision; map statistics shifted by a
/// different scene), a warm-started tune reaches the quality of a cold
/// tune — within 5 % regret — while sweeping fewer groups.
#[test]
fn warm_start_converges_to_cold_quality_with_less_work() {
    let ctx = ctx();
    let opts = TunerOptions::default();
    let policy = DriftPolicy::default();
    let mut cache = ScheduleCache::in_memory();

    let base = sessions(1, 0.05);
    let cold = tune_cached(&mut cache, &base, &ctx, &opts, &policy).expect("in-memory");
    assert_eq!(cold.origin, TuneOrigin::Cold);

    // A different scene of the same workload, mildly rescaled: close
    // enough to transfer, far enough that some statistics drift.
    let adjacent = sessions(7, 0.058);
    let warm = tune_cached(&mut cache, &adjacent, &ctx, &opts, &policy).expect("in-memory");
    assert!(
        matches!(warm.origin, TuneOrigin::WarmStart | TuneOrigin::Hit),
        "adjacent workload must not cold-tune, got {:?}",
        warm.origin
    );

    let cold_reference = tune_inference(&adjacent, &ctx, &opts);
    let regret = warm.result.tuned_latency_us / cold_reference.tuned_latency_us;
    assert!(
        regret <= 1.05,
        "warm-start regret {regret:.4} exceeds 1.05x cold-tuned latency"
    );
    assert!(
        warm.result.evaluations < cold_reference.evaluations,
        "warm start must sweep fewer candidates ({} vs {})",
        warm.result.evaluations,
        cold_reference.evaluations
    );
    let n_groups = adjacent[0].groups().len();
    assert!(
        warm.retuned.len() < n_groups,
        "warm start must re-tune a strict subset of groups ({}/{})",
        warm.retuned.len(),
        n_groups
    );
}

/// Re-tuning the *same* workload is an exact hit: one repricing
/// evaluation, identical schedule, nothing swept.
#[test]
fn identical_workload_is_an_exact_hit() {
    let ctx = ctx();
    let opts = TunerOptions::default();
    let policy = DriftPolicy::default();
    let mut cache = ScheduleCache::in_memory();

    let s = sessions(1, 0.05);
    let cold = tune_cached(&mut cache, &s, &ctx, &opts, &policy).expect("in-memory");
    let hit = tune_cached(&mut cache, &s, &ctx, &opts, &policy).expect("in-memory");
    assert_eq!(hit.origin, TuneOrigin::Hit);
    assert_eq!(hit.result.evaluations, 1);
    assert!(hit.retuned.is_empty());
    assert_eq!(hit.digest, cold.digest);
    assert_eq!(hit.result.configs, cold.result.configs);
    assert_eq!(hit.result.tuned_latency_us, cold.result.tuned_latency_us);
    let counters = cache.counters();
    assert_eq!(counters.hits, 1);
    assert_eq!(counters.misses, 1);
    assert_eq!(counters.inserted, 1);
}

/// Digests are content addresses: they must survive a serialize →
/// write → reopen → parse round trip bit-for-bit, and a reopened store
/// must serve the same hits as the one that wrote it.
#[test]
fn digests_are_stable_across_disk_round_trips() {
    let dir = std::env::temp_dir().join(format!("ts_cache_rt_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let ctx = ctx();
    let opts = TunerOptions::default();
    let policy = DriftPolicy::default();
    let s = sessions(1, 0.05);
    let key = ScheduleKey::of(&s[0], &ctx);

    let digest = {
        let mut cache = ScheduleCache::open(&dir).expect("create store");
        let cold = tune_cached(&mut cache, &s, &ctx, &opts, &policy).expect("write-through");
        assert_eq!(cold.origin, TuneOrigin::Cold);
        cold.digest
    };
    assert_eq!(digest, key.digest(), "entry digest is the key digest");

    // A brand-new process would do exactly this: reopen and probe.
    let mut reopened = ScheduleCache::open(&dir).expect("reopen store");
    assert!(
        reopened.load_issues().is_empty(),
        "{:?}",
        reopened.load_issues()
    );
    assert_eq!(reopened.len(), 1);
    match reopened.lookup(&key, &policy) {
        Lookup::Hit { digest: d, .. } => assert_eq!(d, digest),
        other => panic!("reopened store must hit, got {other:?}"),
    }

    // The stored entry itself round-trips with a stable digest.
    let entry = reopened.get(&digest).expect("entry present").clone();
    let json = serde_json::to_string(&entry).expect("serializes");
    let back: CacheEntry = serde_json::from_str(&json).expect("parses");
    assert_eq!(back.digest(), digest);
    assert_eq!(back.key, entry.key);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Both stores may share one directory: each loads only its own files,
/// so neither reports the other's entries as rejected.
#[test]
fn inference_and_training_stores_share_a_directory() {
    let dir = std::env::temp_dir().join(format!("ts_cache_shared_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ctx = ctx();
    let opts = TunerOptions::default();
    let policy = DriftPolicy::default();
    let s = sessions(1, 0.05);
    {
        let mut inference = ScheduleCache::open(&dir).expect("create store");
        tune_cached(&mut inference, &s, &ctx, &opts, &policy).expect("write-through");
        let mut training = TrainScheduleCache::open(&dir).expect("open store");
        let scheme = BindingScheme::DgradWgrad;
        tune_training_cached(&mut training, &s, &ctx, &opts, scheme, &policy)
            .expect("write-through");
    }

    let inference = ScheduleCache::open(&dir).expect("reopen store");
    let training = TrainScheduleCache::open(&dir).expect("reopen store");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(inference.load_issues(), [] as [String; 0]);
    assert_eq!(training.load_issues(), [] as [String; 0]);
    assert_eq!(inference.counters().rejected, 0, "no false cache.rejected");
    assert_eq!((inference.len(), training.len()), (1, 1));
}

/// Training schedules are keyed by binding scheme — an entry tuned under
/// one scheme never serves a lookup under another — and a poisoned
/// training entry is served as a warm start that re-tunes exactly the
/// groups the sanitizer repaired, in whichever family.
#[test]
fn training_store_is_keyed_by_scheme_and_repairs_poisoned_entries() {
    let ctx = ctx();
    let policy = DriftPolicy::default();
    let mut cache = TrainScheduleCache::in_memory();
    let s = sessions(1, 0.05);
    assert!(s[0].groups().len() > 3);
    let key = ScheduleKey::of(&s[0], &ctx);

    let scheme = BindingScheme::DgradWgrad;
    let opts = TunerOptions::default();
    let cold =
        tune_training_cached(&mut cache, &s, &ctx, &opts, scheme, &policy).expect("in-memory");
    assert_eq!(cold.origin, TuneOrigin::Cold);
    assert_eq!(
        cache.lookup(&key, BindingScheme::ForwardDgrad, &policy),
        Lookup::Miss
    );

    let mut entry = cache.get(&cold.digest).expect("entry present").clone();
    let poison = DataflowConfig::implicit_gemm(999);
    entry.configs.dgrad.per_group.insert(3, poison);
    entry.configs.wgrad.per_group.insert(1, poison);
    cache.insert(entry).expect("in-memory overwrite");
    match cache.lookup(&key, scheme, &policy) {
        Lookup::Warm {
            digest,
            seed,
            drifted,
            distance,
        } => {
            assert_eq!(digest, cold.digest);
            assert_eq!(drifted, vec![1, 3], "only the poisoned slots re-tune");
            assert_eq!(distance, 0.0);
            assert_ne!(
                seed.dgrad.for_group(3),
                poison,
                "sanitizer repaired the seed"
            );
        }
        other => panic!("a poisoned exact match must be warm, got {other:?}"),
    }
}

/// A typed mismatch — different device or precision — must never
/// transfer a schedule: the lookup misses and the tune falls back to a
/// full cold search.
#[test]
fn typed_mismatch_falls_back_to_cold_tuning() {
    let opts = TunerOptions::default();
    let policy = DriftPolicy::default();
    let mut cache = ScheduleCache::in_memory();

    let s = sessions(1, 0.05);
    let cold = tune_cached(&mut cache, &s, &ctx(), &opts, &policy).expect("in-memory");
    assert_eq!(cold.origin, TuneOrigin::Cold);

    // Same workload, different device tier.
    let a100 = ExecCtx::simulate(Device::a100(), Precision::Fp16);
    let on_a100 = tune_cached(&mut cache, &s, &a100, &opts, &policy).expect("in-memory");
    assert_eq!(
        on_a100.origin,
        TuneOrigin::Cold,
        "device mismatch must miss"
    );

    // Same workload and device, different precision.
    let fp32 = ExecCtx::simulate(Device::rtx3090(), Precision::Fp32);
    let at_fp32 = tune_cached(&mut cache, &s, &fp32, &opts, &policy).expect("in-memory");
    assert_eq!(
        at_fp32.origin,
        TuneOrigin::Cold,
        "precision mismatch must miss"
    );

    assert_eq!(cache.counters().misses, 3);
    assert_eq!(cache.len(), 3, "each identity gets its own entry");
}

/// A poisoned cache entry (a config outside the allowed envelope) must
/// not be served as a hit: the sanitizer repairs the bad slots and the
/// lookup downgrades to a warm start that re-tunes exactly those
/// groups.
#[test]
fn poisoned_entry_is_repaired_and_retuned_not_served() {
    let ctx = ctx();
    let opts = TunerOptions::default();
    let policy = DriftPolicy::default();
    let mut cache = ScheduleCache::in_memory();

    let s = sessions(1, 0.05);
    let cold = tune_cached(&mut cache, &s, &ctx, &opts, &policy).expect("in-memory");

    // Poison one group's tuned config with an out-of-envelope split.
    let mut entry = cache.get(&cold.digest).expect("entry present").clone();
    entry
        .configs
        .per_group
        .insert(2, DataflowConfig::implicit_gemm(999));
    cache.insert(entry).expect("in-memory overwrite");

    let repaired = tune_cached(&mut cache, &s, &ctx, &opts, &policy).expect("in-memory");
    assert_eq!(
        repaired.origin,
        TuneOrigin::WarmStart,
        "a poisoned exact match must downgrade to a warm start"
    );
    assert_eq!(repaired.retuned, vec![2], "only the poisoned slot re-tunes");
    // Re-tuning the repaired slot restores the cold-tuned schedule.
    assert_eq!(repaired.result.configs, cold.result.configs);
    assert_eq!(
        repaired.result.tuned_latency_us,
        cold.result.tuned_latency_us
    );

    // A poisoned *default* slot taints every group.
    let mut entry = cache.get(&repaired.digest).expect("entry present").clone();
    entry.configs.default = DataflowConfig::implicit_gemm(999);
    cache.insert(entry).expect("in-memory overwrite");
    let repaired_all = tune_cached(&mut cache, &s, &ctx, &opts, &policy).expect("in-memory");
    assert_eq!(repaired_all.origin, TuneOrigin::WarmStart);
    let n_groups = s[0].groups().len();
    assert_eq!(repaired_all.retuned, (0..n_groups).collect::<Vec<_>>());
}

/// Evicting an entry (the stale-cache operator drill) makes the next
/// tune cold again.
#[test]
fn evicted_entry_stops_matching() {
    let ctx = ctx();
    let opts = TunerOptions::default();
    let policy = DriftPolicy::default();
    let mut cache = ScheduleCache::in_memory();

    let s = sessions(1, 0.05);
    let cold = tune_cached(&mut cache, &s, &ctx, &opts, &policy).expect("in-memory");
    assert!(cache.evict(&cold.digest).expect("evict"), "entry existed");
    assert!(!cache.evict(&cold.digest).expect("evict"), "already gone");

    let again = tune_cached(&mut cache, &s, &ctx, &opts, &policy).expect("in-memory");
    assert_eq!(again.origin, TuneOrigin::Cold);
    assert_eq!(cache.counters().evicted, 1);
}

/// `tune_inference_warm` seeded with the uniform default over *all*
/// groups is the same search as a cold `tune_inference` — bit-identical
/// schedule, latencies and evaluation count.
#[test]
fn warm_start_over_all_groups_equals_cold_tune() {
    let ctx = ctx();
    let opts = TunerOptions::default();
    let s = sessions(3, 0.05);
    let n_groups = s[0].groups().len();

    let cold = tune_inference(&s, &ctx, &opts);
    let warm = tune_inference_warm(
        &s,
        &ctx,
        &opts,
        &WarmStart::full(GroupConfigs::uniform(opts.default), n_groups),
    );
    assert_eq!(warm.configs, cold.configs);
    assert_eq!(warm.tuned_latency_us, cold.tuned_latency_us);
    assert_eq!(warm.default_latency_us, cold.default_latency_us);
    assert_eq!(warm.evaluations, cold.evaluations);
    assert_eq!(warm.per_group_choice, cold.per_group_choice);
}

/// The node-boot path: a cold store boots the safe fallback (lenient,
/// never dead), a tuned store boots the cached schedule, and both
/// engines actually serve.
#[test]
fn warm_boot_serves_cached_schedule_or_safe_fallback() {
    let ctx = ctx();
    let opts = TunerOptions::default();
    let policy = DriftPolicy::default();
    let mut cache = ScheduleCache::in_memory();

    let net = WORKLOAD.network();
    let weights = net.init_weights(0);
    let scene = WORKLOAD.scene_scaled(1, 0.05);

    // Cold store: fallback boot.
    let (engine, boot) = warm_boot(
        &mut cache,
        net.clone(),
        weights.clone(),
        ctx.clone(),
        scene.coords(),
        &policy,
    );
    assert_eq!(boot.origin, BootOrigin::Fallback);
    assert!(boot.digest.is_none());
    assert_eq!(engine.configs().default, DataflowConfig::safe_fallback());
    assert!(engine.simulate(&scene).total_us() > 0.0);

    // Tune and re-boot: cached schedule, as tuned.
    let s = vec![Session::new(&net, scene.coords())];
    let tuned = tune_cached(&mut cache, &s, &ctx, &opts, &policy).expect("in-memory");
    let (engine, boot) = warm_boot(
        &mut cache,
        net.clone(),
        weights.clone(),
        ctx.clone(),
        scene.coords(),
        &policy,
    );
    assert_eq!(boot.origin, BootOrigin::Cached);
    assert_eq!(boot.digest.as_deref(), Some(tuned.digest.as_str()));
    assert_eq!(Some(engine.configs()), tuned.result.configs.as_ref());
}

/// The cache is content-addressed, not name-addressed: the same
/// topology under a different network name boots the cached schedule,
/// and the engine it boots runs the network under its *own* name.
#[test]
fn warm_boot_transfers_across_network_renames() {
    use ts_core::NetworkBuilder;
    use ts_kernelmap::Coord;

    fn build(name: &str) -> ts_core::Network {
        let mut b = NetworkBuilder::new(name, 4);
        let c = b.conv_block("stem", NetworkBuilder::INPUT, 8, 3, 1);
        let d = b.conv_block("down", c, 16, 2, 2);
        let _ = b.conv("head", d, 4, 3, 1);
        b.build()
    }
    let coords: Vec<Coord> = (0..100)
        .map(|i| Coord::new(0, i % 10, i / 10, i % 3))
        .collect();

    let ctx = ctx();
    let opts = TunerOptions::default();
    let policy = DriftPolicy::default();
    let mut cache = ScheduleCache::in_memory();

    let original = build("pilot");
    let s = vec![Session::new(&original, &coords)];
    let tuned = tune_cached(&mut cache, &s, &ctx, &opts, &policy).expect("in-memory");

    let renamed = build("production");
    let weights = renamed.init_weights(0);
    let (engine, boot) = warm_boot(&mut cache, renamed, weights, ctx, &coords, &policy);
    assert_eq!(boot.origin, BootOrigin::Cached, "rename must still hit");
    assert_eq!(Some(engine.configs()), tuned.result.configs.as_ref());
    assert_eq!(engine.network().name(), "production");
}

/// Cache activity is observable: lookups and inserts emit `cache.*`
/// trace counters that land on the cache subsystem's track.
#[test]
fn cache_counters_reach_the_tracer() {
    let tracer = ts_trace::Tracer::new();
    tracer.install();

    let ctx = ctx();
    let opts = TunerOptions::default();
    let policy = DriftPolicy::default();
    let mut cache = ScheduleCache::in_memory();
    let s = sessions(1, 0.05);
    let _ = tune_cached(&mut cache, &s, &ctx, &opts, &policy).expect("in-memory");
    let _ = tune_cached(&mut cache, &s, &ctx, &opts, &policy).expect("in-memory");

    ts_trace::uninstall();
    assert_eq!(tracer.counter("cache.miss"), 1);
    assert_eq!(tracer.counter("cache.hit"), 1);
    assert_eq!(tracer.counter("cache.inserted"), 1);
    assert_eq!(
        ts_trace::Subsystem::from_counter_name("cache.hit"),
        ts_trace::Subsystem::Cache
    );
}
