//! Integration: a tuned schedule persists as a ts-cache store entry and
//! drives the deployment engine across scenes and devices — and a
//! damaged entry boots a degraded or untuned engine, never a panic.

use std::path::PathBuf;

use torchsparse::autotune::{tune_inference, TunerOptions};
use torchsparse::cache::{
    tune_cached, warm_boot, BootOrigin, CacheEntry, CachedTune, DriftPolicy, ScheduleCache,
};
use torchsparse::core::{
    sanitize_configs, Downgrade, Engine, GroupConfigs, Network, Session, SparseTensor,
};
use torchsparse::dataflow::{DataflowConfig, ExecCtx, MAX_SPLITS};
use torchsparse::fleet::{DeviceTier, NodeSpec};
use torchsparse::gpusim::Device;
use torchsparse::serve::{FaultPlan, ServeConfig};
use torchsparse::tensor::Precision;
use torchsparse::workloads::Workload;

const WORKLOAD: Workload = Workload::NuScenesMinkUNet1f;

fn ctx() -> ExecCtx {
    ExecCtx::functional(Device::rtx3090(), Precision::Fp16)
}

/// An empty directory for one test's store.
fn store_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ts_portability_{test}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Tunes a sample scene of [`WORKLOAD`] into `store`, returning the
/// network, the scene and the tune.
fn tune_into(store: &mut ScheduleCache) -> (Network, SparseTensor, CachedTune) {
    let net = WORKLOAD.network();
    let scene = WORKLOAD.scene_scaled(3, 0.04);
    let sessions = [Session::new(&net, scene.coords())];
    let sim_ctx = ExecCtx::simulate(Device::rtx3090(), Precision::Fp16);
    let opts = TunerOptions::default();
    let tuned = tune_cached(store, &sessions, &sim_ctx, &opts, &DriftPolicy::default())
        .expect("store write");
    (net, scene, tuned)
}

/// Tune into a directory store, reopen it as a restarted node would,
/// and boot: the engine runs the tuned schedule and times every scene
/// bit-identically to an engine built from the tuner's own result.
#[test]
fn tuned_store_reopens_and_boots_the_tuned_schedule() {
    let dir = store_dir("reopen");
    let mut store = ScheduleCache::open(&dir).expect("create store");
    let (net, sample, tuned) = tune_into(&mut store);
    drop(store);

    let weights = net.init_weights(5);
    let configs = tuned.result.group_configs().expect("tuner yields configs");
    let tuned_engine = Engine::new(net.clone(), weights.clone(), configs.clone(), ctx());

    let mut store = ScheduleCache::open(&dir).expect("reopen store");
    assert!(store.load_issues().is_empty(), "{:?}", store.load_issues());
    let policy = DriftPolicy::default();
    let (engine, boot) = warm_boot(&mut store, net, weights, ctx(), sample.coords(), &policy);
    assert_eq!(boot.origin, BootOrigin::Cached);
    assert_eq!(boot.digest.as_deref(), Some(tuned.digest.as_str()));
    assert!(!engine.is_degraded());
    for seed in 10..12 {
        let scene = WORKLOAD.scene_scaled(seed, 0.05);
        assert_eq!(
            tuned_engine.simulate(&scene).total_us().to_bits(),
            engine.simulate(&scene).total_us().to_bits()
        );
    }
    let scene = WORKLOAD.scene_scaled(12, 0.05);
    let (out, report) = engine.infer(&scene);
    assert_eq!(out.num_points(), scene.num_points());
    assert!(report.total_us() > 0.0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn schedules_transfer_across_devices_with_degradation() {
    // A schedule tuned for the A100 still *runs* on Orin, but retuning
    // for Orin must not be worse — device-specific tuning is the point.
    let w = Workload::WaymoCenterPoint1f;
    let net = w.network();
    let scene = w.scene_scaled(2, 0.05);
    let session = Session::new(&net, scene.coords());

    let a100_ctx = ExecCtx::simulate(Device::a100(), Precision::Fp16);
    let orin_ctx = ExecCtx::simulate(Device::jetson_orin(), Precision::Fp16);

    let a100_schedule = tune_inference(
        std::slice::from_ref(&session),
        &a100_ctx,
        &TunerOptions::default(),
    );
    let orin_schedule = tune_inference(
        std::slice::from_ref(&session),
        &orin_ctx,
        &TunerOptions::default(),
    );

    let foreign = session
        .simulate_inference(a100_schedule.group_configs().expect("configs"), &orin_ctx)
        .total_us();
    let native = session
        .simulate_inference(orin_schedule.group_configs().expect("configs"), &orin_ctx)
        .total_us();
    assert!(
        native <= foreign + 1e-6,
        "native {native} > foreign {foreign}"
    );
}

/// The config [`poisoned_store`] writes into group 2: a split count
/// out of range.
fn poison() -> DataflowConfig {
    DataflowConfig::implicit_gemm(MAX_SPLITS + 1)
}

/// A store holding one tuned entry with [`poison`] in group 2, plus the
/// network, the sample scene and the entry as stored.
fn poisoned_store() -> (Network, SparseTensor, ScheduleCache, CacheEntry) {
    let mut store = ScheduleCache::in_memory();
    let (net, sample, tuned) = tune_into(&mut store);
    let mut entry = store.get(&tuned.digest).expect("tuned entry").clone();
    entry.configs.set(2, poison());
    store.insert(entry.clone()).expect("in-memory store");
    (net, sample, store, entry)
}

/// One stored group with an out-of-range split count boots an engine
/// degraded in exactly that group, which computes what an engine built
/// from the sanitized table computes.
#[test]
fn poisoned_entry_boots_degraded_in_that_group() {
    let (net, sample, mut store, entry) = poisoned_store();
    let weights = net.init_weights(5);
    let policy = DriftPolicy::default();
    let (engine, boot) = warm_boot(
        &mut store,
        net.clone(),
        weights.clone(),
        ctx(),
        sample.coords(),
        &policy,
    );
    assert_eq!(boot.origin, BootOrigin::Transferred);
    assert_eq!(boot.drifted, vec![2]);
    match engine.downgrades() {
        [Downgrade::Group {
            group: Some(2),
            from,
            ..
        }] => assert_eq!(*from, poison()),
        other => panic!("expected one group-2 downgrade, got {other:?}"),
    }

    let (sanitized, _) = sanitize_configs(&entry.configs);
    let reference = Engine::new(net, weights, sanitized, ctx());
    assert!(!reference.is_degraded());
    let scene = WORKLOAD.scene_scaled(8, 0.03);
    let (out, report) = engine.infer(&scene);
    let (want, want_report) = reference.infer(&scene);
    assert_eq!(out.coords(), want.coords());
    let bits = |t: &SparseTensor| -> Vec<u32> {
        t.feats().as_slice().iter().map(|v| v.to_bits()).collect()
    };
    assert_eq!(bits(&out), bits(&want));
    assert_eq!(
        report.total_us().to_bits(),
        want_report.total_us().to_bits()
    );
}

/// A truncated entry file is skipped when the store opens — it shows in
/// `load_issues` and `cache.rejected` — and the node boots the untuned
/// safe fallback, which is not a degraded engine.
#[test]
fn truncated_entry_file_boots_the_fallback() {
    let dir = store_dir("truncated");
    let mut store = ScheduleCache::open(&dir).expect("create store");
    let (net, sample, tuned) = tune_into(&mut store);
    drop(store);

    let path = dir.join(format!("{}.json", tuned.digest));
    let json = std::fs::read_to_string(&path).expect("entry written");
    let truncated = FaultPlan::from_seed(21).corrupt_truncate(&json);
    std::fs::write(&path, truncated).expect("entry overwritten");

    let mut store = ScheduleCache::open(&dir).expect("reopen store");
    assert!(!store.load_issues().is_empty());
    assert_eq!(store.counters().rejected, 1);
    let weights = net.init_weights(5);
    let policy = DriftPolicy::default();
    let (engine, boot) = warm_boot(&mut store, net, weights, ctx(), sample.coords(), &policy);
    assert_eq!(boot.origin, BootOrigin::Fallback);
    assert!(!engine.is_degraded());
    assert_eq!(
        engine.configs(),
        &GroupConfigs::uniform(DataflowConfig::safe_fallback())
    );
    let scene = WORKLOAD.scene_scaled(8, 0.03);
    let (out, _) = engine.infer(&scene);
    assert_eq!(out.num_points(), scene.num_points());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A fleet node resolves its schedule through the same path: booted
/// from the poisoned store on the tier the entry was tuned for, it runs
/// the `warm_boot` engine's table with the same downgrade.
#[test]
fn fleet_nodes_boot_a_poisoned_entry_degraded() {
    let (net, sample, mut store, _) = poisoned_store();
    let policy = DriftPolicy::default();
    let (spec, origin) = NodeSpec::cached(
        0,
        DeviceTier::Standard,
        Precision::Fp16,
        &net,
        sample.coords(),
        &mut store,
        &policy,
        ServeConfig::default(),
    );
    assert_eq!(origin, BootOrigin::Transferred);
    let weights = net.init_weights(5);
    let node = spec.boot_engine(&net, &weights);
    let (engine, _) = warm_boot(&mut store, net, weights, ctx(), sample.coords(), &policy);
    assert!(node.is_degraded());
    assert_eq!(node.configs(), engine.configs());
    assert_eq!(node.downgrades(), engine.downgrades());
}
