//! `tune`: closed-loop schedule tuning over the paper's seven networks
//! on three devices, through one shared in-memory `ScheduleCache`.
//!
//! The mirror of `serve`: kernel-map builds over large hash tables and
//! the tuner's pricing do all the work and no features are computed, so
//! mapping, pricing and tuner optimisations show here while walk
//! optimisations are predicted flat.

use std::time::Instant;

use ts_autotune::{tune_inference, tune_inference_warm, TuneResult, TunerOptions, WarmStart};
use ts_cache::{
    tune_cached, CacheEntry, DriftPolicy, Lookup, ScheduleCache, ScheduleKey, TuneOrigin,
};
use ts_core::{check_configs, Network, Session, SparseTensor};
use ts_dataflow::ExecCtx;
use ts_gpusim::Device;
use ts_tensor::Precision;
use ts_workloads::ALL_WORKLOADS;

use crate::report::{layer_table, overhead_notes, Outcome, RoundTimer};
use crate::spans::{Breakdown, Tracer};
use crate::stats::{hit_ratio, mean, round_means};
use crate::{procfs, Args, SplitMix};

/// Angular scale of the sensors: multi-sweep scenes of 6k–50k voxels.
const SCALE: f32 = 0.35;
/// Distinct scenes per network; requests revisit them, so exact cache
/// hits occur next to warm starts and cold tunes.
const SCENES_PER_NETWORK: usize = 6;
const SETUP_REPEATS: usize = 9;

/// Requests per round: every network on every device once.
const ROUND: usize = ALL_WORKLOADS.len() * 3;
/// Round time the measured round count is worked out from: a run replays
/// `seconds / ROUND_S` whole rounds whatever the host's speed, so every
/// commit sees the same sequence of cold tunes, warm starts and hits, and
/// the same simulated latencies.
const ROUND_S: f64 = 1.5;

/// Whole rounds the measured phase runs for a `--seconds` budget.
fn measured_rounds(seconds: f64) -> usize {
    ((seconds / ROUND_S).round() as usize).max(3)
}

fn devices() -> [ExecCtx; 3] {
    [Device::a100(), Device::rtx3090(), Device::jetson_orin()]
        .map(|d| ExecCtx::simulate(d, Precision::Fp16))
}

/// One request: tune network `net` on scene `scene` for device `device`.
#[derive(Clone, Copy)]
struct Request {
    net: usize,
    scene: usize,
    device: usize,
}

/// Rounds of every (network, device) pair in a seeded order, each on a
/// seeded choice of that network's scenes. Whole rounds keep the mix of
/// networks and devices the same for every seed.
fn sequence(seed: u64, len: usize) -> Vec<Request> {
    let mut rng = SplitMix(seed ^ 0x7475_6E65);
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let mut round: Vec<(usize, usize)> = (0..ROUND).map(|i| (i / 3, i % 3)).collect();
        for i in (1..round.len()).rev() {
            round.swap(i, rng.below(i + 1));
        }
        out.extend(round.into_iter().map(|(net, device)| Request {
            net,
            scene: rng.below(SCENES_PER_NETWORK),
            device,
        }));
    }
    out.truncate(len);
    out
}

/// What one timed request returned.
struct Done {
    ms: f64,
    result: TuneResult,
    origin: TuneOrigin,
    retuned: usize,
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let scenes: Vec<Vec<SparseTensor>> = ALL_WORKLOADS
        .iter()
        .enumerate()
        .map(|(n, w)| {
            (0..SCENES_PER_NETWORK)
                .map(|s| w.scene_scaled(args.seed.wrapping_mul(64) + (n * 8 + s) as u64, SCALE))
                .collect()
        })
        .collect();
    let rounds = measured_rounds(args.seconds);
    let seq = sequence(args.seed, rounds * ROUND);
    let ctxs = devices();
    let opts = TunerOptions::default();
    let policy = DriftPolicy::default();

    // Set-up: the seven networks, an empty cache, and one cold tune of
    // the first network's first scene on the RTX 3090. The first one's
    // networks are used; the repetitions run between measured rounds,
    // spread over the run.
    let setup = |out: &mut Outcome| {
        let t = Instant::now();
        let nets: Vec<Network> = ALL_WORKLOADS.iter().map(|w| w.network()).collect();
        let mut cache = ScheduleCache::in_memory();
        let session = Session::try_new(&nets[0], scenes[0][0].coords()).expect("scene compiles");
        tune_cached(
            &mut cache,
            std::slice::from_ref(&session),
            &ctxs[1],
            &opts,
            &policy,
        )
        .expect("in-memory cache never fails");
        out.e2e.setup_s.push(t.elapsed().as_secs_f64());
        nets
    };
    let nets = setup(&mut out);

    // Measured phase: whole rounds back to back against one fresh cache.
    let mut cache = ScheduleCache::in_memory();
    let mut done: Vec<Done> = Vec::new();
    let mut voxels = Vec::new();
    let mut macs = Vec::new();
    let setups_at: Vec<usize> = (1..SETUP_REPEATS)
        .map(|j| j * rounds / SETUP_REPEATS)
        .collect();
    for (k, round) in seq.chunks(ROUND).enumerate() {
        for _ in 0..setups_at.iter().filter(|&&at| at == k).count() {
            setup(&mut out);
        }
        let timer = RoundTimer::start();
        let before = done.len();
        for r in round {
            out.attempted += 1;
            let scene = &scenes[r.net][r.scene];
            let t = Instant::now();
            let tuned = Session::try_new(&nets[r.net], scene.coords()).map(|session| {
                let c = tune_cached(
                    &mut cache,
                    std::slice::from_ref(&session),
                    &ctxs[r.device],
                    &opts,
                    &policy,
                );
                (session, c)
            });
            let ms = t.elapsed().as_secs_f64() * 1e3;
            match tuned {
                Ok((session, Ok(c))) => {
                    voxels.push(scene.num_points() as f64);
                    macs.push(
                        session
                            .group_signatures()
                            .iter()
                            .map(|g| g.effective_macs as f64)
                            .sum(),
                    );
                    done.push(Done {
                        ms,
                        retuned: c.retuned.len(),
                        result: c.result,
                        origin: c.origin,
                    });
                }
                Ok((_, Err(e))) => out.fail(
                    1,
                    format!("request {}: tune_cached failed: {e}", out.attempted - 1),
                ),
                Err(e) => out.fail(
                    1,
                    format!("request {}: compile failed: {e}", out.attempted - 1),
                ),
            }
        }
        out.e2e.rounds.push(timer.stop(done.len() - before));
    }
    out.e2e.peak_rss_mb = procfs::peak_rss_mib().expect("readable /proc/self/status");

    // Every tuned schedule validates and is no slower than its baseline.
    for (i, d) in done.iter().enumerate() {
        let r = &d.result;
        let problems = r.configs.as_ref().map(check_configs);
        match problems {
            Some(p) if p.is_empty() => {}
            Some(p) => out.fail(
                1,
                format!("request {i}: schedule fails check_configs: {p:?}"),
            ),
            None => out.fail(1, format!("request {i}: result carries no schedule")),
        }
        if r.tuned_latency_us > r.default_latency_us {
            out.fail(
                1,
                format!(
                    "request {i}: tuned {} us > default {} us",
                    r.tuned_latency_us, r.default_latency_us
                ),
            );
        }
    }

    out.e2e.latency_ms = done.iter().map(|d| d.ms).collect();
    // Single requests cluster by network (compile time and tuned latency
    // grow with the scene), so a median over requests jumps between
    // clusters from seed to seed; every whole round holds the same
    // (network, device) mix, so medians are taken over round means.
    out.e2e.round_mean_ms = round_means(&out.e2e.latency_ms, ROUND);
    let tuned_us: Vec<f64> = done.iter().map(|d| d.result.tuned_latency_us).collect();
    out.e2e.sim_us = round_means(&tuned_us, ROUND);
    let count = |o: TuneOrigin| done.iter().filter(|d| d.origin == o).count();
    let (hits, warm, cold) = (
        count(TuneOrigin::Hit),
        count(TuneOrigin::WarmStart),
        count(TuneOrigin::Cold),
    );
    out.notes.push(format!(
        "closed loop: sent {} succeeded {} failed {}",
        out.attempted,
        done.len(),
        out.failed
    ));
    let share = |n: usize| 100.0 * n as f64 / done.len().max(1) as f64;
    out.notes.push(format!(
        "inputs: {rounds} rounds of {ROUND} requests; {:.0} voxels/request; cache origins cold {cold} ({:.1}%) warm {warm} ({:.1}%) hit {hits} ({:.1}%); {:.3} GMAC/request (forward, per scene)",
        mean(&voxels).unwrap_or(0.0),
        share(cold),
        share(warm),
        share(hits),
        mean(&macs).unwrap_or(0.0) / 1e9,
    ));

    if args.trace {
        let n = done.len() as f64;
        let l = &mut out.layers;
        l.insert("cache.hit_ratio", hits as f64 / n.max(1.0));
        l.insert("cache.warm_ratio", warm as f64 / n.max(1.0));
        l.insert(
            "cache.retuned_groups",
            done.iter().map(|d| d.retuned as f64).sum::<f64>() / n.max(1.0),
        );
        l.insert(
            "autotune.evaluations",
            done.iter()
                .map(|d| d.result.evaluations as f64)
                .sum::<f64>()
                / n.max(1.0),
        );
        let (ph, pm) = done.iter().fold((0, 0), |(h, m), d| {
            (
                h + d.result.stats.prepare_cache_hits,
                m + d.result.stats.prepare_cache_misses,
            )
        });
        l.insert("autotune.prepare_hit_ratio", hit_ratio(ph, pm));
        traced(args, &mut out, &seq, &scenes, &nets, &done, rounds);
    }
    out
}

/// Replays the first third of the rounds (at least one) against a fresh
/// cache, with `tune_cached` spelled out as its public steps so the cache
/// and the tuner get separate spans; every result must equal the timed
/// one.
fn traced(
    args: &Args,
    out: &mut Outcome,
    seq: &[Request],
    scenes: &[Vec<SparseTensor>],
    nets: &[Network],
    done: &[Done],
    rounds: usize,
) {
    let t = Tracer::default();
    let ctxs = devices();
    let opts = TunerOptions::default();
    let policy = DriftPolicy::default();
    let mut cache = ScheduleCache::in_memory();
    let mut map_stats = [0u64; 3];
    let mut replayed = 0;
    let replay = ((rounds / 3).max(1) * ROUND).min(done.len());
    for (i, r) in seq.iter().enumerate().take(replay) {
        let ctx = &ctxs[r.device];
        let result = t.request(i as u64 + 1, "request", || {
            let session = t
                .span("core", "Session::try_new", || {
                    Session::try_new(&nets[r.net], scenes[r.net][r.scene].coords())
                })
                .ok()?;
            for g in session.groups() {
                map_stats[0] += g.build_stats.queries;
                map_stats[1] += g.build_stats.inserts;
                map_stats[2] += g.build_stats.pairs;
            }
            let sessions = std::slice::from_ref(&session);
            let key = t.span("cache", "ScheduleKey::of", || {
                ScheduleKey::of(&session, ctx)
            });
            let lookup = t.span("cache", "lookup", || cache.lookup(&key, &policy));
            let (warm, write_back) = match lookup {
                Lookup::Hit { configs, .. } => (
                    Some(WarmStart {
                        seed: configs,
                        retune: Vec::new(),
                    }),
                    false,
                ),
                Lookup::Warm { seed, drifted, .. } => (
                    Some(WarmStart {
                        seed,
                        retune: drifted,
                    }),
                    true,
                ),
                Lookup::Miss => (None, true),
            };
            let result = match warm {
                Some(w) => t.span("autotune", "tune_inference_warm", || {
                    tune_inference_warm(sessions, ctx, &opts, &w)
                }),
                None => t.span("autotune", "tune_inference", || {
                    tune_inference(sessions, ctx, &opts)
                }),
            };
            if write_back {
                let entry = CacheEntry {
                    key,
                    configs: result
                        .configs
                        .clone()
                        .expect("tuner results carry their schedule"),
                    tuned_latency_us: result.tuned_latency_us,
                    default_latency_us: result.default_latency_us,
                };
                t.span("cache", "insert", || cache.insert(entry)).ok()?;
            }
            Some(result)
        });
        replayed += 1;
        let same = result.as_ref().is_some_and(|a| {
            let b = &done[i].result;
            a.tuned_latency_us.to_bits() == b.tuned_latency_us.to_bits() && a.configs == b.configs
        });
        if !same {
            out.fail(
                1,
                format!("traced replay of request {i} differs from tune_cached"),
            );
        }
    }

    let spans = t.into_spans();
    let b = Breakdown::of(&spans, "request");
    let reqs = replayed.max(1) as f64;
    let l = &mut out.layers;
    l.insert("core.compile_ms", b.wall_ms("core", "Session::try_new"));
    l.insert("kernelmap.hash_queries", map_stats[0] as f64 / reqs);
    l.insert("kernelmap.hash_inserts", map_stats[1] as f64 / reqs);
    l.insert("kernelmap.pairs", map_stats[2] as f64 / reqs);
    l.insert(
        "cache.lookup_ms",
        b.wall_ms("cache", "ScheduleKey::of") + b.wall_ms("cache", "lookup"),
    );
    l.insert(
        "autotune.tune_ms",
        b.wall_ms("autotune", "tune_inference") + b.wall_ms("autotune", "tune_inference_warm"),
    );
    out.notes.extend(layer_table("traced requests", &b));
    let untraced = mean(&done[..replayed].iter().map(|d| d.ms).collect::<Vec<_>>()).unwrap_or(0.0);
    out.notes.extend(overhead_notes(
        "compile + tune_cached",
        b.traced_ms(),
        untraced,
        replayed,
    ));
    crate::write_trace(args, &spans, &mut out.notes, |req| {
        format!("request-{}", req - 1)
    });
}
