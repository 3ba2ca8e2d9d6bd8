//! `serve`: stretches of open-loop Poisson traffic, each followed by a
//! back-to-back burst round, through `ts_serve::Server` with its default
//! configuration.
//!
//! The only workload that runs the server's admission, EDF queue and
//! batch merge/split path. The feature walk does almost all of a frame's
//! work, so walk optimisations show here; map building and pricing are
//! under 1% of a frame and should not.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use ts_autotune::{tune_inference, TuneResult, TunerOptions};
use ts_core::{Engine, GroupConfigs, Network, NetworkWeights, Session, SparseTensor};
use ts_dataflow::ExecCtx;
use ts_gpusim::Device;
use ts_serve::{
    merge_frames, sort_by_coord, split_output, Rejected, Response, ResponseHandle, ServeConfig,
    Server,
};
use ts_tensor::Precision;
use ts_workloads::{ArrivalConfig, ArrivalTrace, Workload};

use crate::report::{layer_table, overhead_notes, tally, Outcome, Round, RoundTimer};
use crate::spans::{Breakdown, Tracer};
use crate::stats::{hit_ratio, mean, median};
use crate::walk::{self, WalkCounts};
use crate::{procfs, Args, SplitMix};

const WORKLOAD: Workload = Workload::SemanticKittiMinkUNet05;
/// Angular scale of the sensor: about 610 voxels per frame.
const SCALE: f32 = 0.02;
const STREAMS: u64 = 4;
/// Offered load: about half the burst capacity of the default server on
/// two cores, so queues form but do not grow.
const RATE_PER_S: f64 = 1.8;
/// Latency limit of a steady-phase frame, counted from its due time.
const LIMIT: Duration = Duration::from_secs(2);
/// The steady frames are sent in this many open-loop stretches, each
/// followed by one burst round of `workers × max_batch` frames, so that
/// steady latency, burst capacity and set-up are all sampled across the
/// whole run rather than each in a window of its own.
const SEGMENTS: usize = 4;
/// Set-ups timed before each segment, besides the one that starts the
/// measured server.
const SETUPS_PER_SEGMENT: usize = 2;
const POLL: Duration = Duration::from_millis(1);

/// One generated request: when it is due, its stream, and its frame.
struct Request {
    due: Duration,
    stream: u64,
    frame: SparseTensor,
}

struct Inputs {
    /// Frame the schedule is tuned on during set-up.
    sample: SparseTensor,
    steady: Vec<Request>,
    burst: Vec<Request>,
}

/// Four coherent sensor streams. Steady arrivals come from a seeded
/// Poisson `ArrivalTrace` whose gaps are replaced, rank for rank, by the
/// exponential distribution's quantiles, then scaled so that exactly
/// `rate × seconds` arrivals fill the window: the seed orders the gaps
/// and assigns streams, while every seed offers the same load and the
/// same set of gaps.
fn inputs(seed: u64, seconds: f64, burst_len: usize) -> Inputs {
    let count = ((RATE_PER_S * seconds).round() as usize).max(2);
    let trace = ArrivalTrace::generate(
        ArrivalConfig {
            streams: STREAMS,
            rate_per_s: RATE_PER_S,
            count,
        },
        seed,
    );
    let mut prev = 0.0;
    let gaps: Vec<f64> = trace
        .arrivals
        .iter()
        .map(|a| {
            let g = a.at_us - prev;
            prev = a.at_us;
            g
        })
        .collect();
    let mut order: Vec<usize> = (0..count).collect();
    order.sort_by(|&a, &b| gaps[a].total_cmp(&gaps[b]));
    let mut quantile = vec![0.0; count];
    for (rank, &i) in order.iter().enumerate() {
        quantile[i] = -(1.0 - (rank as f64 + 0.5) / count as f64).ln();
    }
    let stretch = count as f64 / RATE_PER_S / quantile.iter().sum::<f64>();
    let mut at = 0.0;
    let due: Vec<Duration> = quantile
        .iter()
        .map(|q| {
            at += q * stretch;
            Duration::from_secs_f64(at)
        })
        .collect();
    let stream_seed = |s: u64| seed.wrapping_mul(0x9E37_79B9).wrapping_add(s);
    let mut streams: Vec<_> = (0..STREAMS)
        .map(|s| WORKLOAD.stream_scaled(stream_seed(s), SCALE))
        .collect();
    let steady = trace
        .arrivals
        .iter()
        .zip(due)
        .map(|(a, due)| Request {
            due,
            stream: a.stream,
            frame: streams[a.stream as usize].next_frame().into_tensor(),
        })
        .collect();
    let burst = (0..burst_len)
        .map(|i| {
            let stream = i as u64 % STREAMS;
            Request {
                due: Duration::ZERO,
                stream,
                frame: streams[stream as usize].next_frame().into_tensor(),
            }
        })
        .collect();
    let sample = WORKLOAD
        .stream_scaled(stream_seed(STREAMS), SCALE)
        .next_frame()
        .into_tensor();
    Inputs {
        sample,
        steady,
        burst,
    }
}

fn ctx() -> ExecCtx {
    ExecCtx::functional(Device::rtx3090(), Precision::Fp16)
}

/// Set-up: network, weights, the schedule cold-tuned on the sample frame,
/// and a server with the default configuration.
fn boot(seed: u64, sample: &SparseTensor) -> (Server, GroupConfigs) {
    let net = WORKLOAD.network();
    let weights = net.init_weights(seed);
    let session = Session::try_new(&net, sample.coords()).expect("sample frame compiles");
    let tuned = tune_inference(
        std::slice::from_ref(&session),
        &ctx(),
        &TunerOptions::default(),
    );
    let configs = tuned.configs.expect("tuner results carry their schedule");
    let engine = Engine::new(net, weights, configs.clone(), ctx());
    (Server::new(engine, ServeConfig::default()), configs)
}

enum Reply {
    Served { resp: Box<Response>, done: Instant },
    Refused(Rejected),
}

struct Sent {
    due: Instant,
    lag: Duration,
    outcome: Option<Reply>,
}

/// Submits every request at its due time, counted from the first
/// request's, from this one thread, polling outstanding handles between
/// sends, and returns once all resolved.
fn drive(server: &Server, reqs: &[Request], deadline: Option<Duration>) -> Vec<Sent> {
    let start = Instant::now();
    let base = reqs.first().map_or(Duration::ZERO, |r| r.due);
    let mut sent: Vec<Sent> = Vec::with_capacity(reqs.len());
    let mut pending: Vec<(usize, ResponseHandle)> = Vec::new();
    for r in reqs {
        let due = start + (r.due - base);
        loop {
            poll(&mut pending, &mut sent);
            let now = Instant::now();
            if now >= due {
                break;
            }
            std::thread::sleep((due - now).min(POLL));
        }
        let at = Instant::now();
        let outcome = match server.submit_with_deadline(r.stream, r.frame.clone(), deadline) {
            Ok(h) => {
                pending.push((sent.len(), h));
                None
            }
            Err(e) => Some(Reply::Refused(e)),
        };
        sent.push(Sent {
            due,
            lag: at - due,
            outcome,
        });
    }
    while !pending.is_empty() {
        std::thread::sleep(POLL);
        poll(&mut pending, &mut sent);
    }
    sent
}

/// When a request was answered, if it was served.
fn done_at(s: &Sent) -> Option<Instant> {
    match s.outcome {
        Some(Reply::Served { done, .. }) => Some(done),
        _ => None,
    }
}

fn poll(pending: &mut Vec<(usize, ResponseHandle)>, sent: &mut [Sent]) {
    let now = Instant::now();
    pending.retain(|(i, h)| match h.try_wait() {
        Some(r) => {
            sent[*i].outcome = Some(match r {
                Ok(resp) => Reply::Served {
                    resp: Box::new(resp),
                    done: now,
                },
                Err(e) => Reply::Refused(e),
            });
            false
        }
        None => true,
    });
}

fn kind(r: &Rejected) -> &'static str {
    match r {
        Rejected::QueueFull { .. } => "queue_full",
        Rejected::DeadlineExpired { .. } => "deadline_expired",
        Rejected::BadFrame(_) => "bad_frame",
        Rejected::CompileFailed(_) => "compile_failed",
        Rejected::WorkerCrashed { .. } => "worker_crashed",
        Rejected::ShuttingDown => "shutting_down",
    }
}

/// Row count, output width and finiteness of one served frame.
fn check_response(resp: &Response, frame: &SparseTensor, out_ch: usize) -> Result<(), String> {
    let out = &resp.output;
    if out.num_points() != frame.num_points() {
        return Err(format!(
            "{} rows for a {}-voxel frame",
            out.num_points(),
            frame.num_points()
        ));
    }
    if out.channels() != out_ch {
        return Err(format!(
            "{} output channels, network has {out_ch}",
            out.channels()
        ));
    }
    if !out.feats().as_slice().iter().all(|v| v.is_finite()) {
        return Err("non-finite output".into());
    }
    Ok(())
}

/// Per-phase accounting, response checks and the served samples.
struct Phase {
    served: Vec<(usize, Instant)>,
    refused: BTreeMap<String, u64>,
    late: u64,
    bad: u64,
}

fn account(
    out: &mut Outcome,
    name: &str,
    reqs: &[Request],
    sent: &[Sent],
    out_ch: usize,
    limit: Option<Duration>,
) -> Phase {
    let mut p = Phase {
        served: Vec::new(),
        refused: BTreeMap::new(),
        late: 0,
        bad: 0,
    };
    for (i, s) in sent.iter().enumerate() {
        match s.outcome.as_ref().expect("every request resolved") {
            Reply::Served { resp, done } => {
                if let Err(e) = check_response(resp, &reqs[i].frame, out_ch) {
                    p.bad += 1;
                    out.fail(1, format!("{name} frame {i}: {e}"));
                    continue;
                }
                p.served.push((i, *done));
                if limit.is_some_and(|l| done.saturating_duration_since(s.due) > l) {
                    p.late += 1;
                }
            }
            Reply::Refused(e) => {
                *p.refused.entry(kind(e).to_string()).or_default() += 1;
                out.failed += 1;
            }
        }
    }
    let lags: Vec<f64> = sent.iter().map(|s| s.lag.as_secs_f64() * 1e3).collect();
    out.notes.push(format!(
        "{name}: sent {} succeeded {} failed {} (refused: {}; bad output {}; answered after the limit {}); send lag median {:.3} ms max {:.3} ms",
        sent.len(),
        p.served.len(),
        sent.len() - p.served.len(),
        tally(&p.refused),
        p.bad,
        p.late,
        median(&lags).unwrap_or(0.0),
        lags.iter().copied().fold(0.0, f64::max),
    ));
    p
}

fn response(sent: &Sent) -> &Response {
    match sent.outcome.as_ref() {
        Some(Reply::Served { resp, .. }) => resp,
        _ => unreachable!("only served requests are sampled"),
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let cfg = ServeConfig::default();
    let round_len = cfg.workers * cfg.max_batch;
    let inputs = inputs(args.seed, args.seconds, SEGMENTS * round_len);

    // Set-up; this first server is the one measured.
    let t = Instant::now();
    let (server, configs) = boot(args.seed, &inputs.sample);
    out.e2e.setup_s.push(t.elapsed().as_secs_f64());

    // Measured phase: segments of more set-ups, a steady open-loop
    // stretch (drained) and one burst round.
    let n = inputs.steady.len();
    let mut steady = Vec::with_capacity(n);
    let mut burst = Vec::with_capacity(inputs.burst.len());
    let mut phase = Vec::with_capacity(2 * SEGMENTS);
    for k in 0..SEGMENTS {
        for _ in 0..SETUPS_PER_SEGMENT {
            let t = Instant::now();
            let (s, _) = boot(args.seed, &inputs.sample);
            out.e2e.setup_s.push(t.elapsed().as_secs_f64());
            s.shutdown();
        }
        let timer = RoundTimer::start();
        let stretch = &inputs.steady[k * n / SEGMENTS..(k + 1) * n / SEGMENTS];
        let sent = drive(&server, stretch, Some(LIMIT));
        phase.push(timer.stop(sent.iter().filter(|s| done_at(s).is_some()).count()));
        steady.extend(sent);
        // Capacity: from the first submission to the last answer.
        let timer = RoundTimer::start();
        let round = &inputs.burst[k * round_len..(k + 1) * round_len];
        let sent = drive(&server, round, None);
        let last = sent.iter().filter_map(done_at).max();
        let served = sent.iter().filter(|s| done_at(s).is_some()).count();
        let b = timer.stop_at(last.unwrap_or_else(Instant::now), served);
        burst.extend(sent);
        out.e2e.rounds.push(b);
        phase.push(b);
    }
    out.e2e.phase = Some(Round::total(&phase));
    out.e2e.peak_rss_mb = procfs::peak_rss_mib().expect("readable /proc/self/status");
    let report = server.shutdown();

    let net = WORKLOAD.network();
    let out_ch = net.out_channels(net.output());
    out.attempted = (inputs.steady.len() + inputs.burst.len()) as u64;
    let sp = account(
        &mut out,
        "steady",
        &inputs.steady,
        &steady,
        out_ch,
        Some(LIMIT),
    );
    let bp = account(&mut out, "burst", &inputs.burst, &burst, out_ch, None);

    let steady_resp: Vec<&Response> = sp
        .served
        .iter()
        .map(|&(i, _)| response(&steady[i]))
        .collect();
    out.e2e.latency_ms = sp
        .served
        .iter()
        .map(|&(i, done)| done.saturating_duration_since(steady[i].due).as_secs_f64() * 1e3)
        .collect();
    // Refused, shed, failed or late frames all miss the limit.
    let steady_missed = inputs.steady.len() - sp.served.len() + sp.late as usize;
    out.e2e.slo_miss_ratio = Some(steady_missed as f64 / inputs.steady.len().max(1) as f64);
    out.e2e.sim_us = steady_resp
        .iter()
        .map(|r| r.sim_us / r.batch_size as f64)
        .collect();

    // A seeded sample of served frames, one per phase, must be
    // bit-identical to serial inference of the same frame.
    let weights = net.init_weights(args.seed);
    let serial = Engine::new(net.clone(), weights.clone(), configs, ctx());
    let mut rng = SplitMix(args.seed);
    for (name, reqs, sent, phase) in [
        ("steady", &inputs.steady, &steady, &sp),
        ("burst", &inputs.burst, &burst, &bp),
    ] {
        if phase.served.is_empty() {
            continue;
        }
        let (i, _) = phase.served[rng.below(phase.served.len())];
        match serial.try_infer(&reqs[i].frame) {
            Ok((y, _)) if sort_by_coord(&y) == response(&sent[i]).output => {}
            Ok(_) => out.fail(
                1,
                format!("{name} frame {i} differs from serial Engine::try_infer"),
            ),
            Err(e) => out.fail(1, format!("{name} frame {i}: serial inference failed: {e}")),
        }
    }

    // Input properties.
    let all_resp: Vec<&Response> = steady_resp
        .iter()
        .copied()
        .chain(bp.served.iter().map(|&(i, _)| response(&burst[i])))
        .collect();
    let batched = |rs: &[&Response]| {
        rs.iter().filter(|r| r.batch_size > 1).count() as f64 / rs.len().max(1) as f64
    };
    let burst_resp: Vec<&Response> = bp
        .served
        .iter()
        .map(|&(i, _)| response(&burst[i]))
        .collect();
    let voxels: Vec<f64> = inputs
        .steady
        .iter()
        .chain(&inputs.burst)
        .map(|r| r.frame.num_points() as f64)
        .collect();
    let macs: Vec<f64> = inputs
        .steady
        .iter()
        .filter_map(|r| Session::try_new(&net, r.frame.coords()).ok())
        .map(|s| {
            s.group_signatures()
                .iter()
                .map(|g| g.effective_macs as f64)
                .sum()
        })
        .collect();
    out.notes.push(format!(
        "inputs: {:.1} voxels/request; frames in batches > 1: steady {:.3}, burst {:.3}; {:.4} GMAC/request; server batches {} for {} frames",
        mean(&voxels).unwrap_or(0.0),
        batched(&steady_resp),
        batched(&burst_resp),
        mean(&macs).unwrap_or(0.0) / 1e9,
        report.batch_sizes.iter().map(|b| b.count).sum::<u64>(),
        report.completed,
    ));

    if args.trace {
        let refused = sp.refused.values().chain(bp.refused.values()).sum();
        traced(
            args,
            &mut out,
            &inputs,
            &net,
            &weights,
            &steady_resp,
            &all_resp,
            refused,
        );
    }
    out
}

/// `Engine::try_infer` as public calls: compile, price, walk.
fn traced_infer(
    t: &Tracer,
    engine: &Engine,
    weights: &NetworkWeights,
    frame: &SparseTensor,
    counts: &mut WalkCounts,
    map_stats: &mut [u64; 3],
) -> Option<SparseTensor> {
    let session = t
        .span("core", "Engine::compile", || engine.compile(frame))
        .ok()?;
    for g in session.groups() {
        map_stats[0] += g.build_stats.queries;
        map_stats[1] += g.build_stats.inserts;
        map_stats[2] += g.build_stats.pairs;
    }
    t.span("gpusim", "Session::simulate_inference", || {
        session.simulate_inference(engine.configs(), engine.ctx())
    });
    Some(t.span("core", "walk", || {
        let network = session.network();
        let fctx = ExecCtx {
            functional: true,
            ..engine.ctx().clone()
        };
        let mut feats = walk::forward(
            t,
            &session,
            weights,
            frame.feats(),
            engine.configs(),
            &fctx,
            counts,
        );
        let out = network.output();
        SparseTensor::with_stride(
            walk::output_coords(network, frame.coords()),
            feats[out].take().expect("output computed"),
            network.stride(out),
        )
    }))
}

/// The traced replay: the same set-up and frames, one public call per
/// span, each output compared with the untraced `Engine::try_infer`.
#[allow(clippy::too_many_arguments)]
fn traced(
    args: &Args,
    out: &mut Outcome,
    inputs: &Inputs,
    net: &Network,
    weights: &NetworkWeights,
    steady_resp: &[&Response],
    all_resp: &[&Response],
    refused: u64,
) {
    let t = Tracer::default();
    let (engine, tuned, server) = t.request(0, "setup", || {
        let session = t.span("core", "Session::try_new", || {
            Session::try_new(net, inputs.sample.coords()).expect("sample frame compiles")
        });
        let tuned: TuneResult = t.span("autotune", "tune_inference", || {
            tune_inference(
                std::slice::from_ref(&session),
                &ctx(),
                &TunerOptions::default(),
            )
        });
        let configs = tuned
            .configs
            .clone()
            .expect("tuner results carry their schedule");
        let engine = Engine::new(net.clone(), weights.clone(), configs, ctx());
        let server = t.span("serve", "Server::new", || {
            Server::new(engine.clone(), ServeConfig::default())
        });
        (engine, tuned, server)
    });
    server.shutdown();

    // The first fifth of the steady frames (at least two), each timed
    // untraced and then replayed.
    let replay = (inputs.steady.len() / 5).max(2);
    let mut counts = WalkCounts::default();
    let mut map_stats = [0u64; 3];
    let mut untraced_ms = Vec::new();
    let mut traced_reqs = 0u64;
    for (i, r) in inputs.steady.iter().enumerate().take(replay) {
        let t0 = Instant::now();
        let reference = engine.try_infer(&r.frame);
        untraced_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let req = i as u64 + 1;
        let replay = t.request(req, "request", || {
            traced_infer(&t, &engine, weights, &r.frame, &mut counts, &mut map_stats)
        });
        traced_reqs += 1;
        match (reference, replay) {
            (Ok((y, _)), Some(z)) if y == z => {}
            _ => out.fail(
                1,
                format!("traced replay of steady frame {i} differs from run_network_in_session"),
            ),
        }
    }

    // One burst batch through merge, inference and split.
    let batch: Vec<&SparseTensor> = inputs
        .burst
        .iter()
        .take(ServeConfig::default().max_batch)
        .map(|r| &r.frame)
        .collect();
    let reference = {
        let (merged, slots) = merge_frames(&batch);
        engine
            .try_infer(&merged)
            .map(|(y, _)| split_output(&y, &slots))
    };
    let mut batch_counts = WalkCounts::default();
    let mut batch_stats = [0u64; 3];
    let replay = t.request(u64::MAX, "batch", || {
        let (merged, slots) = t.span("serve", "merge_frames", || merge_frames(&batch));
        let y = traced_infer(
            &t,
            &engine,
            weights,
            &merged,
            &mut batch_counts,
            &mut batch_stats,
        )?;
        Some(t.span("serve", "split_output", || split_output(&y, &slots)))
    });
    match (reference, replay) {
        (Ok(a), Some(b)) if a == b => {}
        _ => out.fail(
            1,
            "traced replay of a burst batch differs from the untraced batch".into(),
        ),
    }

    let spans = t.into_spans();
    let b = Breakdown::of(&spans, "request");
    let bb = Breakdown::of(&spans, "batch");
    let setup = Breakdown::of(&spans, "setup");
    let reqs = traced_reqs.max(1) as f64;
    let l = &mut out.layers;

    let queue_ms: Vec<f64> = steady_resp
        .iter()
        .map(|r| r.queue_wait.as_secs_f64() * 1e3)
        .collect();
    let service_ms: Vec<f64> = steady_resp
        .iter()
        .map(|r| (r.latency.saturating_sub(r.queue_wait)).as_secs_f64() * 1e3)
        .collect();
    let batches: f64 = all_resp.iter().map(|r| 1.0 / r.batch_size as f64).sum();
    l.insert("serve.queue_wait_ms", median(&queue_ms).unwrap_or(0.0));
    l.insert("serve.service_ms", median(&service_ms).unwrap_or(0.0));
    l.insert(
        "serve.batch_frames",
        all_resp.len() as f64 / batches.max(1e-9),
    );
    l.insert(
        "serve.merge_split_ms",
        bb.wall_ms("serve", "merge_frames") + bb.wall_ms("serve", "split_output"),
    );
    l.insert("serve.refused", refused as f64);
    l.insert("core.compile_ms", b.wall_ms("core", "Engine::compile"));
    l.insert("core.walk_self_ms", b.self_ms("core", "walk"));
    l.insert(
        "core.copy_mb",
        counts.copy_bytes as f64 / reqs / (1 << 20) as f64,
    );
    l.insert("dataflow.prepare_ms", b.wall_ms("dataflow", "prepare"));
    let prepare_calls = counts.prepare_calls as f64 / reqs;
    l.insert("dataflow.prepare_calls", prepare_calls);
    l.insert(
        "dataflow.prepare_per_group",
        prepare_calls / counts.groups.len().max(1) as f64,
    );
    let fwd_ms = b.wall_ms("dataflow", "forward_prepared");
    let gmac = counts.macs as f64 / reqs / 1e9;
    l.insert("dataflow.fwd_ms", fwd_ms);
    l.insert("dataflow.gmac", gmac);
    l.insert("dataflow.gmac_per_s", gmac / (fwd_ms / 1e3).max(1e-12));
    l.insert(
        "dataflow.map_io_mb",
        counts.map_io_bytes as f64 / reqs / (1 << 20) as f64,
    );
    l.insert(
        "tensor.elementwise_ms",
        b.wall_ms("tensor", "batch_norm")
            + b.wall_ms("tensor", "relu")
            + b.wall_ms("tensor", "add_assign"),
    );
    l.insert("kernelmap.hash_queries", map_stats[0] as f64 / reqs);
    l.insert("kernelmap.hash_inserts", map_stats[1] as f64 / reqs);
    l.insert("kernelmap.pairs", map_stats[2] as f64 / reqs);
    l.insert(
        "gpusim.price_ms",
        b.wall_ms("gpusim", "Session::simulate_inference"),
    );
    l.insert(
        "gpusim.price_calls",
        b.calls_per_request("gpusim", "Session::simulate_inference"),
    );
    // Serving requests never tune; the schedule is tuned once at set-up.
    l.insert(
        "autotune.tune_ms",
        setup.wall_ms("autotune", "tune_inference"),
    );
    l.insert("autotune.evaluations", tuned.evaluations as f64);
    l.insert(
        "autotune.prepare_hit_ratio",
        hit_ratio(
            tuned.stats.prepare_cache_hits,
            tuned.stats.prepare_cache_misses,
        ),
    );

    out.notes.extend(layer_table("traced single frames", &b));
    out.notes.extend(layer_table("traced burst batch", &bb));
    out.notes.extend(overhead_notes(
        "Engine::try_infer",
        b.traced_ms(),
        mean(&untraced_ms).unwrap_or(0.0),
        untraced_ms.len(),
    ));
    crate::write_trace(args, &spans, &mut out.notes, |req| match req {
        0 => "setup".into(),
        u64::MAX => "burst-batch".into(),
        r => format!("frame-{}", r - 1),
    });
}
