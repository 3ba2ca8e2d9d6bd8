//! Deterministic fleet simulation on virtual clocks.
//!
//! The live [`Fleet`](crate::Fleet) runs real threads, so its queue
//! depths and wall latencies vary run to run — fine for chaos tests,
//! useless for a CI-gated benchmark. `FleetSim` removes the wall clock
//! entirely: each node is a virtual server whose per-frame service time
//! is the engine's *simulated* GPU cost (from
//! [`ts_core::Engine::infer_stream`]'s [`RunReport`](ts_core::RunReport)
//! — including the mapping-cost reduction when a cached map is
//! patched), and requests flow through the same [`Router`] the live
//! fleet uses, with loads derived from the virtual clocks. Every number
//! the sim reports is a deterministic function of `(specs, router
//! config, arrival trace, frames, kill schedule)`.
//!
//! Node-kill semantics are *drain-style* failover (the moment chosen
//! for admission cut-off, like connection draining on a deploy):
//! arrivals at or after the kill time see the node dead and re-home;
//! work already admitted completes. The harsher shed-the-backlog path
//! (typed rejections) is exercised by the live fleet via
//! [`ts_serve::Server::halt`].

use std::collections::HashMap;
use std::collections::VecDeque;

use serde::{Deserialize, Serialize};
use ts_core::{
    percentile_sorted, DeltaConfig, Engine, MapUpdate, Network, NetworkWeights, SparseTensor,
    StreamState,
};
use ts_obs::{Alert, SloMonitor, SloPolicy};
use ts_trace::{ArgValue, Subsystem};
use ts_workloads::ArrivalTrace;

use crate::node::NodeSpec;
use crate::report::RoutingCounters;
use crate::router::{NodeLoad, Router, RouterConfig};

/// A scheduled whole-node failure in simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KillEvent {
    /// Which node dies.
    pub node: usize,
    /// Simulated time of death: arrivals at or after this see the node
    /// dead.
    pub at_us: f64,
    /// Optional restart time (`>= at_us`); `None` stays dead.
    pub restart_at_us: Option<f64>,
}

/// Simulation policy: deadline, alerting and the kill schedule. Stream
/// maps are patched under [`DeltaConfig::default`], as on a live server.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Per-request deadline in simulated microseconds (arrival to
    /// completion); completions later than this count as misses.
    pub deadline_us: f64,
    /// Whole-node failures to inject.
    pub kills: Vec<KillEvent>,
    /// Multi-window burn-rate alerting over the simulated completions
    /// (see [`ts_obs::SloMonitor`]). The monitor runs on the *virtual*
    /// clock: each completion is observed at its admission time with
    /// its (deterministically known) deadline outcome, so the time
    /// wheel sees monotone timestamps and the resulting
    /// [`SimReport::alerts`] sequence is bit-identical across runs.
    /// `None` disables alerting.
    pub slo: Option<SloPolicy>,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            deadline_us: 50_000.0,
            kills: Vec::new(),
            slo: Some(SloPolicy::default()),
        }
    }
}

/// Per-node tallies of one simulated run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimNodeStats {
    /// Node index.
    pub id: usize,
    /// Tier label ("premium" / "standard" / "edge").
    pub tier: String,
    /// Simulated device name.
    pub device: String,
    /// Frames this node served.
    pub served: u64,
    /// Simulated microseconds the node spent serving.
    pub busy_us: f64,
}

/// Deterministic results of one simulated fleet run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Frames served to completion.
    pub completed: u64,
    /// Arrivals refused because no node was alive.
    pub rejected_no_capacity: u64,
    /// Router placement and lifecycle tallies.
    pub counters: RoutingCounters,
    /// Completed frames per simulated second
    /// (`completed / makespan_us * 1e6`).
    pub fps_sim: f64,
    /// First arrival to last completion, simulated microseconds.
    pub makespan_us: f64,
    /// Mean arrival-to-completion latency, simulated microseconds.
    pub mean_latency_us: f64,
    /// Median latency.
    pub p50_latency_us: f64,
    /// 99th-percentile latency (the SLO tail).
    pub p99_latency_us: f64,
    /// Completions later than the deadline.
    pub deadline_misses: u64,
    /// `deadline_misses / completed` (0 when nothing completed).
    pub miss_rate: f64,
    /// Edge-triggered SLO alert transitions, in virtual-time order
    /// (empty when [`SimConfig::slo`] is `None`). Deterministic: a
    /// mid-trace node kill trips the fast window at the same virtual
    /// microsecond every run.
    #[serde(default)]
    pub alerts: Vec<Alert>,
    /// Map-cache lookups that found the stream's state on the serving
    /// node.
    pub map_hits: u64,
    /// Lookups that built from scratch.
    pub map_misses: u64,
    /// Hits resolved by an in-place patch.
    pub map_patched: u64,
    /// Frames that rebuilt despite a cached state (churn over
    /// threshold).
    pub map_rebuilt: u64,
    /// Per-node tallies, sorted by id.
    pub per_node: Vec<SimNodeStats>,
}

impl SimReport {
    /// Fraction of lookups resolved by an in-place patch — directly
    /// comparable to [`ts_serve::ServeReport::map_reuse_rate`] and the
    /// single-node `BENCH_stream.json` reuse behavior.
    pub fn reuse_rate(&self) -> f64 {
        let lookups = self.map_hits + self.map_misses;
        if lookups == 0 {
            return 0.0;
        }
        self.map_patched as f64 / lookups as f64
    }
}

/// Builds a deterministic bank of lidar frames: `streams` independent
/// driving scenes of `frames` frames each, at angular-resolution
/// `scale` (see [`ts_workloads::LidarConfig::scaled`]). Frame `f` of
/// stream `s` is `bank[s][f]`. The same `(streams, frames, scale,
/// seed)` always produces the same bank, so sim runs stay reproducible
/// end to end.
pub fn frame_bank(streams: usize, frames: usize, scale: f32, seed: u64) -> Vec<Vec<SparseTensor>> {
    // Dense angular sampling keeps temporal coherence real (several
    // rays per surface voxel, so a small ego shift re-hits the same
    // voxels), zero dropout keeps churn purely motion-driven, and pure
    // translation avoids yaw rotating every ray — the same calibration
    // as the single-node `stream_reuse` bench, so fleet reuse rates are
    // directly comparable to `BENCH_stream.json`.
    let cfg = ts_workloads::LidarConfig {
        beams: 48,
        azimuth_steps: 480,
        elevation_min_deg: -25.0,
        elevation_max_deg: 3.0,
        max_range_m: 40.0,
        voxel_size_m: 0.3,
        obstacles: 8,
        dropout: 0.0,
    }
    .scaled(scale);
    (0..streams)
        .map(|s| {
            let per_stream = seed ^ (s as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            // Slow ego motion puts churn near the `stream_reuse`
            // bench's "low" sweep (~25-30% per frame at scale >= 0.3),
            // safely under the default 35% rebuild threshold, so the
            // patched-map fast path dominates exactly as it does in
            // `BENCH_stream.json`. Below scale ~0.25 sampling gets too
            // sparse and churn tips frames into rebuilds.
            let mut stream = ts_workloads::LidarStream::new(cfg, per_stream).with_motion(0.02, 0.0);
            (0..frames)
                .map(|_| stream.next_frame().into_tensor())
                .collect()
        })
        .collect()
}

struct SimNode {
    engine: Engine,
    tier: String,
    device: String,
    alive: bool,
    /// Virtual clock: the node is busy until this simulated time.
    clock: f64,
    /// Finish times of admitted-but-unfinished requests, ascending;
    /// its length (after expiring entries `<= now`) is the queue depth
    /// the router sees.
    inflight: VecDeque<f64>,
    /// Per-stream incremental map states — the node's "map cache".
    states: HashMap<u64, StreamState>,
    served: u64,
    busy_us: f64,
    misses: u64,
    finished: u64,
}

impl SimNode {
    fn load(&mut self, now: f64) -> NodeLoad {
        while self.inflight.front().is_some_and(|&f| f <= now) {
            self.inflight.pop_front();
        }
        NodeLoad {
            alive: self.alive,
            queue_depth: self.inflight.len(),
            est_service_us: if self.served == 0 {
                0.0
            } else {
                self.busy_us / self.served as f64
            },
            miss_rate: if self.finished == 0 {
                0.0
            } else {
                self.misses as f64 / self.finished as f64
            },
        }
    }
}

/// Deterministic discrete-time fleet simulator. See the module docs.
pub struct FleetSim {
    nodes: Vec<SimNode>,
    router: Router,
    cfg: SimConfig,
}

impl FleetSim {
    /// Boots a virtual node per spec: the same lenient boot as the live
    /// fleet, but in simulate-only mode (only the priced
    /// [`ts_core::RunReport`] matters here) and behind the same
    /// capacity-weighted ring. The [`ts_serve::ServeConfig`] inside
    /// each spec is unused — the sim has no batcher or worker pool.
    pub fn new(
        network: &Network,
        weights: &NetworkWeights,
        specs: &[NodeSpec],
        router_cfg: RouterConfig,
        cfg: SimConfig,
    ) -> Self {
        let ring_weights: Vec<f64> = specs.iter().map(|s| s.capacity_weight()).collect();
        let nodes = specs
            .iter()
            .map(|spec| SimNode {
                engine: spec.boot_sim_engine(network, weights),
                tier: spec.tier.label().to_owned(),
                device: spec.tier.device().name,
                alive: true,
                clock: 0.0,
                inflight: VecDeque::new(),
                states: HashMap::new(),
                served: 0,
                busy_us: 0.0,
                misses: 0,
                finished: 0,
            })
            .collect();
        Self {
            nodes,
            router: Router::weighted(router_cfg, &ring_weights),
            cfg,
        }
    }

    /// Applies kill/restart events scheduled at or before `now`.
    fn apply_lifecycle(&mut self, now: f64, counters: &mut RoutingCounters) {
        // Events fire once; processed entries are marked consumed.
        let mut fired = Vec::new();
        for (i, kill) in self.cfg.kills.iter().enumerate() {
            if kill.at_us <= now {
                fired.push((i, *kill));
            }
        }
        for (i, kill) in fired {
            if let Some(node) = self.nodes.get_mut(kill.node) {
                if node.alive {
                    node.alive = false;
                    node.states.clear();
                    counters.node_deaths += 1;
                    ts_trace::counter_add("fleet.nodes.killed", 1);
                    self.router.on_node_down(kill.node);
                }
                if let Some(restart) = kill.restart_at_us {
                    if restart <= now && !node.alive {
                        node.alive = true;
                        node.clock = node.clock.max(restart);
                        counters.node_restarts += 1;
                        ts_trace::counter_add("fleet.nodes.restarted", 1);
                    } else if restart > now {
                        // Keep the restart pending: replace the kill
                        // with an already-dead marker that only
                        // restarts.
                        self.cfg.kills[i] = KillEvent {
                            node: kill.node,
                            at_us: f64::NEG_INFINITY,
                            restart_at_us: Some(restart),
                        };
                        continue;
                    }
                }
            }
            // Mark consumed.
            self.cfg.kills[i] = KillEvent {
                node: usize::MAX,
                at_us: f64::INFINITY,
                restart_at_us: None,
            };
        }
    }

    /// Runs the trace to completion. `frames[s][f]` is frame `f` of
    /// stream `s`; the trace's `frames_per_stream()` gives the minimum
    /// shape. Frames with compile errors (malformed inputs) are skipped
    /// deterministically — production inputs are validated upstream.
    pub fn run(&mut self, trace: &ArrivalTrace, frames: &[Vec<SparseTensor>]) -> SimReport {
        let mut counters = RoutingCounters::default();
        let mut rejected_no_capacity = 0u64;
        let mut latencies: Vec<f64> = Vec::with_capacity(trace.arrivals.len());
        let mut deadline_misses = 0u64;
        let mut map_hits = 0u64;
        let mut map_misses = 0u64;
        let mut map_patched = 0u64;
        let mut map_rebuilt = 0u64;
        let mut last_finish = f64::NEG_INFINITY;
        let t0 = trace.arrivals.first().map_or(0.0, |a| a.at_us);
        let mut slo = self.cfg.slo.clone().map(SloMonitor::new);
        let mut alerts: Vec<Alert> = Vec::new();

        for arrival in &trace.arrivals {
            let now = arrival.at_us;
            self.apply_lifecycle(now, &mut counters);
            // Evaluate before observing this arrival so clears can fire
            // even through stretches where every arrival is rejected.
            if let Some(m) = slo.as_mut() {
                alerts.extend(m.evaluate_at(now as u64));
            }

            let loads: Vec<NodeLoad> = self.nodes.iter_mut().map(|n| n.load(now)).collect();
            let Some(decision) = self.router.route(arrival.stream, &loads) else {
                rejected_no_capacity += 1;
                counters.rejected_no_capacity += 1;
                ts_trace::counter_add("fleet.requests.rejected_no_capacity", 1);
                continue;
            };
            counters.count(&decision);

            let frame = &frames[arrival.stream as usize][arrival.frame];
            let node = &mut self.nodes[decision.node];
            let hit = node.states.contains_key(&arrival.stream);
            let mut state = node.states.remove(&arrival.stream);
            let Ok((_out, report, outcome)) =
                node.engine
                    .infer_stream(&mut state, frame, &DeltaConfig::default())
            else {
                continue;
            };
            if let Some(s) = state {
                node.states.insert(arrival.stream, s);
            }
            if hit {
                map_hits += 1;
                match outcome.kind {
                    MapUpdate::Patched => map_patched += 1,
                    MapUpdate::Rebuilt => map_rebuilt += 1,
                }
            } else {
                map_misses += 1;
            }

            let service_us = report.total_us();
            let start = now.max(node.clock);
            let finish = start + service_us;
            node.clock = finish;
            node.inflight.push_back(finish);
            node.served += 1;
            node.busy_us += service_us;
            node.finished += 1;
            last_finish = last_finish.max(finish);

            let latency = finish - now;
            let missed = latency > self.cfg.deadline_us;
            if missed {
                deadline_misses += 1;
                node.misses += 1;
            }
            if let Some(m) = slo.as_mut() {
                m.observe_at(now as u64, missed);
                alerts.extend(m.evaluate_at(now as u64));
            }
            latencies.push(latency);
            ts_trace::sim_span(
                Subsystem::Fleet,
                &format!("node-{}", decision.node),
                "frame",
                service_us,
                vec![
                    ("stream".to_owned(), ArgValue::U64(arrival.stream)),
                    ("hit".to_owned(), ArgValue::Bool(hit)),
                ],
            );
        }

        let completed = latencies.len() as u64;
        let makespan_us = if completed == 0 {
            0.0
        } else {
            (last_finish - t0).max(f64::MIN_POSITIVE)
        };
        let mean_latency_us = if completed == 0 {
            0.0
        } else {
            latencies.iter().sum::<f64>() / completed as f64
        };
        let mut sorted = latencies;
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        SimReport {
            completed,
            rejected_no_capacity,
            counters,
            fps_sim: if makespan_us > 0.0 {
                completed as f64 / makespan_us * 1e6
            } else {
                0.0
            },
            makespan_us,
            mean_latency_us,
            p50_latency_us: percentile_sorted(&sorted, 0.50).unwrap_or(0.0),
            p99_latency_us: percentile_sorted(&sorted, 0.99).unwrap_or(0.0),
            deadline_misses,
            miss_rate: if completed == 0 {
                0.0
            } else {
                deadline_misses as f64 / completed as f64
            },
            alerts,
            map_hits,
            map_misses,
            map_patched,
            map_rebuilt,
            per_node: self
                .nodes
                .iter()
                .enumerate()
                .map(|(id, n)| SimNodeStats {
                    id,
                    tier: n.tier.clone(),
                    device: n.device.clone(),
                    served: n.served,
                    busy_us: n.busy_us,
                })
                .collect(),
        }
    }
}
