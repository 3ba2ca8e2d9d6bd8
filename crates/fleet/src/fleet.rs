//! The live fleet: N [`ts_serve::Server`] nodes behind one
//! stream-affinity [`Router`], with whole-node chaos (kill / restart)
//! layered on top of each node's own worker supervision.

use std::fmt;

use ts_core::{Network, NetworkWeights, SparseTensor};
use ts_obs::{Alert, HealthSnapshot, RecordedEvent};
use ts_serve::{Rejected, ResponseHandle, ServeReport, Server};

use crate::node::NodeSpec;
use crate::report::{FleetReport, NodeReport, RoutingCounters};
use crate::router::{NodeLoad, Router, RouterConfig};

/// Typed fleet-level failure, composing the node-level [`Rejected`]
/// outcomes so router and caller error paths work with `?`.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetError {
    /// Every node is dead; the request was never placed.
    NoCapacity,
    /// The chosen node refused the request (its typed reason inside).
    Rejected(Rejected),
    /// The node id does not exist in this fleet.
    UnknownNode {
        /// The offending id.
        id: usize,
        /// How many nodes the fleet has.
        nodes: usize,
    },
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::NoCapacity => write!(f, "no alive node to route to"),
            FleetError::Rejected(r) => write!(f, "node rejected request: {r}"),
            FleetError::UnknownNode { id, nodes } => {
                write!(f, "unknown node {id} (fleet has {nodes})")
            }
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::Rejected(r) => Some(r),
            _ => None,
        }
    }
}

impl From<Rejected> for FleetError {
    fn from(r: Rejected) -> Self {
        FleetError::Rejected(r)
    }
}

/// One fleet slot: the spec it boots from (kept for restarts), the live
/// server if alive, and the reports of past lifetimes.
struct NodeSlot {
    spec: NodeSpec,
    server: Option<Server>,
    retired: Vec<ServeReport>,
    /// Alert transitions from retired lifetimes (collected at kill
    /// time, before the server is dropped).
    retired_alerts: Vec<Alert>,
    deaths: u64,
}

impl NodeSlot {
    /// This lifetime's report merged with all retired ones.
    fn pooled_report(&self, live: Option<ServeReport>) -> ServeReport {
        self.retired
            .iter()
            .chain(&live)
            .fold(ServeReport::default(), |acc, r| acc.merge(r))
    }

    /// Retired-lifetime alerts plus the live server's, in order.
    fn pooled_alerts(&self) -> Vec<Alert> {
        let mut alerts = self.retired_alerts.clone();
        if let Some(s) = &self.server {
            alerts.extend(s.alerts());
        }
        alerts
    }
}

/// A sharded serving fleet. Submissions are routed by stream affinity
/// (see [`Router`]); nodes can be killed and restarted while traffic
/// flows, with every in-flight request resolving to an output or a
/// typed [`Rejected`] — never silence.
pub struct Fleet {
    network: Network,
    weights: NetworkWeights,
    router: Router,
    nodes: Vec<NodeSlot>,
    counters: RoutingCounters,
}

impl Fleet {
    /// Boots one server per spec. Every node boots its schedule
    /// leniently — a corrupt schedule boots a degraded node, never a
    /// missing one. The hash ring is capacity-weighted
    /// ([`NodeSpec::capacity_weight`]), so slower tiers home
    /// proportionally fewer streams.
    pub fn boot(
        network: Network,
        weights: NetworkWeights,
        specs: Vec<NodeSpec>,
        router_cfg: RouterConfig,
    ) -> Self {
        let ring_weights: Vec<f64> = specs.iter().map(|s| s.capacity_weight()).collect();
        let router = Router::weighted(router_cfg, &ring_weights);
        let nodes = specs
            .into_iter()
            .map(|spec| {
                let engine = spec.boot_engine(&network, &weights);
                let server = Server::new(engine, spec.serve.clone());
                NodeSlot {
                    spec,
                    server: Some(server),
                    retired: Vec::new(),
                    retired_alerts: Vec::new(),
                    deaths: 0,
                }
            })
            .collect();
        Self {
            network,
            weights,
            router,
            nodes,
            counters: RoutingCounters::default(),
        }
    }

    /// Number of nodes currently alive.
    pub fn alive(&self) -> usize {
        self.nodes.iter().filter(|n| n.server.is_some()).count()
    }

    /// Total number of node slots (alive or dead).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the fleet has no nodes at all.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Current load snapshot the router decides from.
    fn loads(&self) -> Vec<NodeLoad> {
        self.nodes
            .iter()
            .map(|n| match &n.server {
                None => NodeLoad {
                    alive: false,
                    queue_depth: 0,
                    est_service_us: 0.0,
                    miss_rate: 0.0,
                },
                Some(s) => {
                    let l = s.load();
                    NodeLoad {
                        alive: true,
                        queue_depth: l.queue_depth,
                        est_service_us: l.est_service_us(),
                        miss_rate: l.miss_rate(),
                    }
                }
            })
            .collect()
    }

    /// Routes and submits one frame. On success the handle resolves to
    /// the serving node's response (or its typed rejection) exactly as
    /// with a single [`Server`].
    ///
    /// # Errors
    ///
    /// [`FleetError::NoCapacity`] with every node dead;
    /// [`FleetError::Rejected`] when the routed node refused admission
    /// (e.g. queue full on a fleet-wide overload).
    pub fn submit(
        &mut self,
        stream: u64,
        frame: SparseTensor,
    ) -> Result<ResponseHandle, FleetError> {
        let loads = self.loads();
        let Some(decision) = self.router.route(stream, &loads) else {
            self.counters.rejected_no_capacity += 1;
            ts_trace::counter_add("fleet.requests.rejected_no_capacity", 1);
            return Err(FleetError::NoCapacity);
        };
        self.counters.count(&decision);
        let server = self.nodes[decision.node]
            .server
            .as_ref()
            .expect("router only places on alive nodes");
        // A home movement is exactly the event a post-mortem reader
        // wants in the ring: record it on the node that *gained* the
        // stream (where the map rebuild cost will land).
        if let Some(kind) = decision.movement_kind() {
            server.record_migration(stream, decision.node as u64, kind);
        }
        Ok(server.submit(stream, frame)?)
    }

    /// The node a stream is currently homed on, if any.
    pub fn home_of(&self, stream: u64) -> Option<usize> {
        self.router.home_of(stream)
    }

    /// Per-node rolling-window health, in node order: `None` for dead
    /// nodes and for nodes serving without
    /// [`ts_serve::ServeConfig::with_obs`]. Unlike [`Fleet::report`]
    /// (cumulative since boot), each snapshot covers only the
    /// telemetry window — the "is the fleet healthy *right now*" view.
    pub fn health(&self) -> Vec<Option<HealthSnapshot>> {
        self.nodes
            .iter()
            .map(|n| n.server.as_ref().and_then(|s| s.health_snapshot()))
            .collect()
    }

    /// Node `id`'s flight-recorder ring, oldest first — "what just
    /// happened on that node". Empty for dead nodes, unknown ids, and
    /// nodes serving without telemetry.
    pub fn node_recent_events(&self, id: usize) -> Vec<RecordedEvent> {
        self.nodes
            .get(id)
            .and_then(|n| n.server.as_ref())
            .map(Server::recent_events)
            .unwrap_or_default()
    }

    /// Kills a node: halts its server (backlog shed with typed
    /// rejections, in-flight batches drained — see [`Server::halt`]),
    /// retires its report, and displaces its streams so their next
    /// frames re-home elsewhere. Returns the halted lifetime's report.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownNode`] for a bad id;
    /// [`FleetError::NoCapacity`] if the node is already dead.
    pub fn kill_node(&mut self, id: usize) -> Result<ServeReport, FleetError> {
        let nodes = self.nodes.len();
        let slot = self
            .nodes
            .get_mut(id)
            .ok_or(FleetError::UnknownNode { id, nodes })?;
        let server = slot.server.take().ok_or(FleetError::NoCapacity)?;
        slot.retired_alerts.extend(server.alerts());
        let report = server.halt();
        slot.retired.push(report.clone());
        slot.deaths += 1;
        self.counters.node_deaths += 1;
        ts_trace::counter_add("fleet.nodes.killed", 1);
        self.router.on_node_down(id);
        Ok(report)
    }

    /// Restarts a dead node from its spec: a fresh lenient engine boot
    /// and an empty map cache (its streams re-homed at kill time; any
    /// that hash back will rebuild their maps on first frame).
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownNode`] for a bad id;
    /// [`FleetError::Rejected`] if the node is still alive.
    pub fn restart_node(&mut self, id: usize) -> Result<(), FleetError> {
        let nodes = self.nodes.len();
        let network = self.network.clone();
        let weights = self.weights.clone();
        let slot = self
            .nodes
            .get_mut(id)
            .ok_or(FleetError::UnknownNode { id, nodes })?;
        if slot.server.is_some() {
            return Err(FleetError::Rejected(Rejected::ShuttingDown));
        }
        let engine = slot.spec.boot_engine(&network, &weights);
        slot.server = Some(Server::new(engine, slot.spec.serve.clone()));
        self.counters.node_restarts += 1;
        ts_trace::counter_add("fleet.nodes.restarted", 1);
        Ok(())
    }

    /// Live snapshot: every node's pooled report (past lifetimes plus
    /// the live one) merged into a [`FleetReport`].
    pub fn report(&self) -> FleetReport {
        let nodes = self
            .nodes
            .iter()
            .map(|slot| self.node_report(slot, slot.server.as_ref().map(|s| s.report())))
            .collect();
        FleetReport::from_nodes(nodes, self.counters)
    }

    fn node_report(&self, slot: &NodeSlot, live: Option<ServeReport>) -> NodeReport {
        let report = slot.pooled_report(live);
        NodeReport {
            id: slot.spec.id,
            tier: slot.spec.tier,
            device: slot.spec.tier.device().name,
            schedule_downgrades: report.schedule_downgrades,
            deaths: slot.deaths,
            alerts: slot.pooled_alerts(),
            report,
        }
    }

    /// Graceful fleet drain: every alive node serves its backlog and
    /// shuts down; the final merged report is returned.
    pub fn shutdown(self) -> FleetReport {
        let counters = self.counters;
        let nodes: Vec<NodeReport> = self
            .nodes
            .into_iter()
            .map(|mut slot| {
                let alerts = slot.pooled_alerts();
                let live = slot.server.take().map(|s| s.shutdown());
                let report = slot.pooled_report(live);
                NodeReport {
                    id: slot.spec.id,
                    tier: slot.spec.tier,
                    device: slot.spec.tier.device().name,
                    schedule_downgrades: report.schedule_downgrades,
                    deaths: slot.deaths,
                    alerts,
                    report,
                }
            })
            .collect();
        FleetReport::from_nodes(nodes, counters)
    }
}
