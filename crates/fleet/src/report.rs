//! Fleet-level reporting: per-node [`ServeReport`]s plus the routing
//! counters, pooled with [`ServeReport::merge`] (counters sum, latency
//! histograms add bucket by bucket).

use serde::{Deserialize, Serialize};
use ts_obs::Alert;
use ts_serve::ServeReport;

use crate::node::DeviceTier;
use crate::router::{Decision, Placement};

/// One node's contribution to a [`FleetReport`]. A node killed and
/// restarted contributes one `NodeReport` whose `report` merges every
/// epoch it served.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeReport {
    /// Node index within the fleet.
    pub id: usize,
    /// Hardware class the node simulated.
    pub tier: DeviceTier,
    /// Simulated device name (e.g. "A100").
    pub device: String,
    /// Schedule slots the node booted degraded (lenient boot,
    /// [`ts_core::Engine::downgrades`]).
    pub schedule_downgrades: u64,
    /// Times the node was killed by fleet chaos.
    pub deaths: u64,
    /// SLO alert transitions the node's telemetry emitted, pooled
    /// across its lifetimes. Empty when the node runs without
    /// [`ts_serve::ServeConfig::with_obs`].
    #[serde(default)]
    pub alerts: Vec<Alert>,
    /// The node's serving report, pooled across its lifetimes.
    pub report: ServeReport,
}

/// Aggregated view of a whole fleet run: the merged serving report plus
/// the router's placement accounting. Serializes to JSON for benches
/// and dashboards.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetReport {
    /// Per-node reports, sorted by node id.
    pub nodes: Vec<NodeReport>,
    /// All node reports pooled via [`ServeReport::merge`] — exact
    /// counters, latency histograms pooled bucket by bucket.
    pub merged: ServeReport,
    /// Requests the router placed (all placements).
    pub routed: u64,
    /// Requests that went to their stream's live home.
    pub affinity: u64,
    /// Requests consistent-hashed to a new home (first frame or dead
    /// home).
    pub hashed: u64,
    /// Requests diverted off an overloaded home for one frame.
    pub spilled: u64,
    /// Streams that acquired a new home after their node died.
    pub re_homed: u64,
    /// Streams whose home migrated off a persistently overloaded node.
    #[serde(default)]
    pub migrated: u64,
    /// Whole-node kills executed.
    pub node_deaths: u64,
    /// Node restarts executed.
    pub node_restarts: u64,
    /// Requests refused because no node was alive.
    pub rejected_no_capacity: u64,
    /// All nodes' SLO alert transitions flattened in node order — the
    /// fleet-wide alert log an operator reads first after a chaos run.
    #[serde(default)]
    pub alerts: Vec<Alert>,
}

impl FleetReport {
    /// Pools the node reports (plus the given routing counters) into a
    /// fleet report. `nodes` must already carry per-node lifetimes
    /// merged.
    pub fn from_nodes(nodes: Vec<NodeReport>, counters: RoutingCounters) -> Self {
        let merged = nodes
            .iter()
            .fold(ServeReport::default(), |acc, n| acc.merge(&n.report));
        let alerts = nodes.iter().flat_map(|n| n.alerts.clone()).collect();
        Self {
            nodes,
            merged,
            routed: counters.routed,
            affinity: counters.affinity,
            hashed: counters.hashed,
            spilled: counters.spilled,
            re_homed: counters.re_homed,
            migrated: counters.migrated,
            node_deaths: counters.node_deaths,
            node_restarts: counters.node_restarts,
            rejected_no_capacity: counters.rejected_no_capacity,
            alerts,
        }
    }

    /// Fraction of routed requests that landed on their stream's home
    /// (the map-cache locality the router exists to protect).
    pub fn affinity_rate(&self) -> f64 {
        if self.routed == 0 {
            return 0.0;
        }
        self.affinity as f64 / self.routed as f64
    }

    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Parses a report back from JSON.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

/// The router-side tallies a [`Fleet`](crate::Fleet) or
/// [`FleetSim`](crate::FleetSim) accumulates while placing requests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoutingCounters {
    /// Requests placed (all arms).
    pub routed: u64,
    /// Placed on the live home.
    pub affinity: u64,
    /// Consistent-hashed to a (new) home.
    pub hashed: u64,
    /// Diverted off an overloaded home.
    pub spilled: u64,
    /// Streams given a new home after a node death.
    pub re_homed: u64,
    /// Streams whose home moved to the spill target after persistent
    /// overload ([`RouterConfig::migrate_after`](crate::RouterConfig)
    /// consecutive spills).
    #[serde(default)]
    pub migrated: u64,
    /// Whole-node kills.
    pub node_deaths: u64,
    /// Node restarts.
    pub node_restarts: u64,
    /// Requests refused with no alive node.
    pub rejected_no_capacity: u64,
}

impl RoutingCounters {
    /// Tallies one placement and adds the matching `fleet.requests.*`
    /// and `fleet.streams.*` trace counters.
    pub(crate) fn count(&mut self, decision: &Decision) {
        self.routed += 1;
        ts_trace::counter_add("fleet.requests.routed", 1);
        let (tally, counter) = match decision.placement {
            Placement::Affinity => (&mut self.affinity, "fleet.requests.affinity"),
            Placement::Hashed => (&mut self.hashed, "fleet.requests.hashed"),
            Placement::Spilled => (&mut self.spilled, "fleet.requests.spilled"),
        };
        *tally += 1;
        ts_trace::counter_add(counter, 1);
        if decision.re_homed {
            self.re_homed += 1;
            ts_trace::counter_add("fleet.streams.re_homed", 1);
        }
        if decision.migrated {
            self.migrated += 1;
            ts_trace::counter_add("fleet.streams.migrated", 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_fleet_report_is_finite_everywhere() {
        let r = FleetReport::from_nodes(Vec::new(), RoutingCounters::default());
        assert_eq!(r.merged.completed, 0);
        assert_eq!(r.affinity_rate(), 0.0);
        assert_eq!(r.merged.deadline_miss_rate(), 0.0);
        assert!(r.alerts.is_empty());
        let json = r.to_json().expect("serializes");
        assert_eq!(FleetReport::from_json(&json).expect("parses"), r);
    }

    fn node(id: usize, report: ServeReport, alerts: Vec<Alert>) -> NodeReport {
        NodeReport {
            id,
            tier: DeviceTier::Standard,
            device: "test".to_owned(),
            schedule_downgrades: 0,
            deaths: 0,
            alerts,
            report,
        }
    }

    /// A node that served nothing (all-zero report, empty histograms)
    /// must merge as identity: the busy node's percentiles and
    /// histograms come through untouched, nothing divides by zero.
    #[test]
    fn idle_node_does_not_skew_fleet_percentiles() {
        let busy = {
            let mut r = ServeReport {
                completed: 4,
                batch_sizes: vec![ts_serve::HistogramBucket { value: 2, count: 2 }],
                ..ServeReport::default()
            };
            for v in [100.0, 200.0, 300.0, 400.0] {
                r.overall.record(v);
            }
            r
        };
        let fleet = FleetReport::from_nodes(
            vec![
                node(0, busy.clone(), Vec::new()),
                node(1, ServeReport::default(), Vec::new()),
            ],
            RoutingCounters::default(),
        );
        assert_eq!(fleet.merged.completed, 4);
        assert_eq!(fleet.merged.batch_sizes, busy.batch_sizes);
        assert_eq!(fleet.merged.overall, busy.overall);
        assert_eq!(fleet.merged.deadline_miss_rate(), 0.0);
    }

    /// Node alert logs flatten into the fleet-wide log in node order
    /// and survive a JSON round trip (including the `#[serde(default)]`
    /// path for reports written before the field existed).
    #[test]
    fn alerts_flatten_in_node_order_and_round_trip() {
        let alert = |at_us: u64| Alert {
            level: ts_obs::AlertLevel::PageWorthy,
            state: ts_obs::AlertState::Tripped,
            at_us,
            burn_rate: 42.0,
            miss_rate: 0.42,
            window_us: 2_000,
            samples: 17,
        };
        let fleet = FleetReport::from_nodes(
            vec![
                node(0, ServeReport::default(), vec![alert(10)]),
                node(1, ServeReport::default(), vec![alert(5), alert(20)]),
            ],
            RoutingCounters::default(),
        );
        assert_eq!(
            fleet.alerts.iter().map(|a| a.at_us).collect::<Vec<_>>(),
            vec![10, 5, 20]
        );
        let json = fleet.to_json().expect("serializes");
        assert_eq!(FleetReport::from_json(&json).expect("parses"), fleet);
    }
}
