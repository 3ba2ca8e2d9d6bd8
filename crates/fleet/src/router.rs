//! Stream-affinity routing with load-aware spillover.
//!
//! The router exists because of PR 6's economics: a stream's kernel
//! maps live in exactly one node's `MapCache`, so a frame routed
//! anywhere else pays a from-scratch map build. The policy, in priority
//! order:
//!
//! 1. **Affinity** — a stream that already has a live *home* keeps
//!    going there (its maps are cached there).
//! 2. **Consistent hash** — a stream with no home (first frame, or its
//!    home died) walks a seeded hash ring to the first alive node,
//!    which becomes its new home. The ring spreads streams evenly (or
//!    proportionally to per-node capacity weights, see
//!    [`Router::weighted`]) and moves only the dead node's streams on
//!    failure.
//! 3. **Spillover** — if the chosen home is overloaded, this *frame* is
//!    diverted to the alive node with the shortest estimated wait, but
//!    the home assignment does not move: when the home drains, the
//!    stream snaps back to its cached maps. Re-homing on transient load
//!    would ping-pong streams between nodes and thrash both nodes'
//!    caches.
//! 4. **Migration** — spillover that *persists* is not transient: after
//!    [`RouterConfig::migrate_after`] consecutive spilled frames the
//!    stream's home moves to the spill target. One map rebuild there
//!    buys affinity on a node that can actually keep up.
//!
//! "Overloaded" is a bound on estimated queueing *delay*, not queue
//! length: a node reporting a measured per-frame service time
//! ([`NodeLoad::est_service_us`]) is overloaded when
//! `queue_depth x est_service_us` exceeds
//! [`RouterConfig::spill_wait_us`]. A heterogeneous fleet needs this —
//! ten queued frames are seconds on an edge device and milliseconds on
//! a datacenter GPU, so any uniform depth threshold is wrong on one of
//! them. Nodes that have not reported a service time yet fall back to
//! the [`RouterConfig::spill_queue_depth`] depth bound.
//!
//! Every decision is a pure function of `(router state, loads)` — no
//! clocks, no randomness beyond the construction seed — which is what
//! makes fleet simulation and the routing proptests deterministic.

use std::collections::{HashMap, HashSet};

use serde::{Deserialize, Serialize};
use ts_obs::MigrationKind;

/// Routing policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RouterConfig {
    /// Hash-ring points per node. More points smooth the stream
    /// distribution; 64 keeps the spread within a few percent.
    pub virtual_nodes: usize,
    /// Estimated queueing delay (`queue_depth x est_service_us`) past
    /// which a node is overloaded and new frames spill. Only applies to
    /// nodes reporting a measured service time; half the default sim
    /// deadline, so spill engages well before deadlines start missing.
    pub spill_wait_us: f64,
    /// Depth fallback for nodes that have not reported a service time
    /// yet (nothing completed since boot): this many requests in flight
    /// is overloaded.
    pub spill_queue_depth: usize,
    /// A node missing deadlines at this rate is overloaded.
    pub spill_miss_rate: f64,
    /// Consecutive spilled frames after which a stream's home *moves*
    /// to the spill target — persistent pressure means the home cannot
    /// keep up and affinity to it is worthless. `0` disables migration
    /// (homes only ever move on node death).
    pub migrate_after: u32,
    /// Seed of the hash ring (placement is deterministic in it).
    pub seed: u64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            virtual_nodes: 64,
            spill_wait_us: 25_000.0,
            spill_queue_depth: 12,
            spill_miss_rate: 0.5,
            migrate_after: 4,
            seed: 0,
        }
    }
}

/// How a routing decision placed the frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Placement {
    /// Sent to the stream's existing home (cached maps).
    Affinity,
    /// First frame or dead home: consistent-hashed to a new home.
    Hashed,
    /// Home overloaded: diverted for this frame only.
    Spilled,
}

/// One routing decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// The node the frame goes to.
    pub node: usize,
    /// Which policy arm picked it.
    pub placement: Placement,
    /// Whether this decision gave the stream a new home after its old
    /// one died (fleet-level `re_homed` accounting).
    pub re_homed: bool,
    /// Whether this decision moved the stream's home to the spill
    /// target after persistent overload (fleet-level `migrated`
    /// accounting).
    pub migrated: bool,
}

impl Decision {
    /// The home-movement kind of this decision, if any — the `kind`
    /// recorded in the target node's flight recorder as an
    /// [`ts_obs::ObsEvent::Migration`]: `Migrate` for a
    /// persistent-overload move, `ReHome` for a move forced by the old
    /// home's death, `None` when the home did not move.
    pub fn movement_kind(&self) -> Option<MigrationKind> {
        if self.migrated {
            Some(MigrationKind::Migrate)
        } else if self.re_homed {
            Some(MigrationKind::ReHome)
        } else {
            None
        }
    }
}

/// Load snapshot of one node, as the router sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeLoad {
    /// Whether the node accepts work at all.
    pub alive: bool,
    /// Requests in flight on the node.
    pub queue_depth: usize,
    /// Measured mean service time per request in simulated
    /// microseconds, `0.0` until the node has completed anything. Lets
    /// the router reason about *wait* instead of queue length across
    /// heterogeneous devices.
    pub est_service_us: f64,
    /// Fraction of the node's finished requests that missed deadlines.
    pub miss_rate: f64,
}

impl NodeLoad {
    /// A fresh, idle, alive node.
    pub fn idle() -> Self {
        Self {
            alive: true,
            queue_depth: 0,
            est_service_us: 0.0,
            miss_rate: 0.0,
        }
    }

    /// Estimated queueing delay using `fallback_us` as the service time
    /// for nodes that have not measured one yet.
    fn est_wait_us(&self, fallback_us: f64) -> f64 {
        let s = if self.est_service_us > 0.0 {
            self.est_service_us
        } else {
            fallback_us
        };
        self.queue_depth as f64 * s
    }
}

/// The fleet's stream-affinity router. See the module docs for policy.
#[derive(Debug, Clone)]
pub struct Router {
    cfg: RouterConfig,
    /// Sorted hash ring: (point, node).
    ring: Vec<(u64, usize)>,
    /// Current home of each stream that has ever been routed.
    homes: HashMap<u64, usize>,
    /// Streams whose home died and have not been routed since; their
    /// next decision counts as a re-home.
    displaced: HashSet<u64>,
    /// Consecutive spilled frames per stream; reaching
    /// `cfg.migrate_after` migrates the home. Cleared whenever a frame
    /// lands on the home.
    spill_streaks: HashMap<u64, u32>,
}

/// SplitMix64 finalizer — the same avalanche the serve fault plans use;
/// good dispersion, no allocation, stable across platforms.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl Router {
    /// Builds a uniform hash ring for `nodes` nodes: every node gets
    /// `virtual_nodes` ring points, so streams spread evenly.
    pub fn new(cfg: RouterConfig, nodes: usize) -> Self {
        Self::weighted(cfg, &vec![1.0; nodes])
    }

    /// Builds a capacity-weighted hash ring: node `i` gets ring points
    /// proportional to `weights[i]` (the heaviest node gets
    /// `virtual_nodes`, everyone else a proportional share, floored at
    /// one point so no alive node is unreachable). A heterogeneous
    /// fleet uses this so an edge node homes a fraction of the streams
    /// a datacenter node does — uniform hashing would oversubscribe the
    /// slow nodes and turn their streams into permanent spillover.
    /// Non-finite or non-positive weights degrade to one point.
    pub fn weighted(cfg: RouterConfig, weights: &[f64]) -> Self {
        let base = cfg.virtual_nodes.max(1);
        let w_max = weights
            .iter()
            .copied()
            .filter(|w| w.is_finite())
            .fold(0.0_f64, f64::max);
        let mut ring = Vec::new();
        for (node, &w) in weights.iter().enumerate() {
            let points = if w_max > 0.0 && w.is_finite() && w > 0.0 {
                ((base as f64 * w / w_max).round() as usize).max(1)
            } else {
                1
            };
            for replica in 0..points {
                let h = mix(cfg.seed ^ mix((node as u64) << 32 | replica as u64));
                ring.push((h, node));
            }
        }
        ring.sort_unstable();
        Self {
            cfg,
            ring,
            homes: HashMap::new(),
            displaced: HashSet::new(),
            spill_streaks: HashMap::new(),
        }
    }

    /// The node a stream is currently homed on, if any.
    pub fn home_of(&self, stream: u64) -> Option<usize> {
        self.homes.get(&stream).copied()
    }

    /// Walks the ring from the stream's hash to the first alive node.
    fn hash_to_alive(&self, stream: u64, loads: &[NodeLoad]) -> Option<usize> {
        if self.ring.is_empty() {
            return None;
        }
        let h = mix(self.cfg.seed ^ mix(stream));
        let start = self.ring.partition_point(|&(p, _)| p < h);
        (0..self.ring.len())
            .map(|i| self.ring[(start + i) % self.ring.len()].1)
            .find(|&n| loads.get(n).is_some_and(|l| l.alive))
    }

    fn overloaded(&self, load: &NodeLoad) -> bool {
        if load.miss_rate > self.cfg.spill_miss_rate {
            return true;
        }
        if load.est_service_us > 0.0 {
            load.est_wait_us(0.0) > self.cfg.spill_wait_us
        } else {
            load.queue_depth >= self.cfg.spill_queue_depth
        }
    }

    /// Service time to assume for nodes that have not measured one:
    /// the slowest measured service time among alive nodes (pessimistic
    /// — an unknown node must earn short-wait status), or `1.0` when
    /// nothing has measured yet, which degrades every wait comparison
    /// to plain queue depth.
    fn fallback_service_us(loads: &[NodeLoad]) -> f64 {
        loads
            .iter()
            .filter(|l| l.alive)
            .map(|l| l.est_service_us)
            .fold(0.0_f64, f64::max)
            .max(1.0)
    }

    /// Least-loaded alive node: minimal `(estimated wait, miss_rate)`,
    /// lowest index breaking ties — deterministic for equal loads. With
    /// no measured service times anywhere this is minimal queue depth.
    fn least_loaded(loads: &[NodeLoad]) -> Option<usize> {
        let fallback = Self::fallback_service_us(loads);
        loads
            .iter()
            .enumerate()
            .filter(|(_, l)| l.alive)
            .min_by(|(_, a), (_, b)| {
                (a.est_wait_us(fallback), a.miss_rate)
                    .partial_cmp(&(b.est_wait_us(fallback), b.miss_rate))
                    .expect("waits and miss rates are finite")
            })
            .map(|(n, _)| n)
    }

    /// Routes one frame of `stream` given per-node loads (`loads[i]` is
    /// node `i`). Returns `None` when no node is alive.
    pub fn route(&mut self, stream: u64, loads: &[NodeLoad]) -> Option<Decision> {
        let home_alive = self
            .home_of(stream)
            .filter(|&n| loads.get(n).is_some_and(|l| l.alive));
        let (home, placement, re_homed) = match home_alive {
            Some(home) => (home, Placement::Affinity, false),
            None => {
                let home = self.hash_to_alive(stream, loads)?;
                let re_homed = self.displaced.remove(&stream);
                self.homes.insert(stream, home);
                (home, Placement::Hashed, re_homed)
            }
        };
        if self.overloaded(&loads[home]) {
            if let Some(spill) = Self::least_loaded(loads) {
                if spill != home {
                    // Transient overload must not thrash the map
                    // caches, so the home stays put — until the
                    // pressure proves persistent, at which point the
                    // home is the thrash and the stream migrates.
                    let streak = self.spill_streaks.entry(stream).or_insert(0);
                    *streak += 1;
                    let migrated = self.cfg.migrate_after > 0 && *streak >= self.cfg.migrate_after;
                    if migrated {
                        self.homes.insert(stream, spill);
                        self.spill_streaks.remove(&stream);
                    }
                    return Some(Decision {
                        node: spill,
                        placement: Placement::Spilled,
                        re_homed,
                        migrated,
                    });
                }
            }
        }
        self.spill_streaks.remove(&stream);
        Some(Decision {
            node: home,
            placement,
            re_homed,
            migrated: false,
        })
    }

    /// A node died: forget every home pointing at it (their streams
    /// will re-home on their next frame) and return how many streams
    /// were displaced.
    pub fn on_node_down(&mut self, node: usize) -> usize {
        let displaced: Vec<u64> = self
            .homes
            .iter()
            .filter(|&(_, &n)| n == node)
            .map(|(&s, _)| s)
            .collect();
        for s in &displaced {
            self.homes.remove(s);
            self.displaced.insert(*s);
        }
        displaced.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idle(n: usize) -> Vec<NodeLoad> {
        vec![NodeLoad::idle(); n]
    }

    #[test]
    fn first_frame_hashes_and_sets_home() {
        let mut r = Router::new(RouterConfig::default(), 4);
        let loads = idle(4);
        let d = r.route(9, &loads).expect("has alive nodes");
        assert_eq!(d.placement, Placement::Hashed);
        assert!(!d.re_homed);
        assert_eq!(r.home_of(9), Some(d.node));
        // Second frame sticks.
        let d2 = r.route(9, &loads).expect("routes");
        assert_eq!(d2.placement, Placement::Affinity);
        assert_eq!(d2.node, d.node);
    }

    #[test]
    fn placement_is_deterministic_in_seed() {
        let loads = idle(8);
        let mut a = Router::new(RouterConfig::default(), 8);
        let mut b = Router::new(RouterConfig::default(), 8);
        for s in 0..100u64 {
            assert_eq!(a.route(s, &loads), b.route(s, &loads));
        }
        let mut c = Router::new(
            RouterConfig {
                seed: 1,
                ..RouterConfig::default()
            },
            8,
        );
        let moved = (0..100u64)
            .filter(|&s| c.route(s, &loads).map(|d| d.node) != a.home_of(s))
            .count();
        assert!(moved > 0, "a different seed must shuffle placements");
    }

    #[test]
    fn ring_spreads_streams_across_nodes() {
        let mut r = Router::new(RouterConfig::default(), 8);
        let loads = idle(8);
        let mut counts = [0usize; 8];
        for s in 0..800u64 {
            counts[r.route(s, &loads).expect("routes").node] += 1;
        }
        for (n, &c) in counts.iter().enumerate() {
            assert!(c > 20, "node {n} got {c} of 800 streams");
        }
    }

    #[test]
    fn dead_home_rehomes_once_and_sticks() {
        let mut r = Router::new(RouterConfig::default(), 4);
        let mut loads = idle(4);
        let home = r.route(5, &loads).expect("routes").node;
        loads[home].alive = false;
        assert_eq!(r.on_node_down(home), 1);
        let d = r.route(5, &loads).expect("other nodes alive");
        assert_eq!(d.placement, Placement::Hashed);
        assert!(d.re_homed, "first route after the kill is the re-home");
        assert_ne!(d.node, home);
        let d2 = r.route(5, &loads).expect("routes");
        assert_eq!(d2.placement, Placement::Affinity);
        assert!(!d2.re_homed, "re-home is counted exactly once");
        assert_eq!(d2.node, d.node, "no ping-pong");
    }

    #[test]
    fn overloaded_home_spills_without_moving_home() {
        let mut r = Router::new(RouterConfig::default(), 3);
        let mut loads = idle(3);
        let home = r.route(1, &loads).expect("routes").node;
        loads[home].queue_depth = RouterConfig::default().spill_queue_depth;
        let d = r.route(1, &loads).expect("routes");
        assert_eq!(d.placement, Placement::Spilled);
        assert_ne!(d.node, home);
        assert_eq!(r.home_of(1), Some(home), "home survives the spill");
        // Load drains: the stream snaps back to its cached maps.
        loads[home].queue_depth = 0;
        let d2 = r.route(1, &loads).expect("routes");
        assert_eq!(d2.placement, Placement::Affinity);
        assert_eq!(d2.node, home);
    }

    #[test]
    fn miss_rate_triggers_spill() {
        let mut r = Router::new(RouterConfig::default(), 2);
        let mut loads = idle(2);
        let home = r.route(2, &loads).expect("routes").node;
        loads[home].miss_rate = 0.9;
        let d = r.route(2, &loads).expect("routes");
        assert_eq!(d.placement, Placement::Spilled);
        assert_ne!(d.node, home);
    }

    #[test]
    fn weighted_ring_shares_follow_capacity() {
        // 4x / 1x / 0.25x capacities: homes should land roughly 16:4:1.
        // Extra ring points tighten the share variance enough to assert
        // on the ratios.
        let cfg = RouterConfig {
            virtual_nodes: 512,
            ..RouterConfig::default()
        };
        let mut r = Router::weighted(cfg, &[4.0, 1.0, 0.25]);
        let loads = idle(3);
        let mut counts = [0usize; 3];
        for s in 0..4000u64 {
            counts[r.route(s, &loads).expect("routes").node] += 1;
        }
        assert!(
            counts[0] > 4 * counts[1],
            "heavy node must home the bulk: {counts:?}"
        );
        assert!(
            counts[1] > 2 * counts[2],
            "light node must home the least: {counts:?}"
        );
        assert!(counts[2] > 0, "every node stays reachable: {counts:?}");
        // Uniform weights reproduce the unweighted ring exactly.
        let mut u = Router::new(RouterConfig::default(), 3);
        let mut w = Router::weighted(RouterConfig::default(), &[1.0, 1.0, 1.0]);
        for s in 0..200u64 {
            assert_eq!(u.route(s, &loads), w.route(s, &loads));
        }
    }

    #[test]
    fn wait_bound_spills_slow_node_at_shallow_depth() {
        // 4 frames on a 7ms/frame edge device is a 28ms wait — past
        // the 25ms bound long before the 12-deep depth fallback.
        let mut r = Router::new(RouterConfig::default(), 2);
        let mut loads = idle(2);
        let home = r.route(3, &loads).expect("routes").node;
        loads[home].est_service_us = 7_000.0;
        loads[home].queue_depth = 4;
        let d = r.route(3, &loads).expect("routes");
        assert_eq!(d.placement, Placement::Spilled);
        // The same depth on a fast node is a 4ms wait: no spill.
        loads[home].est_service_us = 1_000.0;
        let d2 = r.route(3, &loads).expect("routes");
        assert_eq!(d2.placement, Placement::Affinity);
    }

    #[test]
    fn spill_prefers_shortest_wait_not_shortest_queue() {
        let mut r = Router::new(RouterConfig::default(), 3);
        let mut loads = idle(3);
        let home = r.route(4, &loads).expect("routes").node;
        for (n, load) in loads.iter_mut().enumerate() {
            if n != home {
                load.est_service_us = 1_000.0;
                load.queue_depth = 2; // 2ms wait
            }
        }
        // The "emptier" node is the slow one: 1 frame x 30ms.
        let slow = (0..3).find(|&n| n != home).expect("three nodes");
        loads[slow].est_service_us = 30_000.0;
        loads[slow].queue_depth = 1;
        loads[home].queue_depth = RouterConfig::default().spill_queue_depth;
        let d = r.route(4, &loads).expect("routes");
        assert_eq!(d.placement, Placement::Spilled);
        assert_ne!(d.node, slow, "spill must weigh wait, not depth");
    }

    #[test]
    fn persistent_overload_migrates_home() {
        let cfg = RouterConfig::default();
        let mut r = Router::new(cfg, 2);
        let mut loads = idle(2);
        let home = r.route(7, &loads).expect("routes").node;
        loads[home].queue_depth = cfg.spill_queue_depth;
        for i in 1..cfg.migrate_after {
            let d = r.route(7, &loads).expect("routes");
            assert_eq!(d.placement, Placement::Spilled);
            assert!(!d.migrated, "spill {i} is still transient");
            assert_eq!(r.home_of(7), Some(home), "home holds through spill {i}");
        }
        let d = r.route(7, &loads).expect("routes");
        assert_eq!(d.placement, Placement::Spilled);
        assert!(d.migrated, "persistent overload moves the home");
        assert_ne!(d.node, home);
        assert_eq!(r.home_of(7), Some(d.node));
        // The stream now has affinity to the node that can keep up.
        let d2 = r.route(7, &loads).expect("routes");
        assert_eq!(d2.placement, Placement::Affinity);
        assert_eq!(d2.node, d.node);
    }

    #[test]
    fn landing_on_home_resets_the_spill_streak() {
        let cfg = RouterConfig::default();
        let mut r = Router::new(cfg, 2);
        let mut loads = idle(2);
        let home = r.route(8, &loads).expect("routes").node;
        for round in 0..3 {
            loads[home].queue_depth = cfg.spill_queue_depth;
            for _ in 0..cfg.migrate_after - 1 {
                let d = r.route(8, &loads).expect("routes");
                assert!(!d.migrated, "round {round} must not migrate");
            }
            // The home drains before the streak completes.
            loads[home].queue_depth = 0;
            let d = r.route(8, &loads).expect("routes");
            assert_eq!(d.placement, Placement::Affinity);
            assert_eq!(d.node, home, "bursty overload keeps the home");
        }
    }

    #[test]
    fn migration_disabled_always_snaps_back() {
        let cfg = RouterConfig {
            migrate_after: 0,
            ..RouterConfig::default()
        };
        let mut r = Router::new(cfg, 2);
        let mut loads = idle(2);
        let home = r.route(9, &loads).expect("routes").node;
        loads[home].queue_depth = cfg.spill_queue_depth;
        for _ in 0..50 {
            let d = r.route(9, &loads).expect("routes");
            assert_eq!(d.placement, Placement::Spilled);
            assert!(!d.migrated);
        }
        assert_eq!(r.home_of(9), Some(home));
    }

    #[test]
    fn all_dead_routes_none() {
        let mut r = Router::new(RouterConfig::default(), 2);
        let mut loads = idle(2);
        loads[0].alive = false;
        loads[1].alive = false;
        assert_eq!(r.route(0, &loads), None);
    }

    #[test]
    fn single_node_fleet_never_spills() {
        let mut r = Router::new(RouterConfig::default(), 1);
        let mut loads = idle(1);
        loads[0].queue_depth = 1000;
        let d = r.route(0, &loads).expect("routes");
        assert_eq!(d.node, 0);
        assert_ne!(d.placement, Placement::Spilled);
    }
}
