//! ts-fleet: a sharded, multi-device serving fleet for sparse
//! convolution inference.
//!
//! The paper tunes one engine for one GPU; a deployment runs many GPUs
//! of different classes behind one endpoint. This crate stands up N
//! [`ts_serve::Server`] nodes — each simulating its own device
//! (A100 / RTX 3090 / Jetson Orin) and booting its own per-device
//! schedule leniently ([`NodeSpec`]) — and routes streaming
//! point-cloud requests across them.
//!
//! # Why stream affinity
//!
//! Streaming inference gets its speedup from *incremental kernel-map
//! reuse*: a frame served on the node that holds the stream's cached
//! maps pays the cheap patch path; anywhere else it rebuilds from
//! scratch. Placement therefore optimizes for locality first:
//!
//! 1. **Affinity** — a stream with a live home goes back to it.
//! 2. **Consistent hash** — new or orphaned streams walk a hashed ring
//!    to the first alive node, which becomes their home. Ring placement
//!    depends only on `(seed, stream, node count)`, so it is stable
//!    across runs and across unrelated node deaths.
//! 3. **Spillover** — when the home is overloaded (deep queue or high
//!    deadline-miss rate) a frame diverts to the least-loaded node
//!    *without moving the home*: one rebuilt map on the spill target
//!    beats oscillating the cache between two nodes.
//!
//! # Layers
//!
//! - [`Router`]: the placement policy alone — pure, deterministic,
//!   property-tested.
//! - [`Fleet`]: the live threaded fleet (real servers, chaos via
//!   [`Fleet::kill_node`] / [`Fleet::restart_node`], merged
//!   [`FleetReport`]).
//! - [`FleetSim`]: the same routing over virtual per-node clocks with
//!   simulated-microsecond service times — fully deterministic, and the
//!   source of the CI-gated `BENCH_fleet.json` scaling numbers.
//! - [`ts_workloads::ArrivalTrace`]: open-loop Poisson arrivals shared
//!   by both layers.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod fleet;
mod node;
mod report;
mod router;
mod sim;

pub use fleet::{Fleet, FleetError};
pub use node::{heterogeneous_specs, heterogeneous_specs_cached, DeviceTier, NodeSpec};
pub use report::{FleetReport, NodeReport, RoutingCounters};
pub use router::{Decision, NodeLoad, Placement, Router, RouterConfig};
pub use sim::{frame_bank, FleetSim, KillEvent, SimConfig, SimNodeStats, SimReport};
// Re-exported so fleet users configure SLO alerting and read health
// snapshots without a direct ts-obs dependency.
pub use ts_obs::{Alert, AlertLevel, AlertState, HealthSnapshot, SloPolicy};
// Re-exported so fleet users boot nodes through the schedule cache
// ([`NodeSpec::cached`]) without a direct ts-cache dependency.
pub use ts_cache::{BootOrigin, DriftPolicy, ScheduleCache};
