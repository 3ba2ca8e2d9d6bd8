//! Node specification: which device a fleet slot simulates, which
//! schedule it boots from, and how its server is configured.
//!
//! The paper's central observation is that the best dataflow is
//! device-specific (its Sparse Autotuner re-tunes per device); a
//! heterogeneous fleet therefore resolves every node's schedule from
//! the ts-cache store under its *own* device model
//! ([`NodeSpec::cached`]): a store tuned for an A100 gives an Orin node
//! the safe fallback rather than a schedule that misprices it.

use serde::{Deserialize, Serialize};
use ts_cache::{boot_schedule, BootOrigin, DriftPolicy, ScheduleCache};
use ts_core::{Engine, GroupConfigs, Network, NetworkWeights};
use ts_dataflow::{DataflowConfig, ExecCtx};
use ts_gpusim::Device;
use ts_kernelmap::Coord;
use ts_serve::ServeConfig;
use ts_tensor::Precision;

/// The hardware class a fleet node simulates. The three-tier lineup
/// mirrors a real deployment: datacenter accelerators, prosumer GPUs,
/// and the paper's ADAS edge platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DeviceTier {
    /// Datacenter: NVIDIA A100.
    Premium,
    /// Prosumer: NVIDIA RTX 3090 (the paper's main evaluation GPU).
    Standard,
    /// Edge: NVIDIA Jetson Orin.
    Edge,
}

impl DeviceTier {
    /// The simulated device model of this tier.
    pub fn device(self) -> Device {
        match self {
            DeviceTier::Premium => Device::a100(),
            DeviceTier::Standard => Device::rtx3090(),
            DeviceTier::Edge => Device::jetson_orin(),
        }
    }

    /// Short label for reports and trace lanes.
    pub fn label(self) -> &'static str {
        match self {
            DeviceTier::Premium => "premium",
            DeviceTier::Standard => "standard",
            DeviceTier::Edge => "edge",
        }
    }
}

/// Everything needed to boot (and re-boot, after a kill) one node.
#[derive(Debug, Clone)]
pub struct NodeSpec {
    /// Stable node index within the fleet.
    pub id: usize,
    /// Hardware class of the simulated device.
    pub tier: DeviceTier,
    /// Numeric precision the node serves at.
    pub precision: Precision,
    /// The schedule the node boots its engine from. Booting is
    /// lenient ([`Engine::new`]): a slot that fails validation runs the
    /// safe fallback and the engine reports itself degraded, never dead.
    pub schedule: GroupConfigs,
    /// Per-node server configuration.
    pub serve: ServeConfig,
}

impl NodeSpec {
    /// A spec with the untuned schedule, the safe fallback dataflow
    /// everywhere: what a deployment ships before its first autotune
    /// pass, and what [`NodeSpec::cached`] gives a node the store has no
    /// schedule for.
    pub fn untuned(id: usize, tier: DeviceTier, precision: Precision, serve: ServeConfig) -> Self {
        Self {
            id,
            tier,
            precision,
            schedule: GroupConfigs::uniform(DataflowConfig::safe_fallback()),
            serve,
        }
    }

    /// A spec whose schedule is resolved from the content-addressed
    /// schedule store by [`boot_schedule`], probing with `sample_coords`
    /// (a representative scene for this node's workload) under the
    /// tier's device model. A cold store just boots untuned nodes.
    /// Returns the spec plus where its schedule came from.
    #[allow(clippy::too_many_arguments)]
    pub fn cached(
        id: usize,
        tier: DeviceTier,
        precision: Precision,
        network: &Network,
        sample_coords: &[Coord],
        cache: &mut ScheduleCache,
        policy: &DriftPolicy,
        serve: ServeConfig,
    ) -> (Self, BootOrigin) {
        let ctx = ExecCtx::simulate(tier.device(), precision);
        let (schedule, boot) = boot_schedule(cache, network, &ctx, sample_coords, policy);
        (
            Self {
                id,
                tier,
                precision,
                schedule,
                serve,
            },
            boot.origin,
        )
    }

    /// Boots this node's engine under the tier's device model; possibly
    /// degraded, with typed [`ts_core::Downgrade`] records, never dead.
    pub fn boot_engine(&self, network: &Network, weights: &NetworkWeights) -> Engine {
        Engine::new(
            network.clone(),
            weights.clone(),
            self.schedule.clone(),
            ExecCtx::functional(self.tier.device(), self.precision),
        )
    }

    /// Same boot, but in simulate-only mode (no feature math): what
    /// [`crate::FleetSim`] runs, where only the priced
    /// [`ts_core::RunReport`] matters and functional execution would
    /// waste the bench's wall clock on outputs nobody reads.
    pub fn boot_sim_engine(&self, network: &Network, weights: &NetworkWeights) -> Engine {
        Engine::new(
            network.clone(),
            weights.clone(),
            self.schedule.clone(),
            ExecCtx::simulate(self.tier.device(), self.precision),
        )
    }

    /// Relative serving-capacity prior used to weight this node's share
    /// of the consistent-hash ring ([`crate::Router::weighted`]). DRAM
    /// bandwidth is the proxy: sparse-conv serving is dominated by
    /// mapping and gather/scatter traffic that scales with memory
    /// bandwidth on every workload width, whereas tensor-core peak only
    /// matters on very wide layers (the paper's §6.3 compute-vs-
    /// bandwidth asymmetry cuts the same way).
    pub fn capacity_weight(&self) -> f64 {
        self.tier.device().dram_gbps
    }
}

/// The tier cycle of the heterogeneous lineups.
const CYCLE: [DeviceTier; 3] = [DeviceTier::Premium, DeviceTier::Standard, DeviceTier::Edge];

/// The standard heterogeneous lineup for an `n`-node fleet: tiers
/// cycle Premium, Standard, Edge, Premium, ... so an 8-node fleet gets
/// 3 A100s, 3 RTX 3090s and 2 Orins. Every node gets the untuned
/// schedule.
pub fn heterogeneous_specs(n: usize, precision: Precision, serve: &ServeConfig) -> Vec<NodeSpec> {
    (0..n)
        .map(|id| NodeSpec::untuned(id, CYCLE[id % 3], precision, serve.clone()))
        .collect()
}

/// [`heterogeneous_specs`], but every node boots through the schedule
/// cache ([`NodeSpec::cached`]): each tier probes with its own device
/// model, so a store tuned per-tier warm-boots the whole lineup while
/// tiers the store has never seen boot untuned. Returns
/// the specs plus each node's schedule provenance, index-aligned.
pub fn heterogeneous_specs_cached(
    n: usize,
    precision: Precision,
    network: &Network,
    sample_coords: &[Coord],
    cache: &mut ScheduleCache,
    policy: &DriftPolicy,
    serve: &ServeConfig,
) -> (Vec<NodeSpec>, Vec<BootOrigin>) {
    (0..n)
        .map(|id| {
            NodeSpec::cached(
                id,
                CYCLE[id % 3],
                precision,
                network,
                sample_coords,
                cache,
                policy,
                serve.clone(),
            )
        })
        .unzip()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_core::{NetworkBuilder, Session};

    fn net() -> Network {
        let mut b = NetworkBuilder::new("node-test", 2);
        let _ = b.conv("c", NetworkBuilder::INPUT, 4, 3, 1);
        b.build()
    }

    #[test]
    fn untuned_spec_boots_clean() {
        let network = net();
        let weights = network.init_weights(0);
        let spec = NodeSpec::untuned(
            0,
            DeviceTier::Standard,
            Precision::Fp16,
            ServeConfig::default(),
        );
        let engine = spec.boot_engine(&network, &weights);
        assert!(!engine.is_degraded(), "the untuned schedule boots clean");
        assert_eq!(engine.ctx().device().name, "RTX 3090");
    }

    #[test]
    fn cached_boot_hits_own_tier_and_falls_back_elsewhere() {
        use ts_cache::{CacheEntry, ScheduleKey};

        let network = net();
        let weights = network.init_weights(0);
        let coords: Vec<Coord> = (0..32).map(|i| Coord::new(0, i % 8, i / 8, 0)).collect();
        let policy = DriftPolicy::default();
        let mut cache = ScheduleCache::in_memory();

        // Seed the store with a tuned-looking schedule for the
        // Standard tier only.
        let session = Session::new(&network, &coords);
        let ctx = ExecCtx::simulate(DeviceTier::Standard.device(), Precision::Fp16);
        cache
            .insert(CacheEntry {
                key: ScheduleKey::of(&session, &ctx),
                configs: GroupConfigs::uniform(DataflowConfig::gather_scatter(true)),
                tuned_latency_us: 100.0,
                default_latency_us: 200.0,
            })
            .expect("in-memory insert");

        let (specs, origins) = heterogeneous_specs_cached(
            3,
            Precision::Fp16,
            &network,
            &coords,
            &mut cache,
            &policy,
            &ServeConfig::default(),
        );
        assert_eq!(
            origins,
            vec![
                BootOrigin::Fallback, // Premium: never tuned
                BootOrigin::Cached,   // Standard: exact hit
                BootOrigin::Fallback, // Edge: never tuned
            ]
        );
        // Every node still boots, cached or not, and the cached one
        // runs the stored schedule without downgrades.
        for spec in &specs {
            let engine = spec.boot_engine(&network, &weights);
            assert!(!engine.is_degraded(), "node {} must boot clean", spec.id);
        }
        let standard = specs[1].boot_engine(&network, &weights);
        assert_eq!(
            standard.configs().default,
            DataflowConfig::gather_scatter(true)
        );
    }

    #[test]
    fn heterogeneous_lineup_cycles_tiers() {
        let specs = heterogeneous_specs(8, Precision::Fp16, &ServeConfig::default());
        let tiers: Vec<DeviceTier> = specs.iter().map(|s| s.tier).collect();
        assert_eq!(
            tiers,
            vec![
                DeviceTier::Premium,
                DeviceTier::Standard,
                DeviceTier::Edge,
                DeviceTier::Premium,
                DeviceTier::Standard,
                DeviceTier::Edge,
                DeviceTier::Premium,
                DeviceTier::Standard,
            ]
        );
        assert_eq!(
            specs.iter().filter(|s| s.tier == DeviceTier::Edge).count(),
            2
        );
    }
}
