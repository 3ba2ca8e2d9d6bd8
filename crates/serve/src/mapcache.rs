//! Per-stream kernel-map cache: temporal reuse across a stream's frames.
//!
//! When [`crate::ServeConfig::map_reuse`] is on, workers service each
//! frame through [`ts_core::Engine::infer_stream`], threading the
//! stream's [`StreamState`] (the incrementally maintained stride-1
//! submanifold map) through this cache between frames. The cache is
//! bounded and LRU-evicted; entries are dropped wholesale whenever a
//! worker is respawned (a crashed worker may have died mid-patch, and a
//! cheap full rebuild beats trusting a possibly torn state), and the
//! cache never enables at all on an engine that booted degraded (its
//! schedule already fell back; keep the failure domain simple).
//!
//! An entry is *taken* (removed) while its frame executes and put back
//! afterwards, so two workers can never patch the same state
//! concurrently; a second in-flight frame of the same stream simply
//! misses and rebuilds.
//!
//! Cache activity is recorded once per event ([`ObsEvent::MapLookup`],
//! [`ObsEvent::MapUpdate`], [`ObsEvent::MapEvicted`],
//! [`ObsEvent::MapInvalidated`]) and observable three ways: cumulative
//! `map_*` fields of [`crate::ServeReport`], `serve.map_cache.*` trace
//! counters, and — with [`crate::ServeConfig::with_obs`] — the
//! *windowed* reuse rate in [`ts_obs::HealthSnapshot`], which is what a
//! router or operator should watch: a stream churning past the patch
//! threshold shows up there minutes before it moves the cumulative
//! rate.

use std::collections::HashMap;
use std::sync::Mutex;

use ts_core::StreamState;
use ts_obs::ObsEvent;

use crate::metrics::Metrics;

struct Entry {
    state: StreamState,
    last_used: u64,
}

#[derive(Default)]
struct Inner {
    entries: HashMap<u64, Entry>,
    tick: u64,
}

/// Bounded, LRU-evicted map of stream id to [`StreamState`], shared by
/// every worker of one server.
pub(crate) struct MapCache {
    enabled: bool,
    capacity: usize,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for MapCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MapCache")
            .field("enabled", &self.enabled)
            .field("capacity", &self.capacity)
            .finish_non_exhaustive()
    }
}

impl MapCache {
    pub(crate) fn new(enabled: bool, capacity: usize) -> Self {
        Self {
            enabled,
            capacity: capacity.max(1),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Whether workers should take the per-stream reuse path at all.
    pub(crate) fn enabled(&self) -> bool {
        self.enabled
    }

    /// Removes and returns the stream's state; the caller owns it for
    /// the duration of one frame and puts it back via [`Self::put`].
    pub(crate) fn take(&self, stream: u64) -> Option<StreamState> {
        let mut inner = self.inner.lock().expect("map cache lock");
        inner.entries.remove(&stream).map(|e| e.state)
    }

    /// Returns a stream's state to the cache, evicting the least
    /// recently used entry if the bound is exceeded.
    pub(crate) fn put(&self, stream: u64, state: StreamState, metrics: &Metrics) {
        let mut inner = self.inner.lock().expect("map cache lock");
        inner.tick += 1;
        let tick = inner.tick;
        inner.entries.insert(
            stream,
            Entry {
                state,
                last_used: tick,
            },
        );
        while inner.entries.len() > self.capacity {
            let oldest = inner
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(&k, _)| k)
                .expect("non-empty over capacity");
            inner.entries.remove(&oldest);
            metrics.record(ObsEvent::MapEvicted);
        }
    }

    /// Drops every cached state (worker respawn: a crashed worker may
    /// have been mid-update, and the take/put discipline cannot prove
    /// which streams it touched before parking its batch).
    pub(crate) fn invalidate_all(&self, metrics: &Metrics) {
        let mut inner = self.inner.lock().expect("map cache lock");
        let n = inner.entries.len() as u64;
        inner.entries.clear();
        if n > 0 {
            metrics.record(ObsEvent::MapInvalidated { streams: n });
        }
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.inner.lock().expect("map cache lock").entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_core::{DeltaConfig, Engine, GroupConfigs, NetworkBuilder, SparseTensor};
    use ts_dataflow::{DataflowConfig, ExecCtx};
    use ts_gpusim::Device;
    use ts_kernelmap::Coord;
    use ts_tensor::{rng_from_seed, uniform_matrix, Precision};

    fn state_for(seed: i32) -> StreamState {
        let mut b = NetworkBuilder::new("mc", 2);
        let _ = b.conv("c", NetworkBuilder::INPUT, 4, 3, 1);
        let net = b.build();
        let w = net.init_weights(0);
        let e = Engine::new(
            net,
            w,
            GroupConfigs::uniform(DataflowConfig::implicit_gemm(1)),
            ExecCtx::functional(Device::rtx3090(), Precision::Fp32),
        );
        let coords: Vec<Coord> = (0..20).map(|i| Coord::new(0, i + seed, 0, 0)).collect();
        let n = coords.len();
        let frame = SparseTensor::new(
            coords,
            uniform_matrix(&mut rng_from_seed(seed as u64), n, 2, -1.0, 1.0),
        );
        let mut state = None;
        e.infer_stream(&mut state, &frame, &DeltaConfig::default())
            .expect("seed frame infers");
        state.expect("state seeded")
    }

    #[test]
    fn take_removes_and_put_restores() {
        let m = Metrics::new(None, None);
        let cache = MapCache::new(true, 4);
        assert!(cache.take(7).is_none());
        cache.put(7, state_for(0), &m);
        assert_eq!(cache.len(), 1);
        let taken = cache.take(7).expect("cached");
        assert!(cache.take(7).is_none(), "take is exclusive");
        cache.put(7, taken, &m);
        assert_eq!(cache.len(), 1);
        assert_eq!(m.report().map_evicted, 0);
    }

    #[test]
    fn lru_eviction_at_capacity() {
        let m = Metrics::new(None, None);
        let cache = MapCache::new(true, 2);
        cache.put(1, state_for(1), &m);
        cache.put(2, state_for(2), &m);
        // Touch stream 1 so stream 2 is the LRU victim.
        let s1 = cache.take(1).expect("cached");
        cache.put(1, s1, &m);
        cache.put(3, state_for(3), &m);
        assert_eq!(cache.len(), 2);
        assert!(cache.take(2).is_none(), "LRU entry evicted");
        assert!(cache.take(1).is_some());
        assert!(cache.take(3).is_some());
        assert_eq!(m.report().map_evicted, 1);
    }

    #[test]
    fn invalidate_drops_everything_and_counts() {
        let m = Metrics::new(None, None);
        let cache = MapCache::new(true, 8);
        cache.put(1, state_for(1), &m);
        cache.put(2, state_for(2), &m);
        cache.invalidate_all(&m);
        assert_eq!(cache.len(), 0);
        assert_eq!(m.report().map_invalidated, 2);
        // Idempotent on an empty cache.
        cache.invalidate_all(&m);
        assert_eq!(m.report().map_invalidated, 2);
    }
}
