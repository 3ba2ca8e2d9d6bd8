//! Compiled execution sessions: map building, layer grouping, and fast
//! latency simulation with per-group dataflow configurations.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::RwLock;

use serde::{Deserialize, Serialize};

use ts_dataflow::{
    forward_trace, prepare, prepare_trace, wgrad_trace, DataflowConfig, ExecCtx, Prepared,
};
use ts_gpusim::{KernelClass, KernelDesc, KernelTrace};
use ts_kernelmap::{
    build_strided_map_with_stats, build_submanifold_map_with_stats, Coord, KernelMap,
    KernelOffsets, MapStats,
};

use crate::report::{LayerTiming, RunReport};
use crate::{ConvSpec, Network, Op};

/// Error compiling a network against an input coordinate set (or, via
/// [`crate::Engine::try_infer`], validating an input frame against it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// A transposed convolution upsamples to a stride level no encoder
    /// layer ever produced, so there are no cached coordinates to
    /// upsample onto.
    TransposedWithoutEncoder {
        /// Name of the offending layer.
        layer: String,
        /// The missing (finer) stride level.
        missing_stride: i32,
    },
    /// The input feature width disagrees with the network's input.
    ChannelMismatch {
        /// Channels the network expects.
        expected: usize,
        /// Channels the input carries.
        got: usize,
    },
    /// The input coordinate set contains duplicate coordinates, which
    /// would silently alias feature rows.
    DuplicateCoords {
        /// Total points in the input.
        points: usize,
        /// Distinct coordinates among them.
        unique: usize,
    },
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::TransposedWithoutEncoder {
                layer,
                missing_stride,
            } => write!(
                f,
                "transposed conv '{layer}' has no cached coordinates at stride \
                 {missing_stride} (no matching encoder downsample)"
            ),
            CompileError::ChannelMismatch { expected, got } => write!(
                f,
                "input has {got} feature channels but the network expects {expected}"
            ),
            CompileError::DuplicateCoords { points, unique } => write!(
                f,
                "input coordinates are not deduplicated: {points} points, {unique} unique"
            ),
        }
    }
}

impl std::error::Error for CompileError {}

/// Prepare-cache hit/miss totals for a [`Session`], as returned by
/// [`Session::prepare_cache_counters`].
///
/// Increments saturate at `u64::MAX` rather than wrapping, so the
/// counters stay ordered ("more work happened") even on pathological
/// long-running sessions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PrepareCacheCounters {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to run dataflow preparation.
    pub misses: u64,
}

/// Saturating increment so the counters never wrap to zero.
fn saturating_inc(counter: &AtomicU64) {
    let _ = counter.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
        Some(v.saturating_add(1))
    });
}

/// Identity of a layer *group*: layers with the same key share kernel
/// maps (Figure 12 of the paper), so they are forced onto the same
/// dataflow and their mapping cost is paid once.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct GroupKey {
    /// Finer (smaller) tensor stride touched by the layer.
    pub lo_stride: i32,
    /// Coarser (larger) tensor stride touched by the layer.
    pub hi_stride: i32,
    /// Kernel size per axis.
    pub kernel_size: u32,
}

/// A prebuilt stride-1 submanifold map injected into session
/// compilation (the temporal-reuse path): streaming callers maintain the
/// map incrementally across frames and compile each frame's session
/// around it instead of rebuilding from scratch.
///
/// `stats` carries the hash work actually performed to produce the map
/// for *this* frame (a delta-sized patch, or a full rebuild), so the
/// simulated mapping cost prices the incremental path honestly.
#[derive(Debug, Clone)]
pub struct SubmanifoldReuse {
    /// Kernel size the map was built for; only the `(1, 1, kernel_size)`
    /// group is eligible.
    pub kernel_size: u32,
    /// The maintained map. Must cover exactly the session's (deduplicated)
    /// input coordinates, in order.
    pub map: Arc<KernelMap>,
    /// Hash build/query work spent bringing the map to this frame.
    pub stats: MapStats,
}

/// Workload-statistics summary of one layer group, as consumed by the
/// content-addressed schedule cache (`ts-cache`).
///
/// The shape part ([`GroupKey`] plus layer census) identifies the
/// group *structurally* — two sessions whose groups agree here can
/// exchange tuned schedules at all. The map statistics (`n_in`,
/// `n_out`, `total_pairs`, `effective_macs`) summarise the input
/// distribution the group actually saw: the MAC census that decides
/// whether a cached schedule still prices this workload faithfully or
/// whether the group's dataflow choice must be re-tuned.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GroupSignature {
    /// Group identity (strides + kernel size).
    pub key: GroupKey,
    /// Number of conv layers bound to the group.
    pub layer_count: usize,
    /// Input points of the shared kernel map.
    pub n_in: usize,
    /// Output points of the shared kernel map.
    pub n_out: usize,
    /// Total (input, output) pairs — the map's neighbor census.
    pub total_pairs: u64,
    /// Effective MACs summed over every conv layer in the group
    /// (`total_pairs x c_in x c_out` per layer): the group's share of
    /// the network's useful compute on this input distribution.
    pub effective_macs: u64,
}

/// One layer group: its shared map (built once), its transpose (built
/// when first read) and instrumentation.
#[derive(Debug, Clone)]
pub struct GroupInfo {
    /// Group identity.
    pub key: GroupKey,
    /// The shared kernel map, oriented fine -> coarse.
    pub map: Arc<KernelMap>,
    /// The transpose of `map`, once [`GroupInfo::map_t`] has built it.
    map_t: OnceLock<Arc<KernelMap>>,
    /// Hash build/query statistics of the base map construction.
    pub build_stats: MapStats,
    /// Number of conv layers in this group.
    pub layer_count: usize,
}

impl GroupInfo {
    fn new(key: GroupKey, map: Arc<KernelMap>, build_stats: MapStats, layer_count: usize) -> Self {
        Self {
            key,
            map,
            map_t: OnceLock::new(),
            build_stats,
            layer_count,
        }
    }

    /// The transposed map, coarse -> fine. Transposed-conv layers, dgrad
    /// and training pricing walk it, so an inference session builds it
    /// only for groups with a transposed-conv layer: it is built on the
    /// first call (and checked then, in debug builds) and kept.
    pub fn map_t(&self) -> &Arc<KernelMap> {
        self.map_t.get_or_init(|| {
            let map_t = self.map.transposed();
            #[cfg(debug_assertions)]
            {
                let violations = ts_kernelmap::check_map(&map_t);
                debug_assert!(
                    violations.is_empty(),
                    "group {:?} map_t violates kernel-map invariants: {violations:?}",
                    self.key
                );
            }
            Arc::new(map_t)
        })
    }

    /// The map in one orientation: fine -> coarse, or transposed.
    fn oriented(&self, transposed: bool) -> &Arc<KernelMap> {
        if transposed {
            self.map_t()
        } else {
            &self.map
        }
    }
}

/// Plan of one conv layer inside a compiled session.
#[derive(Debug, Clone, Copy)]
struct ConvPlan {
    node: usize,
    group: usize,
    /// Layer consumes the transposed orientation of the group map.
    transposed: bool,
    c_in: usize,
    c_out: usize,
}

/// Plan of one elementwise layer.
#[derive(Debug, Clone, Copy)]
struct ElemPlan {
    node: usize,
    points: usize,
    channels: usize,
    /// Number of operand tensors (1 for BN/ReLU, 2 for Add/Concat).
    operands: usize,
}

#[derive(Debug, Clone)]
enum LayerPlan {
    Conv(ConvPlan),
    Elem(ElemPlan),
}

/// Per-group dataflow configuration table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroupConfigs {
    /// Fallback configuration for unlisted groups.
    pub default: DataflowConfig,
    /// Overrides by group index.
    pub per_group: HashMap<usize, DataflowConfig>,
}

impl GroupConfigs {
    /// All groups run `cfg`.
    pub fn uniform(cfg: DataflowConfig) -> Self {
        Self {
            default: cfg,
            per_group: HashMap::new(),
        }
    }

    /// Resolves the configuration for group `g`.
    pub fn for_group(&self, g: usize) -> DataflowConfig {
        self.per_group.get(&g).copied().unwrap_or(self.default)
    }

    /// Sets an override for group `g`.
    pub fn set(&mut self, g: usize, cfg: DataflowConfig) {
        self.per_group.insert(g, cfg);
    }
}

/// Forward/dgrad/wgrad configuration tables for training (the binding
/// schemes of Figure 13 constrain how these three relate).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainConfigs {
    /// Forward kernels.
    pub fwd: GroupConfigs,
    /// Input-gradient kernels.
    pub dgrad: GroupConfigs,
    /// Weight-gradient kernels.
    pub wgrad: GroupConfigs,
}

impl TrainConfigs {
    /// All three kernel families bound to one configuration.
    pub fn bound(cfg: DataflowConfig) -> Self {
        Self {
            fwd: GroupConfigs::uniform(cfg),
            dgrad: GroupConfigs::uniform(cfg),
            wgrad: GroupConfigs::uniform(cfg),
        }
    }

    /// Resolves group `g`'s `[fwd, dgrad, wgrad]` configurations.
    pub fn for_group(&self, g: usize) -> [DataflowConfig; 3] {
        [
            self.fwd.for_group(g),
            self.dgrad.for_group(g),
            self.wgrad.for_group(g),
        ]
    }
}

/// A network compiled against a concrete input coordinate set: every
/// kernel map is built once, layers are assigned to groups, and
/// inference/training latency can be simulated cheaply for any per-group
/// dataflow assignment (the autotuner calls this in its inner loop).
///
/// `Session` is `Sync`: the prepare cache sits behind an `RwLock`, so
/// the autotuner can evaluate candidate configurations from multiple
/// threads against one shared session.
#[derive(Debug)]
pub struct Session {
    network: Network,
    /// Every node's output coordinates, in node order.
    coords: Vec<Arc<Vec<Coord>>>,
    groups: Vec<GroupInfo>,
    layers: Vec<LayerPlan>,
    group_used_forward: Vec<bool>,
    group_used_transposed: Vec<bool>,
    prepare_cache: RwLock<PrepareCache>,
    prepare_hits: AtomicU64,
    prepare_misses: AtomicU64,
}

impl Clone for Session {
    fn clone(&self) -> Self {
        Session {
            network: self.network.clone(),
            coords: self.coords.clone(),
            groups: self.groups.clone(),
            layers: self.layers.clone(),
            group_used_forward: self.group_used_forward.clone(),
            group_used_transposed: self.group_used_transposed.clone(),
            prepare_cache: RwLock::new(self.prepare_cache.read().clone()),
            prepare_hits: AtomicU64::new(self.prepare_hits.load(Ordering::Relaxed)),
            prepare_misses: AtomicU64::new(self.prepare_misses.load(Ordering::Relaxed)),
        }
    }
}

/// Cache of prepared plans keyed by `(group, transposed, config)`. A
/// plan is context-free, so one entry serves the feature walk and the
/// pricing of every context; pricing records the plan's mapping kernels
/// under the caller's context on every lookup.
type PrepareCache = HashMap<(usize, bool, DataflowConfig), Arc<Prepared>>;

/// The part of a pass one pricing walk records: the whole pass, one
/// group's mapping and conv layers, or the elementwise residual that no
/// dataflow choice affects. Every scope records its kernels in the
/// order the whole pass does, so a group's share of a pass is priced by
/// exactly the kernels the pass records for that group.
#[derive(Clone, Copy)]
enum Scope {
    Pass,
    Group(usize),
    Residual,
}

impl Scope {
    /// Whether the walk prices group `g`'s mapping and conv layers.
    fn covers(self, g: usize) -> bool {
        match self {
            Scope::Pass => true,
            Scope::Group(only) => only == g,
            Scope::Residual => false,
        }
    }

    /// Whether the walk prices the elementwise layers.
    fn elementwise(self) -> bool {
        matches!(self, Scope::Pass | Scope::Residual)
    }
}

/// Appends one timing entry when the walk keeps timings; the name is
/// only built then.
fn note(
    timings: &mut Option<&mut Vec<LayerTiming>>,
    name: impl FnOnce() -> String,
    node: usize,
    group: Option<usize>,
    time_us: f64,
) {
    if let Some(t) = timings {
        t.push(LayerTiming {
            name: name(),
            node,
            group,
            time_us,
        });
    }
}

/// The configuration lookup of a residual walk, which prices no conv
/// layer.
fn no_conv<T>(_group: usize) -> T {
    unreachable!("the residual prices no conv layer")
}

impl Session {
    /// Compiles `network` against `input_coords` (stride-1 coordinates,
    /// deduplicated or not — they are uniqued here).
    ///
    /// # Panics
    ///
    /// Panics if a transposed convolution has no cached coordinates at
    /// its target stride (i.e. no matching encoder downsample); use
    /// [`Session::try_new`] for a recoverable error.
    pub fn new(network: &Network, input_coords: &[Coord]) -> Self {
        Self::try_new(network, input_coords).expect("network compiles against these coordinates")
    }

    /// Fallible variant of [`Session::new`].
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::TransposedWithoutEncoder`] when a
    /// transposed convolution targets a stride level that was never
    /// produced by an encoder layer.
    pub fn try_new(network: &Network, input_coords: &[Coord]) -> Result<Self, CompileError> {
        Self::try_new_with_reuse(network, input_coords, None)
    }

    /// [`Session::try_new`] with an optional prebuilt stride-1
    /// submanifold map ([`SubmanifoldReuse`]): the matching group adopts
    /// the supplied map and charges the supplied (delta-sized) build
    /// stats instead of rebuilding. All other groups build normally.
    /// With a map, `input_coords` are taken as given: the map's contract
    /// already requires them deduplicated, in the map's order.
    ///
    /// # Panics
    ///
    /// Panics if the reused map does not cover exactly the input
    /// coordinates (`map.n_out() != input_coords.len()`, which a repeated
    /// point trips too) — a mismatched map would silently corrupt every
    /// downstream layer.
    pub fn try_new_with_reuse(
        network: &Network,
        input_coords: &[Coord],
        reuse: Option<&SubmanifoldReuse>,
    ) -> Result<Self, CompileError> {
        let input = Arc::new(match reuse {
            Some(_) => input_coords.to_vec(),
            None => ts_kernelmap::unique_coords(input_coords),
        });
        let mut coords = vec![Arc::clone(&input)];
        let mut stride_cache: HashMap<i32, Arc<Vec<Coord>>> = HashMap::new();
        stride_cache.insert(1, input);

        let mut groups: Vec<GroupInfo> = Vec::new();
        let mut group_index: HashMap<GroupKey, usize> = HashMap::new();
        let mut layers = Vec::new();

        for (i, node) in network.nodes().iter().enumerate().skip(1) {
            let in_coords = Arc::clone(&coords[node.input]);
            match node.op {
                Op::Input => unreachable!("input node is always index 0"),
                Op::Conv(spec) => {
                    let in_stride = network.stride(node.input);
                    let (key, transposed) = group_key_for(&spec, in_stride);
                    let gid = match group_index.get(&key) {
                        Some(&g) => g,
                        None => {
                            let g = build_group(
                                key,
                                &spec,
                                transposed,
                                &in_coords,
                                &mut stride_cache,
                                reuse,
                            )
                            .ok_or_else(|| {
                                CompileError::TransposedWithoutEncoder {
                                    layer: node.name.clone(),
                                    missing_stride: key.lo_stride,
                                }
                            })?;
                            groups.push(g);
                            group_index.insert(key, groups.len() - 1);
                            groups.len() - 1
                        }
                    };
                    groups[gid].layer_count += 1;

                    // Output coordinates.
                    let out_stride = network.stride(i);
                    let out_coords: Arc<Vec<Coord>> = if spec.transposed {
                        Arc::clone(stride_cache.get(&out_stride).ok_or_else(|| {
                            CompileError::TransposedWithoutEncoder {
                                layer: node.name.clone(),
                                missing_stride: out_stride,
                            }
                        })?)
                    } else if spec.stride > 1 {
                        Arc::clone(
                            stride_cache
                                .get(&key.hi_stride)
                                .expect("building a strided group caches its coarse coordinates"),
                        )
                    } else {
                        Arc::clone(&in_coords)
                    };
                    stride_cache.insert(out_stride, Arc::clone(&out_coords));
                    coords.push(out_coords);

                    layers.push(LayerPlan::Conv(ConvPlan {
                        node: i,
                        group: gid,
                        transposed: spec.transposed,
                        c_in: spec.c_in,
                        c_out: spec.c_out,
                    }));
                }
                Op::BatchNorm | Op::ReLU => {
                    layers.push(LayerPlan::Elem(ElemPlan {
                        node: i,
                        points: in_coords.len(),
                        channels: network.out_channels(i),
                        operands: 1,
                    }));
                    coords.push(in_coords);
                }
                Op::Add { .. } | Op::Concat { .. } => {
                    layers.push(LayerPlan::Elem(ElemPlan {
                        node: i,
                        points: in_coords.len(),
                        channels: network.out_channels(i),
                        operands: 2,
                    }));
                    coords.push(in_coords);
                }
            }
        }

        let mut group_used_forward = vec![false; groups.len()];
        let mut group_used_transposed = vec![false; groups.len()];
        for l in &layers {
            if let LayerPlan::Conv(c) = l {
                if c.transposed {
                    group_used_transposed[c.group] = true;
                } else {
                    group_used_forward[c.group] = true;
                }
            }
        }

        Ok(Session {
            network: network.clone(),
            coords,
            groups,
            layers,
            group_used_forward,
            group_used_transposed,
            prepare_cache: RwLock::new(HashMap::new()),
            prepare_hits: AtomicU64::new(0),
            prepare_misses: AtomicU64::new(0),
        })
    }

    /// The session over the rows of batch indices `batches` alone: every
    /// node keeps those rows in order, and each group's `map` keeps the
    /// pairs between kept rows, in order, re-indexed (its transpose, when
    /// read, is that map's, which has the same pairs in the same order
    /// as the selected full transpose). Sparse
    /// convolution never pairs two batch indices, so walking the result
    /// gives the kept rows exactly what walking `self` gives them; the
    /// other rows are not walked at all.
    ///
    /// Nothing is hashed: each distinct coordinate list gets one table
    /// from row to kept index. The prepare cache starts empty, and the
    /// walk prepares each plan again over the smaller maps; a split
    /// plan's ranges depend only on kernel volume and split count, so
    /// the feature math runs the same ranges. The result serves the
    /// feature walk: its map-build stats and elementwise layer sizes
    /// stay the full session's, so it does not price the kept rows.
    pub(crate) fn select_batches(&self, batches: &[i32]) -> Session {
        let mut lists: Vec<Selection> = Vec::new();
        let mut select = |coords: &Arc<Vec<Coord>>| match lists
            .iter()
            .position(|s| Arc::ptr_eq(&s.from, coords))
        {
            Some(i) => i,
            None => {
                lists.push(Selection::new(coords, batches));
                lists.len() - 1
            }
        };
        let node_lists: Vec<usize> = self.coords.iter().map(&mut select).collect();
        // Each group's (fine, coarse) lists, from a conv layer bound to it.
        let mut ends: Vec<Option<(usize, usize)>> = vec![None; self.groups.len()];
        for l in &self.layers {
            if let LayerPlan::Conv(c) = l {
                let (src, dst) = (
                    node_lists[self.network.nodes()[c.node].input],
                    node_lists[c.node],
                );
                ends[c.group].get_or_insert(if c.transposed { (dst, src) } else { (src, dst) });
            }
        }
        let groups = self
            .groups
            .iter()
            .zip(ends)
            .map(|(g, ends)| {
                let (fine, coarse) = ends.expect("every group has a conv layer");
                let map = select_pairs(&g.map, &lists[fine], &lists[coarse]);
                GroupInfo::new(g.key, Arc::new(map), g.build_stats, g.layer_count)
            })
            .collect();
        Session {
            network: self.network.clone(),
            coords: node_lists
                .iter()
                .map(|&l| Arc::clone(&lists[l].kept))
                .collect(),
            groups,
            layers: self.layers.clone(),
            group_used_forward: self.group_used_forward.clone(),
            group_used_transposed: self.group_used_transposed.clone(),
            prepare_cache: RwLock::new(HashMap::new()),
            prepare_hits: AtomicU64::new(0),
            prepare_misses: AtomicU64::new(0),
        }
    }

    /// Prepare-cache counters since construction (or since the values
    /// captured at [`Clone`] time).
    ///
    /// The same totals are published to the `ts-trace` counter registry
    /// as `core.prepare_cache.hit` / `core.prepare_cache.miss` whenever
    /// a tracer is installed on the preparing thread.
    pub fn prepare_cache_counters(&self) -> PrepareCacheCounters {
        PrepareCacheCounters {
            hits: self.prepare_hits.load(Ordering::Relaxed),
            misses: self.prepare_misses.load(Ordering::Relaxed),
        }
    }

    /// The compiled network.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Output coordinates of `node`, in the order its feature rows
    /// take (node 0 is the deduplicated input).
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a node of the compiled network.
    pub(crate) fn coords(&self, node: usize) -> &[Coord] {
        &self.coords[node]
    }

    /// The layer groups in first-use order.
    pub fn groups(&self) -> &[GroupInfo] {
        &self.groups
    }

    /// Per-group workload signatures, in group order: the shapes and
    /// map statistics (`n_out`, pair counts, MAC census) the schedule
    /// cache keys tuned schedules by. Deterministic for a given
    /// (network, input coordinates) pair.
    pub fn group_signatures(&self) -> Vec<GroupSignature> {
        self.groups
            .iter()
            .enumerate()
            .map(|(gid, g)| {
                let mut effective_macs = 0u64;
                for l in &self.layers {
                    if let LayerPlan::Conv(c) = l {
                        if c.group == gid {
                            // total_pairs is invariant under transposition,
                            // so both orientations contribute identically.
                            effective_macs = effective_macs
                                .saturating_add(g.map.total_pairs() * (c.c_in * c.c_out) as u64);
                        }
                    }
                }
                GroupSignature {
                    key: g.key,
                    layer_count: g.layer_count,
                    n_in: g.map.n_in(),
                    n_out: g.map.n_out(),
                    total_pairs: g.map.total_pairs(),
                    effective_macs,
                }
            })
            .collect()
    }

    /// Number of conv layers.
    pub fn conv_layer_count(&self) -> usize {
        self.layers
            .iter()
            .filter(|l| matches!(l, LayerPlan::Conv(_)))
            .count()
    }

    /// Checks every group's kernel map against its structural
    /// invariants: one pass over the pairs, debug builds only — release
    /// trusts map construction. A transpose is checked when
    /// [`GroupInfo::map_t`] builds it.
    pub(crate) fn debug_check_maps(&self) {
        #[cfg(debug_assertions)]
        for group in &self.groups {
            let violations = ts_kernelmap::check_map(&group.map);
            debug_assert!(
                violations.is_empty(),
                "group {:?} map violates kernel-map invariants: {violations:?}",
                group.key
            );
        }
    }

    /// The compiled plan of conv `node`, if it is one.
    fn conv_layer(&self, node: usize) -> Option<&ConvPlan> {
        self.layers.iter().find_map(|l| match l {
            LayerPlan::Conv(c) if c.node == node => Some(c),
            _ => None,
        })
    }

    /// A conv node's map in the orientation its layer walks, and its
    /// group: the group map, or for a transposed conv its transpose.
    pub(crate) fn conv_map(&self, node: usize) -> Option<(Arc<KernelMap>, usize)> {
        let c = self.conv_layer(node)?;
        let map = self.groups[c.group].oriented(c.transposed);
        Some((Arc::clone(map), c.group))
    }

    /// Both orientations of a conv node's map: `(layer_map, grad_map,
    /// group)`, where `grad_map` is the one dgrad walks. The group's
    /// transpose is one of the two, so the first call builds it
    /// ([`GroupInfo::map_t`]); the program's forward walk asks for
    /// its layer's orientation alone.
    pub fn conv_maps(&self, node: usize) -> Option<(Arc<KernelMap>, Arc<KernelMap>, usize)> {
        let c = self.conv_layer(node)?;
        let g = &self.groups[c.group];
        let (fwd, bwd) = (g.oriented(c.transposed), g.oriented(!c.transposed));
        Some((Arc::clone(fwd), Arc::clone(bwd), c.group))
    }

    /// The cached plan conv `node` runs `cfg` on: over its layer map, or
    /// with `grad` over the transposed map dgrad runs on. The feature
    /// walk takes its plans from the cache pricing fills, so each
    /// (group, orientation, config) is prepared once per session.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a conv node of the compiled network.
    pub(crate) fn conv_plan(
        &self,
        node: usize,
        grad: bool,
        cfg: &DataflowConfig,
        ctx: &ExecCtx,
    ) -> Arc<Prepared> {
        let c = self.conv_layer(node).expect("conv node has a compiled map");
        self.prepared_for(c.group, c.transposed != grad, cfg, ctx)
    }

    fn prepared_for(
        &self,
        group: usize,
        transposed: bool,
        cfg: &DataflowConfig,
        ctx: &ExecCtx,
    ) -> Arc<Prepared> {
        let key = (group, transposed, *cfg);
        if let Some(hit) = self.prepare_cache.read().get(&key) {
            saturating_inc(&self.prepare_hits);
            ts_trace::counter_add("core.prepare_cache.hit", 1);
            return Arc::clone(hit);
        }
        saturating_inc(&self.prepare_misses);
        ts_trace::counter_add("core.prepare_cache.miss", 1);
        let map = self.groups[group].oriented(transposed);
        let arc = Arc::new(prepare(map, cfg, ctx));
        // Racing preparers compute identical plans; keep the first
        // insert so every caller sees the same Arc.
        Arc::clone(self.prepare_cache.write().entry(key).or_insert(arc))
    }

    /// Records the mapping kernels of group `gid`'s cached plan for `cfg`
    /// in one orientation, priced under `ctx`.
    fn price_plan(
        &self,
        gid: usize,
        transposed: bool,
        cfg: &DataflowConfig,
        ctx: &ExecCtx,
        trace: &mut KernelTrace,
    ) {
        let plan = self.prepared_for(gid, transposed, cfg, ctx);
        let map = self.groups[gid].oriented(transposed);
        trace.merge(prepare_trace(map, &plan, cfg, ctx));
    }

    /// Charges the base map-construction kernels of group `g`.
    fn base_map_cost(&self, g: &GroupInfo, ctx: &ExecCtx, trace: &mut KernelTrace) {
        let s = g.build_stats;
        let hash = KernelDesc::mapping("map:hash-build", s.inserts * 48, s.inserts * 32);
        ctx.record(trace, hash);
        let query = KernelDesc::mapping("map:hash-query", s.queries * 64, s.queries * 32);
        ctx.record(trace, query);
        let kvol = g.map.kernel_volume() as u64;
        let n_out = g.map.n_out() as u64;
        let mat = KernelDesc::mapping(
            "map:materialize",
            n_out * kvol * 4,
            n_out * kvol * 4 + s.pairs * 8,
        );
        ctx.record(trace, mat);
    }

    /// Charges the map transposition kernel (once per group that needs
    /// the transposed orientation).
    fn transpose_cost(&self, g: &GroupInfo, ctx: &ExecCtx, trace: &mut KernelTrace) {
        let pairs = g.map.total_pairs();
        let t = KernelDesc::mapping("map:transpose", pairs * 8, pairs * 16);
        ctx.record(trace, t);
    }

    /// The forward pricing walk over `scope`: each covered group's
    /// one-time mapping work (base build, transpose when a transposed
    /// layer needs it, dataflow prepare), then each covered layer in
    /// network order, with group `g` on `cfg(g)`. Appends to `trace`;
    /// with `timings`, also one entry per group mapping and per layer.
    fn price_forward(
        &self,
        scope: Scope,
        cfg: impl Fn(usize) -> DataflowConfig,
        ctx: &ExecCtx,
        trace: &mut KernelTrace,
        mut timings: Option<&mut Vec<LayerTiming>>,
    ) {
        for (gid, g) in self.groups.iter().enumerate() {
            if !scope.covers(gid) {
                continue;
            }
            let (fwd_used, t_used) = (
                self.group_used_forward[gid],
                self.group_used_transposed[gid],
            );
            let before = timings.as_ref().map(|_| trace.total_us());
            self.base_map_cost(g, ctx, trace);
            if t_used {
                self.transpose_cost(g, ctx, trace);
            }
            let cfg = cfg(gid);
            for (transposed, used) in [(false, fwd_used), (true, t_used)] {
                if used {
                    self.price_plan(gid, transposed, &cfg, ctx, trace);
                }
            }
            if let Some(before) = before {
                let us = trace.total_us() - before;
                let name = || format!("group[{gid}] mapping");
                note(&mut timings, name, usize::MAX, Some(gid), us);
            }
        }

        for l in &self.layers {
            match l {
                LayerPlan::Conv(c) if scope.covers(c.group) => {
                    let cfg = cfg(c.group);
                    let map = self.groups[c.group].oriented(c.transposed);
                    let prep = self.prepared_for(c.group, c.transposed, &cfg, ctx);
                    let t = forward_trace(c.c_in, c.c_out, map, &prep, &cfg, ctx);
                    let name = || self.network.nodes()[c.node].name.clone();
                    note(&mut timings, name, c.node, Some(c.group), t.total_us());
                    trace.merge(t);
                }
                LayerPlan::Elem(e) if scope.elementwise() => {
                    let t = self.elementwise_cost(e, ctx, trace);
                    let name = || self.network.nodes()[e.node].name.clone();
                    note(&mut timings, name, e.node, None, t);
                }
                _ => {}
            }
        }
    }

    /// The backward pricing walk over `scope`, the reverse half of a
    /// training pass: each covered group's backward mapping (transpose
    /// unless forward already paid it, the dgrad prepare, and — when
    /// wgrad runs a dataflow of its own — the wgrad prepare plus a
    /// structure-duplication pass), then dgrad and wgrad of each covered
    /// conv layer and each covered elementwise layer, in reverse network
    /// order. `cfg(g)` is group `g`'s `[fwd, dgrad, wgrad]`.
    ///
    /// Mapping preparations are shared where configurations coincide:
    /// dgrad and wgrad share one when their configurations are equal
    /// (the map-sharing argument behind the paper's dgrad-wgrad binding
    /// scheme), and wgrad reuses forward's when those are equal.
    fn price_backward(
        &self,
        scope: Scope,
        cfg: impl Fn(usize) -> [DataflowConfig; 3],
        ctx: &ExecCtx,
        trace: &mut KernelTrace,
        mut timings: Option<&mut Vec<LayerTiming>>,
    ) {
        for (gid, g) in self.groups.iter().enumerate() {
            if !scope.covers(gid) {
                continue;
            }
            let before = timings.as_ref().map(|_| trace.total_us());
            let [fwd_cfg, d_cfg, w_cfg] = cfg(gid);
            // dgrad runs on the transposed map.
            if !self.group_used_transposed[gid] {
                self.transpose_cost(g, ctx, trace);
            }
            self.price_plan(gid, true, &d_cfg, ctx, trace);
            // A wgrad dataflow of its own prepares over the forward
            // orientation AND pays a structure-duplication pass: the
            // paper warns that generating map structures for an extra
            // dataflow costs on the order of extra convolution layers
            // per group (Section 4.2), which is exactly what the binding
            // schemes exist to avoid.
            if w_cfg != d_cfg && w_cfg != fwd_cfg {
                self.price_plan(gid, false, &w_cfg, ctx, trace);
                let s = g.build_stats;
                let dup =
                    KernelDesc::mapping("map:wgrad-structures", s.queries * 32, s.queries * 16);
                ctx.record(trace, dup);
            }
            if let Some(before) = before {
                let us = trace.total_us() - before;
                let name = || format!("group[{gid}] bwd mapping");
                note(&mut timings, name, usize::MAX, Some(gid), us);
            }
        }

        for l in self.layers.iter().rev() {
            match l {
                LayerPlan::Conv(c) if scope.covers(c.group) => {
                    let g = &self.groups[c.group];
                    let [_, d_cfg, w_cfg] = cfg(c.group);
                    // dgrad: convolution in the opposite orientation.
                    let d_map = g.oriented(!c.transposed);
                    let d_prep = self.prepared_for(c.group, !c.transposed, &d_cfg, ctx);
                    let dt = forward_trace(c.c_out, c.c_in, d_map, &d_prep, &d_cfg, ctx);
                    // wgrad over the layer's own orientation.
                    let w_map = g.oriented(c.transposed);
                    let wt = wgrad_trace(c.c_in, c.c_out, w_map, &w_cfg, ctx);
                    // Separate dgrad/wgrad entries so per-phase step
                    // attribution (ts-train) can bucket them by suffix.
                    let (node, group) = (c.node, Some(c.group));
                    let name = &self.network.nodes()[node].name;
                    let (dgrad, wgrad) = (|| format!("{name}:dgrad"), || format!("{name}:wgrad"));
                    note(&mut timings, dgrad, node, group, dt.total_us());
                    note(&mut timings, wgrad, node, group, wt.total_us());
                    trace.merge(dt);
                    trace.merge(wt);
                }
                LayerPlan::Elem(e) if scope.elementwise() => {
                    let t = self.elementwise_cost(e, ctx, trace);
                    let name = || format!("{}:bwd", self.network.nodes()[e.node].name);
                    note(&mut timings, name, e.node, None, t);
                }
                _ => {}
            }
        }
    }

    /// Simulates one inference pass with per-group dataflows.
    pub fn simulate_inference(&self, cfgs: &GroupConfigs, ctx: &ExecCtx) -> RunReport {
        let mut span = ts_trace::span(ts_trace::Subsystem::Core, "simulate_inference");
        let mut trace = KernelTrace::new();
        let mut timings = Vec::new();
        let cfg = |g| cfgs.for_group(g);
        self.price_forward(Scope::Pass, cfg, ctx, &mut trace, Some(&mut timings));

        if span.active() {
            // Virtual-lane output follows the sim-kernel filter: the
            // tuner suppresses it (thousands of candidate simulations),
            // deployment-path simulations keep it.
            if ts_trace::current()
                .map(|t| t.sim_kernels())
                .unwrap_or(false)
            {
                self.emit_group_contributions(&timings);
                trace.emit_trace_spans(&ctx.cost);
            }
            span.arg("groups", self.groups.len());
            span.arg("layers", timings.len());
            span.arg("sim_total_us", trace.total_us());
        }
        RunReport::new(trace, timings)
    }

    /// Emits one simulated span per group on the `groups` lane: the
    /// group's total contribution to the simulated latency (mapping +
    /// every layer bound to it), plus a `residual` span for ungrouped
    /// (elementwise) layers. Only called when a tracer is installed.
    fn emit_group_contributions(&self, timings: &[LayerTiming]) {
        let mut per_group = vec![(0.0f64, 0u64); self.groups.len()];
        let mut residual = 0.0f64;
        for t in timings {
            match t.group {
                Some(g) if g < per_group.len() => {
                    per_group[g].0 += t.time_us;
                    per_group[g].1 += 1;
                }
                _ => residual += t.time_us,
            }
        }
        for (gid, &(us, layers)) in per_group.iter().enumerate() {
            if layers == 0 {
                continue;
            }
            ts_trace::sim_span(
                ts_trace::Subsystem::Core,
                "groups",
                &format!("group[{gid}]"),
                us,
                vec![
                    ("group".to_string(), ts_trace::ArgValue::U64(gid as u64)),
                    ("timings".to_string(), ts_trace::ArgValue::U64(layers)),
                ],
            );
        }
        if residual > 0.0 {
            ts_trace::sim_span(
                ts_trace::Subsystem::Core,
                "groups",
                "residual(elementwise)",
                residual,
                vec![],
            );
        }
    }

    fn elementwise_cost(&self, e: &ElemPlan, ctx: &ExecCtx, trace: &mut KernelTrace) -> f64 {
        let b = ctx.elem_bytes();
        let bytes = (e.points * e.channels) as u64 * b;
        let k = KernelDesc::memory(
            self.network.nodes()[e.node].name.clone(),
            bytes * e.operands as u64,
            bytes,
        )
        .with_class(KernelClass::Elementwise);
        ctx.record(trace, k)
    }

    /// Simulates one training iteration (forward + dgrad + wgrad) with
    /// potentially decoupled per-kernel-family configurations.
    pub fn simulate_training(&self, cfgs: &TrainConfigs, ctx: &ExecCtx) -> RunReport {
        let mut span = ts_trace::span(ts_trace::Subsystem::Core, "simulate_training");
        // Forward pass (includes base mapping + fwd prepares).
        let fwd_report = self.simulate_inference(&cfgs.fwd, ctx);
        let mut trace = fwd_report.trace().clone();
        let mut timings = fwd_report.timings().to_vec();
        // The nested simulate_inference span already emitted the forward
        // kernels and group contributions; only the entries appended
        // below (backward prepares + backward layers) are new.
        let fwd_entries = trace.entries().len();
        let cfg = |g| cfgs.for_group(g);
        self.price_backward(Scope::Pass, cfg, ctx, &mut trace, Some(&mut timings));

        if span.active() {
            if ts_trace::current()
                .map(|t| t.sim_kernels())
                .unwrap_or(false)
            {
                let bwd: KernelTrace = trace.entries()[fwd_entries..].iter().cloned().collect();
                bwd.emit_trace_spans(&ctx.cost);
            }
            span.arg("fwd_us", fwd_report.total_us());
            span.arg("bwd_us", trace.total_us() - fwd_report.total_us());
            span.arg("sim_total_us", trace.total_us());
        }
        RunReport::new(trace, timings)
    }

    // ------------------------------------------------------------------
    // Decomposed simulation API (used by the incremental autotuner).
    //
    // These run the same pricing walks as `simulate_*` over one group or
    // the elementwise residual, so they record exactly the kernels the
    // whole pass records for that part. The cost model prices each
    // kernel independently of trace state, so a pass's total equals
    // `residual + Σ group contributions` up to floating-point summation
    // order.
    // ------------------------------------------------------------------

    /// Configuration-independent inference cost: the elementwise layers
    /// (BN/ReLU/Add/Concat), which no dataflow choice affects.
    pub fn inference_residual_us(&self, ctx: &ExecCtx) -> f64 {
        let mut trace = KernelTrace::new();
        self.price_forward(Scope::Residual, no_conv, ctx, &mut trace, None);
        trace.total_us()
    }

    /// Group `gid`'s inference contribution under `cfg`: the one-time
    /// mapping work (base build, transpose if needed, dataflow prepare)
    /// plus every conv layer of the group. Depends only on (`gid`,
    /// `cfg`), never on the other groups' configurations.
    pub fn group_inference_us(&self, gid: usize, cfg: &DataflowConfig, ctx: &ExecCtx) -> f64 {
        let mut trace = KernelTrace::new();
        self.price_forward(Scope::Group(gid), |_| *cfg, ctx, &mut trace, None);
        trace.total_us()
    }

    /// Configuration-independent training cost: the elementwise layers,
    /// charged once forward and once backward as in
    /// [`Session::simulate_training`].
    pub fn training_residual_us(&self, ctx: &ExecCtx) -> f64 {
        let mut trace = KernelTrace::new();
        self.price_forward(Scope::Residual, no_conv, ctx, &mut trace, None);
        self.price_backward(Scope::Residual, no_conv, ctx, &mut trace, None);
        trace.total_us()
    }

    /// Group `gid`'s training contribution under per-family configs:
    /// the forward contribution plus backward mapping preparation and
    /// the dgrad/wgrad kernels of every conv layer in the group.
    /// Depends only on (`gid`, `fwd_cfg`, `d_cfg`, `w_cfg`).
    pub fn group_training_us(
        &self,
        gid: usize,
        fwd_cfg: &DataflowConfig,
        d_cfg: &DataflowConfig,
        w_cfg: &DataflowConfig,
        ctx: &ExecCtx,
    ) -> f64 {
        let fwd_us = self.group_inference_us(gid, fwd_cfg, ctx);
        let mut trace = KernelTrace::new();
        let cfg = |_| [*fwd_cfg, *d_cfg, *w_cfg];
        self.price_backward(Scope::Group(gid), cfg, ctx, &mut trace, None);
        fwd_us + trace.total_us()
    }
}

/// Computes the group key of a conv layer at `in_stride`.
fn group_key_for(spec: &ConvSpec, in_stride: i32) -> (GroupKey, bool) {
    if spec.transposed {
        let out = in_stride / spec.stride;
        (
            GroupKey {
                lo_stride: out,
                hi_stride: in_stride,
                kernel_size: spec.kernel_size,
            },
            true,
        )
    } else if spec.stride > 1 {
        (
            GroupKey {
                lo_stride: in_stride,
                hi_stride: in_stride * spec.stride,
                kernel_size: spec.kernel_size,
            },
            false,
        )
    } else {
        (
            GroupKey {
                lo_stride: in_stride,
                hi_stride: in_stride,
                kernel_size: spec.kernel_size,
            },
            false,
        )
    }
}

/// Builds a layer group's map; its transpose waits for its first read.
/// A strided group also leaves its coarse coordinates in `stride_cache`
/// at its high stride, unless a list is already there.
fn build_group(
    key: GroupKey,
    spec: &ConvSpec,
    transposed: bool,
    in_coords: &Arc<Vec<Coord>>,
    stride_cache: &mut HashMap<i32, Arc<Vec<Coord>>>,
    reuse: Option<&SubmanifoldReuse>,
) -> Option<GroupInfo> {
    let offsets = KernelOffsets::cube(spec.kernel_size);
    if key.lo_stride == key.hi_stride {
        // Submanifold. The stride-1 group (always built from the input
        // coordinates) may adopt a caller-maintained incremental map.
        if let Some(r) = reuse {
            if key.lo_stride == 1 && key.kernel_size == r.kernel_size {
                assert_eq!(
                    r.map.n_out(),
                    in_coords.len(),
                    "reused submanifold map must cover the input coordinates"
                );
                return Some(GroupInfo::new(key, Arc::clone(&r.map), r.stats, 0));
            }
        }
        let (map, stats) = build_submanifold_map_with_stats(in_coords, &offsets);
        Some(GroupInfo::new(key, Arc::new(map), stats, 0))
    } else {
        // Strided: always build fine -> coarse. For a transposed first
        // use, the fine coords come from the stride cache.
        let fine: &Arc<Vec<Coord>> = if transposed {
            stride_cache.get(&key.lo_stride)?
        } else {
            in_coords
        };
        let ratio = key.hi_stride / key.lo_stride;
        let (map, coarse, stats) = build_strided_map_with_stats(fine, &offsets, ratio);
        stride_cache
            .entry(key.hi_stride)
            .or_insert_with(|| Arc::new(coarse));
        Some(GroupInfo::new(key, Arc::new(map), stats, 0))
    }
}

/// One coordinate list restricted to some batch indices, for
/// [`Session::select_batches`].
struct Selection {
    /// The full list.
    from: Arc<Vec<Coord>>,
    /// Its rows in the kept batch indices, in order.
    kept: Arc<Vec<Coord>>,
    /// Each row's index in `kept`, or [`Selection::DROPPED`].
    index: Vec<u32>,
}

impl Selection {
    const DROPPED: u32 = u32::MAX;

    fn new(from: &Arc<Vec<Coord>>, batches: &[i32]) -> Self {
        let mut kept = Vec::new();
        let index = from
            .iter()
            .map(|c| {
                if batches.contains(&c.batch) {
                    kept.push(*c);
                    (kept.len() - 1) as u32
                } else {
                    Self::DROPPED
                }
            })
            .collect();
        Self {
            from: Arc::clone(from),
            kept: Arc::new(kept),
            index,
        }
    }
}

/// `map` over the kept rows of `src` (its inputs) and `dst` (its
/// outputs): the pairs of kept inputs, in order, re-indexed. No pair
/// joins two batch indices, so a kept input's output is kept too.
fn select_pairs(map: &KernelMap, src: &Selection, dst: &Selection) -> KernelMap {
    let pairs = map
        .all_pairs()
        .iter()
        .map(|list| {
            list.iter()
                .filter_map(|&(i, o)| {
                    let (i, o) = (src.index[i as usize], dst.index[o as usize]);
                    debug_assert_eq!(
                        i == Selection::DROPPED,
                        o == Selection::DROPPED,
                        "a pair joins two batch indices"
                    );
                    (i != Selection::DROPPED).then_some((i, o))
                })
                .collect()
        })
        .collect();
    KernelMap::from_pairs(src.kept.len(), dst.kept.len(), pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetworkBuilder;
    use ts_dataflow::{GenFlags, ReorderMode};
    use ts_gpusim::Device;
    use ts_tensor::Precision;

    fn grid_coords(n: i32) -> Vec<Coord> {
        (0..n)
            .flat_map(|x| (0..n).map(move |y| Coord::new(0, x, y, (x * y) % 3)))
            .collect()
    }

    fn unet() -> Network {
        let mut b = NetworkBuilder::new("unet", 4);
        let c1 = b.conv_block("enc1", NetworkBuilder::INPUT, 8, 3, 1);
        let c1b = b.conv_block("enc1b", c1, 8, 3, 1);
        let d1 = b.conv_block("down1", c1b, 16, 2, 2);
        let c2 = b.conv_block("enc2", d1, 16, 3, 1);
        let u1 = b.conv_block_transposed("up1", c2, 8, 2, 2);
        let cat = b.concat("skip", u1, c1b);
        let _ = b.conv_block("dec1", cat, 8, 3, 1);
        b.build()
    }

    fn ctx() -> ExecCtx {
        ExecCtx::simulate(Device::rtx3090(), Precision::Fp16)
    }

    #[test]
    fn groups_are_shared_across_layers_with_same_maps() {
        let net = unet();
        let s = Session::new(&net, &grid_coords(12));
        // Expected groups: submanifold@1 (enc1, enc1b, dec1), strided
        // 1<->2 k2 (down1 and up1 SHARE this group), submanifold@2 (enc2).
        assert_eq!(
            s.groups().len(),
            3,
            "groups: {:?}",
            s.groups().iter().map(|g| g.key).collect::<Vec<_>>()
        );
        let strided = s
            .groups()
            .iter()
            .find(|g| g.key.lo_stride != g.key.hi_stride)
            .expect("strided group exists");
        assert_eq!(strided.layer_count, 2, "down1 and up1 share the group");
    }

    #[test]
    fn simulate_inference_produces_nonzero_times() {
        let net = unet();
        let s = Session::new(&net, &grid_coords(12));
        let r = s.simulate_inference(
            &GroupConfigs::uniform(DataflowConfig::implicit_gemm(1)),
            &ctx(),
        );
        assert!(r.total_us() > 0.0);
        assert!(r.mapping_us() > 0.0);
        assert!(r.compute_us() > 0.0);
        assert_eq!(
            r.timings()
                .iter()
                .filter(|t| t.node != usize::MAX && t.group.is_some())
                .count(),
            net.conv_count()
        );
    }

    #[test]
    fn mapping_cost_is_shared_not_per_layer() {
        // A net with 4 submanifold convs in one group must charge the
        // map build once, so it should cost far less than 4 single-conv
        // nets.
        let coords = grid_coords(12);
        let mut b1 = NetworkBuilder::new("one", 8);
        let _ = b1.conv("c1", NetworkBuilder::INPUT, 8, 3, 1);
        let one = b1.build();
        let mut b4 = NetworkBuilder::new("four", 8);
        let mut prev = NetworkBuilder::INPUT;
        for i in 0..4 {
            prev = b4.conv(&format!("c{i}"), prev, 8, 3, 1);
        }
        let four = b4.build();
        let cfg = GroupConfigs::uniform(DataflowConfig::implicit_gemm(1));
        let c = ctx();
        let t1 = Session::new(&one, &coords).simulate_inference(&cfg, &c);
        let t4 = Session::new(&four, &coords).simulate_inference(&cfg, &c);
        assert!(
            t4.mapping_us() < t1.mapping_us() * 1.5,
            "mapping shared: {} vs {}",
            t4.mapping_us(),
            t1.mapping_us()
        );
        assert!(t4.compute_us() > t1.compute_us() * 3.0);
    }

    #[test]
    fn training_costs_more_than_inference() {
        let net = unet();
        let s = Session::new(&net, &grid_coords(10));
        let c = ctx();
        let inf =
            s.simulate_inference(&GroupConfigs::uniform(DataflowConfig::implicit_gemm(1)), &c);
        let tr = s.simulate_training(&TrainConfigs::bound(DataflowConfig::implicit_gemm(1)), &c);
        // Backward adds dgrad + wgrad kernels on top of forward; mapping
        // is shared, so the end-to-end ratio sits between 1.5x and ~3x.
        assert!(
            tr.total_us() > inf.total_us() * 1.5,
            "{} vs {}",
            tr.total_us(),
            inf.total_us()
        );
        assert!(tr.compute_us() >= inf.compute_us() * 2.0);
    }

    #[test]
    fn decoupled_wgrad_costs_extra_mapping() {
        let net = unet();
        let s = Session::new(&net, &grid_coords(10));
        let c = ctx();
        let bound = s.simulate_training(&TrainConfigs::bound(DataflowConfig::implicit_gemm(1)), &c);
        let mut decoupled = TrainConfigs::bound(DataflowConfig::implicit_gemm(1));
        decoupled.wgrad = GroupConfigs::uniform(DataflowConfig::implicit_gemm(3));
        let dec = s.simulate_training(&decoupled, &c);
        assert!(dec.mapping_us() > bound.mapping_us());
    }

    #[test]
    fn per_group_overrides_change_latency() {
        let net = unet();
        let s = Session::new(&net, &grid_coords(12));
        let c = ctx();
        let base = GroupConfigs::uniform(DataflowConfig::implicit_gemm(1));
        let r1 = s.simulate_inference(&base, &c);
        let mut tweaked = base.clone();
        tweaked.set(0, DataflowConfig::gather_scatter(false));
        let r2 = s.simulate_inference(&tweaked, &c);
        assert_ne!(r1.total_us(), r2.total_us());
    }

    #[test]
    fn try_new_reports_orphan_transposed_convs() {
        // Encoder jumps straight from stride 1 to stride 4; the decoder
        // then upsamples 4 -> 2, but no layer ever produced coordinates
        // at stride 2, so compilation must fail with a useful error.
        let mut b = crate::NetworkBuilder::new("orphan", 4);
        let d = b.conv("down_x4", crate::NetworkBuilder::INPUT, 8, 3, 4);
        let _ = b.conv_transposed("up_to_2", d, 8, 2, 2);
        let net = b.build();
        let err = Session::try_new(&net, &grid_coords(8)).unwrap_err();
        match &err {
            CompileError::TransposedWithoutEncoder {
                layer,
                missing_stride,
            } => {
                assert_eq!(layer, "up_to_2");
                assert_eq!(*missing_stride, 2);
            }
            other => panic!("unexpected compile error {other:?}"),
        }
        assert_eq!(
            err.to_string(),
            "transposed conv 'up_to_2' has no cached coordinates at stride 2 \
             (no matching encoder downsample)"
        );

        // The well-formed mirror image compiles.
        let mut b = crate::NetworkBuilder::new("ok", 4);
        let d1 = b.conv("down1", crate::NetworkBuilder::INPUT, 8, 2, 2);
        let d2 = b.conv("down2", d1, 8, 2, 2);
        let _ = b.conv_transposed("up", d2, 8, 2, 2);
        assert!(Session::try_new(&b.build(), &grid_coords(8)).is_ok());
    }

    /// A reuse compile takes its coordinates as given, so the map's
    /// coverage check refuses a repeated point.
    #[test]
    #[should_panic(expected = "reused submanifold map must cover the input coordinates")]
    fn a_reuse_compile_refuses_repeated_coordinates() {
        let coords = grid_coords(6);
        let (map, stats) = build_submanifold_map_with_stats(&coords, &KernelOffsets::cube(3));
        let reuse = SubmanifoldReuse {
            kernel_size: 3,
            map: Arc::new(map),
            stats,
        };
        let mut repeated = coords.clone();
        repeated.push(coords[0]);
        let _ = Session::try_new_with_reuse(&unet(), &repeated, Some(&reuse));
    }

    #[test]
    fn session_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Session>();
    }

    #[test]
    fn prepare_cache_counts_hits_and_misses() {
        let net = unet();
        let s = Session::new(&net, &grid_coords(10));
        let c = ctx();
        assert_eq!(s.prepare_cache_counters(), PrepareCacheCounters::default());
        let cfg = GroupConfigs::uniform(DataflowConfig::implicit_gemm(1));
        s.simulate_inference(&cfg, &c);
        let c1 = s.prepare_cache_counters();
        assert!(c1.misses > 0, "first simulation must populate the cache");
        s.simulate_inference(&cfg, &c);
        let c2 = s.prepare_cache_counters();
        assert_eq!(
            c2.misses, c1.misses,
            "repeat simulation prepares nothing new"
        );
        assert!(c2.hits > c1.hits);
    }

    /// The residual plus every group's contribution recomposes to the
    /// whole-pass simulation (identical kernels, so only FP summation
    /// order can differ).
    #[test]
    fn inference_breakdown_matches_simulation() {
        let net = unet();
        let s = Session::new(&net, &grid_coords(12));
        let c = ctx();
        let mut cfgs = GroupConfigs::uniform(DataflowConfig::implicit_gemm(1));
        cfgs.set(1, DataflowConfig::gather_scatter(false));
        cfgs.set(2, DataflowConfig::implicit_gemm(3));
        let naive = s.simulate_inference(&cfgs, &c).total_us();
        let total = s.inference_residual_us(&c)
            + (0..s.groups().len())
                .map(|g| s.group_inference_us(g, &cfgs.for_group(g), &c))
                .sum::<f64>();
        let rel = (total - naive).abs() / naive;
        assert!(rel < 1e-12, "breakdown {total} vs simulate {naive}");
    }

    #[test]
    fn training_breakdown_matches_simulation() {
        let net = unet();
        let s = Session::new(&net, &grid_coords(10));
        let c = ctx();
        let mut cfgs = TrainConfigs::bound(DataflowConfig::implicit_gemm(1));
        cfgs.dgrad.set(0, DataflowConfig::implicit_gemm(2));
        cfgs.wgrad = GroupConfigs::uniform(DataflowConfig::gather_scatter(false));
        let naive = s.simulate_training(&cfgs, &c).total_us();
        let total = s.training_residual_us(&c)
            + (0..s.groups().len())
                .map(|g| {
                    let [f, d, w] = cfgs.for_group(g);
                    s.group_training_us(g, &f, &d, &w, &c)
                })
                .sum::<f64>();
        let rel = (total - naive).abs() / naive;
        assert!(rel < 1e-12, "breakdown {total} vs simulate {naive}");
    }

    /// Changing one group's config must not change any other group's
    /// contribution (the invariant the incremental tuner relies on).
    #[test]
    fn group_contribution_is_independent_of_other_groups() {
        let net = unet();
        let s = Session::new(&net, &grid_coords(12));
        let c = ctx();
        let a = DataflowConfig::implicit_gemm(1);
        let b = DataflowConfig::gather_scatter(false);
        let g0_under_a = s.group_inference_us(0, &a, &c);
        // Touch every other group with a different config; group 0's
        // contribution must be bitwise unchanged.
        for g in 1..s.groups().len() {
            s.group_inference_us(g, &b, &c);
        }
        assert_eq!(s.group_inference_us(0, &a, &c), g0_under_a);
    }

    /// Pricing a session under one context leaves nothing behind that
    /// another context's pricing reads: every number equals a fresh
    /// session's to the bit, because plans are context-free and their
    /// mapping kernels are priced under each caller's context.
    #[test]
    fn pricing_follows_the_callers_context() {
        let net = unet();
        let coords = grid_coords(12);
        let padless = GenFlags {
            padded_map: false,
            ..GenFlags::default()
        };
        let others = [
            ("online reordering", ctx().with_reorder(ReorderMode::Online)),
            ("mapping_eff 2.0", ctx().with_mapping_eff(2.0)),
            ("unpadded maps", ctx().with_gen_flags(padless)),
            (
                "Jetson Orin",
                ExecCtx::simulate(Device::jetson_orin(), Precision::Fp16),
            ),
        ];
        for cfg in [
            DataflowConfig::implicit_gemm(1),
            DataflowConfig::implicit_gemm(2),
            DataflowConfig::gather_scatter(true),
        ] {
            let (inference, training) = (GroupConfigs::uniform(cfg), TrainConfigs::bound(cfg));
            for (label, b) in &others {
                let prices = |s: &Session| {
                    let mut us = vec![
                        s.simulate_inference(&inference, b).total_us(),
                        s.simulate_training(&training, b).total_us(),
                    ];
                    us.extend((0..s.groups().len()).map(|g| s.group_inference_us(g, &cfg, b)));
                    us.into_iter().map(f64::to_bits).collect::<Vec<_>>()
                };
                let reused = Session::new(&net, &coords);
                reused.simulate_training(&training, &ctx());
                let fresh = Session::new(&net, &coords);
                assert_eq!(prices(&reused), prices(&fresh), "{cfg} under {label}");
            }
        }
    }

    impl GroupInfo {
        fn holds_transpose(&self) -> bool {
            self.map_t.get().is_some()
        }
    }

    /// Compiling builds no transpose; inference pricing builds those of
    /// the groups with a transposed-conv layer, training pricing every
    /// group's.
    #[test]
    fn transposes_are_built_when_first_read() {
        let held = |s: &Session| -> Vec<bool> {
            s.groups().iter().map(GroupInfo::holds_transpose).collect()
        };
        let c = ctx();
        let inference = GroupConfigs::uniform(DataflowConfig::implicit_gemm(1));
        let s = Session::try_new(&unet(), &grid_coords(12)).unwrap();
        assert_eq!(held(&s), vec![false; s.groups().len()]);
        s.simulate_inference(&inference, &c);
        assert_eq!(held(&s), s.group_used_transposed);
        assert!(s.group_used_transposed.contains(&false));
        assert!(s.group_used_transposed.contains(&true));
        s.simulate_training(&TrainConfigs::bound(DataflowConfig::implicit_gemm(1)), &c);
        assert_eq!(held(&s), vec![true; s.groups().len()]);

        let mut b = NetworkBuilder::new("encoder", 4);
        let c1 = b.conv_block("enc1", NetworkBuilder::INPUT, 8, 3, 1);
        let d1 = b.conv_block("down1", c1, 16, 2, 2);
        let _ = b.conv_block("enc2", d1, 16, 3, 1);
        let s = Session::try_new(&b.build(), &grid_coords(12)).unwrap();
        s.simulate_inference(&inference, &c);
        assert_eq!(held(&s), vec![false; s.groups().len()]);
    }

    #[test]
    fn simulation_is_deterministic() {
        let net = unet();
        let s = Session::new(&net, &grid_coords(10));
        let cfg = GroupConfigs::uniform(DataflowConfig::implicit_gemm(2));
        let c = ctx();
        assert_eq!(
            s.simulate_inference(&cfg, &c).total_us(),
            s.simulate_inference(&cfg, &c).total_us()
        );
    }
}
