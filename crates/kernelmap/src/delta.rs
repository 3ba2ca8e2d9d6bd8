//! Incremental kernel-map maintenance for temporally coherent streams.
//!
//! Streaming LiDAR frames differ by a small voxel delta: a few
//! coordinates enter the scene, a few exit, and the vast majority
//! survive unchanged. Rebuilding the kernel map from scratch costs
//! `n` hash inserts plus `n * K³` neighbor queries per frame;
//! [`IncrementalMap`] instead diffs the coordinate key sets and patches
//! the previous frame's map in place for `O((entered + exited) * K³)`
//! hash work, falling back to a full rebuild when churn exceeds a
//! configurable threshold.
//!
//! The patch exploits the submanifold symmetry `(p, q) ∈ M_δ ⟺
//! (q, p) ∈ M_{-δ}`: every pair involving a coordinate — as input *or*
//! output — is enumerable from that coordinate's own neighbor-matrix
//! row, so removals need no hash queries at all, and insertions need
//! exactly `K³` queries per entered coordinate.
//!
//! The patched map is **bit-identical** to a from-scratch
//! [`build_submanifold_map`] over the state's canonical coordinate
//! order (survivors keep their relative order via swap-fill compaction,
//! entered coordinates append at the tail); debug builds assert
//! [`check_map`] cleanliness after every patch, and the differential
//! tests in `tests/` compare against the reference builder exactly.

use std::collections::HashSet;
use std::sync::Arc;

use crate::build::{submanifold_with_table, unique_with_table, MapStats};
use crate::{check_map, Coord, CoordHashMap, KernelMap, KernelOffsets, SplitPlan};

/// Policy knobs for [`IncrementalMap::update`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeltaConfig {
    /// Rebuild from scratch when `(entered + exited) / n_new` exceeds
    /// this fraction. At high churn the patch path touches most of the
    /// map anyway and the rebuild's sequential passes are cheaper.
    pub churn_threshold: f32,
}

impl Default for DeltaConfig {
    fn default() -> Self {
        Self {
            churn_threshold: 0.35,
        }
    }
}

/// How [`IncrementalMap::update`] serviced a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapUpdate {
    /// The previous map was patched in place.
    Patched,
    /// The map was rebuilt from scratch (churn above threshold).
    Rebuilt,
}

/// Outcome of one frame update: the decision taken, the hash-work
/// instrumentation for simulated-cost pricing, and the delta shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpdateOutcome {
    /// Patch or rebuild.
    pub kind: MapUpdate,
    /// Hash inserts/queries performed and pairs touched (patched path)
    /// or produced (rebuild path) — the same vocabulary the full
    /// builders report, so cost models price both paths uniformly.
    pub stats: MapStats,
    /// Coordinates present in this frame but not the previous one.
    pub entered: usize,
    /// Coordinates present in the previous frame but not this one.
    pub exited: usize,
    /// `(entered + exited) / max(1, n_new)` — the fraction compared
    /// against [`DeltaConfig::churn_threshold`].
    pub churn: f32,
}

/// A submanifold kernel map maintained incrementally across frames.
///
/// Owns the coordinate list (in canonical order), the coordinate hash
/// table, the neighbor matrix it patches, the [`KernelMap`] derived from
/// that matrix and a [`SplitPlan`], all kept mutually consistent by
/// [`Self::update`]. The map sits behind an [`Arc`]
/// ([`Self::shared_map`]) so a session compiled around it can hold it
/// without a copy.
///
/// # Examples
///
/// ```
/// use ts_kernelmap::{Coord, DeltaConfig, IncrementalMap, KernelOffsets, MapUpdate};
///
/// let f0: Vec<Coord> = (0..10).map(|x| Coord::new(0, x, 0, 0)).collect();
/// let mut inc = IncrementalMap::new(&f0, KernelOffsets::cube(3), 1);
/// // The line slides by one voxel: small churn, so the map is patched.
/// let f1: Vec<Coord> = (1..11).map(|x| Coord::new(0, x, 0, 0)).collect();
/// let out = inc.update(&f1, &DeltaConfig::default());
/// assert_eq!(out.kind, MapUpdate::Patched);
/// assert_eq!((out.entered, out.exited), (1, 1));
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalMap {
    coords: Vec<Coord>,
    table: CoordHashMap,
    offsets: KernelOffsets,
    /// Row-major `N x K³` neighbor matrix of [`Self::map`] (`-1` = none).
    neighbors: Vec<i32>,
    map: Arc<KernelMap>,
    plan: SplitPlan,
    split_count: u32,
}

impl IncrementalMap {
    /// Builds the initial state from a frame's coordinates (deduplicated,
    /// first occurrence wins) with a `split_count`-way [`SplitPlan`].
    ///
    /// # Panics
    ///
    /// Panics if the kernel size is even: incremental patching relies on
    /// the mirrored-offset symmetry of submanifold convolutions, which
    /// only odd (centered) kernels have.
    pub fn new(frame: &[Coord], offsets: KernelOffsets, split_count: u32) -> Self {
        Self::with_stats(frame, offsets, split_count).0
    }

    /// [`Self::new`] plus the work of the initial build: the stats
    /// [`build_submanifold_map_with_stats`](crate::build_submanifold_map_with_stats)
    /// reports for [`Self::coords`].
    ///
    /// # Panics
    ///
    /// As [`Self::new`].
    pub fn with_stats(
        frame: &[Coord],
        offsets: KernelOffsets,
        split_count: u32,
    ) -> (Self, MapStats) {
        assert!(
            offsets.kernel_size() % 2 == 1,
            "incremental maps require an odd (centered) kernel, got {}",
            offsets.kernel_size()
        );
        let (coords, table) = unique_with_table(frame);
        let (map, stats, neighbors) = submanifold_with_table(&coords, &table, &offsets);
        let plan = SplitPlan::from_split_count(&map, split_count);
        let inc = Self {
            coords,
            table,
            offsets,
            neighbors,
            map: Arc::new(map),
            plan,
            split_count,
        };
        (inc, stats)
    }

    /// The current frame's coordinates in canonical order (the order a
    /// from-scratch build reproducing [`Self::map`] must use).
    pub fn coords(&self) -> &[Coord] {
        &self.coords
    }

    /// The current kernel map.
    pub fn map(&self) -> &KernelMap {
        &self.map
    }

    /// The current kernel map, to share: an update replaces it and
    /// leaves every clone of this `Arc` as it was.
    pub fn shared_map(&self) -> &Arc<KernelMap> {
        &self.map
    }

    /// The current split plan (re-derived after every update; sorted
    /// orders recompute lazily on first use).
    pub fn plan(&self) -> &SplitPlan {
        &self.plan
    }

    /// The kernel neighborhood this state was built with.
    pub fn offsets(&self) -> &KernelOffsets {
        &self.offsets
    }

    /// Post-update load factor of the coordinate hash table.
    pub fn load_factor(&self) -> f64 {
        self.table.load_factor()
    }

    /// Advances the state to `frame`, patching the map in place when the
    /// voxel churn is below [`DeltaConfig::churn_threshold`] and
    /// rebuilding from scratch otherwise. Either way the resulting map
    /// equals `build_submanifold_map(self.coords(), self.offsets())`
    /// exactly.
    pub fn update(&mut self, frame: &[Coord], cfg: &DeltaConfig) -> UpdateOutcome {
        let mut stats = MapStats::default();

        // Delta scan: one probe of the (open-addressed, cheap-hash)
        // coordinate table per incoming coordinate classifies it as
        // surviving or entered; survivors mark a bitvec so the exited
        // set falls out without hashing the previous frame at all. Only
        // the small entered set needs a dedup key set.
        let mut seen = vec![false; self.coords.len()];
        let mut n_survivors = 0usize;
        let mut entered: Vec<Coord> = Vec::new();
        let mut entered_keys: HashSet<u64> = HashSet::new();
        for &c in frame {
            stats.queries += 1;
            match self.table.get(c.key()) {
                Some(i) => {
                    let i = i as usize;
                    if !seen[i] {
                        seen[i] = true;
                        n_survivors += 1;
                    }
                }
                None => {
                    if entered_keys.insert(c.key()) {
                        entered.push(c);
                    }
                }
            }
        }
        let n_new = n_survivors + entered.len();
        let exited_idx: Vec<usize> = (0..self.coords.len()).filter(|&i| !seen[i]).collect();

        let churn = (entered.len() + exited_idx.len()) as f32 / n_new.max(1) as f32;
        let outcome = |kind, stats| UpdateOutcome {
            kind,
            stats,
            entered: entered.len(),
            exited: exited_idx.len(),
            churn,
        };

        if churn > cfg.churn_threshold {
            let (coords, table) = unique_with_table(frame);
            let (map, build_stats, neighbors) =
                submanifold_with_table(&coords, &table, &self.offsets);
            self.plan = SplitPlan::from_split_count(&map, self.split_count);
            self.table = table;
            self.neighbors = neighbors;
            self.map = Arc::new(map);
            self.coords = coords;
            return outcome(MapUpdate::Rebuilt, build_stats);
        }
        if entered.is_empty() && exited_idx.is_empty() {
            return outcome(MapUpdate::Patched, stats);
        }

        self.patch(&entered, &exited_idx, &mut stats);
        self.plan = SplitPlan::from_split_count(&self.map, self.split_count);
        debug_assert!(
            check_map(&self.map).is_empty(),
            "patched map violates invariants: {:?}",
            check_map(&self.map)
        );
        outcome(MapUpdate::Patched, stats)
    }

    /// Applies an (entered, exited) delta to the map, hash table and
    /// coordinate list.
    ///
    /// All structural edits happen on the state's *neighbor table* only —
    /// `O((entered + exited) · K³)` work — in three phases:
    /// unlink every pair touching an exited coordinate (enumerated from
    /// its own neighbor row, no hash traffic), swap-fill the holes so
    /// surviving indices stay dense (re-pointing only the moved rows),
    /// then append the entered coordinates and discover their neighbors
    /// with `K³` hash queries each. The map is then rebuilt from the
    /// neighbor table by [`KernelMap::from_neighbors`], the call the
    /// from-scratch builder ends with: every entry
    /// `neighbors[a·K³ + k] = i ≥ 0` is exactly the pair `(i, a) ∈ M_k`,
    /// so the result is bit-identical to
    /// `build_submanifold_map(self.coords(), &self.offsets)`.
    /// Editing the sorted pair lists in place instead would cost an
    /// `O(n)` memmove per touched pair, which at realistic deltas is
    /// slower than a full rebuild.
    fn patch(&mut self, entered: &[Coord], exited_idx: &[usize], stats: &mut MapStats) {
        let kvol = self.offsets.volume();
        let n_old = self.coords.len();
        let mut neighbors = std::mem::take(&mut self.neighbors);

        let mut is_hole = vec![false; n_old];
        for &e in exited_idx {
            is_hole[e] = true;
        }

        // Phase A — unlink exited coordinates. Every dying pair is
        // counted exactly once: pairs *into* an exited output from its
        // own row (which stays pristine — only survivor rows are
        // cleared), pairs *out of* it into a survivor via the mirror
        // entry.
        for &e in exited_idx {
            for k in 0..kvol {
                let m = self.offsets.mirror(k);
                // Pair (i, e) ∈ M_k: e's incoming neighbor at offset k.
                if neighbors[e * kvol + k] >= 0 {
                    stats.pairs += 1;
                }
                // Pair (e, j) ∈ M_k ⟺ (j, e) ∈ M_{-k}: e feeds output j.
                let j = neighbors[e * kvol + m];
                if j >= 0 && j as usize != e && !is_hole[j as usize] {
                    stats.pairs += 1;
                    neighbors[j as usize * kvol + k] = -1;
                }
            }
            self.table.remove(self.coords[e].key());
        }

        // Phase B — swap-fill compaction: move the highest surviving
        // coordinates into the holes so survivor indices stay dense
        // while only the moved few need their rows re-pointed.
        let n_sur = n_old - exited_idx.len();
        let mut src = n_old;
        for &hole in exited_idx {
            if hole >= n_sur {
                break; // remaining holes are all in the truncated tail
            }
            // Highest not-yet-moved survivor.
            src -= 1;
            while is_hole[src] {
                src -= 1;
            }
            debug_assert!(src > hole);
            let (f, t) = (src, hole);
            let moved = self.coords[f];
            self.coords[t] = moved;
            self.table.set(moved.key(), t as i32);
            stats.queries += 1;
            neighbors.copy_within(f * kvol..(f + 1) * kvol, t * kvol);
            for k in 0..kvol {
                let m = self.offsets.mirror(k);
                // Center self-pair: both endpoints move with the row.
                if neighbors[t * kvol + k] == f as i32 {
                    neighbors[t * kvol + k] = t as i32;
                }
                // Pair (f, j) ∈ M_k: re-point the input in j's row.
                let j = neighbors[t * kvol + m];
                if j >= 0 && j as usize != t {
                    neighbors[j as usize * kvol + k] = t as i32;
                }
            }
        }
        self.coords.truncate(n_sur);
        neighbors.truncate(n_sur * kvol);

        // Phase C — append entered coordinates and discover their
        // neighbors.
        let n_final = n_sur + entered.len();
        neighbors.resize(n_final * kvol, -1);
        self.table.reserve(entered.len());
        for (off, &c) in entered.iter().enumerate() {
            self.table.insert(c.key(), (n_sur + off) as i32);
            stats.inserts += 1;
            self.coords.push(c);
        }
        for a in n_sur..n_final {
            let q = self.coords[a];
            for (k, &delta) in self.offsets.deltas().iter().enumerate() {
                stats.queries += 1;
                let Some(i) = q.offset_key(delta).and_then(|key| self.table.get(key)) else {
                    continue;
                };
                let iu = i as usize;
                neighbors[a * kvol + k] = i;
                stats.pairs += 1;
                // The mirrored pair (a, i): materialize it now only for
                // survivors — entered neighbors discover it from their
                // own row when their turn comes.
                if iu < n_sur {
                    neighbors[iu * kvol + self.offsets.mirror(k)] = a as i32;
                    stats.pairs += 1;
                }
            }
        }
        self.map = Arc::new(KernelMap::from_neighbors(n_final, kvol, &neighbors));
        self.neighbors = neighbors;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_submanifold_map;

    fn grid(n: i32) -> Vec<Coord> {
        (0..n)
            .flat_map(|x| (0..n).map(move |y| Coord::new(0, x, y, 0)))
            .collect()
    }

    /// The fundamental contract: after any update the state's map equals
    /// a from-scratch build over its canonical coordinate order.
    fn assert_matches_fresh(inc: &IncrementalMap) {
        let fresh = build_submanifold_map(inc.coords(), inc.offsets());
        assert_eq!(inc.map(), &fresh);
        assert!(check_map(inc.map()).is_empty());
    }

    #[test]
    fn small_delta_patches_and_matches_fresh_build() {
        let mut f: Vec<Coord> = grid(6);
        let mut inc = IncrementalMap::new(&f, KernelOffsets::cube(3), 2);
        // Shift one corner voxel out, bring a new one in.
        f.retain(|c| *c != Coord::new(0, 0, 0, 0));
        f.push(Coord::new(0, 6, 6, 0));
        let out = inc.update(&f, &DeltaConfig::default());
        assert_eq!(out.kind, MapUpdate::Patched);
        assert_eq!((out.entered, out.exited), (1, 1));
        assert_matches_fresh(&inc);
    }

    #[test]
    fn identical_frame_is_a_noop_patch() {
        let f = grid(5);
        let mut inc = IncrementalMap::new(&f, KernelOffsets::cube(3), 1);
        let before = inc.map().clone();
        let out = inc.update(&f, &DeltaConfig::default());
        assert_eq!(out.kind, MapUpdate::Patched);
        assert_eq!((out.entered, out.exited), (0, 0));
        assert_eq!(out.stats.inserts, 0);
        assert_eq!(inc.map(), &before);
    }

    #[test]
    fn a_shared_map_is_left_intact() {
        let mut f = grid(5);
        let mut inc = IncrementalMap::new(&f, KernelOffsets::cube(3), 1);
        let held = Arc::clone(inc.shared_map());
        let before = KernelMap::clone(&held);
        f.push(Coord::new(0, 5, 0, 0));
        let out = inc.update(&f, &DeltaConfig::default());
        assert_eq!(out.kind, MapUpdate::Patched);
        assert_eq!(*held, before, "the holder's map is untouched");
        assert!(!Arc::ptr_eq(&held, inc.shared_map()));
        assert_matches_fresh(&inc);
    }

    #[test]
    fn full_churn_rebuilds() {
        let mut inc = IncrementalMap::new(&grid(4), KernelOffsets::cube(3), 1);
        let far: Vec<Coord> = (0..16).map(|i| Coord::new(0, 100 + i, 0, 0)).collect();
        let out = inc.update(&far, &DeltaConfig::default());
        assert_eq!(out.kind, MapUpdate::Rebuilt);
        assert!(out.churn >= 1.0);
        assert_matches_fresh(&inc);
    }

    #[test]
    fn threshold_zero_always_rebuilds() {
        let mut f = grid(5);
        let mut inc = IncrementalMap::new(&f, KernelOffsets::cube(3), 1);
        f.push(Coord::new(0, 9, 9, 0));
        let out = inc.update(
            &f,
            &DeltaConfig {
                churn_threshold: 0.0,
            },
        );
        assert_eq!(out.kind, MapUpdate::Rebuilt);
        assert_matches_fresh(&inc);
    }

    #[test]
    fn empty_frame_then_refill() {
        let mut inc = IncrementalMap::new(&grid(3), KernelOffsets::cube(3), 1);
        let out = inc.update(&[], &DeltaConfig::default());
        assert_eq!(out.kind, MapUpdate::Rebuilt);
        assert_eq!(inc.map().n_out(), 0);
        assert_matches_fresh(&inc);
        let out = inc.update(&grid(2), &DeltaConfig::default());
        assert_eq!(out.kind, MapUpdate::Rebuilt); // everything entered
        assert_matches_fresh(&inc);
    }

    #[test]
    fn exit_only_delta_compacts_correctly() {
        let f = grid(5);
        let mut inc = IncrementalMap::new(&f, KernelOffsets::cube(3), 1);
        // Drop two interior voxels (tests hole-filling with moves).
        let kept: Vec<Coord> = f
            .iter()
            .filter(|c| !matches!((c.x, c.y), (1, 1) | (2, 3)))
            .copied()
            .collect();
        let out = inc.update(&kept, &DeltaConfig::default());
        assert_eq!(out.kind, MapUpdate::Patched);
        assert_eq!((out.entered, out.exited), (0, 2));
        assert_eq!(inc.map().n_out(), kept.len());
        assert_matches_fresh(&inc);
    }

    #[test]
    fn enter_only_delta_appends_correctly() {
        let mut f = grid(5);
        let mut inc = IncrementalMap::new(&f, KernelOffsets::cube(3), 1);
        f.push(Coord::new(0, 5, 0, 0));
        f.push(Coord::new(0, 5, 1, 0));
        let out = inc.update(&f, &DeltaConfig::default());
        assert_eq!(out.kind, MapUpdate::Patched);
        assert_eq!((out.entered, out.exited), (2, 0));
        assert_matches_fresh(&inc);
    }

    #[test]
    fn adjacent_entered_pair_each_other_once() {
        // Two entered voxels that neighbor each other must produce
        // exactly one pair per direction (the dedup subtlety in phase C).
        let f = grid(4);
        let mut inc = IncrementalMap::new(&f, KernelOffsets::cube(3), 1);
        let mut f2 = f.clone();
        f2.push(Coord::new(0, 10, 0, 0));
        f2.push(Coord::new(0, 10, 1, 0));
        inc.update(&f2, &DeltaConfig::default());
        assert_matches_fresh(&inc);
    }

    #[test]
    fn long_drift_stays_equivalent() {
        // A window sliding over a grid: sustained small deltas for many
        // frames, verified against the reference builder every frame.
        let window = |t: i32| -> Vec<Coord> {
            (t..t + 10)
                .flat_map(|x| (0..4).map(move |y| Coord::new(0, x, y, 0)))
                .collect()
        };
        let mut inc = IncrementalMap::new(&window(0), KernelOffsets::cube(3), 2);
        let cfg = DeltaConfig::default();
        let mut patched = 0;
        for t in 1..20 {
            let out = inc.update(&window(t), &cfg);
            if out.kind == MapUpdate::Patched {
                patched += 1;
            }
            assert_matches_fresh(&inc);
        }
        assert!(patched >= 15, "drift should mostly patch, got {patched}");
    }

    #[test]
    fn patched_stats_are_delta_sized() {
        let f = grid(10); // 100 voxels
        let mut inc = IncrementalMap::new(&f, KernelOffsets::cube(3), 1);
        let mut f2 = f.clone();
        f2.remove(0);
        f2.push(Coord::new(0, 20, 20, 0));
        let out = inc.update(&f2, &DeltaConfig::default());
        assert_eq!(out.kind, MapUpdate::Patched);
        // Full rebuild would cost 100 inserts + 2700 queries; the patch
        // pays 1 insert and ~(n_new + kvol + moves) queries.
        assert_eq!(out.stats.inserts, 1);
        assert!(out.stats.queries < 200, "queries = {}", out.stats.queries);
    }

    #[test]
    fn plan_tracks_patched_map() {
        let mut f = grid(6);
        let mut inc = IncrementalMap::new(&f, KernelOffsets::cube(3), 3);
        f.retain(|c| c.x != 2 || c.y != 2);
        inc.update(&f, &DeltaConfig::default());
        let plan = inc.plan();
        assert_eq!(plan.ranges().len(), 3);
        assert!(crate::check_plan(inc.map(), plan, 16).is_empty());
    }

    #[test]
    fn batch_boundaries_respected_across_updates() {
        let mut f: Vec<Coord> = (0..6).map(|x| Coord::new(0, x, 0, 0)).collect();
        f.extend((0..6).map(|x| Coord::new(1, x, 0, 0)));
        let mut inc = IncrementalMap::new(&f, KernelOffsets::cube(3), 1);
        f.retain(|c| c.batch != 0 || c.x != 3);
        f.push(Coord::new(1, 6, 0, 0));
        let out = inc.update(&f, &DeltaConfig::default());
        assert_eq!(out.kind, MapUpdate::Patched);
        assert_matches_fresh(&inc);
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn even_kernels_are_rejected() {
        let _ = IncrementalMap::new(&grid(2), KernelOffsets::cube(2), 1);
    }
}
