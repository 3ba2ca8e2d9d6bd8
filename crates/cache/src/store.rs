//! The content-addressed schedule store and its lookup policy.
//!
//! One store implementation, [`ScheduleStore`], generic over its entry
//! kind ([`StoreEntry`]). [`ScheduleCache`] holds inference schedules
//! ([`CacheEntry`]: one [`GroupConfigs`] table); [`TrainScheduleCache`]
//! holds training schedules ([`TrainCacheEntry`]: fwd/dgrad/wgrad
//! tables plus the [`BindingScheme`] they were tuned under — schedules
//! tuned under different schemes are different content and never
//! alias).
//!
//! Entries are keyed by their content digest. A store can live purely
//! in memory (tests, single-process tuning) or be backed by a directory
//! of one-JSON-file-per-entry, written through on every insert so a
//! fleet of nodes can share a store over any shared filesystem or
//! artifact bucket. Inference entries persist as `<digest>.json` and
//! training entries as `train-<scheme>-<digest>.json`, so both kinds can
//! share a directory: each kind loads only its own file names.
//!
//! Lookups implement the three-tier policy:
//!
//! 1. **Hit** — an entry with the exact full digest exists; its
//!    schedule applies as-is (after sanitization).
//! 2. **Warm** — no exact entry, but entries share the structural
//!    digest (same layer graph, device, precision, group shapes) and,
//!    for training, the binding scheme. The nearest by
//!    [`census_distance`] seeds the tuner; only groups whose statistics
//!    drifted beyond [`DriftPolicy::max_rel_drift`] re-tune.
//! 3. **Miss** — nothing structurally compatible; cold-tune (or boot on
//!    the safe fallback).
//!
//! Cached configs are never trusted blindly: every lookup runs
//! [`sanitize_configs`] over each stored table, and any slot that fails
//! validation (a poisoned or stale entry) is downgraded to the safe
//! fallback *and* added to the re-tune set, converting a would-be Hit
//! into a Warm so the tuner repairs the damaged slots.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use ts_autotune::BindingScheme;
use ts_core::{sanitize_configs, Downgrade, GroupConfigs, TrainConfigs};

use crate::digest::{census_distance, drifted_groups, ScheduleKey};

/// When is a cached schedule "close enough" to transfer, and which
/// groups must re-tune anyway?
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DriftPolicy {
    /// Maximum relative change of any per-group map statistic
    /// (`n_out`, pair count, MAC census) before that group is
    /// considered drifted and re-tuned. The default 0.25 sits between
    /// scene-to-scene jitter on a fixed sensor (≲10 %) and a real
    /// distribution shift (2× and beyond); see DESIGN.md §15.
    pub max_rel_drift: f64,
}

impl Default for DriftPolicy {
    fn default() -> Self {
        Self {
            max_rel_drift: 0.25,
        }
    }
}

/// One stored schedule: its content address plus the tuned table and
/// the latencies recorded when it was tuned.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheEntry {
    /// The full content key the schedule was tuned under.
    pub key: ScheduleKey,
    /// The tuned per-group dataflow table.
    pub configs: GroupConfigs,
    /// Tuned end-to-end latency at insert time (microseconds).
    pub tuned_latency_us: f64,
    /// Untuned (uniform-default) latency at insert time (microseconds).
    pub default_latency_us: f64,
}

impl CacheEntry {
    /// The entry's primary key ([`ScheduleKey::digest`]).
    pub fn digest(&self) -> String {
        self.key.digest()
    }
}

/// One stored training schedule: content key, binding scheme, the
/// tuned per-family tables and the latencies recorded at tune time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainCacheEntry {
    /// The full content key the schedule was tuned under.
    pub key: ScheduleKey,
    /// The binding scheme the tuner coupled families with.
    pub scheme: BindingScheme,
    /// The tuned fwd/dgrad/wgrad configuration tables.
    pub configs: TrainConfigs,
    /// Tuned end-to-end training-step latency at insert time (µs).
    pub tuned_latency_us: f64,
    /// All-bound default latency at insert time (µs).
    pub default_latency_us: f64,
}

impl TrainCacheEntry {
    /// The entry's primary key: the scheme-qualified content digest
    /// `train-<scheme>-<digest>`.
    pub fn digest(&self) -> String {
        Self::digest_for(&self.key, self.scheme)
    }
}

/// File-name prefix of training entries.
const TRAIN_PREFIX: &str = "train-";

/// What an entry kind supplies to the shared [`ScheduleStore`]: its
/// content address and file names, its lookup scope, its sanitizer and
/// its trace counter names. Implemented by [`CacheEntry`] and
/// [`TrainCacheEntry`].
pub trait StoreEntry: Serialize + Deserialize {
    /// The tuned schedule a lookup serves.
    type Configs;
    /// What a lookup is restricted to besides the content key: `()`
    /// for inference, the binding scheme for training.
    type Scope: Copy + PartialEq;
    /// `ts-trace` counter names for a hit, miss, warm start, re-tuned
    /// groups, insert, eviction and rejected file, in that order.
    const COUNTERS: [&'static str; 7];
    /// The store's primary key (and file stem) for `key` under `scope`.
    fn digest_for(key: &ScheduleKey, scope: Self::Scope) -> String;
    /// Whether a file stem in a store directory names an entry of this
    /// kind.
    fn owns_file(stem: &str) -> bool;
    /// The content key the schedule was tuned under.
    fn key(&self) -> &ScheduleKey;
    /// The scope the schedule was tuned under.
    fn scope(&self) -> Self::Scope;
    /// Tuned latency recorded when the entry was inserted.
    fn tuned_latency_us(&self) -> f64;
    /// The stored tables after [`sanitize_configs`], with every
    /// downgrade the sanitizer applied.
    fn sanitized(&self) -> (Self::Configs, Vec<Downgrade>);
}

impl StoreEntry for CacheEntry {
    type Configs = GroupConfigs;
    type Scope = ();
    const COUNTERS: [&'static str; 7] = [
        "cache.hit",
        "cache.miss",
        "cache.warm_start",
        "cache.retuned_groups",
        "cache.inserted",
        "cache.evicted",
        "cache.rejected",
    ];

    fn digest_for(key: &ScheduleKey, _: ()) -> String {
        key.digest()
    }

    fn owns_file(stem: &str) -> bool {
        !stem.starts_with(TRAIN_PREFIX)
    }

    fn key(&self) -> &ScheduleKey {
        &self.key
    }

    fn scope(&self) {}

    fn tuned_latency_us(&self) -> f64 {
        self.tuned_latency_us
    }

    fn sanitized(&self) -> (GroupConfigs, Vec<Downgrade>) {
        sanitize_configs(&self.configs)
    }
}

impl StoreEntry for TrainCacheEntry {
    type Configs = TrainConfigs;
    type Scope = BindingScheme;
    const COUNTERS: [&'static str; 7] = [
        "cache.train.hit",
        "cache.train.miss",
        "cache.train.warm_start",
        "cache.train.retuned_groups",
        "cache.train.inserted",
        "cache.train.evicted",
        "cache.train.rejected",
    ];

    fn digest_for(key: &ScheduleKey, scheme: BindingScheme) -> String {
        let tag = match scheme {
            BindingScheme::AllBound => "ab",
            BindingScheme::ForwardDgrad => "fd",
            BindingScheme::DgradWgrad => "dw",
            BindingScheme::Decoupled => "dc",
        };
        format!("{TRAIN_PREFIX}{tag}-{}", key.digest())
    }

    fn owns_file(stem: &str) -> bool {
        stem.starts_with(TRAIN_PREFIX)
    }

    fn key(&self) -> &ScheduleKey {
        &self.key
    }

    fn scope(&self) -> BindingScheme {
        self.scheme
    }

    fn tuned_latency_us(&self) -> f64 {
        self.tuned_latency_us
    }

    /// A downgrade in *any* family marks that group for re-tuning.
    fn sanitized(&self) -> (TrainConfigs, Vec<Downgrade>) {
        let mut downgrades = Vec::new();
        let mut clean = |table: &GroupConfigs| {
            let (fixed, downs) = sanitize_configs(table);
            downgrades.extend(downs);
            fixed
        };
        let fixed = TrainConfigs {
            fwd: clean(&self.configs.fwd),
            dgrad: clean(&self.configs.dgrad),
            wgrad: clean(&self.configs.wgrad),
        };
        (fixed, downgrades)
    }
}

/// Outcome of a cache probe, over the schedule type the store serves
/// ([`GroupConfigs`] for inference, [`TrainConfigs`] for training).
#[derive(Debug, Clone, PartialEq)]
pub enum Lookup<C = GroupConfigs> {
    /// Exact content match: the cached schedule applies as-is.
    Hit {
        /// Digest of the matching entry.
        digest: String,
        /// Sanitized tuned tables, ready to load.
        configs: C,
        /// Tuned latency recorded when the entry was inserted.
        tuned_latency_us: f64,
    },
    /// Structural match within drift range: seed the tuner and re-tune
    /// only the drifted (or sanitizer-downgraded) groups.
    Warm {
        /// Digest of the nearest entry used as the seed.
        digest: String,
        /// Sanitized seed tables for the warm-start tuner.
        seed: C,
        /// Groups that must re-tune (drifted past policy, or repaired
        /// by the sanitizer), sorted ascending.
        drifted: Vec<usize>,
        /// Census distance between the probe key and the seed entry.
        distance: f64,
    },
    /// Nothing structurally compatible in the store.
    Miss,
}

/// Lifetime event counts for one store, mirrored into `ts-trace`
/// counters under the `cache.` prefix (`cache.train.` for the
/// training store).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheCounters {
    /// Exact-digest lookups served as-is.
    pub hits: u64,
    /// Lookups with no structurally compatible entry.
    pub misses: u64,
    /// Lookups served by nearest-neighbor warm transfer.
    pub warm_starts: u64,
    /// Total groups scheduled for re-tuning across all warm starts.
    pub retuned_groups: u64,
    /// Entries inserted (including overwrites of an existing digest).
    pub inserted: u64,
    /// Entries explicitly evicted.
    pub evicted: u64,
    /// On-disk entries rejected at open time (unparsable or
    /// digest-mismatched files).
    pub rejected: u64,
}

/// Indices into [`StoreEntry::COUNTERS`].
#[derive(Clone, Copy)]
enum Event {
    Hit,
    Miss,
    WarmStart,
    RetunedGroups,
    Inserted,
    Evicted,
    Rejected,
}

/// A content-addressed store of tuned schedules of one entry kind.
#[derive(Debug)]
pub struct ScheduleStore<E> {
    dir: Option<PathBuf>,
    entries: BTreeMap<String, E>,
    counters: CacheCounters,
    load_issues: Vec<String>,
}

/// The inference schedule store.
pub type ScheduleCache = ScheduleStore<CacheEntry>;

/// The training schedule store.
pub type TrainScheduleCache = ScheduleStore<TrainCacheEntry>;

impl<E: StoreEntry> ScheduleStore<E> {
    /// An empty in-memory store (no persistence).
    pub fn in_memory() -> Self {
        Self {
            dir: None,
            entries: BTreeMap::new(),
            counters: CacheCounters::default(),
            load_issues: Vec::new(),
        }
    }

    /// Opens (creating if needed) a directory-backed store and loads
    /// every `*.json` entry of this kind in it. Loading is lenient:
    /// files that fail to parse, or whose recomputed digest disagrees
    /// with their file stem (a poisoned or hand-edited entry), are
    /// skipped and recorded in [`ScheduleStore::load_issues`] — one bad
    /// file never takes down a node boot. Files of the other entry kind
    /// are left alone.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the directory cannot be
    /// created or read.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let mut cache = Self {
            dir: Some(dir.clone()),
            ..Self::in_memory()
        };
        let mut paths: Vec<PathBuf> = fs::read_dir(&dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.extension().is_some_and(|x| x == "json")
                    && E::owns_file(p.file_stem().and_then(|s| s.to_str()).unwrap_or(""))
            })
            .collect();
        paths.sort();
        for path in paths {
            match fs::read_to_string(&path)
                .map_err(|e| e.to_string())
                .and_then(|s| serde_json::from_str::<E>(&s).map_err(|e| e.to_string()))
            {
                Ok(entry) => {
                    let digest = E::digest_for(entry.key(), entry.scope());
                    let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
                    if stem != digest {
                        cache.reject(format!(
                            "{}: content digest {digest} does not match file name",
                            path.display()
                        ));
                        continue;
                    }
                    cache.entries.insert(digest, entry);
                }
                Err(e) => cache.reject(format!("{}: {e}", path.display())),
            }
        }
        Ok(cache)
    }

    fn reject(&mut self, issue: String) {
        self.record(Event::Rejected, 1);
        self.load_issues.push(issue);
    }

    /// Bumps the lifetime counter and its `ts-trace` mirror.
    fn record(&mut self, event: Event, n: u64) {
        let c = &mut self.counters;
        let slot = match event {
            Event::Hit => &mut c.hits,
            Event::Miss => &mut c.misses,
            Event::WarmStart => &mut c.warm_starts,
            Event::RetunedGroups => &mut c.retuned_groups,
            Event::Inserted => &mut c.inserted,
            Event::Evicted => &mut c.evicted,
            Event::Rejected => &mut c.rejected,
        };
        *slot += n;
        ts_trace::counter_add(E::COUNTERS[event as usize], n as i64);
    }

    /// Problems encountered while loading the backing directory
    /// (skipped files, digest mismatches). Empty for healthy stores.
    pub fn load_issues(&self) -> &[String] {
        &self.load_issues
    }

    /// Lifetime event counts for this store instance.
    pub fn counters(&self) -> CacheCounters {
        self.counters
    }

    /// Number of entries currently in the store.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The backing directory, if this store is persistent.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// Digests of all entries, sorted.
    pub fn digests(&self) -> Vec<String> {
        self.entries.keys().cloned().collect()
    }

    /// Reads one entry by digest.
    pub fn get(&self, digest: &str) -> Option<&E> {
        self.entries.get(digest)
    }

    /// Inserts (or overwrites) an entry, writing it through to
    /// `<digest>.json` when the store is directory-backed, and returns
    /// the entry's digest.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the write-through fails; the
    /// in-memory insert still happened.
    pub fn insert(&mut self, entry: E) -> io::Result<String> {
        let digest = E::digest_for(entry.key(), entry.scope());
        let json = serde_json::to_string_pretty(&entry)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        self.entries.insert(digest.clone(), entry);
        self.record(Event::Inserted, 1);
        if let Some(dir) = &self.dir {
            fs::write(dir.join(format!("{digest}.json")), json)?;
        }
        Ok(digest)
    }

    /// Removes an entry by digest (the stale/poisoned-entry drill in
    /// OPERATIONS.md §8), deleting its backing file if present. Returns
    /// true when an entry was actually removed.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the backing file exists but
    /// cannot be deleted; the in-memory entry is removed regardless.
    pub fn evict(&mut self, digest: &str) -> io::Result<bool> {
        let existed = self.entries.remove(digest).is_some();
        if existed {
            self.record(Event::Evicted, 1);
            if let Some(dir) = &self.dir {
                let path = dir.join(format!("{digest}.json"));
                if path.exists() {
                    fs::remove_file(path)?;
                }
            }
        }
        Ok(existed)
    }

    /// Probes the store for `key` within `scope` under `policy`. See
    /// the module docs for the three-tier outcome; counters and their
    /// trace mirrors are bumped at each tier.
    pub(crate) fn probe(
        &mut self,
        key: &ScheduleKey,
        scope: E::Scope,
        policy: &DriftPolicy,
    ) -> Lookup<E::Configs> {
        let digest = E::digest_for(key, scope);
        let n_groups = key.groups.len();
        if let Some(entry) = self.entries.get(&digest) {
            let (configs, downgrades) = entry.sanitized();
            if downgrades.is_empty() {
                let tuned_latency_us = entry.tuned_latency_us();
                self.record(Event::Hit, 1);
                return Lookup::Hit {
                    digest,
                    configs,
                    tuned_latency_us,
                };
            }
            // Poisoned exact match: the sanitizer repaired some slots,
            // so those groups must re-tune — serve it as a warm start.
            let drifted = downgraded_groups(&downgrades, n_groups);
            self.record_warm_start(drifted.len());
            return Lookup::Warm {
                digest,
                seed: configs,
                drifted,
                distance: 0.0,
            };
        }

        let structural = key.structural_digest();
        let nearest = self
            .entries
            .iter()
            .filter(|(_, e)| e.scope() == scope && e.key().structural_digest() == structural)
            .map(|(d, e)| (census_distance(key, e.key()), d.clone(), e))
            // Ties break on digest so lookups are deterministic across
            // runs and platforms.
            .min_by(|(da, ka, _), (db, kb, _)| {
                da.partial_cmp(db).unwrap().then_with(|| ka.cmp(kb))
            });

        match nearest {
            Some((distance, digest, entry)) if distance.is_finite() => {
                let (seed, downgrades) = entry.sanitized();
                let mut drifted = drifted_groups(key, entry.key(), policy.max_rel_drift);
                drifted.extend(downgraded_groups(&downgrades, n_groups));
                drifted.sort_unstable();
                drifted.dedup();
                self.record_warm_start(drifted.len());
                Lookup::Warm {
                    digest,
                    seed,
                    drifted,
                    distance,
                }
            }
            _ => {
                self.record(Event::Miss, 1);
                Lookup::Miss
            }
        }
    }

    fn record_warm_start(&mut self, retuned: usize) {
        self.record(Event::WarmStart, 1);
        self.record(Event::RetunedGroups, retuned as u64);
    }
}

impl ScheduleCache {
    /// Probes the store for `key` under `policy`. See the module docs
    /// for the three-tier outcome.
    pub fn lookup(&mut self, key: &ScheduleKey, policy: &DriftPolicy) -> Lookup {
        self.probe(key, (), policy)
    }
}

impl TrainScheduleCache {
    /// Probes the store for `key` tuned under `scheme`: warm starts
    /// only transfer schedules tuned under the same scheme.
    pub fn lookup(
        &mut self,
        key: &ScheduleKey,
        scheme: BindingScheme,
        policy: &DriftPolicy,
    ) -> Lookup<TrainConfigs> {
        self.probe(key, scheme, policy)
    }
}

/// Group indices a sanitizer pass repaired. A downgraded *default*
/// slot taints every group, since the default applies wherever no
/// override exists.
fn downgraded_groups(downgrades: &[Downgrade], n_groups: usize) -> Vec<usize> {
    let mut out = Vec::new();
    for Downgrade::Group { group, .. } in downgrades {
        match group {
            Some(g) => {
                if *g < n_groups {
                    out.push(*g);
                }
            }
            None => return (0..n_groups).collect(),
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}
