//! Temporal stream scenarios: frame-delta sequences differentially
//! checking [`IncrementalMap`] against from-scratch rebuilds.
//!
//! A [`StreamScenario`] is a base cloud plus a sequence of
//! [`FrameOps`] deltas (drop indices, add coordinates). The runner
//! replays the sequence through an incremental map at the scenario's
//! churn threshold and, after *every* frame, compares the patched
//! state structurally against `build_submanifold_map` over the same
//! coordinates — pair lists, bitmasks, the split-plan partition, and
//! the coordinate set itself. Any divergence is a
//! [`StreamMismatch`]; the fuzzer shrinks failing scenarios to a
//! minimal frame sequence (fewest frames, then fewest points and ops)
//! before serializing them for `tests/repros/`.

use rand::Rng;
use serde::{Deserialize, Serialize};

use ts_kernelmap::{
    build_submanifold_map, check_map, check_plan, unique_coords, Coord, DeltaConfig,
    IncrementalMap, KernelOffsets,
};
use ts_tensor::rng_from_seed;

use crate::{ReproCoord, Shrinker, Tier};

/// One frame's delta, applied to the running coordinate set: `drop`
/// removes by index (modulo the current length, so shrinking the cloud
/// never invalidates a scenario), then `add` appends.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrameOps {
    /// Indices into the current frame to remove (taken modulo its
    /// length at application time).
    pub drop: Vec<usize>,
    /// Coordinates to append (deduplicated against the frame).
    pub add: Vec<ReproCoord>,
}

/// A self-contained temporal differential case.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamScenario {
    /// Seed this scenario was generated from (naming/metadata).
    pub seed: u64,
    /// The first frame's coordinates (deduplicated before use).
    pub base: Vec<ReproCoord>,
    /// Per-frame deltas, applied in order.
    pub frames: Vec<FrameOps>,
    /// Patch-vs-rebuild cutoff handed to [`DeltaConfig`].
    pub churn_threshold: f32,
    /// Cubic kernel size (must be odd — incremental maps reject even).
    pub kernel_size: u32,
    /// Split count of the maintained plan.
    pub split_count: u32,
}

/// One divergence between the incremental state and the from-scratch
/// reference at a specific frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamMismatch {
    /// Frame index (0 = the seeded initial state).
    pub frame: usize,
    /// What diverged, human-readable.
    pub detail: String,
}

impl std::fmt::Display for StreamMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "frame {}: {}", self.frame, self.detail)
    }
}

fn apply_ops(frame: &mut Vec<Coord>, ops: &FrameOps) {
    for &idx in &ops.drop {
        if !frame.is_empty() {
            let i = idx % frame.len();
            frame.remove(i);
        }
    }
    frame.extend(ops.add.iter().map(|&c| Coord::from(c)));
    *frame = unique_coords(frame);
}

fn check_state(inc: &IncrementalMap, frame: &[Coord], t: usize, out: &mut Vec<StreamMismatch>) {
    let mut push = |detail: String| {
        out.push(StreamMismatch { frame: t, detail });
    };
    if inc.coords().len() != frame.len() {
        push(format!(
            "state holds {} coords, frame has {}",
            inc.coords().len(),
            frame.len()
        ));
        return;
    }
    let got: std::collections::HashSet<u64> = inc.coords().iter().map(|c| c.key()).collect();
    if frame.iter().any(|c| !got.contains(&c.key())) {
        push("state coordinate set diverged from the frame".to_owned());
        return;
    }
    let fresh = build_submanifold_map(inc.coords(), inc.offsets());
    if inc.map() != &fresh {
        push("incremental map differs from from-scratch rebuild".to_owned());
    }
    for v in check_map(inc.map()) {
        push(format!("map invariant: {v}"));
    }
    for v in check_plan(inc.map(), inc.plan(), 16) {
        push(format!("split-plan invariant: {v}"));
    }
}

/// Replays a stream scenario, returning every structural divergence
/// between the incremental state and the reference (empty =
/// conformant).
fn run_stream_scenario(s: &StreamScenario) -> Vec<StreamMismatch> {
    let mut mismatches = Vec::new();
    let kernel = s.kernel_size.max(1) | 1; // odd, as IncrementalMap requires
    let mut frame = unique_coords(
        &s.base
            .iter()
            .map(|&c| Coord::from(c))
            .collect::<Vec<Coord>>(),
    );
    let mut inc = IncrementalMap::new(&frame, KernelOffsets::cube(kernel), s.split_count.max(1));
    check_state(&inc, &frame, 0, &mut mismatches);
    let cfg = DeltaConfig {
        churn_threshold: s.churn_threshold,
    };
    for (t, ops) in s.frames.iter().enumerate() {
        apply_ops(&mut frame, ops);
        let outcome = inc.update(&frame, &cfg);
        // The decision itself is part of the contract.
        let expect_rebuild = outcome.churn > s.churn_threshold;
        let rebuilt = outcome.kind == ts_kernelmap::MapUpdate::Rebuilt;
        if expect_rebuild != rebuilt {
            mismatches.push(StreamMismatch {
                frame: t + 1,
                detail: format!(
                    "churn {} vs threshold {} but update was {:?}",
                    outcome.churn, s.churn_threshold, outcome.kind
                ),
            });
        }
        check_state(&inc, &frame, t + 1, &mut mismatches);
    }
    mismatches
}

impl Tier for StreamScenario {
    type Mismatch = StreamMismatch;
    const NAME: &'static str = "stream";
    const REPRO_PREFIX: &'static str = "repro-stream-seed-";
    const MARKER: Option<&'static str> = Some("frames");
    /// Each evaluation replays the whole frame sequence, with structural
    /// checks only: cheap next to the differential matrix.
    const SHRINK_BUDGET: usize = 400;

    /// A small cloud plus 1–6 frame deltas at a randomly drawn churn
    /// threshold (including the degenerate 0.0 always-rebuild and >1.0
    /// always-patch corners).
    fn generate(seed: u64) -> Self {
        let mut rng = rng_from_seed(seed ^ 0x57_0EA4);
        let n: usize = rng.gen_range(4..=40);
        let batches: i32 = rng.gen_range(1..=2);
        let coord = |rng: &mut rand_chacha::ChaCha8Rng| ReproCoord {
            b: rng.gen_range(0..batches),
            x: rng.gen_range(-6..=6),
            y: rng.gen_range(-6..=6),
            z: rng.gen_range(-2..=2),
        };
        let base = (0..n).map(|_| coord(&mut rng)).collect();
        let frames = (0..rng.gen_range(1..=6usize))
            .map(|_| FrameOps {
                drop: (0..rng.gen_range(0..=6usize))
                    .map(|_| rng.gen_range(0..4096usize))
                    .collect(),
                add: (0..rng.gen_range(0..=6usize))
                    .map(|_| coord(&mut rng))
                    .collect(),
            })
            .collect();
        StreamScenario {
            seed,
            base,
            frames,
            churn_threshold: [0.0f32, 0.15, 0.35, 0.7, 1.2][rng.gen_range(0..5usize)],
            kernel_size: [1, 3][rng.gen_range(0..2usize)],
            split_count: rng.gen_range(1..=3),
        }
    }

    fn seed(&self) -> u64 {
        self.seed
    }

    fn run(&self) -> Vec<StreamMismatch> {
        run_stream_scenario(self)
    }

    fn describe(&self) -> String {
        format!(
            "{} base point(s), {} frame(s), threshold {}, kernel {}",
            self.base.len(),
            self.frames.len(),
            self.churn_threshold,
            self.kernel_size
        )
    }

    /// Truncates to the first failing frame: everything after it is
    /// noise.
    fn shrink_start(s: &mut Shrinker<Self>) {
        let first_bad = s.mismatches().iter().map(|m| m.frame).min().unwrap_or(0);
        if first_bad < s.best().frames.len() {
            let mut cand = s.best().clone();
            cand.frames.truncate(first_bad.max(1));
            s.attempt(cand);
        }
    }

    /// Frames first — the point of the tier is a *minimal frame
    /// sequence* — then base points, then the ops inside the surviving
    /// frames, then the plan.
    fn shrink_round(s: &mut Shrinker<Self>) -> bool {
        let mut adopted = s.drop_each(1, |t| &mut t.frames);
        adopted |= s.halve_then_drop(|t| &mut t.base);
        for f in 0..s.best().frames.len() {
            adopted |= s.drop_each(0, |t| &mut t.frames[f].drop);
            adopted |= s.drop_each(0, |t| &mut t.frames[f].add);
        }
        adopted | s.edit(|t| t.split_count = t.split_count.min(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drift_scenario() -> StreamScenario {
        StreamScenario {
            seed: 1,
            base: (0..10)
                .map(|x| ReproCoord {
                    b: 0,
                    x,
                    y: 0,
                    z: 0,
                })
                .collect(),
            frames: (0..4)
                .map(|_| FrameOps {
                    drop: vec![0],
                    add: vec![],
                })
                .collect(),
            churn_threshold: 0.35,
            kernel_size: 3,
            split_count: 2,
        }
    }

    #[test]
    fn drifting_line_is_conformant() {
        assert!(run_stream_scenario(&drift_scenario()).is_empty());
    }

    #[test]
    fn generation_is_deterministic_and_well_formed() {
        assert_eq!(StreamScenario::generate(9), StreamScenario::generate(9));
        for seed in 0..20 {
            let s = StreamScenario::generate(seed);
            assert!(!s.base.is_empty());
            assert!(!s.frames.is_empty());
            assert!(s.kernel_size % 2 == 1);
            assert!(s.split_count >= 1);
        }
    }

    #[test]
    fn clean_incremental_maps_survive_a_fuzz_burst() {
        let report = crate::fuzz::<StreamScenario>(0xFEED, 24);
        assert_eq!(report.iterations, 24);
        assert!(
            report.counterexample.is_none(),
            "unexpected counterexample: {:#?}",
            report.counterexample
        );
    }

    #[test]
    fn shrinker_minimizes_a_planted_failure() {
        // A scenario whose runner we can't easily break (the real code
        // is correct), so plant a contract violation instead: a
        // threshold the decision check must flag. churn_threshold is
        // compared against update's decision made with the *same*
        // threshold, so fabricate failure by corrupting mismatches from
        // a run of a conformant scenario — shrink must then return the
        // scenario unchanged (every candidate passes, nothing adopted).
        let s = drift_scenario();
        let fake = vec![StreamMismatch {
            frame: 1,
            detail: "planted".into(),
        }];
        let (shrunk, kept) = crate::shrink(&s, fake.clone());
        assert_eq!(shrunk, s);
        assert_eq!(kept, fake);
    }
}
