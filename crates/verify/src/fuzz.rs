//! The one conformance loop: seeded fuzzing, shrinking to a minimal
//! repro, repro files and corpus replay, for every [`Tier`].
//!
//! A tier supplies what differs between the kernel, stream and train
//! checks: how to draw a scenario from a seed, the oracle, and one round
//! of shrink steps built from [`Shrinker`]'s helpers. The fuzz loop, the
//! shrink loop and its evaluation budget, the JSON [`Counterexample`]
//! checked in under `tests/repros/`, and the corpus replay that tells
//! the tiers' files apart are written once, here.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize, Value};

use crate::{Scenario, StreamScenario, TrainScenario};

/// One conformance tier: a scenario type, its oracle and its shrink
/// steps.
pub trait Tier: fmt::Debug + Clone + PartialEq + Serialize + Deserialize {
    /// One divergence the oracle reports.
    type Mismatch: fmt::Debug + fmt::Display + Clone + PartialEq + Serialize + Deserialize;

    /// The `verify` flag that fuzzes this tier, without its dashes; it
    /// also labels the tier's output lines.
    const NAME: &'static str;
    /// Repro files are named `{REPRO_PREFIX}{seed}.json`.
    const REPRO_PREFIX: &'static str;
    /// A `scenario` field only this tier's corpus files carry; `None`
    /// for the tier that replays every other file.
    const MARKER: Option<&'static str>;
    /// Oracle evaluations one shrink may spend.
    const SHRINK_BUDGET: usize;

    /// Deterministically draws the scenario of one fuzz iteration.
    fn generate(seed: u64) -> Self;
    /// The seed the scenario's data derive from; names its repro file.
    fn seed(&self) -> u64;
    /// The oracle: every divergence from the reference (empty =
    /// conformant).
    fn run(&self) -> Vec<Self::Mismatch>;
    /// One line sizing the scenario, for the `verify` binary.
    fn describe(&self) -> String;
    /// Shrink steps taken once, before the rounds.
    fn shrink_start(s: &mut Shrinker<Self>);
    /// One shrink round; returns whether any step was adopted. Rounds
    /// repeat until one adopts nothing or the budget is spent.
    fn shrink_round(s: &mut Shrinker<Self>) -> bool;
    /// Everything a corpus replay of this scenario finds, rendered.
    fn replay(&self) -> Vec<String> {
        self.run().iter().map(ToString::to_string).collect()
    }
}

/// A shrunken failing scenario plus the mismatches it reproduces.
#[derive(Debug, Clone, PartialEq)]
pub struct Counterexample<T: Tier> {
    /// The minimal failing scenario.
    pub scenario: T,
    /// Mismatches observed when the counterexample was produced. Empty
    /// for corpus seeds that never failed (conformance scenarios).
    pub mismatches: Vec<T::Mismatch>,
}

// Written by hand: the vendored `serde_derive` rejects generic items.
impl<T: Tier> Serialize for Counterexample<T> {
    fn serialize_value(&self) -> Value {
        Value::Object(vec![
            ("scenario".to_owned(), self.scenario.serialize_value()),
            ("mismatches".to_owned(), self.mismatches.serialize_value()),
        ])
    }
}

impl<T: Tier> Deserialize for Counterexample<T> {
    fn deserialize_value(v: &Value) -> Result<Self, serde::Error> {
        Ok(Self {
            scenario: serde::__de_field(v, "scenario")?,
            mismatches: serde::__de_field(v, "mismatches")?,
        })
    }
}

/// Outcome of a fuzz run.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzReport<T: Tier> {
    /// Scenarios generated and executed.
    pub iterations: usize,
    /// First failure found, already shrunken; `None` = all conformant.
    pub counterexample: Option<Counterexample<T>>,
}

/// Runs `iters` seeded scenarios of tier `T` starting at `seed`; stops
/// at (and shrinks) the first failure.
pub fn fuzz<T: Tier>(seed: u64, iters: usize) -> FuzzReport<T> {
    for i in 0..iters {
        let scenario = T::generate(seed.wrapping_add(i as u64));
        let mismatches = scenario.run();
        if !mismatches.is_empty() {
            let (scenario, mismatches) = shrink(&scenario, mismatches);
            return FuzzReport {
                iterations: i + 1,
                counterexample: Some(Counterexample {
                    scenario,
                    mismatches,
                }),
            };
        }
    }
    FuzzReport {
        iterations: iters,
        counterexample: None,
    }
}

/// Shrinks a failing scenario to a local minimum within
/// [`Tier::SHRINK_BUDGET`] oracle evaluations: the returned scenario
/// still fails, and (budget permitting) no step of the tier's shrink
/// round keeps it failing. Also returns its mismatches.
pub fn shrink<T: Tier>(scenario: &T, mismatches: Vec<T::Mismatch>) -> (T, Vec<T::Mismatch>) {
    let mut s = Shrinker::new(scenario.clone(), mismatches, T::SHRINK_BUDGET);
    s.run();
    (s.best, s.mismatches)
}

/// One shrink in progress: the smallest failing scenario so far, its
/// mismatches, and the oracle evaluations spent. A tier's shrink steps
/// propose candidates through [`Shrinker::attempt`] and its helpers.
pub struct Shrinker<T: Tier> {
    best: T,
    mismatches: Vec<T::Mismatch>,
    evals: usize,
    budget: usize,
}

impl<T: Tier> Shrinker<T> {
    fn new(best: T, mismatches: Vec<T::Mismatch>, budget: usize) -> Self {
        Self {
            best,
            mismatches,
            evals: 0,
            budget,
        }
    }

    fn run(&mut self) {
        T::shrink_start(self);
        let mut progress = true;
        while progress && !self.spent() {
            progress = T::shrink_round(self);
        }
    }

    fn spent(&self) -> bool {
        self.evals >= self.budget
    }

    /// The smallest failing scenario so far.
    pub fn best(&self) -> &T {
        &self.best
    }

    /// The mismatches of [`Shrinker::best`].
    pub fn mismatches(&self) -> &[T::Mismatch] {
        &self.mismatches
    }

    /// Runs the oracle on `cand` and adopts it iff it still fails.
    /// Returns whether it was adopted; always `false` once the budget is
    /// spent.
    pub fn attempt(&mut self, cand: T) -> bool {
        if self.spent() {
            return false;
        }
        self.evals += 1;
        let mismatches = cand.run();
        if mismatches.is_empty() {
            return false;
        }
        self.best = cand;
        self.mismatches = mismatches;
        true
    }

    /// Attempts the best scenario with `edit` applied, unless the edit
    /// leaves it unchanged.
    pub fn edit(&mut self, edit: impl FnOnce(&mut T)) -> bool {
        let mut cand = self.best.clone();
        edit(&mut cand);
        cand != self.best && self.attempt(cand)
    }

    /// Shrinks the count `field` selects: sets it to 1, then halves it,
    /// then takes one off, each on the best scenario so far (never below
    /// 1). A defect that needs a count of at least `m` therefore stops at
    /// exactly `m`. Returns whether any step was adopted.
    pub fn count(&mut self, field: impl Fn(&mut T) -> &mut usize) -> bool {
        let steps: [fn(usize) -> usize; 3] = [|_| 1, |n| n / 2, |n| n.saturating_sub(1)];
        steps.iter().fold(false, |adopted, step| {
            self.edit(|t| {
                let n = field(t);
                *n = step(*n).max(1);
            }) | adopted
        })
    }

    /// Shrinks the list `field` selects: halves it while either half
    /// still fails, then [`drops`](Shrinker::drop_each) single elements
    /// down to one. Returns whether anything was adopted.
    pub fn halve_then_drop<E: Clone>(&mut self, field: impl Fn(&mut T) -> &mut Vec<E>) -> bool {
        let mut adopted = false;
        while field(&mut self.best).len() > 1 && !self.spent() {
            let half = field(&mut self.best).len() / 2;
            let mut front = self.best.clone();
            field(&mut front).truncate(half);
            let mut back = self.best.clone();
            field(&mut back).drain(..half);
            if self.attempt(front) || self.attempt(back) {
                adopted = true;
            } else {
                break;
            }
        }
        self.drop_each(1, field) | adopted
    }

    /// Tries dropping each element of the list `field` selects, front to
    /// back, while it holds more than `keep`. Returns whether any drop
    /// was adopted.
    pub fn drop_each<E>(&mut self, keep: usize, field: impl Fn(&mut T) -> &mut Vec<E>) -> bool {
        let mut adopted = false;
        let mut i = 0;
        while i < field(&mut self.best).len() && field(&mut self.best).len() > keep && !self.spent()
        {
            let mut cand = self.best.clone();
            field(&mut cand).remove(i);
            if self.attempt(cand) {
                adopted = true; // the same index now holds the next element
            } else {
                i += 1;
            }
        }
        adopted
    }
}

/// Writes a counterexample as pretty JSON under `dir`, named by its
/// tier's [`Tier::REPRO_PREFIX`] and seed. Returns the written path.
pub fn write_repro<T: Tier>(dir: &Path, ce: &Counterexample<T>) -> io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}{}.json", T::REPRO_PREFIX, ce.scenario.seed()));
    let json = serde_json::to_string_pretty(ce)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    fs::write(&path, json)?;
    Ok(path)
}

/// One corpus file's replay outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusResult {
    /// The replayed file.
    pub path: PathBuf,
    /// Everything the replay found, rendered (empty = conformant now).
    pub failures: Vec<String>,
}

impl CorpusResult {
    /// Whether the replay was clean.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Replays every `*.json` counterexample under `dir` through its tier:
/// the first whose [`Tier::MARKER`] field the file's scenario carries
/// (`frames`: stream, `micro_batches`: train), else the kernel tier.
/// Checked-in repros record *fixed* bugs, so a healthy corpus replays
/// clean.
///
/// # Errors
///
/// I/O errors reading the directory, or parse errors on any corpus file
/// (a corrupt corpus is a failure, not a skip).
pub fn replay_corpus(dir: &Path) -> io::Result<Vec<CorpusResult>> {
    let mut files: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    files
        .into_iter()
        .map(|path| {
            let bad = |e: serde::Error| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{}: {e}", path.display()),
                )
            };
            let value: Value = serde_json::from_str(&fs::read_to_string(&path)?).map_err(bad)?;
            let failures = replay::<StreamScenario>(&value)
                .or_else(|| replay::<TrainScenario>(&value))
                .or_else(|| replay::<Scenario>(&value))
                .expect("the kernel tier replays every unmarked file")
                .map_err(bad)?;
            Ok(CorpusResult { path, failures })
        })
        .collect()
}

/// Replays a parsed corpus file through tier `T`, or `None` when the
/// file lacks the tier's marker.
fn replay<T: Tier>(value: &Value) -> Option<Result<Vec<String>, serde::Error>> {
    let marked = T::MARKER.is_none_or(|m| value.get("scenario").and_then(|s| s.get(m)).is_some());
    marked.then(|| Counterexample::<T>::deserialize_value(value).map(|ce| ce.scenario.replay()))
}

#[cfg(test)]
mod tests {
    use serde::{Deserialize, Serialize};

    use super::*;
    use crate::{Mismatch, Pass, StreamMismatch};

    /// A toy tier: fails while it holds points 5 and 30 at width >= 2.
    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Toy {
        points: Vec<i32>,
        width: usize,
    }

    impl Tier for Toy {
        type Mismatch = StreamMismatch;
        const NAME: &'static str = "toy";
        const REPRO_PREFIX: &'static str = "repro-toy-seed-";
        const MARKER: Option<&'static str> = Some("width");
        const SHRINK_BUDGET: usize = 300;

        fn generate(_seed: u64) -> Self {
            Toy {
                points: (0..40).collect(),
                width: 8,
            }
        }
        fn seed(&self) -> u64 {
            0
        }
        fn run(&self) -> Vec<StreamMismatch> {
            let fails = self.points.contains(&5) && self.points.contains(&30) && self.width >= 2;
            let planted = StreamMismatch {
                frame: 0,
                detail: "planted".to_owned(),
            };
            fails.then_some(planted).into_iter().collect()
        }
        fn describe(&self) -> String {
            format!("{} point(s), width {}", self.points.len(), self.width)
        }
        fn shrink_start(_: &mut Shrinker<Self>) {}
        fn shrink_round(s: &mut Shrinker<Self>) -> bool {
            s.halve_then_drop(|t| &mut t.points) | s.edit(|t| t.width /= 2)
        }
    }

    fn shrunk(budget: usize) -> Shrinker<Toy> {
        let toy = Toy::generate(0);
        let mismatches = toy.run();
        let mut s = Shrinker::new(toy, mismatches, budget);
        s.run();
        s
    }

    #[test]
    fn shrinker_reaches_the_two_failing_points_at_the_least_failing_width() {
        let s = shrunk(Toy::SHRINK_BUDGET);
        assert_eq!(
            s.best,
            Toy {
                points: vec![5, 30],
                width: 2
            }
        );
        assert_eq!(s.mismatches, s.best.run());
        // Round 1: two halves, 40 single drops, width 8 -> 4. Round 2:
        // two halves, two drops, width 4 -> 2. Round 3 adopts nothing:
        // two halves, two drops, width 2 -> 1.
        assert_eq!(s.evals, 53);
    }

    #[test]
    fn a_count_shrinks_to_the_least_failing_value() {
        // Halving alone would stop at 3: 7 -> 3 -> 1 no longer fails.
        let toy = Toy {
            points: vec![5, 30],
            width: 7,
        };
        let mut s = Shrinker::new(toy.clone(), toy.run(), Toy::SHRINK_BUDGET);
        while s.count(|t| &mut t.width) {}
        assert_eq!(s.best.width, 2);
        // 7: 1 passes, 3 and then 2 fail. 2: 1, 1 and 1 all pass.
        assert_eq!(s.evals, 6);
    }

    #[test]
    fn shrinker_stops_at_its_budget() {
        let s = shrunk(10);
        assert_eq!(s.evals, 10);
        assert!(!s.best.run().is_empty(), "the best scenario still fails");
        // Two halves, then eight drops: 0-4 and 6-7 adopted, 5 kept.
        assert_eq!(s.best.points.len(), 33);
        assert_eq!(s.best.width, 8);
    }

    fn round_trips<T: Tier>(mismatches: Vec<T::Mismatch>) {
        let ce = Counterexample {
            scenario: T::generate(5),
            mismatches,
        };
        let json = serde_json::to_string_pretty(&ce).expect("serializes");
        let back: Counterexample<T> = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(ce, back);
    }

    #[test]
    fn counterexamples_of_every_tier_round_trip_through_json() {
        let mismatch = Mismatch {
            config: crate::all_configs()[0],
            pass: Pass::Wgrad,
            precision: ts_tensor::Precision::Tf32,
            worst_normalized_error: 2.5,
            rel_tol: 1e-3,
            expected: 1.0,
            actual: -1.0,
            location: "dw[0][0, 0]".to_owned(),
        };
        round_trips::<Scenario>(vec![mismatch.clone()]);
        round_trips::<StreamScenario>(vec![StreamMismatch {
            frame: 2,
            detail: "x".into(),
        }]);
        round_trips::<TrainScenario>(vec![mismatch]);
    }

    #[test]
    fn corpus_replays_each_tier_from_its_repro_file() {
        let dir = std::env::temp_dir().join(format!("ts-verify-mixed-{}", std::process::id()));
        let paths = [
            write_repro(
                &dir,
                &Counterexample::<Scenario> {
                    scenario: Scenario::generate(11),
                    mismatches: Vec::new(),
                },
            ),
            write_repro(
                &dir,
                &Counterexample::<StreamScenario> {
                    scenario: StreamScenario::generate(11),
                    mismatches: Vec::new(),
                },
            ),
            write_repro(
                &dir,
                &Counterexample::<TrainScenario> {
                    scenario: TrainScenario::generate(11),
                    mismatches: Vec::new(),
                },
            ),
        ]
        .map(|p| p.expect("writes"));
        let names = paths.map(|p| p.file_name().expect("a file").to_owned());
        assert_eq!(
            names,
            [
                "repro-seed-11.json",
                "repro-stream-seed-11.json",
                "repro-train-seed-11.json"
            ]
        );
        let results = replay_corpus(&dir).expect("replays");
        assert_eq!(results.len(), 3);
        for r in &results {
            assert!(r.passed(), "{r:#?}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
