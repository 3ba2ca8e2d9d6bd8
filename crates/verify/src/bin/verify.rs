//! The conformance gate: corpus replay, fuzzing, and mutation smoke.
//!
//! ```text
//! verify --corpus [DIR]                      # replay checked-in repros (CI gate)
//! verify --fuzz [--seed S] [--iters N] [--repro-dir DIR]
//! verify --stream [--seed S] [--iters N] [--repro-dir DIR]
//! verify --train [--seed S] [--iters N] [--repro-dir DIR]
//! verify --mutation-smoke [--repro-dir DIR]  # requires --features mutate
//! ```
//!
//! `--fuzz`, `--stream` and `--train` each fuzz one tier (kernel,
//! stream, train) through the same loop and compose with `--corpus` and
//! each other.
//!
//! Exit status: 0 = clean, 1 = conformance failure (counterexample
//! written when a repro dir applies), 2 = usage or environment error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use ts_verify::{fuzz, replay_corpus, write_repro, Scenario, StreamScenario, Tier, TrainScenario};

/// Default corpus/repro directory: `tests/repros/` at the workspace
/// root, resolved relative to this crate so the binary works from any
/// working directory.
fn default_repro_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("tests")
        .join("repros")
}

struct Args {
    corpus: Option<PathBuf>,
    fuzz: bool,
    stream: bool,
    train: bool,
    mutation_smoke: bool,
    seed: u64,
    iters: usize,
    repro_dir: PathBuf,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: verify --corpus [DIR]\n       verify --fuzz [--seed S] [--iters N] [--repro-dir DIR]\n       verify --stream [--seed S] [--iters N] [--repro-dir DIR]\n       verify --train [--seed S] [--iters N] [--repro-dir DIR]\n       verify --mutation-smoke [--repro-dir DIR]"
    );
    ExitCode::from(2)
}

/// Seeds parse as decimal or `0x`-prefixed hex (the binary reports
/// seeds in hex, so pasting one back must round-trip).
fn parse_seed(v: &str) -> Option<u64> {
    if let Some(hex) = v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        u64::from_str_radix(&hex.replace('_', ""), 16).ok()
    } else {
        v.parse().ok()
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        corpus: None,
        fuzz: false,
        stream: false,
        train: false,
        mutation_smoke: false,
        seed: 0x5EED,
        iters: 16,
        repro_dir: default_repro_dir(),
    };
    let mut it = std::env::args().skip(1).peekable();
    let mut saw_mode = false;
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--corpus" => {
                saw_mode = true;
                let dir = match it.peek() {
                    Some(v) if !v.starts_with("--") => PathBuf::from(it.next().unwrap()),
                    _ => default_repro_dir(),
                };
                args.corpus = Some(dir);
            }
            "--fuzz" => {
                saw_mode = true;
                args.fuzz = true;
            }
            "--stream" => {
                saw_mode = true;
                args.stream = true;
            }
            "--train" => {
                saw_mode = true;
                args.train = true;
            }
            "--mutation-smoke" => {
                saw_mode = true;
                args.mutation_smoke = true;
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                args.seed = parse_seed(&v).ok_or(format!("bad seed: {v}"))?;
            }
            "--iters" => {
                let v = it.next().ok_or("--iters needs a value")?;
                args.iters = v.parse().map_err(|_| format!("bad iters: {v}"))?;
            }
            "--repro-dir" => {
                let v = it.next().ok_or("--repro-dir needs a value")?;
                args.repro_dir = PathBuf::from(v);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if !saw_mode {
        return Err(
            "pick a mode: --corpus, --fuzz, --stream, --train or --mutation-smoke".to_owned(),
        );
    }
    Ok(args)
}

fn run_corpus(dir: &Path) -> bool {
    let results = match replay_corpus(dir) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("corpus error: {e}");
            return false;
        }
    };
    let mut failed = 0usize;
    for r in &results {
        if r.passed() {
            println!("PASS {}", r.path.display());
        } else {
            failed += 1;
            println!("FAIL {}", r.path.display());
            for f in &r.failures {
                println!("  {f}");
            }
        }
    }
    println!("corpus: {} file(s), {} failed", results.len(), failed);
    failed == 0
}

/// [`run_tier`] for one tier: `(seed, iters, repro_dir) -> passed`.
type TierDriver = fn(u64, usize, &Path) -> bool;

/// Fuzzes tier `T`; on a failure prints the shrunken counterexample and
/// writes its repro under `repro_dir`.
fn run_tier<T: Tier>(seed: u64, iters: usize, repro_dir: &Path) -> bool {
    let report = fuzz::<T>(seed, iters);
    let Some(ce) = report.counterexample else {
        println!(
            "{}: {} scenario(s) from seed {seed:#x}, all conformant",
            T::NAME,
            report.iterations
        );
        return true;
    };
    eprintln!(
        "{}: counterexample after {} scenario(s): {}",
        T::NAME,
        report.iterations,
        ce.scenario.describe()
    );
    for m in &ce.mismatches {
        eprintln!("  {m}");
    }
    match write_repro(repro_dir, &ce) {
        Ok(path) => eprintln!("repro written to {}", path.display()),
        Err(e) => eprintln!("could not write repro: {e}"),
    }
    false
}

/// Flips a sign inside one dataflow's forward kernel and one's wgrad
/// kernel (the `mutate` feature's hooks in `ts-dataflow`) and asserts
/// the matching tier catches each with a shrunken repro of at most 8
/// points. Proves the conformance gate — kernel *and* train tiers —
/// detects real defects rather than vacuously passing.
#[cfg(feature = "mutate")]
fn run_mutation_smoke(repro_dir: &Path) -> ExitCode {
    match mutation_smoke(&repro_dir.join("mutation-smoke")) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("mutation smoke FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(feature = "mutate")]
fn mutation_smoke(dir: &Path) -> Result<(), String> {
    let ce = caught::<Scenario>("sign-flip")?;
    persist("sign-flip", &ce, ce.scenario.coords.len(), dir)?;

    // A wgrad-only sign flip is invisible to inference but must be
    // caught (and shrunk) by the train tier, with a wgrad mismatch.
    let ce = caught::<TrainScenario>("wgrad-sign-flip")?;
    if !ce
        .mismatches
        .iter()
        .any(|m| m.pass == ts_verify::Pass::Wgrad)
    {
        return Err("wgrad flip surfaced without a wgrad mismatch".to_owned());
    }
    persist("wgrad-sign-flip", &ce, ce.scenario.coords.len(), dir)
}

/// The shrunken counterexample tier `T`'s fuzzer finds with the
/// `mutate` hook `mutation` switched on; an error if it finds none.
#[cfg(feature = "mutate")]
fn caught<T: Tier>(mutation: &str) -> Result<ts_verify::Counterexample<T>, String> {
    std::env::set_var("TS_MUTATE", mutation);
    let report = fuzz::<T>(0x5EED_F11B, 8);
    std::env::remove_var("TS_MUTATE");
    report
        .counterexample
        .ok_or(format!("{mutation} was not caught by --{}", T::NAME))
}

/// Writes the repro of a caught mutation, which must have shrunk to at
/// most 8 points.
#[cfg(feature = "mutate")]
fn persist<T: Tier>(
    mutation: &str,
    ce: &ts_verify::Counterexample<T>,
    points: usize,
    dir: &Path,
) -> Result<(), String> {
    if points > 8 {
        return Err(format!(
            "{mutation} repro has {points} points, expected <= 8"
        ));
    }
    let path = write_repro(dir, ce).map_err(|e| format!("could not persist repro: {e}"))?;
    println!(
        "mutation smoke passed: {mutation} caught by --{}, shrunk to {points} point(s), repro at {}",
        T::NAME,
        path.display()
    );
    Ok(())
}

#[cfg(not(feature = "mutate"))]
fn run_mutation_smoke(_repro_dir: &Path) -> ExitCode {
    eprintln!("mutation smoke needs `--features mutate` (cargo run -p ts-verify --features mutate --bin verify -- --mutation-smoke)");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    if args.mutation_smoke {
        return run_mutation_smoke(&args.repro_dir);
    }
    // Corpus and fuzz compose: `--corpus --fuzz` replays the corpus
    // then hunts for new counterexamples (the CI verify job's shape).
    let mut failed = false;
    let mut ran = false;
    if let Some(dir) = &args.corpus {
        ran = true;
        failed |= !run_corpus(dir);
    }
    let tiers: [(bool, TierDriver); 3] = [
        (args.fuzz, run_tier::<Scenario>),
        (args.stream, run_tier::<StreamScenario>),
        (args.train, run_tier::<TrainScenario>),
    ];
    for (on, run) in tiers {
        if on && !failed {
            ran = true;
            failed |= !run(args.seed, args.iters, &args.repro_dir);
        }
    }
    if !ran {
        return usage();
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
