//! Wall-clock benchmark of the TorchSparse++ reproduction.
//!
//! ```text
//! perfbench --workload serve|train|tune --seed N --seconds S --trace 0|1 [--trace-dir DIR]
//! ```
//!
//! Generates the workload's inputs from the seed (never timed), runs
//! them through the crates' public APIs — a fixed amount of work worked
//! out from `S`, which takes one to two and a half times `S` seconds on
//! the reference host — checks the outputs, and prints a report whose
//! last line is one JSON object.
//! With `--trace 1` the run also replays its inputs one public call at a
//! time inside benchmark-side spans, prints the per-layer breakdown and
//! writes a Chrome trace-event file to `DIR/trace_<workload>.json`.
//! See `perfbench/README.md` for the metrics and the layer map.

mod procfs;
mod report;
mod serve;
mod spans;
mod stats;
mod train;
mod tune;
mod walk;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Outcome;
use spans::Span;

/// Command-line arguments.
pub struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        trace_dir: PathBuf::from("perfbench/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--trace-dir" => args.trace_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds.is_finite() && (1.0..=600.0).contains(&args.seconds)) {
        return Err(format!("--seconds {} is outside 1..=600", args.seconds));
    }
    Ok(args)
}

/// A small seeded generator for choices the benchmark makes itself.
pub struct SplitMix(pub u64);

impl SplitMix {
    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }
}

/// Writes the spans as a Chrome trace-event file and notes where.
pub fn write_trace(
    args: &Args,
    spans: &[Span],
    notes: &mut Vec<String>,
    lane: impl Fn(u64) -> String,
) {
    let path = args.trace_dir.join(format!("trace_{}.json", args.workload));
    let doc = spans::chrome_trace(spans, lane);
    let written = std::fs::create_dir_all(&args.trace_dir).and_then(|()| {
        std::fs::write(
            &path,
            serde_json::to_string(&doc).expect("trace serialises"),
        )
    });
    notes.push(match written {
        Ok(()) => format!(
            "chrome trace: {} ({} spans; open in https://ui.perfetto.dev)",
            path.display(),
            spans.len()
        ),
        Err(e) => format!("chrome trace not written to {}: {e}", path.display()),
    });
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome: Outcome = match args.workload.as_str() {
        "serve" => serve::run(&args),
        "train" => train::run(&args),
        "tune" => tune::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other:?} (serve, train, tune)");
            return ExitCode::from(2);
        }
    };
    print!("{}", outcome.render(&args.workload, args.trace));
    println!(
        "{}",
        serde_json::to_string(&outcome.json(args.trace)).expect("result serialises")
    );
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
