//! Shared harness utilities for the experiment benches.
//!
//! Every bench target in `benches/` regenerates one table or figure of
//! the TorchSparse++ paper: it prints the same rows/series the paper
//! reports, alongside the paper's reference numbers, and writes a JSON
//! record under `target/repro/` for `EXPERIMENTS.md`.
//!
//! Scene fidelity is controlled by the `TS_BENCH_SCALE` environment
//! variable (angular-resolution multiplier, default 0.35): absolute
//! latencies shift with scale, but every comparison is within-scale, so
//! speedup *shapes* are stable.

#![forbid(unsafe_code)]

use std::fs;
use std::path::PathBuf;

use serde_json::Value;

use ts_core::Session;
use ts_workloads::Workload;

/// Angular-resolution scale for generated scenes (`TS_BENCH_SCALE`).
pub fn bench_scale() -> f32 {
    std::env::var("TS_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.35)
}

/// Whether to run the full device/precision grid (`TS_BENCH_FULL=1`).
pub fn full_grid() -> bool {
    std::env::var("TS_BENCH_FULL")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Output directory for JSON records.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from("target/repro");
    let _ = fs::create_dir_all(&dir);
    dir
}

/// Writes an experiment record as pretty JSON.
pub fn write_json(name: &str, value: &Value) {
    let path = out_dir().join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(s) => {
            if let Err(e) = fs::write(&path, s) {
                eprintln!("warning: could not write {}: {e}", path.display());
            } else {
                println!("\n[saved {}]", path.display());
            }
        }
        Err(e) => eprintln!("warning: could not serialize {name}: {e}"),
    }
}

/// Builds a compiled session for a workload at the bench scale.
pub fn session_for(w: Workload, seed: u64) -> Session {
    let net = w.network();
    let scene = w.scene_scaled(seed, bench_scale());
    Session::new(&net, scene.coords())
}

/// Builds a batch-2 training session for a workload.
pub fn train_session_for(w: Workload, seed: u64) -> Session {
    let net = w.network();
    let batch = w.batch_scaled(seed, bench_scale(), 2);
    Session::new(&net, batch.coords())
}

/// Prints a fixed-width table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let widths: Vec<usize> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| {
            rows.iter()
                .map(|r| r.get(i).map_or(0, String::len))
                .chain(std::iter::once(h.len()))
                .max()
                .unwrap_or(0)
        })
        .collect();
    let fmt_row = |cells: Vec<String>| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i] + 2))
            .collect::<String>()
    };
    println!(
        "{}",
        fmt_row(headers.iter().map(|s| s.to_string()).collect())
    );
    for r in rows {
        println!("{}", fmt_row(r.clone()));
    }
}

/// Prints a "paper vs measured" line for EXPERIMENTS.md cross-checking.
pub fn paper_check(what: &str, paper: &str, measured: &str) {
    println!("  [check] {what}: paper = {paper}, measured = {measured}");
}

/// Geometric mean of a slice (1.0 when empty).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_identity() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 1.0);
    }

    #[test]
    fn scale_defaults() {
        // Respect the env when unset.
        if std::env::var("TS_BENCH_SCALE").is_err() {
            assert!((bench_scale() - 0.35).abs() < 1e-6);
        }
    }
}
