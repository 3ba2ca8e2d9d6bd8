//! Replays the checked-in differential corpus under `tests/repros/`.
//!
//! Every file there is a [`ts_verify::Counterexample`] of one tier
//! (kernel, stream or train): either a seed conformance scenario or a
//! shrunken repro of a since-fixed bug. All must replay clean — a
//! failure here means the code under test regressed on a case the
//! harness has already seen.

use std::path::PathBuf;

fn repro_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("repros")
}

#[test]
fn corpus_replays_clean() {
    let results = ts_verify::replay_corpus(&repro_dir()).expect("corpus directory reads");
    assert!(!results.is_empty(), "corpus must not be empty");
    for r in &results {
        assert!(
            r.passed(),
            "{} regressed:\n{:#?}",
            r.path.display(),
            r.failures
        );
    }
}

#[test]
fn corpus_scenarios_exercise_degenerate_and_dense_shapes() {
    let results = ts_verify::replay_corpus(&repro_dir()).expect("corpus directory reads");
    let text = std::fs::read_dir(repro_dir())
        .expect("reads")
        .filter_map(|e| e.ok())
        .map(|e| std::fs::read_to_string(e.path()).expect("file reads"))
        .collect::<String>();
    // The seed corpus intentionally spans a single-point cloud, an
    // even-kernel line and a multi-batch grid; keep that coverage.
    assert!(results.len() >= 3, "seed corpus shrank below 3 scenarios");
    assert!(text.contains("\"kernel_size\": 2"), "even kernel coverage");
    assert!(text.contains("\"c_in\": 1"), "single-channel coverage");
}
