//! Differential conformance harness for the TorchSparse++ reproduction.
//!
//! The paper's correctness promise is that every dataflow the autotuner
//! may pick computes the *same* convolution as Equation 1 — forward,
//! dgrad and wgrad, at every precision. This crate makes that promise
//! checkable as a subsystem instead of scattered per-crate assertions:
//!
//! * **Invariant checker** ([`check_kernel_map`], [`check_coords`],
//!   [`check_schedule`], ...) — reusable validation passes producing
//!   typed [`Violation`] reports. The same underlying checks run from
//!   `Engine::compile` debug assertions and `load_schedule_lenient`
//!   sanitization, so the pass is load-bearing in the engine, not just
//!   in tests.
//! * **Differential engine** ([`run_scenario`]) — every dataflow ×
//!   {fwd, dgrad, wgrad} × {FP16, TF32, FP32} against
//!   `ts_dataflow::reference`, with per-precision ULP-aware
//!   [`ts_tensor::ErrorBudget`]s instead of one hard-coded epsilon.
//! * **Seeded fuzzer with shrinking** ([`fuzz`]) — random scenarios;
//!   on failure the scenario is minimized (drop points, collapse
//!   channels, shrink the kernel, pin the config) and serialized as a
//!   JSON [`Counterexample`] for `tests/repros/`.
//! * **Temporal stream mode** ([`fuzz_stream`], [`run_stream_scenario`])
//!   — frame-delta sequences replayed through the incremental
//!   kernel-map engine ([`ts_kernelmap::IncrementalMap`]) and compared
//!   structurally against from-scratch rebuilds after every frame;
//!   failures shrink to a minimal frame sequence first.
//! * **Training mode** ([`fuzz_train`], [`run_train_scenario`]) —
//!   whole training steps (forward + loss + dgrad + wgrad + micro-batch
//!   gradient accumulation) through `ts_core::forward_backward` on a
//!   compiled session, every dataflow × precision against the
//!   full-batch `ts_dataflow::reference` step; failures shrink the
//!   micro-batch count first, then the scenario.
//!
//! The `verify` binary drives all of them: `--corpus` replays
//! checked-in repros (CI gate, all scenario kinds), `--fuzz --seed S
//! --iters N` hunts for new differential counterexamples, `--stream`
//! does the same for frame-delta sequences, `--train` for whole
//! training steps, and `--mutation-smoke` (with the `mutate` feature)
//! proves the harness catches deliberately broken forward *and* wgrad
//! dataflows.
//!
//! # Examples
//!
//! ```
//! use ts_verify::{run_scenario, ReproCoord, Scenario};
//!
//! let scenario = Scenario {
//!     seed: 7,
//!     coords: (0..10).map(|i| ReproCoord { b: 0, x: i, y: 0, z: 0 }).collect(),
//!     c_in: 4,
//!     c_out: 4,
//!     kernel_size: 3,
//!     configs: Vec::new(), // full design space
//! };
//! assert!(run_scenario(&scenario).is_empty(), "all dataflows conform");
//! ```

#![forbid(unsafe_code)]

mod differential;
mod fuzz;
mod invariants;
mod stream;
mod train;
mod violation;

pub use differential::{
    all_configs, check_scenario_maps, max_fan_in, run_scenario, Mismatch, Pass, ReproCoord,
    Scenario,
};
pub use fuzz::{
    fuzz, generate_scenario, replay_corpus, shrink, write_repro, CorpusResult, Counterexample,
    FuzzReport,
};
pub use stream::{
    fuzz_stream, generate_stream_scenario, run_stream_scenario, shrink_stream, write_stream_repro,
    FrameOps, StreamCounterexample, StreamFuzzReport, StreamMismatch, StreamScenario,
};
pub use train::{
    fuzz_train, generate_train_scenario, run_train_scenario, shrink_train, write_train_repro,
    TrainCounterexample, TrainFuzzReport, TrainScenario,
};

pub use invariants::{
    check_coords, check_group_configs, check_kernel_map, check_network, check_schedule,
    check_session, check_sparse_tensor, check_split_plan, TILE_GRANULARITY,
};
pub use violation::{Severity, Violation};
