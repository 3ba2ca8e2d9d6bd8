//! Differential conformance harness for the TorchSparse++ reproduction.
//!
//! The paper's correctness promise is that every dataflow the autotuner
//! may pick computes the *same* convolution as Equation 1 — forward,
//! dgrad and wgrad, at every precision. This crate makes that promise
//! checkable in three tiers, each a [`Tier`] impl:
//!
//! * **Kernel** ([`Scenario`]) — every dataflow × {fwd, dgrad, wgrad} ×
//!   {FP16, TF32, FP32} against `ts_dataflow::reference`, with
//!   per-precision ULP-aware [`ts_tensor::ErrorBudget`]s instead of one
//!   hard-coded epsilon.
//! * **Stream** ([`StreamScenario`]) — frame-delta sequences replayed
//!   through the incremental kernel-map engine
//!   ([`ts_kernelmap::IncrementalMap`]) and compared structurally
//!   against from-scratch rebuilds after every frame.
//! * **Train** ([`TrainScenario`]) — whole training steps (forward +
//!   loss + dgrad + wgrad + micro-batch gradient accumulation) through
//!   `ts_core::forward_backward_micro` on a compiled session, every
//!   dataflow × precision against the full-batch
//!   `ts_dataflow::reference` step.
//!
//! One loop serves all three: [`fuzz`] draws seeded scenarios and stops
//! at the first failure, [`shrink`] minimizes it under the tier's
//! evaluation budget with the tier's shrink round (drop points, frames
//! or micro-batches, shrink channel counts, shrink the kernel, pin the
//! config), [`write_repro`] saves it as a JSON [`Counterexample`] for
//! `tests/repros/`, and [`replay_corpus`] replays every checked-in
//! repro through the tier its fields name. A kernel-tier replay also
//! runs `ts_kernelmap::check_map` on the scenario's map and its
//! transpose. The engine runs its own structural checks where they
//! guard it: `Engine::compile` and `compile_stream` check every map (and
//! the patched split plan) in debug builds, and `Engine::new`
//! validates every config slot of the schedule it is given.
//!
//! The `verify` binary drives them: `--corpus` replays checked-in
//! repros (CI gate, every tier), `--fuzz --seed S --iters N` fuzzes the
//! kernel tier, `--stream` the stream tier, `--train` the train tier,
//! and `--mutation-smoke` (with the `mutate` feature) proves the
//! harness catches deliberately broken forward *and* wgrad dataflows.
//!
//! # Examples
//!
//! ```
//! use ts_verify::{ReproCoord, Scenario, Tier};
//!
//! let scenario = Scenario {
//!     seed: 7,
//!     coords: (0..10).map(|i| ReproCoord { b: 0, x: i, y: 0, z: 0 }).collect(),
//!     c_in: 4,
//!     c_out: 4,
//!     kernel_size: 3,
//!     configs: Vec::new(), // full design space
//! };
//! assert!(scenario.run().is_empty(), "all dataflows conform");
//! ```

#![forbid(unsafe_code)]

mod differential;
mod fuzz;
mod stream;
mod train;

pub use differential::{all_configs, Mismatch, Pass, ReproCoord, Scenario};
pub use fuzz::{
    fuzz, replay_corpus, shrink, write_repro, CorpusResult, Counterexample, FuzzReport, Shrinker,
    Tier,
};
pub use stream::{FrameOps, StreamMismatch, StreamScenario};
pub use train::TrainScenario;
