//! Training-grade conformance: whole training steps against the
//! reference.
//!
//! Where the differential engine checks each pass in isolation, this
//! mode runs the *fused step pipeline* — forward → loss → dgrad →
//! wgrad with gradient accumulation over micro-batches — through
//! `ts_core::forward_backward_micro` on a compiled session, for every
//! dataflow × precision, and compares the accumulated loss, weight
//! gradients and input gradient against a hand-rolled reference built
//! from `ts_dataflow::reference_*` over the full batch.
//!
//! The micro-batch protocol is the one `ts_train::Trainer` runs: the
//! batch indices present are partitioned into contiguous chunks, each
//! chunk's rows are walked through the session restricted to them, and
//! per-chunk gradients are summed. Sparse convolution never crosses
//! batch boundaries and every other layer is row-wise, so the
//! accumulated gradient must equal the full-batch reference up to
//! floating-point reassociation — an
//! [`ErrorBudget`](ts_tensor::ErrorBudget) scaled by the reduction
//! depth, never a hard-coded epsilon.

use rand::Rng;
use serde::{Deserialize, Serialize};

use ts_core::{NetworkBuilder, Session, SparseTensor, TrainConfigs};
use ts_dataflow::{ConvWeights, DataflowConfig, ExecCtx};
use ts_gpusim::Device;
use ts_kernelmap::{build_submanifold_map, Coord, KernelOffsets};
use ts_tensor::{relu, relu_backward, rng_from_seed, uniform_matrix, ErrorBudget, Precision};

use crate::{all_configs, Mismatch, Pass, ReproCoord, Scenario, Shrinker, Tier};

/// A self-contained training-step test case: a two-conv ReLU network,
/// deterministic features and weights, and a micro-batch count. The
/// `micro_batches` field doubles as the corpus dispatch key — training
/// repros are recognized by its presence.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainScenario {
    /// Seed for features and weights.
    pub seed: u64,
    /// The point cloud (deduplicated before use).
    pub coords: Vec<ReproCoord>,
    /// Input channels.
    pub c_in: usize,
    /// Hidden channels between the two convolutions.
    pub c_mid: usize,
    /// Output channels.
    pub c_out: usize,
    /// Cubic kernel size of both convolutions.
    pub kernel_size: u32,
    /// Micro-batches the step's gradient is accumulated over.
    pub micro_batches: usize,
    /// Dataflow configs to test; empty means the full design space.
    pub configs: Vec<DataflowConfig>,
}

impl TrainScenario {
    /// The deduplicated coordinate list of this scenario.
    pub fn unique_coords(&self) -> Vec<Coord> {
        Scenario {
            seed: self.seed,
            coords: self.coords.clone(),
            c_in: self.c_in,
            c_out: self.c_out,
            kernel_size: self.kernel_size,
            configs: Vec::new(),
        }
        .unique_coords()
    }

    /// The configs this scenario tests (the full design space when none
    /// are pinned).
    pub fn active_configs(&self) -> Vec<DataflowConfig> {
        if self.configs.is_empty() {
            all_configs()
        } else {
            self.configs.clone()
        }
    }
}

/// Worst out-of-budget element of two equally long slices.
fn worst(
    expected: &[f32],
    actual: &[f32],
    budget: &ErrorBudget,
    label: &str,
    cols: usize,
) -> Option<(f32, f32, f32, String)> {
    assert_eq!(expected.len(), actual.len(), "{label}: shape mismatch");
    let cols = cols.max(1);
    let mut out: Option<(f32, f32, f32, String)> = None;
    for (i, (&e, &a)) in expected.iter().zip(actual).enumerate() {
        let err = budget.normalized_error(e, a);
        if err > 1.0 && out.as_ref().is_none_or(|w| err > w.0) {
            out = Some((err, e, a, format!("{label}[{}, {}]", i / cols, i % cols)));
        }
    }
    out
}

/// Runs the whole training step of `scenario` — forward, loss, dgrad,
/// wgrad, micro-batch accumulation — for every configured dataflow ×
/// precision against the full-batch reference, returning all
/// out-of-budget mismatches (empty = conformant).
///
/// Inputs are quantized onto each precision's grid; both sides then
/// compute in `f32` (the functional path models FP32 accumulation), so
/// the admissible difference is reassociation scaled by the reduction
/// depth plus the micro-batch accumulation.
fn run_train_scenario(scenario: &TrainScenario) -> Vec<Mismatch> {
    let coords = scenario.unique_coords();
    if coords.is_empty() {
        return Vec::new();
    }
    let c_in = scenario.c_in.max(1);
    let c_mid = scenario.c_mid.max(1);
    let c_out = scenario.c_out.max(1);
    let ks = scenario.kernel_size.max(1);

    let mut b = NetworkBuilder::new("train-scenario", c_in);
    let conv1 = b.conv("conv1", NetworkBuilder::INPUT, c_mid, ks, 1);
    let act = b.relu("relu1", conv1);
    let conv2 = b.conv("conv2", act, c_out, ks, 1);
    let net = b.build();
    let session = Session::try_new(&net, &coords).expect("deduplicated coords compile");

    let offsets = KernelOffsets::cube(ks);
    let map = build_submanifold_map(&coords, &offsets);
    let kvol = map.kernel_volume();

    let configs = scenario.active_configs();
    let mut mismatches = Vec::new();

    for &precision in &Precision::ALL {
        let mut rng = rng_from_seed(scenario.seed);
        let mut x = uniform_matrix(&mut rng, coords.len(), c_in, -1.0, 1.0);
        let mut w1 = ConvWeights::random(&mut rng, kvol, c_in, c_mid);
        let mut w2 = ConvWeights::random(&mut rng, kvol, c_mid, c_out);
        precision.quantize_slice(x.as_mut_slice());
        for w in [&mut w1, &mut w2] {
            for kk in 0..kvol {
                precision.quantize_slice(w.offset_mut(kk).as_mut_slice());
            }
        }

        // Full-batch reference from Equation 1 and its adjoints.
        let y1 = ts_dataflow::reference_forward(&x, &w1, &map);
        let mut a1 = y1.clone();
        relu(&mut a1);
        let y2 = ts_dataflow::reference_forward(&a1, &w2, &map);
        let ref_loss = 0.5 * y2.as_slice().iter().map(|v| v * v).sum::<f32>();
        let dy2 = y2;
        let ref_dw2 = ts_dataflow::reference_wgrad(&a1, &dy2, &map);
        let mut dy1 = ts_dataflow::reference_dgrad(&dy2, &w2, &map);
        relu_backward(&mut dy1, &y1);
        let ref_dw1 = ts_dataflow::reference_wgrad(&x, &dy1, &map);
        let ref_dx = ts_dataflow::reference_dgrad(&dy1, &w1, &map);

        let max_pairs = (0..kvol).map(|kk| map.pairs(kk).len()).max().unwrap_or(1);
        let mut weights = net.init_weights(scenario.seed);
        weights.convs[conv1] = Some(w1.clone());
        weights.convs[conv2] = Some(w2.clone());

        let ctx = ExecCtx::functional(Device::rtx3090(), precision);
        let input = SparseTensor::new(coords.clone(), x);
        for cfg in &configs {
            let cfgs = TrainConfigs::bound(*cfg);

            let (bw, split) = ts_core::forward_backward_micro(
                &weights,
                &session,
                &input,
                &cfgs,
                &ctx,
                None,
                scenario.micro_batches,
            );
            let dw1 = bw.grads[conv1].as_ref().expect("conv1 gradient");
            let dw2 = bw.grads[conv2].as_ref().expect("conv2 gradient");
            let dx = bw.input_grad.expect("input gradient");

            // Budgets: the deepest reduction feeding each compared value,
            // plus the micro-batch accumulation depth.
            let wgrad_budget = ErrorBudget::new(precision, max_pairs + split.k);
            let dgrad_budget = ErrorBudget::new(precision, (c_mid + c_out) * kvol + split.k);
            let loss_budget =
                ErrorBudget::new(precision, coords.len() * c_out + (c_mid + c_in) * kvol);

            let mut record =
                |pass: Pass, budget: &ErrorBudget, found: Option<(f32, f32, f32, String)>| {
                    if let Some((err, expected, actual, location)) = found {
                        mismatches.push(Mismatch {
                            config: *cfg,
                            pass,
                            precision,
                            worst_normalized_error: err,
                            rel_tol: budget.rel_tol(),
                            expected,
                            actual,
                            location,
                        });
                    }
                };

            record(
                Pass::Forward,
                &loss_budget,
                worst(&[ref_loss], &[bw.loss], &loss_budget, "loss", 1),
            );
            record(
                Pass::Dgrad,
                &dgrad_budget,
                worst(ref_dx.as_slice(), dx.as_slice(), &dgrad_budget, "dx", c_in),
            );
            for (label, reference, actual) in [("dw1", &ref_dw1, dw1), ("dw2", &ref_dw2, dw2)] {
                let found = (0..kvol)
                    .filter_map(|kk| {
                        worst(
                            reference.offset(kk).as_slice(),
                            actual.offset(kk).as_slice(),
                            &wgrad_budget,
                            &format!("{label}[{kk}]"),
                            reference.offset(kk).cols(),
                        )
                    })
                    .max_by(|a, b| a.0.total_cmp(&b.0));
                record(Pass::Wgrad, &wgrad_budget, found);
            }
        }
    }
    mismatches
}

impl Tier for TrainScenario {
    type Mismatch = Mismatch;
    const NAME: &'static str = "train";
    const REPRO_PREFIX: &'static str = "repro-train-seed-";
    const MARKER: Option<&'static str> = Some("micro_batches");
    /// Each evaluation replays the full dataflow × precision ×
    /// micro-batch matrix.
    const SHRINK_BUDGET: usize = 300;

    /// Scenarios are small (≤ 32 points, ≤ 6 channels, ≤ 3 batches):
    /// the matrix multiplies out to hundreds of whole training steps per
    /// scenario.
    fn generate(seed: u64) -> Self {
        let mut rng = rng_from_seed(seed ^ 0x7EA1_7A1D);
        let n: usize = rng.gen_range(1..=32);
        let batches: i32 = rng.gen_range(1..=3);
        let coords = (0..n)
            .map(|_| ReproCoord {
                b: rng.gen_range(0..batches),
                x: rng.gen_range(-5..=5),
                y: rng.gen_range(-5..=5),
                z: rng.gen_range(-2..=2),
            })
            .collect();
        TrainScenario {
            seed,
            coords,
            c_in: rng.gen_range(1..=6),
            c_mid: rng.gen_range(1..=6),
            c_out: rng.gen_range(1..=6),
            kernel_size: rng.gen_range(2..=3),
            micro_batches: rng.gen_range(1..=3),
            configs: Vec::new(),
        }
    }

    fn seed(&self) -> u64 {
        self.seed
    }

    fn run(&self) -> Vec<Mismatch> {
        run_train_scenario(self)
    }

    fn describe(&self) -> String {
        format!(
            "{} point(s), {}x{}x{} channels, kernel {}, {} micro-batch(es)",
            self.coords.len(),
            self.c_in,
            self.c_mid,
            self.c_out,
            self.kernel_size,
            self.micro_batches
        )
    }

    /// Pins the failing config.
    fn shrink_start(s: &mut Shrinker<Self>) {
        if let Some(config) = s.mismatches().first().map(|m| m.config) {
            s.edit(|t| {
                if t.configs.is_empty() {
                    t.configs = vec![config];
                }
            });
        }
    }

    /// Fewer micro-batches first: a one-chunk repro rules out the
    /// accumulation plumbing as the culprit. Then points, each channel
    /// count ([`Shrinker::count`]) and the kernel.
    fn shrink_round(s: &mut Shrinker<Self>) -> bool {
        let mut adopted = false;
        while s.edit(|t| {
            if t.micro_batches > 1 {
                t.micro_batches -= 1;
            }
        }) {
            adopted = true;
        }
        adopted |= s.halve_then_drop(|t| &mut t.coords);
        adopted
            | s.count(|t| &mut t.c_in)
            | s.count(|t| &mut t.c_mid)
            | s.count(|t| &mut t.c_out)
            | s.edit(|t| {
                if t.kernel_size > 1 {
                    t.kernel_size -= 1;
                }
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(TrainScenario::generate(5), TrainScenario::generate(5));
        assert_ne!(TrainScenario::generate(5), TrainScenario::generate(6));
    }

    #[test]
    fn generated_train_scenarios_are_well_formed() {
        for seed in 0..20 {
            let s = TrainScenario::generate(seed);
            assert!(!s.coords.is_empty());
            assert!((1..=6).contains(&s.c_in));
            assert!((1..=6).contains(&s.c_mid));
            assert!((1..=6).contains(&s.c_out));
            assert!((2..=3).contains(&s.kernel_size));
            assert!((1..=3).contains(&s.micro_batches));
        }
    }

    #[test]
    fn clean_pipeline_survives_a_short_train_fuzz_burst() {
        let report = crate::fuzz::<TrainScenario>(0x7EA1, 2);
        assert_eq!(report.iterations, 2);
        assert!(
            report.counterexample.is_none(),
            "unexpected counterexample: {:#?}",
            report.counterexample
        );
    }

    #[test]
    fn micro_batched_step_matches_full_batch_reference() {
        // Three batches accumulated in three chunks against the
        // full-batch reference: the accumulation identity itself.
        let mut s = TrainScenario::generate(0xACC);
        s.micro_batches = 3;
        let mismatches = run_train_scenario(&s);
        assert!(mismatches.is_empty(), "{mismatches:#?}");
    }

    #[test]
    fn empty_scenario_is_vacuously_conformant() {
        let s = TrainScenario {
            seed: 0,
            coords: Vec::new(),
            c_in: 2,
            c_mid: 2,
            c_out: 2,
            kernel_size: 3,
            micro_batches: 2,
            configs: Vec::new(),
        };
        assert!(run_train_scenario(&s).is_empty());
    }
}
