//! The differential engine: every dataflow × pass × precision against
//! the direct evaluation of Equation 1.
//!
//! Protocol: inputs are quantized onto the precision's representable
//! grid, both the dataflow under test and the reference compute in
//! `f32` (the functional path models tensor cores accumulating in
//! FP32), and outputs are quantized again before comparison. The
//! admissible difference is then an [`ErrorBudget`] — a couple of
//! storage ULPs plus a reassociation term scaled by the reduction depth
//! — so each precision gets its own derived tolerance instead of one
//! hard-coded epsilon.

use rand::Rng;
use serde::{Deserialize, Serialize};

use ts_dataflow::{ConvWeights, DataflowConfig, ExecCtx};
use ts_gpusim::Device;
use ts_kernelmap::{
    build_submanifold_map, check_map, unique_coords, Coord, KernelMap, KernelOffsets,
};
use ts_tensor::{rng_from_seed, uniform_matrix, ErrorBudget, Matrix, Precision};

use crate::{Shrinker, Tier};

/// One point of a scenario, in a named-field form that serializes to
/// self-describing JSON (`{"b":0,"x":1,...}`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReproCoord {
    /// Batch index.
    pub b: i32,
    /// Voxel x.
    pub x: i32,
    /// Voxel y.
    pub y: i32,
    /// Voxel z.
    pub z: i32,
}

impl From<Coord> for ReproCoord {
    fn from(c: Coord) -> Self {
        Self {
            b: c.batch,
            x: c.x,
            y: c.y,
            z: c.z,
        }
    }
}

impl From<ReproCoord> for Coord {
    fn from(c: ReproCoord) -> Self {
        Coord::new(c.b, c.x, c.y, c.z)
    }
}

/// A self-contained differential test case: enough to deterministically
/// rebuild the point cloud, features and weights, and rerun every
/// configured dataflow against the reference.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Seed for features and weights.
    pub seed: u64,
    /// The point cloud (deduplicated before use).
    pub coords: Vec<ReproCoord>,
    /// Input channels.
    pub c_in: usize,
    /// Output channels.
    pub c_out: usize,
    /// Cubic kernel size (1, 2 or 3).
    pub kernel_size: u32,
    /// Dataflow configs to test; empty means the full design space.
    pub configs: Vec<DataflowConfig>,
}

/// Which pass of the convolution mismatched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Pass {
    /// Forward (Equation 1).
    Forward,
    /// Input gradient.
    Dgrad,
    /// Weight gradient.
    Wgrad,
}

impl std::fmt::Display for Pass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Pass::Forward => write!(f, "fwd"),
            Pass::Dgrad => write!(f, "dgrad"),
            Pass::Wgrad => write!(f, "wgrad"),
        }
    }
}

/// One out-of-budget disagreement between a dataflow and the reference.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mismatch {
    /// The dataflow that disagreed.
    pub config: DataflowConfig,
    /// Which pass.
    pub pass: Pass,
    /// Storage precision under test.
    pub precision: Precision,
    /// Worst element's error divided by the budget (> 1.0 by definition).
    pub worst_normalized_error: f32,
    /// The relative tolerance the budget allowed.
    pub rel_tol: f32,
    /// Reference value at the worst element.
    pub expected: f32,
    /// Dataflow value at the worst element.
    pub actual: f32,
    /// Human-readable location of the worst element.
    pub location: String,
}

impl std::fmt::Display for Mismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} {} @ {}: mismatch at {} expected {} got {} ({}x over budget, rel_tol {})",
            self.config,
            self.pass,
            self.precision,
            self.location,
            self.expected,
            self.actual,
            self.worst_normalized_error,
            self.rel_tol
        )
    }
}

impl Scenario {
    /// The deduplicated coordinate list of this scenario.
    pub fn unique_coords(&self) -> Vec<Coord> {
        unique_coords(&self.coords.iter().map(|&c| c.into()).collect::<Vec<_>>())
    }

    /// The configs this scenario tests (the full design space with
    /// splits 0 through 4 plus both unfused variants when none are
    /// pinned).
    pub fn active_configs(&self) -> Vec<DataflowConfig> {
        if self.configs.is_empty() {
            all_configs()
        } else {
            self.configs.clone()
        }
    }
}

/// The complete dataflow list the harness exercises: the paper's full
/// space (fused families + implicit GEMM splits 0..=4) plus the unfused
/// gather-scatter and fetch-on-demand baselines.
pub fn all_configs() -> Vec<DataflowConfig> {
    let mut v = vec![
        DataflowConfig::gather_scatter(false),
        DataflowConfig::fetch_on_demand(false),
    ];
    v.extend(DataflowConfig::full_space(4));
    v
}

fn quantize_matrix(precision: Precision, m: &mut Matrix) {
    precision.quantize_slice(m.as_mut_slice());
}

fn quantize_weights(precision: Precision, w: &mut ConvWeights) {
    for k in 0..w.kernel_volume() {
        precision.quantize_slice(w.offset_mut(k).as_mut_slice());
    }
}

/// Compares two equally shaped matrices under `budget`, returning the
/// worst out-of-budget element (if any) as a partially filled
/// [`Mismatch`] (caller stamps config/pass/precision).
fn worst_mismatch(
    expected: &Matrix,
    actual: &Matrix,
    budget: &ErrorBudget,
    label: &str,
) -> Option<(f32, f32, f32, String)> {
    assert_eq!(expected.shape(), actual.shape(), "{label}: shape mismatch");
    let cols = expected.cols().max(1);
    let mut worst: Option<(f32, f32, f32, String)> = None;
    for (i, (&e, &a)) in expected
        .as_slice()
        .iter()
        .zip(actual.as_slice())
        .enumerate()
    {
        let err = budget.normalized_error(e, a);
        if err > 1.0 && worst.as_ref().is_none_or(|w| err > w.0) {
            worst = Some((err, e, a, format!("{label}[{}, {}]", i / cols, i % cols)));
        }
    }
    worst
}

/// Runs every configured dataflow × {fwd, dgrad, wgrad} × precision of
/// `scenario` against the reference, returning all out-of-budget
/// mismatches (empty = conformant).
fn run_scenario(scenario: &Scenario) -> Vec<Mismatch> {
    let coords = scenario.unique_coords();
    let offsets = KernelOffsets::cube(scenario.kernel_size.max(1));
    let map = build_submanifold_map(&coords, &offsets);
    let map_t = map.transposed();
    let c_in = scenario.c_in.max(1);
    let c_out = scenario.c_out.max(1);
    let configs = scenario.active_configs();
    let mut mismatches = Vec::new();

    for &precision in &Precision::ALL {
        // Same seed per precision: only the grid differs.
        let mut rng = rng_from_seed(scenario.seed);
        let mut x = uniform_matrix(&mut rng, map.n_in(), c_in, -1.0, 1.0);
        let mut w = ConvWeights::random(&mut rng, map.kernel_volume(), c_in, c_out);
        let mut dy = uniform_matrix(&mut rng, map.n_out(), c_out, -1.0, 1.0);
        quantize_matrix(precision, &mut x);
        quantize_weights(precision, &mut w);
        quantize_matrix(precision, &mut dy);

        let mut ref_fwd = ts_dataflow::reference_forward(&x, &w, &map);
        let mut ref_dx = ts_dataflow::reference_dgrad(&dy, &w, &map);
        let mut ref_dw = ts_dataflow::reference_wgrad(&x, &dy, &map);
        quantize_matrix(precision, &mut ref_fwd);
        quantize_matrix(precision, &mut ref_dx);
        quantize_weights(precision, &mut ref_dw);

        let fwd_budget = ErrorBudget::new(precision, c_in * map.kernel_volume());
        let dgrad_budget = ErrorBudget::new(precision, c_out * map.kernel_volume());
        let wgrad_depth = (0..map.kernel_volume())
            .map(|k| map.pairs(k).len())
            .max()
            .unwrap_or(1);
        let wgrad_budget = ErrorBudget::new(precision, wgrad_depth);

        let ctx = ExecCtx::functional(Device::rtx3090(), precision);
        for cfg in &configs {
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

            let out = ts_dataflow::forward(&x, &w, &map, cfg, &ctx);
            let mut y = out.features.expect("functional ctx returns features");
            quantize_matrix(precision, &mut y);
            record(
                Pass::Forward,
                &fwd_budget,
                worst_mismatch(&ref_fwd, &y, &fwd_budget, "y"),
            );

            let out = ts_dataflow::dgrad(&dy, &w, &map_t, cfg, &ctx);
            let mut dx = out.features.expect("functional ctx returns features");
            quantize_matrix(precision, &mut dx);
            record(
                Pass::Dgrad,
                &dgrad_budget,
                worst_mismatch(&ref_dx, &dx, &dgrad_budget, "dx"),
            );

            let out = ts_dataflow::wgrad(&x, &dy, &map, cfg, &ctx);
            let mut dw = out.dw.expect("functional ctx returns weight grads");
            quantize_weights(precision, &mut dw);
            let worst = (0..map.kernel_volume())
                .filter_map(|k| {
                    worst_mismatch(
                        ref_dw.offset(k),
                        dw.offset(k),
                        &wgrad_budget,
                        &format!("dw[{k}]"),
                    )
                })
                .max_by(|a, b| a.0.total_cmp(&b.0));
            record(Pass::Wgrad, &wgrad_budget, worst);
        }
    }
    mismatches
}

impl Tier for Scenario {
    type Mismatch = Mismatch;
    const NAME: &'static str = "fuzz";
    const REPRO_PREFIX: &'static str = "repro-seed-";
    const MARKER: Option<&'static str> = None;
    /// Each evaluation runs the full dataflow × pass × precision matrix;
    /// 300 minimize any scenario [`Tier::generate`] draws.
    const SHRINK_BUDGET: usize = 300;

    /// Scenarios are intentionally small (≤ 48 points, ≤ 8 channels):
    /// the differential matrix multiplies out to hundreds of executions
    /// per scenario, and conformance defects in index plumbing do not
    /// need large clouds to surface.
    fn generate(seed: u64) -> Self {
        let mut rng = rng_from_seed(seed ^ 0xD1FF_7C0D);
        let n: usize = rng.gen_range(1..=48);
        let batches: i32 = rng.gen_range(1..=2);
        let kernel_size: u32 = rng.gen_range(2..=3);
        let c_in: usize = rng.gen_range(1..=8);
        let c_out: usize = rng.gen_range(1..=8);
        let coords = (0..n)
            .map(|_| ReproCoord {
                b: rng.gen_range(0..batches),
                x: rng.gen_range(-6..=6),
                y: rng.gen_range(-6..=6),
                z: rng.gen_range(-2..=2),
            })
            .collect();
        Scenario {
            seed,
            coords,
            c_in,
            c_out,
            kernel_size,
            configs: Vec::new(),
        }
    }

    fn seed(&self) -> u64 {
        self.seed
    }

    fn run(&self) -> Vec<Mismatch> {
        run_scenario(self)
    }

    fn describe(&self) -> String {
        format!(
            "{} point(s), {}x{} channels, kernel {}",
            self.coords.len(),
            self.c_in,
            self.c_out,
            self.kernel_size
        )
    }

    /// Pins the failing config: every later evaluation then runs one
    /// dataflow instead of the full space.
    fn shrink_start(s: &mut Shrinker<Self>) {
        if let Some(config) = s.mismatches().first().map(|m| m.config) {
            s.edit(|t| {
                if t.configs.is_empty() {
                    t.configs = vec![config];
                }
            });
        }
    }

    /// Points, then each channel count ([`Shrinker::count`]), then the
    /// kernel (which drops whole offset planes).
    fn shrink_round(s: &mut Shrinker<Self>) -> bool {
        s.halve_then_drop(|t| &mut t.coords)
            | s.count(|t| &mut t.c_in)
            | s.count(|t| &mut t.c_out)
            | s.edit(|t| {
                if t.kernel_size > 1 {
                    t.kernel_size -= 1;
                }
            })
    }

    /// The oracle's mismatches, after the structural invariants of the
    /// scenario's kernel map and its transpose.
    fn replay(&self) -> Vec<String> {
        let offsets = KernelOffsets::cube(self.kernel_size.max(1));
        let map = build_submanifold_map(&self.unique_coords(), &offsets);
        let violations = |name: &str, map: &KernelMap| {
            check_map(map)
                .into_iter()
                .map(|v| format!("[scenario {name}] {v}"))
                .collect::<Vec<_>>()
        };
        let mut out = violations("map", &map);
        out.extend(violations("map_t", &map.transposed()));
        out.extend(self.run().iter().map(ToString::to_string));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_scenario(seed: u64, n: i32) -> Scenario {
        let coords = (0..n)
            .map(|i| ReproCoord {
                b: i % 2,
                x: i % 5,
                y: (i / 5) % 4,
                z: i / 20,
            })
            .collect();
        Scenario {
            seed,
            coords,
            c_in: 5,
            c_out: 7,
            kernel_size: 3,
            configs: Vec::new(),
        }
    }

    #[test]
    fn all_dataflows_conform_on_a_dense_grid() {
        // A replay checks the scenario's maps as well as the oracle.
        let failures = grid_scenario(42, 40).replay();
        assert!(failures.is_empty(), "unexpected failures: {failures:#?}");
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(Scenario::generate(123), Scenario::generate(123));
        assert_ne!(Scenario::generate(123), Scenario::generate(124));
    }

    #[test]
    fn generated_scenarios_are_well_formed() {
        for seed in 0..20 {
            let s = Scenario::generate(seed);
            assert!(!s.coords.is_empty());
            assert!((1..=8).contains(&s.c_in));
            assert!((1..=8).contains(&s.c_out));
            assert!((2..=3).contains(&s.kernel_size));
        }
    }

    #[test]
    fn clean_dataflows_survive_a_short_fuzz_burst() {
        let report = crate::fuzz::<Scenario>(0xBEEF, 4);
        assert_eq!(report.iterations, 4);
        assert!(
            report.counterexample.is_none(),
            "unexpected counterexample: {:#?}",
            report.counterexample
        );
    }

    #[test]
    fn empty_scenario_is_vacuously_conformant() {
        let s = Scenario {
            seed: 0,
            coords: Vec::new(),
            c_in: 4,
            c_out: 4,
            kernel_size: 3,
            configs: Vec::new(),
        };
        assert!(run_scenario(&s).is_empty());
    }

    #[test]
    fn single_point_single_channel_conforms() {
        let s = Scenario {
            seed: 9,
            coords: vec![ReproCoord {
                b: 0,
                x: 0,
                y: 0,
                z: 0,
            }],
            c_in: 1,
            c_out: 1,
            kernel_size: 3,
            configs: Vec::new(),
        };
        assert!(run_scenario(&s).is_empty());
    }

    #[test]
    fn scenario_json_round_trip() {
        let s = grid_scenario(7, 12);
        let json = serde_json::to_string(&s).expect("serializes");
        let back: Scenario = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(s, back);
    }

    #[test]
    fn duplicate_coords_are_deduped_not_fatal() {
        let mut s = grid_scenario(3, 10);
        let first = s.coords[0];
        s.coords.push(first);
        assert!(run_scenario(&s).is_empty());
    }
}
