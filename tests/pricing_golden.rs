//! Integration: the simulated price of a pass is pinned to the bit.
//!
//! For two workloads on two devices this records, as `f64::to_bits`,
//! every `simulate_inference` / `simulate_training` total and timing
//! (plus a digest of the kernel trace in recording order), both
//! elementwise residuals, every group contribution, and one cold
//! inference tune plus one training tune. The lines are compared with
//! the checked-in `tests/golden/pricing.json`; regenerate it with
//! `TS_UPDATE_GOLDEN=1 cargo test -q --test pricing_golden` only when a
//! change is meant to move the simulated numbers.

use std::fmt::Display;
use std::path::PathBuf;

use torchsparse::autotune::{default_scheme_for, tune_inference, tune_training, TunerOptions};
use torchsparse::core::{GroupConfigs, RunReport, Session, TrainConfigs};
use torchsparse::dataflow::{DataflowConfig, ExecCtx};
use torchsparse::gpusim::Device;
use torchsparse::tensor::Precision;
use torchsparse::workloads::Workload;

/// The fingerprint: one line per pinned number, floats as
/// `key hex-bits value`.
#[derive(Default)]
struct Fingerprint(Vec<String>);

impl Fingerprint {
    fn pin(&mut self, key: impl Display, v: f64) {
        self.0.push(format!("{key} {:016x} {v}", v.to_bits()));
    }

    /// A report's total, its kernel count and trace digest (FNV-1a over
    /// every kernel's name and time bits, in recording order), and every
    /// timing entry.
    fn report(&mut self, key: impl Display, report: &RunReport) {
        self.pin(format_args!("{key}.total"), report.total_us());
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for e in report.trace().entries() {
            let bits = e.time_us.to_bits().to_le_bytes();
            for &b in e.desc.name.as_bytes().iter().chain(&bits) {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        let n = report.trace().entries().len();
        self.0
            .push(format!("{key}.trace {n} kernels digest {h:016x}"));
        for (i, t) in report.timings().iter().enumerate() {
            self.pin(format_args!("{key}.timing[{i}] {}", t.name), t.time_us);
        }
    }
}

/// Training tables that exercise every backward-preparation branch:
/// all bound, wgrad decoupled from both others, wgrad equal to forward
/// only.
fn train_cases(space: &[DataflowConfig], n_groups: usize) -> Vec<(&'static str, TrainConfigs)> {
    let pick = |g: usize, shift: usize| space[(g + shift) % space.len()];
    let mut decoupled = TrainConfigs::bound(space[0]);
    let mut w_is_fwd = TrainConfigs::bound(space[0]);
    for g in 0..n_groups {
        decoupled.fwd.set(g, pick(g, 0));
        decoupled.dgrad.set(g, pick(g, 1));
        decoupled.wgrad.set(g, pick(g, 2));
        w_is_fwd.fwd.set(g, pick(g, 3));
        w_is_fwd.dgrad.set(g, pick(g, 4));
        w_is_fwd.wgrad.set(g, pick(g, 3));
    }
    let bound = TrainConfigs::bound(DataflowConfig::implicit_gemm(1));
    vec![
        ("bound", bound),
        ("decoupled", decoupled),
        ("w_is_fwd", w_is_fwd),
    ]
}

fn fingerprint() -> Vec<String> {
    let space = DataflowConfig::full_space(4);
    let mut fp = Fingerprint::default();
    for (wname, workload, seed) in [
        ("ns-m1f", Workload::NuScenesMinkUNet1f, 3u64),
        ("wm-c1f", Workload::WaymoCenterPoint1f, 7u64),
    ] {
        let net = workload.network();
        let scene = workload.scene_scaled(seed, 0.3);
        for (dname, device) in [("a100", Device::a100()), ("2080ti", Device::rtx2080ti())] {
            let ctx = ExecCtx::simulate(device.clone(), Precision::Fp16);
            let s = Session::new(&net, scene.coords());
            let n_groups = s.groups().len();
            let k = format!("{wname}/{dname}");
            fp.0.push(format!("{k} groups {n_groups}"));

            let mut per_group = GroupConfigs::uniform(DataflowConfig::implicit_gemm(1));
            for g in 0..n_groups {
                per_group.set(g, space[(3 * g) % space.len()]);
            }
            fp.report(
                format!("{k}/inference"),
                &s.simulate_inference(&per_group, &ctx),
            );
            let cases = train_cases(&space, n_groups);
            for (cname, cfgs) in &cases {
                fp.report(
                    format!("{k}/training[{cname}]"),
                    &s.simulate_training(cfgs, &ctx),
                );
            }

            fp.pin(
                format!("{k}/inference_residual"),
                s.inference_residual_us(&ctx),
            );
            fp.pin(
                format!("{k}/training_residual"),
                s.training_residual_us(&ctx),
            );
            for g in 0..n_groups {
                for (ci, cand) in space.iter().enumerate() {
                    let us = s.group_inference_us(g, cand, &ctx);
                    fp.pin(format!("{k}/group[{g}].inference[{ci}]"), us);
                }
                for (cname, c) in &cases {
                    let [f, d, w] = c.for_group(g);
                    let us = s.group_training_us(g, &f, &d, &w, &ctx);
                    fp.pin(format!("{k}/group[{g}].training[{cname}]"), us);
                }
            }

            let opts = TunerOptions::default();
            let inf = tune_inference(std::slice::from_ref(&s), &ctx, &opts);
            fp.pin(
                format!("{k}/tune_inference.default"),
                inf.default_latency_us,
            );
            fp.pin(format!("{k}/tune_inference.tuned"), inf.tuned_latency_us);
            fp.0.push(format!(
                "{k}/tune_inference.evaluations {}",
                inf.evaluations
            ));
            for (g, (key, cfg)) in inf.per_group_choice.iter().enumerate() {
                fp.0.push(format!("{k}/tune_inference.choice[{g}] {key:?} {cfg:?}"));
            }

            let scheme = default_scheme_for(&device);
            let tr = tune_training(std::slice::from_ref(&s), &ctx, &opts, scheme);
            fp.0.push(format!("{k}/tune_training.scheme {}", scheme.name()));
            fp.pin(format!("{k}/tune_training.default"), tr.default_latency_us);
            fp.pin(format!("{k}/tune_training.tuned"), tr.tuned_latency_us);
            fp.0.push(format!("{k}/tune_training.evaluations {}", tr.evaluations));
            let c = &tr.configs;
            for g in 0..n_groups {
                let [f, d, w] = c.for_group(g);
                let choice = format!("fwd {f:?} dgrad {d:?} wgrad {w:?}");
                fp.0.push(format!("{k}/tune_training.choice[{g}] {choice}"));
            }
        }
    }
    fp.0
}

#[test]
fn pricing_is_bit_identical_to_golden() {
    let lines = fingerprint();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("pricing.json");
    if std::env::var("TS_UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("golden dir");
        let json = serde_json::to_string_pretty(&lines).expect("serializes");
        std::fs::write(&path, json).expect("writes golden");
        return;
    }
    let text = std::fs::read_to_string(&path)
        .expect("golden file missing: regenerate with TS_UPDATE_GOLDEN=1");
    let golden: Vec<String> = serde_json::from_str(&text).expect("golden parses");
    for (i, (g, l)) in golden.iter().zip(&lines).enumerate() {
        assert_eq!(g, l, "pricing line {i} drifted from golden");
    }
    assert_eq!(golden.len(), lines.len(), "pricing line count drifted");
}
