//! The forward feature walk shared by the `serve` and `train` replays.
//!
//! `ts_core::run_network_in_session` and the forward half of
//! `ts_core::forward_backward` walk the network's nodes the same way;
//! this is one copy of that walk with every kernel and tensor call inside
//! its own span. Both replays compare their results with the program's
//! bit for bit, so the copy computes what the program computes. Its own
//! work — producer clones, concat, coordinate bookkeeping — is the
//! benchmark's copy of the program's, so `core.walk_self_ms` and
//! `core.copy_mb` describe this copy until spans move into the program.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use ts_core::{ConvSpec, GroupConfigs, Network, NetworkWeights, Op, Session};
use ts_dataflow::{forward_prepared, prepare, ExecCtx};
use ts_kernelmap::{Coord, KernelMap};
use ts_tensor::{batch_norm, relu, Matrix};

use crate::spans::Tracer;

/// Counts a replayed walk computes from tensor and map shapes.
#[derive(Default)]
pub struct WalkCounts {
    /// `prepare` calls (dgrad prepares its own plan, one per call).
    pub prepare_calls: u64,
    /// Distinct conv groups prepared for.
    pub groups: BTreeSet<usize>,
    /// Multiply-accumulates of the conv kernels.
    pub macs: u64,
    /// Bytes the conv kernels gather and scatter through their maps.
    pub map_io_bytes: u64,
    /// Feature bytes the walk itself clones or copies.
    pub copy_bytes: u64,
}

impl WalkCounts {
    /// Counts `passes` conv kernel passes over `map` (1 forward; dgrad
    /// and wgrad move the same pairs again).
    pub fn conv(&mut self, map: &KernelMap, spec: ConvSpec, group: usize, passes: u64) {
        self.prepare_calls += 1;
        self.groups.insert(group);
        self.macs += passes * map.total_pairs() * (spec.c_in * spec.c_out) as u64;
        self.map_io_bytes += passes
            * map.total_pairs()
            * ((spec.c_in + spec.c_out) * std::mem::size_of::<f32>()) as u64;
    }
}

/// Size of a feature matrix in bytes.
pub fn bytes(m: &Matrix) -> u64 {
    (m.rows() * m.cols() * std::mem::size_of::<f32>()) as u64
}

/// Every node's activation, in node order, for input features `input`.
/// Storage is rounded between layers when the context asks for it, as
/// `run_network_in_session` does; the training context never does.
pub fn forward(
    t: &Tracer,
    session: &Session,
    weights: &NetworkWeights,
    input: &Matrix,
    cfgs: &GroupConfigs,
    fctx: &ExecCtx,
    counts: &mut WalkCounts,
) -> Vec<Option<Matrix>> {
    let network = session.network();
    let mut feats: Vec<Option<Matrix>> = vec![None; network.nodes().len()];
    feats[0] = Some(input.clone());
    for (i, node) in network.nodes().iter().enumerate().skip(1) {
        let x = feats[node.input]
            .as_ref()
            .expect("producer already executed")
            .clone();
        counts.copy_bytes += bytes(&x);
        feats[i] = Some(match node.op {
            Op::Input => unreachable!("input node is always index 0"),
            Op::Conv(spec) => {
                let (map, _, group) = session.conv_maps(i).expect("conv node has a compiled map");
                let w = weights.convs[i].as_ref().expect("conv weights initialised");
                let cfg = cfgs.for_group(group);
                let prepared = t.span("dataflow", "prepare", || prepare(&map, &cfg, fctx));
                counts.conv(&map, spec, group, 1);
                let mut y = t
                    .span("dataflow", "forward_prepared", || {
                        forward_prepared(&x, w, &map, &prepared, &cfg, fctx)
                    })
                    .features
                    .expect("functional context computes features");
                if fctx.quantize_storage {
                    fctx.precision.quantize_slice(y.as_mut_slice());
                }
                y
            }
            Op::BatchNorm => {
                let mut y = x;
                let params = weights.bns[i].as_ref().expect("bn params initialised");
                t.span("tensor", "batch_norm", || batch_norm(&mut y, params));
                y
            }
            Op::ReLU => {
                let mut y = x;
                t.span("tensor", "relu", || relu(&mut y));
                y
            }
            Op::Add { other } => {
                let mut y = x;
                let o = feats[other].as_ref().expect("operand executed");
                t.span("tensor", "add_assign", || y.add_assign(o));
                y
            }
            Op::Concat { other } => {
                let o = feats[other].as_ref().expect("operand executed");
                let mut y = Matrix::zeros(x.rows(), x.cols() + o.cols());
                for r in 0..x.rows() {
                    let row = y.row_mut(r);
                    row[..x.cols()].copy_from_slice(x.row(r));
                    row[x.cols()..].copy_from_slice(o.row(r));
                }
                counts.copy_bytes += bytes(&y);
                y
            }
        });
    }
    feats
}

/// Coordinates of the network's output for `input` coordinates: the
/// bookkeeping `run_network_in_session` does beside its walk (a strided
/// conv downsamples, a transposed conv returns to the coordinates first
/// seen at its stride, every other node keeps its input's).
pub fn output_coords(network: &Network, input: &[Coord]) -> Vec<Coord> {
    let n = network.nodes().len();
    let mut coords: Vec<Option<Arc<Vec<Coord>>>> = vec![None; n];
    let mut at_stride: BTreeMap<i32, Arc<Vec<Coord>>> = BTreeMap::new();
    let input = Arc::new(input.to_vec());
    coords[0] = Some(Arc::clone(&input));
    at_stride.insert(1, input);
    for (i, node) in network.nodes().iter().enumerate().skip(1) {
        let in_coords = Arc::clone(coords[node.input].as_ref().expect("coords known"));
        coords[i] = Some(match node.op {
            Op::Conv(spec) => {
                let out = if spec.transposed {
                    Arc::clone(
                        at_stride
                            .get(&network.stride(i))
                            .expect("transposed conv target coords seen"),
                    )
                } else if spec.stride > 1 {
                    Arc::new(ts_kernelmap::downsample_coords(&in_coords, spec.stride))
                } else {
                    in_coords
                };
                at_stride.insert(network.stride(i), Arc::clone(&out));
                out
            }
            _ => in_coords,
        });
    }
    coords[network.output()]
        .take()
        .expect("output coords known")
        .as_ref()
        .clone()
}
