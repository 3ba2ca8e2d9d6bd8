//! Streaming compilation with temporal kernel-map reuse.
//!
//! Consecutive frames of a coherent stream (a driving LiDAR sweep, or
//! the sliding batch window of a training run) differ by a small voxel
//! delta, yet [`Engine::try_infer`] rebuilds every kernel map from
//! scratch per frame. [`compile_stream`] instead threads a
//! [`StreamState`] across frames: the stride-1 submanifold map is
//! patched incrementally ([`ts_kernelmap::IncrementalMap`]) and shared
//! with every frame's session, the seeding one included, so the
//! simulated mapping cost shrinks to the delta while the computed
//! features stay bit-identical per coordinate to the from-scratch path.
//! [`Engine::infer_stream`] and `ts_train::Trainer::step` both compile
//! through it.

use std::borrow::Cow;
use std::sync::Arc;

use ts_kernelmap::{
    Coord, CoordHashMap, DeltaConfig, IncrementalMap, KernelOffsets, MapStats, MapUpdate,
    UpdateOutcome,
};
use ts_tensor::Matrix;

use crate::run::{check_input, run_network_in_session};
use crate::session::SubmanifoldReuse;
use crate::{CompileError, Engine, Network, Op, RunReport, Session, SparseTensor};

/// Per-stream temporal state: the incrementally maintained stride-1
/// submanifold map plus reuse accounting.
///
/// Created by the first [`compile_stream`] call on a stream and
/// threaded (by the caller) through every subsequent frame. Dropping it
/// — or passing `None` again — costs nothing but a full rebuild on the
/// next frame, which is exactly how caches are invalidated.
#[derive(Debug, Clone)]
pub struct StreamState {
    inc: IncrementalMap,
    frames: u64,
    patched: u64,
    rebuilt: u64,
}

impl StreamState {
    /// Seeds a state from a frame; also returns the initial build's work.
    fn new(coords: &[Coord], kernel_size: u32) -> (Self, MapStats) {
        let offsets = KernelOffsets::cube(kernel_size);
        // Sessions prepare their own split plans; the state's is never
        // read here, so any split count does.
        let (inc, stats) = IncrementalMap::with_stats(coords, offsets, 1);
        let state = Self {
            inc,
            frames: 1,
            patched: 0,
            rebuilt: 1,
        };
        (state, stats)
    }

    /// The current frame's coordinates in the state's canonical order
    /// (survivors first, entered coordinates appended).
    pub fn coords(&self) -> &[Coord] {
        self.inc.coords()
    }

    /// Kernel size of the maintained submanifold map.
    pub fn kernel_size(&self) -> u32 {
        self.inc.offsets().kernel_size()
    }

    /// Frames serviced through this state (including the seeding frame).
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Frames serviced by an in-place patch.
    pub fn patched(&self) -> u64 {
        self.patched
    }

    /// Frames serviced by a full rebuild (including the seeding frame).
    pub fn rebuilt(&self) -> u64 {
        self.rebuilt
    }
}

/// Gathers `input`'s feature rows into `coords` order (the stream
/// state's canonical order). Point-wise layers and per-output conv
/// accumulation are permutation-equivariant, so features stay
/// bit-identical per coordinate.
///
/// # Panics
///
/// Panics if `coords` contains a coordinate absent from `input`.
pub fn permute_to(input: &SparseTensor, coords: &[Coord]) -> SparseTensor {
    if input.coords() == coords {
        return input.clone();
    }
    let mut table = CoordHashMap::with_capacity(input.num_points());
    for (i, c) in input.coords().iter().enumerate() {
        table.insert(c.key(), i as i32);
    }
    let mut feats = Matrix::zeros(coords.len(), input.channels());
    for (r, c) in coords.iter().enumerate() {
        let src = table
            .get(c.key())
            .expect("stream state coords match the frame") as usize;
        feats.row_mut(r).copy_from_slice(input.feats().row(src));
    }
    SparseTensor::new(coords.to_vec(), feats)
}

/// Kernel size of the network's stride-1 submanifold group, if it has
/// one eligible for incremental maintenance (odd kernel, larger than
/// 1x1x1, consuming the input-resolution coordinates).
fn stream_kernel_size(net: &Network) -> Option<u32> {
    net.nodes().iter().skip(1).find_map(|node| match node.op {
        Op::Conv(s)
            if s.stride == 1
                && !s.transposed
                && s.kernel_size % 2 == 1
                && s.kernel_size > 1
                && net.stride(node.input) == 1 =>
        {
            Some(s.kernel_size)
        }
        _ => None,
    })
}

/// Compiles one frame of a temporally coherent stream, maintaining the
/// stride-1 submanifold kernel map incrementally across frames instead
/// of rebuilding it.
///
/// Pass `&mut None` for the first frame; the call seeds `state` and
/// every later call advances it. Returns the session, the input in the
/// session's canonical coordinate order (survivors first, entered
/// coordinates appended; borrowed when no reordering happened), and the
/// [`UpdateOutcome`]: an in-place patch or a full rebuild (churn above
/// [`DeltaConfig::churn_threshold`], or a fresh/reset state), the delta
/// shape, and the hash work spent — the stats the simulated mapping
/// cost is priced from. A network without an eligible group compiles
/// from scratch every frame and leaves `state` at `None`.
///
/// # Errors
///
/// [`CompileError::ChannelMismatch`] / [`CompileError::DuplicateCoords`]
/// on a malformed frame, which leaves the state unchanged (a malformed
/// frame does not poison the stream), or any session compilation error,
/// after which a stream that had no state still has none.
pub fn compile_stream<'a>(
    network: &Network,
    state: &mut Option<StreamState>,
    input: &'a SparseTensor,
    delta: &DeltaConfig,
) -> Result<(Session, Cow<'a, SparseTensor>, UpdateOutcome), CompileError> {
    check_input(network, input)?;
    let Some(ks) = stream_kernel_size(network) else {
        let session = Session::try_new(network, input.coords())?;
        session.debug_check_maps();
        let outcome = full_outcome(input.num_points(), MapStats::default());
        return Ok((session, Cow::Borrowed(input), outcome));
    };

    // A state maintained for a different kernel (engine swap) is stale;
    // drop it and reseed below.
    if state.as_ref().is_some_and(|s| s.kernel_size() != ks) {
        *state = None;
    }

    // A seeding frame's state is kept only once its session compiles, so
    // a rejected frame leaves `state` as it was.
    let mut seed = None;
    let (st, outcome) = match state.as_mut() {
        Some(st) => {
            let outcome = advance(st, input, delta);
            (st, outcome)
        }
        None => {
            let (st, stats) = StreamState::new(input.coords(), ks);
            (seed.insert(st), full_outcome(input.num_points(), stats))
        }
    };

    let reuse = SubmanifoldReuse {
        kernel_size: ks,
        map: Arc::clone(st.inc.shared_map()),
        stats: outcome.stats,
    };
    let session = Session::try_new_with_reuse(network, st.coords(), Some(&reuse))?;
    session.debug_check_maps();
    let frame = if input.coords() == st.coords() {
        Cow::Borrowed(input)
    } else {
        Cow::Owned(permute_to(input, st.coords()))
    };
    if seed.is_some() {
        *state = seed;
    }
    Ok((session, frame, outcome))
}

/// Advances `st` to the frame's coordinates: an in-place patch or a
/// rebuild, counted and traced.
fn advance(st: &mut StreamState, input: &SparseTensor, delta: &DeltaConfig) -> UpdateOutcome {
    let mut span = ts_trace::span(ts_trace::Subsystem::Core, "engine.stream_update");
    let outcome = st.inc.update(input.coords(), delta);
    st.frames += 1;
    match outcome.kind {
        MapUpdate::Patched => st.patched += 1,
        MapUpdate::Rebuilt => st.rebuilt += 1,
    }
    if span.active() {
        span.arg(
            "kind",
            match outcome.kind {
                MapUpdate::Patched => "patched",
                MapUpdate::Rebuilt => "rebuilt",
            },
        );
        span.arg("entered", outcome.entered);
        span.arg("exited", outcome.exited);
        span.arg("churn", outcome.churn as f64);
    }
    outcome
}

impl Engine {
    /// [`Engine::try_infer`] for temporally coherent streams: compiles
    /// each frame through [`compile_stream`], which maintains the
    /// stride-1 submanifold kernel map incrementally across frames
    /// instead of rebuilding it per frame.
    ///
    /// Pass `&mut None` for the first frame of a stream; the call seeds
    /// `state` and every later call advances it. The returned
    /// [`UpdateOutcome`] reports whether the frame was serviced by an
    /// in-place patch or a full rebuild.
    ///
    /// Output features are bit-identical per coordinate to
    /// [`Engine::try_infer`]; only the row order differs (the state's
    /// canonical order instead of the frame's).
    ///
    /// # Errors
    ///
    /// Same contract as [`Engine::try_infer`]. On error the state is
    /// left unchanged (a malformed frame does not poison the stream).
    pub fn infer_stream(
        &self,
        state: &mut Option<StreamState>,
        input: &SparseTensor,
        cfg: &DeltaConfig,
    ) -> Result<(SparseTensor, RunReport, UpdateOutcome), CompileError> {
        let mut span = ts_trace::span(ts_trace::Subsystem::Core, "engine.infer_stream");
        let (session, frame, outcome) = compile_stream(self.network(), state, input, cfg)?;
        let (out, report) =
            run_network_in_session(&session, self.weights(), &frame, self.configs(), self.ctx());

        ts_trace::counter_add("core.stream.frames", 1);
        match outcome.kind {
            MapUpdate::Patched => ts_trace::counter_add("core.stream.patched", 1),
            MapUpdate::Rebuilt => ts_trace::counter_add("core.stream.rebuilt", 1),
        }
        ts_trace::counter_add("core.stream.entered", outcome.entered as i64);
        ts_trace::counter_add("core.stream.exited", outcome.exited as i64);
        if span.active() {
            span.arg("points_in", input.num_points());
            span.arg("churn", outcome.churn as f64);
            span.arg("sim_us", report.total_us());
        }
        Ok((out, report, outcome))
    }
}

/// Outcome of a frame serviced without a prior state (or without an
/// eligible group): everything entered, full-build stats.
fn full_outcome(points: usize, stats: MapStats) -> UpdateOutcome {
    UpdateOutcome {
        kind: MapUpdate::Rebuilt,
        stats,
        entered: points,
        exited: 0,
        churn: 1.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GroupConfigs, NetworkBuilder};
    use ts_dataflow::{DataflowConfig, ExecCtx};
    use ts_gpusim::Device;
    use ts_tensor::{rng_from_seed, uniform_matrix, Precision};

    fn engine() -> Engine {
        let mut b = NetworkBuilder::new("stream", 4);
        let c1 = b.conv_block("enc1", NetworkBuilder::INPUT, 8, 3, 1);
        let c1b = b.conv_block("enc1b", c1, 8, 3, 1);
        let d1 = b.conv_block("down1", c1b, 16, 2, 2);
        let u1 = b.conv_block_transposed("up1", d1, 8, 2, 2);
        let cat = b.concat("skip", u1, c1b);
        let _ = b.conv("head", cat, 2, 1, 1);
        let net = b.build();
        let weights = net.init_weights(7);
        Engine::new(
            net,
            weights,
            GroupConfigs::uniform(DataflowConfig::implicit_gemm(2)),
            ExecCtx::functional(Device::rtx3090(), Precision::Fp32),
        )
    }

    /// A dense window sliding over a plane: low churn per step.
    fn frame(t: i32, seed: u64) -> SparseTensor {
        let coords: Vec<Coord> = (t..t + 12)
            .flat_map(|x| (0..8).map(move |y| Coord::new(0, x, y, (x + y) % 2)))
            .collect();
        let n = coords.len();
        SparseTensor::new(
            coords,
            uniform_matrix(&mut rng_from_seed(seed), n, 4, -1.0, 1.0),
        )
    }

    fn rows_by_coord(t: &SparseTensor) -> std::collections::HashMap<u64, Vec<f32>> {
        t.coords()
            .iter()
            .enumerate()
            .map(|(i, c)| (c.key(), t.feats().row(i).to_vec()))
            .collect()
    }

    #[test]
    fn stream_features_match_per_frame_compilation_exactly() {
        let e = engine();
        let mut state = None;
        for t in 0..6 {
            let f = frame(t, 100 + t as u64);
            let (out, _, outcome) = e
                .infer_stream(&mut state, &f, &DeltaConfig::default())
                .unwrap();
            let (base, _) = e.try_infer(&f).unwrap();
            if t > 0 {
                assert_eq!(outcome.kind, MapUpdate::Patched, "frame {t} should patch");
            }
            let got = rows_by_coord(&out);
            let want = rows_by_coord(&base);
            assert_eq!(got.len(), want.len());
            for (k, row) in &want {
                assert_eq!(got.get(k), Some(row), "frame {t}: coord {k} diverged");
            }
        }
        let st = state.unwrap();
        assert_eq!(st.frames(), 6);
        assert_eq!(st.patched(), 5, "every frame after the first patches");
    }

    #[test]
    fn patched_frames_simulate_cheaper_than_rebuilds() {
        let e = engine();
        let mut state = None;
        let f0 = frame(0, 1);
        let (_, r0, o0) = e
            .infer_stream(&mut state, &f0, &DeltaConfig::default())
            .unwrap();
        assert_eq!(o0.kind, MapUpdate::Rebuilt);
        let f1 = frame(1, 2);
        let (_, r1, o1) = e
            .infer_stream(&mut state, &f1, &DeltaConfig::default())
            .unwrap();
        assert_eq!(o1.kind, MapUpdate::Patched);
        // Same scene statistics, but the patched frame charges
        // delta-sized hash work.
        assert!(
            r1.total_us() < r0.total_us(),
            "patched {} !< rebuilt {}",
            r1.total_us(),
            r0.total_us()
        );
        // And the patch's hash-work stats are delta-sized.
        assert!(o1.stats.queries < o0.stats.queries / 4);
    }

    #[test]
    fn zero_threshold_always_rebuilds() {
        let e = engine();
        let mut state = None;
        let cfg = DeltaConfig {
            churn_threshold: 0.0,
        };
        let _ = e.infer_stream(&mut state, &frame(0, 3), &cfg).unwrap();
        let (_, _, o) = e.infer_stream(&mut state, &frame(1, 4), &cfg).unwrap();
        assert_eq!(o.kind, MapUpdate::Rebuilt);
        let st = state.unwrap();
        assert_eq!(st.rebuilt(), 2);
        assert_eq!(st.patched(), 0);
    }

    #[test]
    fn malformed_frames_do_not_poison_the_stream() {
        let e = engine();
        let mut state = None;
        let _ = e
            .infer_stream(&mut state, &frame(0, 5), &DeltaConfig::default())
            .unwrap();
        let coords_before = state.as_ref().unwrap().coords().to_vec();

        // Wrong channel width.
        let bad = SparseTensor::new(vec![Coord::new(0, 0, 0, 0)], Matrix::zeros(1, 9));
        assert!(matches!(
            e.infer_stream(&mut state, &bad, &DeltaConfig::default()),
            Err(CompileError::ChannelMismatch { .. })
        ));
        // Duplicate coords.
        let dup = SparseTensor::new(
            vec![Coord::new(0, 1, 1, 1), Coord::new(0, 1, 1, 1)],
            Matrix::zeros(2, 4),
        );
        assert!(matches!(
            e.infer_stream(&mut state, &dup, &DeltaConfig::default()),
            Err(CompileError::DuplicateCoords { .. })
        ));
        assert_eq!(state.as_ref().unwrap().coords(), &coords_before[..]);

        // The stream continues fine afterwards.
        let (_, _, o) = e
            .infer_stream(&mut state, &frame(1, 6), &DeltaConfig::default())
            .unwrap();
        assert_eq!(o.kind, MapUpdate::Patched);
    }

    #[test]
    fn every_frame_compiles_around_the_state_map() {
        let e = engine();
        let mut state = None;
        for t in 0..4 {
            let f = frame(t, 20 + t as u64);
            let (session, canon, _) =
                compile_stream(e.network(), &mut state, &f, &DeltaConfig::default()).unwrap();
            let st = state.as_ref().expect("seeded");
            let group = session
                .groups()
                .iter()
                .find(|g| g.key.lo_stride == 1 && g.key.hi_stride == 1 && g.key.kernel_size == 3)
                .expect("a stride-1 submanifold group");
            assert!(
                Arc::ptr_eq(&group.map, st.inc.shared_map()),
                "frame {t}: the session holds the state's map"
            );
            assert_eq!(canon.coords(), st.coords());
        }
        assert_eq!(state.expect("seeded").patched(), 3);
    }

    #[test]
    fn a_rejected_seeding_frame_leaves_no_state() {
        let e = engine();
        let mut state = None;
        let bad = SparseTensor::new(vec![Coord::new(0, 0, 0, 0)], Matrix::zeros(1, 9));
        assert!(e
            .infer_stream(&mut state, &bad, &DeltaConfig::default())
            .is_err());
        assert!(state.is_none());

        // A stride-1 group to stream, then a decoder with no encoder at
        // its target stride: every frame fails to compile.
        let mut b = NetworkBuilder::new("orphan", 4);
        let c = b.conv("enc", NetworkBuilder::INPUT, 8, 3, 1);
        let d = b.conv("down_x4", c, 8, 3, 4);
        let _ = b.conv_transposed("up_to_2", d, 8, 2, 2);
        let net = b.build();
        let err =
            compile_stream(&net, &mut state, &frame(0, 9), &DeltaConfig::default()).unwrap_err();
        assert!(matches!(err, CompileError::TransposedWithoutEncoder { .. }));
        assert!(state.is_none());
    }

    #[test]
    fn network_without_submanifold_group_falls_back() {
        // Single strided conv: no stride-1 submanifold group exists.
        let mut b = NetworkBuilder::new("strided", 4);
        let _ = b.conv("down", NetworkBuilder::INPUT, 8, 2, 2);
        let net = b.build();
        let w = net.init_weights(0);
        let e = Engine::new(
            net,
            w,
            GroupConfigs::uniform(DataflowConfig::implicit_gemm(1)),
            ExecCtx::functional(Device::rtx3090(), Precision::Fp32),
        );
        let mut state = None;
        let f = frame(0, 8);
        let (out, _, o) = e
            .infer_stream(&mut state, &f, &DeltaConfig::default())
            .unwrap();
        assert!(state.is_none(), "no eligible group, no state");
        assert_eq!(o.kind, MapUpdate::Rebuilt);
        let (base, _) = e.try_infer(&f).unwrap();
        assert_eq!(out.feats(), base.feats());
    }

    #[test]
    fn high_churn_frame_rebuilds_and_recovers() {
        let e = engine();
        let mut state = None;
        let _ = e
            .infer_stream(&mut state, &frame(0, 10), &DeltaConfig::default())
            .unwrap();
        // Teleport: disjoint coordinates.
        let (_, _, o) = e
            .infer_stream(&mut state, &frame(500, 11), &DeltaConfig::default())
            .unwrap();
        assert_eq!(o.kind, MapUpdate::Rebuilt);
        assert!(o.churn > 1.0);
        // Back to drifting: patches resume against the rebuilt map.
        let (_, _, o) = e
            .infer_stream(&mut state, &frame(501, 12), &DeltaConfig::default())
            .unwrap();
        assert_eq!(o.kind, MapUpdate::Patched);
    }
}
