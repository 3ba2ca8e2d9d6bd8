//! The analytical cost model: prices [`KernelDesc`]s on a [`Device`].

use crate::{Device, KernelDesc, KernelTrace, Overlap, Precision, TileShape};

/// Fraction of peak scalar throughput achieved by irregular mapping
/// kernels (hash probes, argsort, reorder). These are latency-bound
/// pointer-chasing workloads, far from peak FLOPS.
const MAPPING_CUDA_EFF: f64 = 0.02;

/// Default utilization assumed for compute kernels without tile/shape
/// information (e.g. vendor-library GEMMs that we don't tile ourselves).
const DEFAULT_COMPUTE_UTIL: f64 = 0.70;

/// Fraction of DRAM bandwidth achievable by streaming memory kernels.
const STREAM_BW_EFF: f64 = 0.85;

/// L2 hit benefit applied to operand re-reads of a tiled GEMM.
const L2_REREAD_FACTOR: f64 = 0.30;

/// Per-SM, per-GHz latency-hiding capacity in bytes/us: how much
/// exposed-latency traffic one SM-GHz can keep in flight. Under-occupied
/// kernels' extra memory stalls scale with the SM domain (count x
/// clock), not DRAM bandwidth — which is why the paper finds halving
/// compute costs more than halving bandwidth (Section 6.3). Calibrated
/// so the RTX 3090's latency path matches its bandwidth path at nominal
/// occupancy.
const SM_LATENCY_CAPACITY: f64 = 5600.0;

/// Estimates DRAM traffic (read, write) in bytes for a tiled GEMM of
/// logical shape `m x n x k`.
///
/// Each CTA column re-reads the A operand and each CTA row re-reads the
/// B operand; re-reads beyond the first pass are discounted by the L2
/// factor. Output is written once.
pub fn gemm_dram_traffic(
    m: u64,
    n: u64,
    k: u64,
    tile: TileShape,
    precision: Precision,
) -> (u64, u64) {
    let b = precision.bytes() as u64;
    let tiles_m = m.div_ceil(tile.cta_m as u64).max(1);
    let tiles_n = n.div_ceil(tile.cta_n as u64).max(1);
    let a_first = m * k * b;
    let b_first = k * n * b;
    let a_rereads = (tiles_n - 1) * m * k * b;
    let b_rereads = (tiles_m - 1) * k * n * b;
    let read = a_first + b_first + ((a_rereads + b_rereads) as f64 * L2_REREAD_FACTOR) as u64;
    let write = m * n * b;
    (read, write)
}

/// Models the fraction of peak MAC throughput a tiled GEMM of logical
/// shape `m x n x k` achieves on `device`.
///
/// Combines four effects, all of which the paper's tile-size study
/// (Figure 8) and split-count study (Table 5) depend on:
///
/// 1. *intrinsic tile efficiency* — larger CTA tiles amortise scheduling
///    and achieve better compute/byte ratios;
/// 2. *tile quantization* — partial tiles at the m/n edges waste lanes;
/// 3. *wave quantization / occupancy* — too few CTAs leave SMs idle
///    (this is why splitting masks helps small segmentation workloads);
/// 4. *K-loop pipeline drain* — short K loops pay a startup/drain cost.
pub fn gemm_utilization(
    m: u64,
    n: u64,
    k: u64,
    tile: TileShape,
    device: &Device,
    precision: Precision,
) -> f64 {
    if m == 0 || n == 0 || k == 0 {
        return 1.0;
    }
    let cta_m = tile.cta_m as u64;
    let cta_n = tile.cta_n as u64;
    let cta_k = tile.cta_k as u64;

    // 1. intrinsic efficiency from the tile area.
    let area = (tile.cta_m * tile.cta_n) as f64;
    let base = 0.97 * area / (area + 1200.0);

    // 2. tile quantization.
    let tiles_m = m.div_ceil(cta_m);
    let tiles_n = n.div_ceil(cta_n);
    let tile_quant = (m * n) as f64 / ((tiles_m * cta_m) * (tiles_n * cta_n)) as f64;

    // 3. wave quantization with an occupancy estimate. Shared memory and
    //    register pressure bound how many CTAs fit per SM.
    let smem_limit = (device.smem_kib_per_sm as u64 * 1024) / tile.smem_bytes(precision).max(1);
    let reg_limit = (256 * 256) / (cta_m * cta_n).max(1);
    let ctas_per_sm = smem_limit.min(reg_limit).clamp(1, 8);
    let slots = (device.sm_count as u64 * ctas_per_sm).max(1);
    let ctas = tiles_m * tiles_n;
    let waves = ctas.div_ceil(slots);
    let wave_quant = ctas as f64 / (waves * slots) as f64;

    // 4. pipeline drain on short K loops.
    let k_iters = k.div_ceil(cta_k).max(1);
    let k_eff = k_iters as f64 / (k_iters as f64 + tile.stages as f64);

    (base * tile_quant * wave_quant * k_eff).clamp(1e-4, 1.0)
}

/// Prices [`KernelDesc`]s on a fixed [`Device`].
///
/// # Examples
///
/// ```
/// use ts_gpusim::{CostModel, Device, KernelDesc, Precision};
///
/// let model = CostModel::new(Device::a100());
/// let big = KernelDesc::gemm("big", 1 << 16, 256, 256, Precision::Fp16);
/// let small = KernelDesc::gemm("small", 1 << 10, 256, 256, Precision::Fp16);
/// assert!(model.kernel_time_us(&big) > model.kernel_time_us(&small));
/// ```
#[derive(Debug, Clone)]
pub struct CostModel {
    device: Device,
}

impl CostModel {
    /// Creates a cost model for `device`.
    pub fn new(device: Device) -> Self {
        Self { device }
    }

    /// The device this model prices kernels on.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Time in microseconds `kernel` takes on this device, including its
    /// launch overhead.
    pub fn kernel_time_us(&self, kernel: &KernelDesc) -> f64 {
        let exec = self.exec_time_us(kernel);
        exec + kernel.launches as f64 * self.device.launch_overhead_us
    }

    /// The fraction of peak MAC throughput `kernel` achieves: its
    /// override if set, the tiled-GEMM model when shape and tile are
    /// known, the compute default otherwise. This is the "occupancy"
    /// attached to simulated-kernel trace spans.
    pub fn utilization(&self, kernel: &KernelDesc) -> f64 {
        kernel
            .util_override
            .unwrap_or_else(|| match (kernel.gemm_shape, kernel.tile) {
                (Some((m, n, k)), Some(tile)) => {
                    gemm_utilization(m, n, k, tile, &self.device, kernel.precision)
                }
                _ => DEFAULT_COMPUTE_UTIL,
            })
    }

    /// Execution time excluding launch overhead.
    fn exec_time_us(&self, kernel: &KernelDesc) -> f64 {
        let mac_time = if kernel.macs > 0 {
            let peak = self.device.peak_macs_per_us(kernel.precision);
            kernel.macs as f64 / (peak * self.utilization(kernel))
        } else {
            0.0
        };

        let cuda_time = if kernel.cuda_ops > 0 {
            kernel.cuda_ops as f64 / (self.device.cuda_ops_per_us() * MAPPING_CUDA_EFF)
        } else {
            0.0
        };

        let stream_bytes = (kernel.dram_read + kernel.dram_write) as f64;
        let atomic_bytes = kernel.atomic_write as f64 * self.device.atomic_penalty;
        let mem_time = (stream_bytes + atomic_bytes) / (self.device.bytes_per_us() * STREAM_BW_EFF);

        // Under-occupancy exposes memory latency. The exposed part is
        // hidden by SM multithreading, so it scales with SM throughput
        // (compute domain) rather than DRAM bandwidth — which is why the
        // paper finds halving compute costs more than halving bandwidth
        // (Section 6.3).
        let exposed = (kernel.latency_stretch - 1.0) * (stream_bytes + atomic_bytes)
            / (self.device.sm_count as f64 * self.device.clock_ghz * SM_LATENCY_CAPACITY);
        let mem_time = mem_time + exposed;
        let work_time = mac_time + cuda_time;
        let exec = match kernel.overlap {
            Overlap::Full => work_time.max(mem_time),
            Overlap::None => work_time + mem_time,
        };
        // Address arithmetic and boundary checks sit on the load path and
        // slow the whole kernel (Figures 20/21 measure whole-kernel gaps).
        exec * kernel.addr_overhead * kernel.ctrl_overhead
    }

    /// Prices a kernel and appends it to `trace`.
    pub fn record(&self, trace: &mut KernelTrace, kernel: KernelDesc) -> f64 {
        let t = self.kernel_time_us(&kernel);
        trace.push(kernel, t);
        t
    }
}

/// Returns the best tile (and its utilization) for a GEMM shape by
/// exhaustively scanning the generator's tile search space — the
/// "idealized experiment" of Figure 8.
pub fn best_tile_for(
    m: u64,
    n: u64,
    k: u64,
    device: &Device,
    precision: Precision,
) -> (TileShape, f64) {
    TileShape::search_space()
        .into_iter()
        .map(|t| (t, gemm_utilization(m, n, k, t, device, precision)))
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("tile search space is non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CostModel {
        CostModel::new(Device::rtx3090())
    }

    #[test]
    fn larger_gemm_takes_longer() {
        let m = model();
        let small = KernelDesc::gemm("s", 1024, 64, 64, Precision::Fp16);
        let large = KernelDesc::gemm("l", 65536, 256, 256, Precision::Fp16);
        assert!(m.kernel_time_us(&large) > m.kernel_time_us(&small));
    }

    #[test]
    fn fp16_faster_than_fp32_on_tensor_core_device() {
        let m = model();
        let f16 = KernelDesc::gemm("a", 65536, 256, 256, Precision::Fp16);
        let f32 = KernelDesc::gemm("b", 65536, 256, 256, Precision::Fp32);
        assert!(m.kernel_time_us(&f16) < m.kernel_time_us(&f32));
    }

    #[test]
    fn overlap_hides_memory_time() {
        let m = model();
        let over = KernelDesc::gemm("o", 32768, 256, 256, Precision::Fp16);
        let mut seq = over.clone();
        seq.overlap = Overlap::None;
        assert!(m.kernel_time_us(&seq) > m.kernel_time_us(&over));
    }

    #[test]
    fn launch_overhead_scales_with_launches() {
        let m = model();
        let one = KernelDesc::mapping("m", 1000, 1000);
        let many = one.clone().with_launches(27);
        let delta = m.kernel_time_us(&many) - m.kernel_time_us(&one);
        let expected = 26.0 * m.device().launch_overhead_us;
        assert!((delta - expected).abs() < 1e-9, "delta = {delta}");
    }

    #[test]
    fn atomic_writes_cost_more_than_plain_writes() {
        let m = model();
        let plain = KernelDesc::memory("p", 0, 1 << 24);
        let atomic = KernelDesc::memory("a", 0, 0).with_atomic_write(1 << 24);
        assert!(m.kernel_time_us(&atomic) > m.kernel_time_us(&plain));
    }

    #[test]
    fn addr_and_ctrl_overheads_multiply_compute() {
        let m = model();
        let base = KernelDesc::gemm("b", 1 << 20, 256, 256, Precision::Fp16);
        let slowed = base.clone().with_addr_overhead(1.7).with_ctrl_overhead(1.3);
        let t0 = m.kernel_time_us(&base);
        let t1 = m.kernel_time_us(&slowed);
        assert!(t1 > t0 * 1.5, "t0={t0} t1={t1}");
    }

    #[test]
    fn utilization_in_unit_range() {
        let d = Device::rtx3090();
        for tile in TileShape::search_space() {
            for &(m, n, k) in &[(1, 1, 1), (100, 64, 1728), (65536, 256, 6912), (37, 3, 5)] {
                let u = gemm_utilization(m, n, k, tile, &d, Precision::Fp16);
                assert!((0.0..=1.0).contains(&u), "u = {u} for tile {tile}");
            }
        }
    }

    #[test]
    fn bigger_tiles_win_on_big_workloads_small_tiles_on_small() {
        let d = Device::rtx3090();
        let big_big = gemm_utilization(1 << 17, 256, 1728, TileShape::large(), &d, Precision::Fp16);
        let big_small = gemm_utilization(
            1 << 17,
            256,
            1728,
            TileShape::new(32, 32, 16),
            &d,
            Precision::Fp16,
        );
        assert!(big_big > big_small);

        let small_small = gemm_utilization(
            2000,
            64,
            576,
            TileShape::new(32, 64, 32),
            &d,
            Precision::Fp16,
        );
        let small_big = gemm_utilization(2000, 64, 576, TileShape::large(), &d, Precision::Fp16);
        assert!(small_small > small_big, "{small_small} vs {small_big}");
    }

    #[test]
    fn wave_quantization_rewards_more_parallelism() {
        // Few CTAs -> low utilization; doubling rows (like mask splits
        // doubling parallelism) should raise utilization.
        let d = Device::rtx3090();
        let t = TileShape::new(64, 64, 32);
        let low = gemm_utilization(1000, 64, 1728, t, &d, Precision::Fp32);
        let high = gemm_utilization(8000, 64, 1728, t, &d, Precision::Fp32);
        assert!(high > low);
    }

    #[test]
    fn best_tile_beats_fixed_default_somewhere() {
        let d = Device::rtx3090();
        let (_, best) = best_tile_for(2000, 64, 576, &d, Precision::Fp16);
        let fixed = gemm_utilization(2000, 64, 576, TileShape::large(), &d, Precision::Fp16);
        assert!(best >= fixed);
    }

    #[test]
    fn traffic_grows_with_shape() {
        let t = TileShape::large();
        let (r1, w1) = gemm_dram_traffic(1000, 64, 64, t, Precision::Fp16);
        let (r2, w2) = gemm_dram_traffic(2000, 128, 64, t, Precision::Fp16);
        assert!(r2 > r1);
        assert!(w2 > w1);
    }

    #[test]
    fn halved_bandwidth_slows_memory_bound_kernel() {
        let d = Device::rtx3090();
        let slow = CostModel::new(d.with_bandwidth_scale(0.5));
        let fast = CostModel::new(d);
        let k = KernelDesc::memory("m", 1 << 26, 1 << 26);
        assert!(slow.kernel_time_us(&k) > fast.kernel_time_us(&k) * 1.8);
    }
}
