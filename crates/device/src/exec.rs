//! The warp engine: lockstep execution with divergence and atomic
//! serialization accounting.
//!
//! Kernels run for real (warp after warp on the calling thread) and
//! produce exact numeric results; alongside, the engine gathers the
//! metrics that determine GPU kernel *time* in the paper's evaluation:
//! distinct branch paths per warp, and per-warp atomic address
//! collisions. [`LaunchReport::modeled_seconds`] turns these into a
//! kernel time under a [`DeviceSpec`] cost model; [`Device`] integrates
//! busy/idle time for the utilisation table.

use crate::buffer::DeviceBuffer;
use crate::spec::{AtomicFlavor, DeviceSpec};
use parking_lot::Mutex;
use std::collections::HashMap;

/// Per-lane kernel context. The kernel reports divergence by calling
/// [`Lane::diverge`] with a branch-path signature (lanes of one warp
/// that report different signatures are charged serialized execution),
/// and issues atomic updates through [`Lane::atomic_add`] so collisions
/// can be counted.
pub struct Lane<'w> {
    /// Global thread id.
    pub tid: usize,
    path: u32,
    atomic_targets: &'w mut Vec<u32>,
}

impl<'w> Lane<'w> {
    /// Declare which branch path this lane took (cheap, last call wins;
    /// XOR-combine yourself if a kernel has several divergent sites).
    #[inline]
    pub fn diverge(&mut self, path: u32) {
        self.path = path;
    }

    /// Atomic `buf[idx] += value` with collision tracking.
    #[inline]
    pub fn atomic_add(&mut self, buf: &DeviceBuffer, idx: usize, value: f64) {
        buf.atomic_add(idx, value);
        self.atomic_targets.push(idx as u32);
    }
}

/// Aggregate results of one kernel launch.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LaunchReport {
    pub n_lanes: usize,
    pub n_warps: usize,
    /// Sum over warps of (distinct paths − 1): 0 means fully converged.
    pub divergent_path_excess: u64,
    /// Warps with more than one distinct path.
    pub diverged_warps: u64,
    /// Total atomic updates issued.
    pub atomic_ops: u64,
    /// Within-warp same-address collisions: Σ_addr (multiplicity − 1).
    pub atomic_collisions: u64,
}

impl LaunchReport {
    /// Mean serialization factor from divergence: 1.0 = no divergence,
    /// `k` = warps execute `k` distinct paths back to back on average.
    pub fn divergence_factor(&self) -> f64 {
        if self.n_warps == 0 {
            1.0
        } else {
            1.0 + self.divergent_path_excess as f64 / self.n_warps as f64
        }
    }

    /// Fraction of atomic ops that collided within their warp.
    pub fn collision_rate(&self) -> f64 {
        if self.atomic_ops == 0 {
            0.0
        } else {
            self.atomic_collisions as f64 / self.atomic_ops as f64
        }
    }

    /// Modeled kernel time under `spec`:
    ///
    /// ```text
    /// t = roofline(bytes, flops) × divergence_factor
    ///   + atomic_ops / throughput × (1 + penalty(flavor) × collision_rate)
    /// ```
    ///
    /// The first term is the bandwidth/compute roofline inflated by
    /// warp serialization; the second adds the atomic-unit time, blown
    /// up by the per-device penalty when lanes collide — this is what
    /// makes safe atomics on the MI250X model two orders of magnitude
    /// slower under heavy contention, as the paper measured.
    pub fn modeled_seconds(
        &self,
        spec: &DeviceSpec,
        flavor: AtomicFlavor,
        bytes: f64,
        flops: f64,
    ) -> f64 {
        let base = spec.roofline_time(bytes, flops) * self.divergence_factor();
        let atomic_throughput = if spec.is_gpu() { 10e9 } else { 1e9 };
        let atomic = self.atomic_ops as f64 / atomic_throughput
            * (1.0 + spec.atomic_penalty(flavor) * self.collision_rate());
        base + atomic
    }

    /// [`LaunchReport::modeled_seconds`] for gather-dominated kernels:
    /// the bandwidth term uses the device's gather efficiency (the
    /// particle move/deposit kernels are data-dependent gathers, not
    /// streams).
    pub fn modeled_gather_seconds(
        &self,
        spec: &DeviceSpec,
        flavor: AtomicFlavor,
        bytes: f64,
        flops: f64,
    ) -> f64 {
        let base = spec.gather_roofline_time(bytes, flops) * self.divergence_factor();
        let atomic_throughput = if spec.is_gpu() { 10e9 } else { 1e9 };
        let atomic = self.atomic_ops as f64 / atomic_throughput
            * (1.0 + spec.atomic_penalty(flavor) * self.collision_rate());
        base + atomic
    }
}

/// Post-hoc warp analysis of an access pattern, without executing a
/// kernel: given each lane's branch-path signature and the memory
/// addresses it updates atomically, compute the same [`LaunchReport`]
/// a live launch would. The figure harnesses use this to project GPU
/// kernel times from data captured during host runs.
pub fn analyze_warps<P, T>(warp_size: usize, n: usize, path_of: P, targets_of: T) -> LaunchReport
where
    P: Fn(usize) -> u32,
    T: Fn(usize, &mut Vec<u32>),
{
    account_warps(warp_size, n, |tid, targets| {
        let path = path_of(tid);
        targets_of(tid, targets);
        path
    })
}

/// The lockstep accounting of `n` lanes in warps of `warp_size`, warp
/// after warp: `lane(tid, targets)` runs lane `tid`, pushes the
/// addresses it updates atomically and returns its branch path.
fn account_warps(
    warp_size: usize,
    n: usize,
    mut lane: impl FnMut(usize, &mut Vec<u32>) -> u32,
) -> LaunchReport {
    let w = warp_size.max(1);
    let n_warps = n.div_ceil(w);
    let mut report = LaunchReport::default();
    let mut paths: Vec<u32> = Vec::with_capacity(w);
    let mut targets: Vec<u32> = Vec::new();
    let mut mult: HashMap<u32, u64> = HashMap::new();
    for warp in 0..n_warps {
        let lo = warp * w;
        let hi = ((warp + 1) * w).min(n);
        paths.clear();
        targets.clear();
        for tid in lo..hi {
            paths.push(lane(tid, &mut targets));
        }
        // Distinct paths in this warp.
        paths.sort_unstable();
        paths.dedup();
        let distinct = paths.len().max(1) as u64;
        // Same-address collisions within the warp.
        mult.clear();
        for &t in &targets {
            *mult.entry(t).or_insert(0) += 1;
        }
        let collisions: u64 = mult.values().map(|&m| m - 1).sum();

        report.n_lanes += hi - lo;
        report.n_warps += 1;
        report.divergent_path_excess += distinct - 1;
        report.diverged_warps += u64::from(distinct > 1);
        report.atomic_ops += targets.len() as u64;
        report.atomic_collisions += collisions;
    }
    report
}

/// A modeled device: executes launches, integrates modeled busy/idle
/// time (Table 1's utilisation).
#[derive(Debug)]
pub struct Device {
    pub spec: DeviceSpec,
    busy_s: Mutex<f64>,
    idle_s: Mutex<f64>,
}

impl Device {
    pub fn new(spec: DeviceSpec) -> Self {
        Device {
            spec,
            busy_s: Mutex::new(0.0),
            idle_s: Mutex::new(0.0),
        }
    }

    /// Launch `n` lanes of `kernel` and return the divergence/atomic
    /// report. Warps run one after another, lanes within a warp
    /// sequentially — the lockstep model. The report is a pure count,
    /// so it does not depend on warps running at the same time.
    pub fn launch<F>(&self, n: usize, kernel: F) -> LaunchReport
    where
        F: Fn(&mut Lane),
    {
        account_warps(self.spec.warp_size, n, |tid, atomic_targets| {
            let mut lane = Lane {
                tid,
                path: 0,
                atomic_targets,
            };
            kernel(&mut lane);
            lane.path
        })
    }

    /// Launch and also integrate the modeled time into the device's
    /// busy clock.
    pub fn launch_timed<F>(
        &self,
        n: usize,
        flavor: AtomicFlavor,
        bytes: f64,
        flops: f64,
        kernel: F,
    ) -> (LaunchReport, f64)
    where
        F: Fn(&mut Lane),
    {
        let report = self.launch(n, kernel);
        let t = report.modeled_seconds(&self.spec, flavor, bytes, flops);
        *self.busy_s.lock() += t;
        (report, t)
    }

    /// Account modeled idle time (halo exchange, synchronisation wait).
    pub fn record_idle(&self, seconds: f64) {
        *self.idle_s.lock() += seconds;
    }

    pub fn busy_seconds(&self) -> f64 {
        *self.busy_s.lock()
    }

    pub fn idle_seconds(&self) -> f64 {
        *self.idle_s.lock()
    }

    /// Utilisation = busy / (busy + idle), the nvidia-smi/rocm-smi
    /// number of Table 1.
    pub fn utilization(&self) -> f64 {
        let b = self.busy_seconds();
        let i = self.idle_seconds();
        if b + i == 0.0 {
            1.0
        } else {
            b / (b + i)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converged_kernel_has_factor_one() {
        let dev = Device::new(DeviceSpec::v100());
        let buf = DeviceBuffer::zeros(8);
        let rep = dev.launch(256, |lane| {
            lane.atomic_add(&buf, lane.tid % 8, 1.0);
        });
        assert_eq!(rep.n_lanes, 256);
        assert_eq!(rep.n_warps, 8);
        assert_eq!(rep.divergence_factor(), 1.0);
        assert_eq!(rep.diverged_warps, 0);
        // Results are exact.
        assert!(buf.to_vec().iter().all(|&v| v == 32.0));
    }

    #[test]
    fn divergence_is_counted_per_warp() {
        let dev = Device::new(DeviceSpec::v100());
        // Every lane takes one of two paths based on parity: 2 distinct
        // paths in every warp.
        let rep = dev.launch(64, |lane| {
            lane.diverge((lane.tid % 2) as u32);
        });
        assert_eq!(rep.n_warps, 2);
        assert_eq!(rep.diverged_warps, 2);
        assert_eq!(rep.divergence_factor(), 2.0);
    }

    #[test]
    fn warp_uniform_branching_is_free() {
        let dev = Device::new(DeviceSpec::v100());
        // Path depends on warp id only: within a warp all lanes agree.
        let rep = dev.launch(128, |lane| {
            lane.diverge((lane.tid / 32) as u32);
        });
        assert_eq!(rep.diverged_warps, 0);
        assert_eq!(rep.divergence_factor(), 1.0);
    }

    #[test]
    fn collision_accounting() {
        let dev = Device::new(DeviceSpec::mi250x_gcd());
        let buf = DeviceBuffer::zeros(4);
        // All 64 lanes of each warp hit slot 0: 63 collisions per warp.
        let rep = dev.launch(128, |lane| {
            lane.atomic_add(&buf, 0, 1.0);
        });
        assert_eq!(rep.atomic_ops, 128);
        assert_eq!(rep.atomic_collisions, 2 * 63);
        assert!((rep.collision_rate() - 126.0 / 128.0).abs() < 1e-12);
        assert_eq!(buf.get(0), 128.0);
    }

    #[test]
    fn amd_safe_atomics_model_blows_up_under_contention() {
        let spec_amd = DeviceSpec::mi250x_gcd();
        let spec_nv = DeviceSpec::v100();
        let dev = Device::new(spec_amd.clone());
        let buf = DeviceBuffer::zeros(1);
        let rep = dev.launch(64 * 100, |lane| lane.atomic_add(&buf, 0, 1.0));
        let bytes = 64.0 * 100.0 * 16.0;
        let amd_safe = rep.modeled_seconds(&spec_amd, AtomicFlavor::Safe, bytes, 0.0);
        let amd_unsafe = rep.modeled_seconds(&spec_amd, AtomicFlavor::Unsafe, bytes, 0.0);
        let nv_safe = rep.modeled_seconds(&spec_nv, AtomicFlavor::Safe, bytes, 0.0);
        // Paper: AT on AMD is orders of magnitude slower than UA; on
        // NVIDIA safe atomics are fine.
        assert!(amd_safe / amd_unsafe > 50.0, "{amd_safe} vs {amd_unsafe}");
        assert!(amd_safe / nv_safe > 50.0);
    }

    #[test]
    fn modeled_time_scales_with_divergence() {
        let spec = DeviceSpec::v100();
        let mut rep = LaunchReport {
            n_lanes: 3200,
            n_warps: 100,
            ..Default::default()
        };
        let t1 = rep.modeled_seconds(&spec, AtomicFlavor::Safe, 1e9, 0.0);
        rep.divergent_path_excess = 100; // every warp runs 2 paths
        let t2 = rep.modeled_seconds(&spec, AtomicFlavor::Safe, 1e9, 0.0);
        assert!((t2 / t1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn utilization_tracks_busy_idle() {
        let dev = Device::new(DeviceSpec::v100());
        let buf = DeviceBuffer::zeros(16);
        let (_, t) = dev.launch_timed(1024, AtomicFlavor::Safe, 1e8, 1e6, |lane| {
            lane.atomic_add(&buf, lane.tid % 16, 1.0);
        });
        assert!(t > 0.0);
        assert_eq!(dev.utilization(), 1.0);
        dev.record_idle(dev.busy_seconds()); // as much idle as busy
        assert!((dev.utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_launch() {
        let dev = Device::new(DeviceSpec::v100());
        let rep = dev.launch(0, |_| panic!("no lanes should run"));
        assert_eq!(rep.n_lanes, 0);
        assert_eq!(rep.divergence_factor(), 1.0);
        assert_eq!(rep.collision_rate(), 0.0);
    }

    #[test]
    fn analyze_warps_matches_live_launch() {
        let dev = Device::new(DeviceSpec::v100());
        let buf = DeviceBuffer::zeros(8);
        let live = dev.launch(256, |lane| {
            lane.diverge((lane.tid % 3) as u32);
            lane.atomic_add(&buf, lane.tid % 8, 1.0);
        });
        let analyzed = analyze_warps(
            32,
            256,
            |tid| (tid % 3) as u32,
            |tid, out| out.push((tid % 8) as u32),
        );
        assert_eq!(live, analyzed);
    }

    #[test]
    fn cpu_spec_runs_with_warp_size_one() {
        let dev = Device::new(DeviceSpec::epyc_7742_x2());
        let rep = dev.launch(10, |lane| lane.diverge(lane.tid as u32));
        // warp size 1: no divergence possible.
        assert_eq!(rep.n_warps, 10);
        assert_eq!(rep.divergence_factor(), 1.0);
    }
}
