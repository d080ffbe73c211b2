//! Device specifications — the GPUs of the paper's Table 2 plus the
//! CPU sockets used in the single-node study, with the published
//! characteristics the cost model needs.
//!
//! Bandwidths and peak FLOP rates are public vendor numbers for the
//! exact parts the paper lists (V100-SXM2-32GB, H100-80GB, MI210,
//! MI250X per-GCD, Xeon 8268 ×2, EPYC 7742 ×2). The atomic penalty
//! factors encode the paper's *qualitative* finding — NVIDIA double
//! atomics are fast, AMD CAS atomics serialise badly (">200× slower"),
//! unsafe/RMW atomics recover most of it — and are the knobs the
//! ablation bench sweeps.

/// Which atomic implementation a deposit uses on this device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AtomicFlavor {
    /// Compare-and-swap loop ("safe" atomics, AT).
    Safe,
    /// Hardware read-modify-write ("unsafe" atomics, UA — AMD only in
    /// the paper).
    Unsafe,
}

/// A device (GPU or CPU socket pair) description.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    pub name: &'static str,
    /// SIMT width (1 for CPUs — no lockstep penalty).
    pub warp_size: usize,
    /// Sustained DRAM bandwidth, GB/s.
    pub mem_bw_gbs: f64,
    /// FP64 peak, GFLOP/s.
    pub peak_gflops: f64,
    /// Extra modeled cost (in lane-work units) per *colliding* atomic
    /// update with the safe (CAS) flavor.
    pub atomic_penalty_safe: f64,
    /// Same for the unsafe (RMW) flavor.
    pub atomic_penalty_unsafe: f64,
    /// Node/device power draw in watts (power-equivalence study).
    pub power_w: f64,
    /// Device memory capacity in GiB (capacity checks in weak scaling).
    pub mem_gib: f64,
    /// Fraction of peak bandwidth achieved by data-dependent gathers
    /// (indirect particle↔mesh access). GPUs waste most of each memory
    /// sector on random 8-byte accesses; CPU caches amortise the line
    /// because many particles share a cell. This single factor is what
    /// keeps the paper's GPU speed-ups at 1.4–3.5x instead of the raw
    /// STREAM ratio.
    pub gather_efficiency: f64,
}

impl DeviceSpec {
    /// NVIDIA V100-SXM2-32GB (Bede).
    pub fn v100() -> Self {
        DeviceSpec {
            name: "NVIDIA V100",
            warp_size: 32,
            mem_bw_gbs: 900.0,
            peak_gflops: 7800.0,
            // NVIDIA fp64 atomics are native and fast.
            atomic_penalty_safe: 2.0,
            atomic_penalty_unsafe: 2.0,
            power_w: 300.0,
            mem_gib: 32.0,
            gather_efficiency: 0.30,
        }
    }

    /// NVIDIA H100-80GB.
    pub fn h100() -> Self {
        DeviceSpec {
            name: "NVIDIA H100",
            warp_size: 32,
            mem_bw_gbs: 3350.0,
            peak_gflops: 34_000.0,
            atomic_penalty_safe: 1.5,
            atomic_penalty_unsafe: 1.5,
            power_w: 700.0,
            mem_gib: 80.0,
            gather_efficiency: 0.35,
        }
    }

    /// AMD MI210.
    pub fn mi210() -> Self {
        DeviceSpec {
            name: "AMD MI210",
            warp_size: 64,
            mem_bw_gbs: 1600.0,
            peak_gflops: 22_600.0,
            // The paper: standard atomics "over 200× slower than UA or SR".
            atomic_penalty_safe: 400.0,
            atomic_penalty_unsafe: 3.0,
            power_w: 300.0,
            mem_gib: 64.0,
            gather_efficiency: 0.30,
        }
    }

    /// One Graphics Compute Die of an AMD MI250X (LUMI-G).
    pub fn mi250x_gcd() -> Self {
        DeviceSpec {
            name: "AMD MI250X (1 GCD)",
            warp_size: 64,
            mem_bw_gbs: 1600.0,
            peak_gflops: 23_900.0,
            atomic_penalty_safe: 400.0,
            atomic_penalty_unsafe: 3.0,
            power_w: 280.0, // ~half of a 560 W dual-GCD module
            mem_gib: 64.0,
            gather_efficiency: 0.30,
        }
    }

    /// 2× Intel Xeon Platinum 8268 (Avon node).
    pub fn xeon_8268_x2() -> Self {
        DeviceSpec {
            name: "2x Intel Xeon 8268",
            warp_size: 1,
            mem_bw_gbs: 220.0,
            peak_gflops: 3200.0,
            atomic_penalty_safe: 12.0, // CPU atomics: cache-line ping-pong
            atomic_penalty_unsafe: 12.0,
            power_w: 410.0,
            mem_gib: 192.0,
            gather_efficiency: 0.60,
        }
    }

    /// 2× AMD EPYC 7742 (ARCHER2 node).
    pub fn epyc_7742_x2() -> Self {
        DeviceSpec {
            name: "2x AMD EPYC 7742",
            warp_size: 1,
            mem_bw_gbs: 380.0,
            peak_gflops: 4600.0,
            atomic_penalty_safe: 12.0,
            atomic_penalty_unsafe: 12.0,
            power_w: 660.0,
            mem_gib: 256.0,
            gather_efficiency: 0.60,
        }
    }

    /// Intel Data Center GPU Max 1550 (Ponte Vecchio) — the paper's
    /// stated future work ("extend the code-generation to produce
    /// parallelizations for other architectures, such as Intel GPUs"),
    /// implemented here as a cost-model target.
    pub fn intel_max_1550() -> Self {
        DeviceSpec {
            name: "Intel Max 1550",
            warp_size: 32, // SIMD32 sub-groups
            mem_bw_gbs: 2000.0,
            peak_gflops: 26_000.0,
            atomic_penalty_safe: 4.0,
            atomic_penalty_unsafe: 4.0,
            power_w: 600.0,
            mem_gib: 128.0,
            gather_efficiency: 0.30,
        }
    }

    pub fn is_gpu(&self) -> bool {
        self.warp_size > 1
    }

    pub fn atomic_penalty(&self, flavor: AtomicFlavor) -> f64 {
        match flavor {
            AtomicFlavor::Safe => self.atomic_penalty_safe,
            AtomicFlavor::Unsafe => self.atomic_penalty_unsafe,
        }
    }

    /// Roofline-model kernel time in seconds for a kernel moving
    /// `bytes` and executing `flops` — the max of the bandwidth and
    /// compute terms (the machine-balance model the paper's roofline
    /// section rests on).
    pub fn roofline_time(&self, bytes: f64, flops: f64) -> f64 {
        let bw_t = bytes / (self.mem_bw_gbs * 1e9);
        let fp_t = flops / (self.peak_gflops * 1e9);
        bw_t.max(fp_t)
    }

    /// Roofline time for a *gather-dominated* kernel (indirect
    /// particle↔mesh access): the bandwidth term is derated by
    /// [`DeviceSpec::gather_efficiency`].
    pub fn gather_roofline_time(&self, bytes: f64, flops: f64) -> f64 {
        let bw_t = bytes / (self.mem_bw_gbs * self.gather_efficiency * 1e9);
        let fp_t = flops / (self.peak_gflops * 1e9);
        bw_t.max(fp_t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amd_safe_atomics_are_pathological() {
        // The paper's ">200x slower" finding must be encoded.
        let mi = DeviceSpec::mi250x_gcd();
        assert!(
            mi.atomic_penalty(AtomicFlavor::Safe) / mi.atomic_penalty(AtomicFlavor::Unsafe) > 100.0
        );
        let v100 = DeviceSpec::v100();
        assert!(
            v100.atomic_penalty(AtomicFlavor::Safe) < 5.0,
            "NVIDIA atomics are fast"
        );
    }

    #[test]
    fn roofline_time_takes_the_max() {
        let d = DeviceSpec::v100();
        // Pure bandwidth: 900 GB in 1 s.
        let t = d.roofline_time(900e9, 0.0);
        assert!((t - 1.0).abs() < 1e-12);
        // Pure compute.
        let t = d.roofline_time(0.0, 7800e9);
        assert!((t - 1.0).abs() < 1e-12);
        // Mixed takes the larger.
        let t = d.roofline_time(900e9, 7800e9 * 2.0);
        assert!((t - 2.0).abs() < 1e-12);
    }

    #[test]
    fn intel_future_work_target() {
        let d = DeviceSpec::intel_max_1550();
        assert!(d.is_gpu());
        assert!(d.mem_bw_gbs > DeviceSpec::v100().mem_bw_gbs);
        assert!(d.atomic_penalty(AtomicFlavor::Safe) < 10.0);
    }

    #[test]
    fn cpu_vs_gpu_flag() {
        assert!(!DeviceSpec::epyc_7742_x2().is_gpu());
        assert!(DeviceSpec::mi210().is_gpu());
    }
}
