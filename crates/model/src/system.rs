//! The systems of the paper's Table 2.
//!
//! Per-node compute/bandwidth numbers are public figures for the listed
//! parts; interconnects and node power are quoted straight from the
//! table (ARCHER2: Slingshot 2×100 Gb/s, ≈660 W/node; Bede: EDR
//! InfiniBand 100 Gb/s, ≈1500 W/node; LUMI-G: Slingshot 50 Gb/s
//! bidirectional per GPU, ≈2390 W/node; Avon: HDR100, ≈475 W/node).

/// One cluster system.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemSpec {
    pub name: &'static str,
    /// What one "execution unit" is in the scaling plots: a CPU node,
    /// one V100, or one MI250X GCD (the paper scales per-GCD).
    pub unit_name: &'static str,
    /// Units per node (1 for CPU nodes, 4 V100s on Bede, 8 GCDs on
    /// LUMI-G).
    pub units_per_node: usize,
    /// Sustained memory bandwidth per unit, GB/s.
    pub unit_mem_bw_gbs: f64,
    /// FP64 peak per unit, GFLOP/s.
    pub unit_peak_gflops: f64,
    /// Injection bandwidth per unit, GB/s (payload direction).
    pub net_bw_gbs: f64,
    /// Network latency per message, seconds.
    pub net_latency_s: f64,
    /// Node power, watts.
    pub node_power_w: f64,
}

impl SystemSpec {
    /// Avon: Dell C6420, 2× Xeon 8268 / node, HDR100.
    pub fn avon() -> Self {
        SystemSpec {
            name: "Avon",
            unit_name: "node (2x Xeon 8268)",
            units_per_node: 1,
            unit_mem_bw_gbs: 220.0,
            unit_peak_gflops: 3200.0,
            net_bw_gbs: 12.5, // 100 Gb/s
            net_latency_s: 1.5e-6,
            node_power_w: 475.0,
        }
    }

    /// ARCHER2: HPE Cray EX, 2× EPYC 7742 / node, Slingshot.
    pub fn archer2() -> Self {
        SystemSpec {
            name: "ARCHER2",
            unit_name: "node (2x EPYC 7742)",
            units_per_node: 1,
            unit_mem_bw_gbs: 380.0,
            unit_peak_gflops: 4600.0,
            net_bw_gbs: 25.0, // 2x100 Gb/s bi-directional
            net_latency_s: 1.7e-6,
            node_power_w: 660.0,
        }
    }

    /// Bede: IBM AC922, 4× V100 / node, EDR InfiniBand.
    pub fn bede() -> Self {
        SystemSpec {
            name: "Bede",
            unit_name: "V100 GPU",
            units_per_node: 4,
            unit_mem_bw_gbs: 900.0,
            unit_peak_gflops: 7800.0,
            net_bw_gbs: 12.5 / 4.0, // node EDR shared by 4 GPUs
            net_latency_s: 1.5e-6,
            node_power_w: 1500.0,
        }
    }

    /// LUMI-G: HPE Cray EX, 4× MI250X (8 GCDs) / node, Slingshot.
    pub fn lumi_g() -> Self {
        SystemSpec {
            name: "LUMI-G",
            unit_name: "MI250X GCD",
            units_per_node: 8,
            unit_mem_bw_gbs: 1600.0,
            unit_peak_gflops: 23_900.0,
            net_bw_gbs: 6.25, // 50 Gb/s per GPU ≈ per 2 GCDs
            net_latency_s: 1.7e-6,
            node_power_w: 2390.0,
        }
    }

    /// The four systems of Table 2.
    pub fn table2() -> Vec<SystemSpec> {
        vec![Self::avon(), Self::archer2(), Self::bede(), Self::lumi_g()]
    }

    /// Roofline time for a kernel on one unit.
    pub fn unit_roofline_time(&self, bytes: f64, flops: f64) -> f64 {
        (bytes / (self.unit_mem_bw_gbs * 1e9)).max(flops / (self.unit_peak_gflops * 1e9))
    }

    /// Time to ship `bytes` in `messages` point-to-point messages.
    pub fn net_time(&self, bytes: f64, messages: f64) -> f64 {
        messages * self.net_latency_s + bytes / (self.net_bw_gbs * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_complete() {
        let sys = SystemSpec::table2();
        assert_eq!(sys.len(), 4);
        let names: Vec<_> = sys.iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["Avon", "ARCHER2", "Bede", "LUMI-G"]);
    }

    #[test]
    fn paper_power_envelope_node_counts() {
        // Paper, Section 4.2.1: "18 ARCHER2 nodes, 8 Bede nodes
        // (consisting of 32 V100 GPUs) and 5 LUMI-G nodes (consisting
        // of 20 MI250X GPUs) consume roughly 12 kW".
        let kw12 = 12_000.0;
        assert_eq!(
            (kw12 / SystemSpec::archer2().node_power_w).floor() as usize,
            18
        );
        assert_eq!((kw12 / SystemSpec::bede().node_power_w).floor() as usize, 8);
        assert_eq!(8 * SystemSpec::bede().units_per_node, 32);
        assert_eq!(
            (kw12 / SystemSpec::lumi_g().node_power_w).floor() as usize,
            5
        );
        // 5 LUMI nodes = 20 MI250X GPUs = 40 GCDs.
        assert_eq!(5 * SystemSpec::lumi_g().units_per_node, 40);
    }

    #[test]
    fn roofline_and_net_times() {
        let s = SystemSpec::archer2();
        // 380 GB at 380 GB/s = 1 s.
        assert!((s.unit_roofline_time(380e9, 0.0) - 1.0).abs() < 1e-12);
        // Latency-dominated small messages.
        let t = s.net_time(100.0, 10.0);
        assert!(t > 10.0 * s.net_latency_s && t < 10.0 * s.net_latency_s * 1.01);
        // Bandwidth-dominated large transfer: 25 GB at 25 GB/s.
        let t = s.net_time(25e9, 1.0);
        assert!((t - 1.0).abs() < 0.01);
    }

    #[test]
    fn gpu_units_are_faster_than_cpu_units() {
        // Single-unit sanity: a LUMI GCD has > 4x an ARCHER2 node's
        // bandwidth — the root of the paper's GPU speed-ups.
        assert!(SystemSpec::lumi_g().unit_mem_bw_gbs / SystemSpec::archer2().unit_mem_bw_gbs > 4.0);
    }
}
