//! Roofline analysis — the ERT/Advisor/Nsight substitute behind
//! Figures 10 and 11.
//!
//! The paper instruments each OP-PIC kernel for FP64 operation counts
//! and arithmetic intensity, then places the kernels under rooflines
//! measured with the Berkeley ERT. Here the kernel counts come from
//! the [`oppic_core::telemetry::Telemetry`] kernel table (span times
//! and traffic tallies) and the rooflines from the
//! [`crate::system::SystemSpec`] bandwidth/peak numbers.

use oppic_core::KernelStats;

/// Which resource bounds a kernel at its operating point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Boundedness {
    Bandwidth,
    Compute,
    /// Achieving well under the roofline at its intensity — the
    /// signature the paper assigns to the atomically-serialized
    /// DepositCharge kernel ("latency bound").
    Latency,
}

/// One kernel placed on the roofline.
#[derive(Debug, Clone, PartialEq)]
pub struct RooflinePoint {
    pub kernel: String,
    /// FLOP per byte.
    pub ai: f64,
    /// Achieved GFLOP/s.
    pub achieved_gflops: f64,
    /// Attainable GFLOP/s at this AI under the machine roofline.
    pub attainable_gflops: f64,
    pub bound: Boundedness,
}

impl RooflinePoint {
    /// Fraction of attainable performance achieved.
    pub fn efficiency(&self) -> f64 {
        if self.attainable_gflops > 0.0 {
            self.achieved_gflops / self.attainable_gflops
        } else {
            0.0
        }
    }
}

/// A machine roofline plus kernels placed under it.
#[derive(Debug, Clone)]
pub struct RooflineChart {
    pub machine: String,
    pub mem_bw_gbs: f64,
    pub peak_gflops: f64,
    pub points: Vec<RooflinePoint>,
}

impl RooflineChart {
    pub fn new(machine: impl Into<String>, mem_bw_gbs: f64, peak_gflops: f64) -> Self {
        RooflineChart {
            machine: machine.into(),
            mem_bw_gbs,
            peak_gflops,
            points: Vec::new(),
        }
    }

    /// Attainable GFLOP/s at an arithmetic intensity.
    pub fn attainable(&self, ai: f64) -> f64 {
        (self.mem_bw_gbs * ai).min(self.peak_gflops)
    }

    /// The AI where bandwidth and compute roofs intersect.
    pub fn ridge(&self) -> f64 {
        self.peak_gflops / self.mem_bw_gbs
    }

    /// Place a kernel from its telemetry statistics (needs time +
    /// traffic).
    /// Returns `None` when the stats carry no byte/flop counts.
    pub fn place(&mut self, name: &str, stats: &KernelStats) -> Option<&RooflinePoint> {
        let ai = stats.arithmetic_intensity()?;
        let achieved = stats.gflops()?;
        let attainable = self.attainable(ai);
        // Classification: within 60% of the roof counts as hitting it
        // (roofline studies conventionally allow a wide band); far
        // below at memory-bound intensity = latency bound.
        let bound = if achieved >= 0.6 * attainable {
            if ai < self.ridge() {
                Boundedness::Bandwidth
            } else {
                Boundedness::Compute
            }
        } else {
            Boundedness::Latency
        };
        self.points.push(RooflinePoint {
            kernel: name.to_string(),
            ai,
            achieved_gflops: achieved,
            attainable_gflops: attainable,
            bound,
        });
        self.points.last()
    }

    /// Sampled roofline curve for plotting: `(ai, gflops)` pairs over a
    /// log range.
    pub fn curve(&self, ai_min: f64, ai_max: f64, samples: usize) -> Vec<(f64, f64)> {
        assert!(samples >= 2 && ai_min > 0.0 && ai_max > ai_min);
        let la = ai_min.ln();
        let lb = ai_max.ln();
        (0..samples)
            .map(|k| {
                let ai = (la + (lb - la) * k as f64 / (samples - 1) as f64).exp();
                (ai, self.attainable(ai))
            })
            .collect()
    }

    /// Render an ASCII table of the placed kernels (the harness prints
    /// this as the figure's data).
    pub fn table(&self) -> String {
        let mut s = format!(
            "Roofline: {} (BW {:.0} GB/s, peak {:.0} GFLOP/s, ridge {:.2} F/B)\n",
            self.machine,
            self.mem_bw_gbs,
            self.peak_gflops,
            self.ridge()
        );
        s.push_str(&format!(
            "{:<28} {:>10} {:>12} {:>12} {:>6}  bound\n",
            "kernel", "AI (F/B)", "achieved", "attainable", "eff%"
        ));
        for p in &self.points {
            s.push_str(&format!(
                "{:<28} {:>10.4} {:>12.2} {:>12.2} {:>5.1}%  {:?}\n",
                p.kernel,
                p.ai,
                p.achieved_gflops,
                p.attainable_gflops,
                100.0 * p.efficiency(),
                p.bound
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(seconds: f64, bytes: u64, flops: u64) -> KernelStats {
        KernelStats {
            calls: 1,
            seconds,
            bytes,
            flops,
            class: None,
        }
    }

    #[test]
    fn curve_shape() {
        let c = RooflineChart::new("toy", 100.0, 1000.0);
        assert_eq!(c.ridge(), 10.0);
        assert_eq!(c.attainable(1.0), 100.0);
        assert_eq!(c.attainable(100.0), 1000.0);
        let pts = c.curve(0.01, 100.0, 16);
        assert_eq!(pts.len(), 16);
        assert!(pts.windows(2).all(|w| w[1].1 >= w[0].1), "monotone");
        assert!((pts[0].0 - 0.01).abs() < 1e-12);
        assert!((pts[15].0 - 100.0).abs() < 1e-9);
    }

    #[test]
    fn bandwidth_bound_kernel() {
        let mut c = RooflineChart::new("toy", 100.0, 1000.0);
        // AI = 0.5 F/B, achieving 45 of attainable 50 GFLOP/s.
        let p = c
            .place("Move", &stats(1.0, 100_000_000_000, 45_000_000_000))
            .unwrap();
        assert!((p.ai - 0.45).abs() < 1e-12);
        assert_eq!(p.bound, Boundedness::Bandwidth);
        assert!(p.efficiency() > 0.9);
    }

    #[test]
    fn compute_bound_kernel() {
        let mut c = RooflineChart::new("toy", 100.0, 1000.0);
        // AI = 100 F/B, achieving 900 of 1000.
        let p = c
            .place("dense", &stats(1.0, 10_000_000_000, 1_000_000_000_000))
            .unwrap();
        assert_eq!(p.bound, Boundedness::Compute);
    }

    #[test]
    fn latency_bound_kernel() {
        let mut c = RooflineChart::new("toy", 100.0, 1000.0);
        // AI = 0.5, but only 5 GFLOP/s of attainable 50 — the
        // serialized-atomics signature.
        let p = c
            .place("DepositCharge", &stats(1.0, 10_000_000_000, 5_000_000_000))
            .unwrap();
        assert_eq!(p.bound, Boundedness::Latency);
    }

    #[test]
    fn placement_requires_traffic_counts() {
        let mut c = RooflineChart::new("toy", 100.0, 1000.0);
        assert!(c.place("untraced", &stats(1.0, 0, 0)).is_none());
        assert!(c.points.is_empty());
    }

    #[test]
    fn table_renders() {
        let mut c = RooflineChart::new("V100", 900.0, 7800.0);
        c.place("Move", &stats(0.5, 50_000_000_000, 10_000_000_000));
        let t = c.table();
        assert!(t.contains("Move"));
        assert!(t.contains("ridge"));
    }
}
