//! Per-dat equivalence oracles.
//!
//! Two kinds of promise exist in this codebase (DESIGN.md §9):
//! **bit-identity** — rerunning the identical configuration — and
//! **tolerance** — everything that legitimately reorders floating-point
//! summation (parallel pools, atomics, device-model scatter, rank
//! reductions). The oracle makes the promise explicit per comparison,
//! so a tolerance cell can never silently paper over a bit-identity
//! regression.

use oppic_core::Observable;

/// The equivalence contract for one comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Oracle {
    /// Strict `f64` equality (also distinguishes NaN payloads: any
    /// NaN is a divergence).
    BitIdentical,
    /// `|got − want| ≤ abs + rel · max(|got|, |want|)`.
    Tolerance { abs: f64, rel: f64 },
}

impl Oracle {
    /// The default tolerance contract for cross-backend field dats:
    /// summation-order differences at tiny scale stay far below 1e-9.
    pub fn field() -> Oracle {
        Oracle::Tolerance {
            abs: 1e-9,
            rel: 1e-9,
        }
    }

    fn accepts(&self, got: f64, want: f64) -> bool {
        match *self {
            Oracle::BitIdentical => got.to_bits() == want.to_bits(),
            Oracle::Tolerance { abs, rel } => {
                if got.is_nan() || want.is_nan() {
                    return false;
                }
                (got - want).abs() <= abs + rel * got.abs().max(want.abs())
            }
        }
    }
}

/// One value that broke its oracle.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    pub observable: String,
    pub index: usize,
    pub got: f64,
    pub want: f64,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}[{}]: got {:e}, want {:e} (|Δ| = {:e})",
            self.observable,
            self.index,
            self.got,
            self.want,
            (self.got - self.want).abs()
        )
    }
}

/// Outcome of comparing one run against its reference.
#[derive(Debug, Clone, Default)]
pub struct Comparison {
    /// Values compared across all observables.
    pub compared: u64,
    /// Divergences, capped at [`MAX_REPORTED`] per observable.
    pub divergences: Vec<Divergence>,
    /// Total divergent values (uncapped count).
    pub divergent: u64,
    /// Per-observable `(name, compared, divergent)` — the attribution
    /// the telemetry counters carry (observable → producing kernel).
    pub per_observable: Vec<(String, u64, u64)>,
    /// Structural mismatches (missing observables, length skew).
    pub structural: Vec<String>,
}

/// Cap on recorded divergences per observable (counters stay exact).
pub const MAX_REPORTED: usize = 8;

impl Comparison {
    pub fn passed(&self) -> bool {
        self.divergent == 0 && self.structural.is_empty()
    }
}

/// Compare two observable sets under `oracle`. Observables are matched
/// by name; the candidate must expose exactly the reference's names
/// with the same lengths — anything else is a structural mismatch.
pub fn compare(oracle: Oracle, got: &[Observable], want: &[Observable]) -> Comparison {
    let mut out = Comparison::default();
    for w in want {
        let Some(g) = got.iter().find(|g| g.name == w.name) else {
            out.structural
                .push(format!("candidate is missing observable '{}'", w.name));
            continue;
        };
        if g.values.len() != w.values.len() {
            out.structural.push(format!(
                "observable '{}' length skew: got {}, want {}",
                w.name,
                g.values.len(),
                w.values.len()
            ));
            continue;
        }
        let mut reported = 0usize;
        let mut obs_divergent = 0u64;
        for (i, (&gv, &wv)) in g.values.iter().zip(&w.values).enumerate() {
            out.compared += 1;
            if !oracle.accepts(gv, wv) {
                out.divergent += 1;
                obs_divergent += 1;
                if reported < MAX_REPORTED {
                    out.divergences.push(Divergence {
                        observable: w.name.clone(),
                        index: i,
                        got: gv,
                        want: wv,
                    });
                    reported += 1;
                }
            }
        }
        out.per_observable
            .push((w.name.clone(), w.values.len() as u64, obs_divergent));
    }
    for g in got {
        if !want.iter().any(|w| w.name == g.name) {
            out.structural
                .push(format!("candidate has extra observable '{}'", g.name));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(name: &str, values: Vec<f64>) -> Observable {
        Observable::new(name, values)
    }

    #[test]
    fn bit_identity_catches_one_ulp() {
        let a = [obs("x", vec![1.0, 2.0])];
        let b = [obs("x", vec![1.0, f64::from_bits(2.0f64.to_bits() + 1)])];
        let c = compare(Oracle::BitIdentical, &a, &b);
        assert_eq!(c.compared, 2);
        assert_eq!(c.divergent, 1);
        assert!(!c.passed());
        // The same pair passes the tolerance oracle.
        assert!(compare(Oracle::field(), &a, &b).passed());
    }

    #[test]
    fn tolerance_scales_with_magnitude() {
        let a = [obs("x", vec![1e12])];
        let b = [obs("x", vec![1e12 + 1.0])];
        assert!(compare(Oracle::field(), &a, &b).passed());
        let b = [obs("x", vec![1e12 + 1e4])];
        assert!(!compare(Oracle::field(), &a, &b).passed());
    }

    #[test]
    fn nan_never_passes() {
        let a = [obs("x", vec![f64::NAN])];
        let b = [obs("x", vec![f64::NAN])];
        assert!(!compare(Oracle::field(), &a, &b).passed());
        // Bit-identical NaN *is* equal bitwise — but field oracles are
        // what cross-config cells use, and those reject NaN.
        assert!(compare(Oracle::BitIdentical, &a, &b).passed());
    }

    #[test]
    fn structural_mismatches_are_reported() {
        let a = [obs("x", vec![1.0]), obs("extra", vec![0.0])];
        let b = [obs("x", vec![1.0, 2.0]), obs("missing", vec![0.0])];
        let c = compare(Oracle::field(), &a, &b);
        assert_eq!(c.structural.len(), 3, "{:?}", c.structural);
        assert!(!c.passed());
    }

    #[test]
    fn divergence_reporting_is_capped_but_counted() {
        let a = [obs("x", vec![0.0; 100])];
        let b = [obs("x", vec![1.0; 100])];
        let c = compare(Oracle::field(), &a, &b);
        assert_eq!(c.divergent, 100);
        assert_eq!(c.divergences.len(), MAX_REPORTED);
    }
}
