//! Monte-Carlo collisions with a neutral background gas (PIC-MCC).
//!
//! Section 2 of the paper: "in some state-of-the-art PIC
//! implementations, additional routines, including particle collisions
//! \[19\], ionizations and particle injections, may be interleaved" with
//! the core cycle. This module implements the standard elastic
//! null-collision step against a stationary heavy neutral background:
//! per particle, collide with probability `P = 1 − exp(−n σ |v| Δt)`;
//! a collision redirects the velocity isotropically, preserving speed
//! (heavy-scatterer limit).
//!
//! Randomness is *counter-based* (hash of seed, step, particle id), so
//! the outcome is independent of thread schedule — the same
//! reproducibility contract as the rest of the DSL.

use oppic_core::parloop::{par_loop, ExecPolicy, Space};

/// Neutral-background collision parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollisionModel {
    /// Neutral number density (simulation units).
    pub neutral_density: f64,
    /// Elastic cross-section.
    pub cross_section: f64,
}

/// Per-step collision statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CollisionStats {
    pub collided: u64,
}

/// SplitMix64 → three unit-interval doubles, counter-based.
#[inline]
fn unit3(seed: u64, step: u64, particle: u64) -> [f64; 3] {
    let mut s = seed ^ step.rotate_left(24) ^ particle.wrapping_mul(0x9E3779B97F4A7C15);
    let mut next = move || {
        s = s.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z = z ^ (z >> 31);
        (z >> 11) as f64 / (1u64 << 53) as f64
    };
    [next(), next(), next()]
}

/// Apply one collision step to a flat velocity column (`dim == 3`).
/// Thread-schedule independent; returns how many particles collided.
pub fn collide(
    policy: &ExecPolicy,
    model: &CollisionModel,
    vel: &mut [f64],
    dt: f64,
    seed: u64,
    step: u64,
) -> CollisionStats {
    use std::sync::atomic::{AtomicU64, Ordering};
    let collided = AtomicU64::new(0);
    let nsigma = model.neutral_density * model.cross_section;
    par_loop(policy, Space::Range, (3, vel), |w| {
        w.each(|i, v| {
            let speed = (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt();
            if speed == 0.0 {
                return;
            }
            let p = 1.0 - (-nsigma * speed * dt).exp();
            let r = unit3(seed, step, i as u64);
            if r[0] < p {
                // Isotropic redirect, speed preserved (elastic, heavy
                // scatterer): uniform direction on the sphere.
                let cos_t = 2.0 * r[1] - 1.0;
                let sin_t = (1.0 - cos_t * cos_t).sqrt();
                let phi = 2.0 * std::f64::consts::PI * r[2];
                v[0] = speed * sin_t * phi.cos();
                v[1] = speed * sin_t * phi.sin();
                v[2] = speed * cos_t;
                collided.fetch_add(1, Ordering::Relaxed);
            }
        });
    });
    CollisionStats {
        collided: collided.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn beam(n: usize) -> Vec<f64> {
        (0..n).flat_map(|_| [0.5, 0.0, 0.0]).collect()
    }

    #[test]
    fn zero_density_is_a_noop() {
        let model = CollisionModel {
            neutral_density: 0.0,
            cross_section: 1.0,
        };
        let mut vel = beam(100);
        let before = vel.clone();
        let st = collide(&ExecPolicy::Par, &model, &mut vel, 0.1, 7, 1);
        assert_eq!(st.collided, 0);
        assert_eq!(vel, before);
    }

    #[test]
    fn collisions_preserve_speed_exactly() {
        let model = CollisionModel {
            neutral_density: 50.0,
            cross_section: 1.0,
        };
        let mut vel = beam(2000);
        let st = collide(&ExecPolicy::Par, &model, &mut vel, 1.0, 7, 1);
        assert!(
            st.collided > 1500,
            "high rate must collide most: {}",
            st.collided
        );
        for v in vel.chunks(3) {
            let s = (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt();
            assert!((s - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn collision_rate_matches_expectation() {
        // P = 1 - exp(-n sigma v dt); choose parameters for P = 0.3.
        let v = 0.5;
        let dt = 1.0;
        let p_target = 0.3f64;
        let nsigma = -(1.0f64 - p_target).ln() / (v * dt);
        let model = CollisionModel {
            neutral_density: nsigma,
            cross_section: 1.0,
        };
        let n = 40_000;
        let mut vel = beam(n);
        let st = collide(&ExecPolicy::Par, &model, &mut vel, dt, 99, 3);
        let rate = st.collided as f64 / n as f64;
        assert!((rate - p_target).abs() < 0.01, "rate {rate} vs {p_target}");
    }

    #[test]
    fn isotropic_after_many_collisions() {
        // Beam along +x thermalises directionally: mean velocity ~ 0.
        let model = CollisionModel {
            neutral_density: 100.0,
            cross_section: 1.0,
        };
        let mut vel = beam(50_000);
        collide(&ExecPolicy::Par, &model, &mut vel, 1.0, 5, 0);
        let n = vel.len() / 3;
        let mean: [f64; 3] = vel.chunks(3).fold([0.0; 3], |mut a, v| {
            a[0] += v[0];
            a[1] += v[1];
            a[2] += v[2];
            a
        });
        for m in mean {
            assert!(
                (m / n as f64).abs() < 0.02,
                "residual drift {}",
                m / n as f64
            );
        }
    }

    #[test]
    fn deterministic_across_schedules() {
        let model = CollisionModel {
            neutral_density: 5.0,
            cross_section: 0.7,
        };
        let mut a = beam(5000);
        let mut b = beam(5000);
        collide(&ExecPolicy::Seq, &model, &mut a, 0.5, 11, 9);
        collide(&ExecPolicy::Par, &model, &mut b, 0.5, 11, 9);
        assert_eq!(a, b, "counter-based RNG must be schedule independent");
        // And different steps give different outcomes.
        let mut c = beam(5000);
        collide(&ExecPolicy::Seq, &model, &mut c, 0.5, 11, 10);
        assert_ne!(a, c);
    }
}
