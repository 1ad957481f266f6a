//! Stochastic and systematic perturbation models.
//!
//! The paper's measured execution times deviate from the LP prediction by
//! up to ~20% (Section 5.3.2) and diverge systematically when the linear
//! cost model stops holding (Section 5.3.3). Since our testbed is a
//! simulator (see the [crate docs](crate)), these deviations are *modeled*:
//!
//! * [`Noise`] — seeded multiplicative jitter applied to every transfer and
//!   compute interval, standing in for OS scheduling, MPI progress and
//!   network variability;
//! * [`RealismModel`] — per-message latency and a compute inflation factor.
//!   The inflation models cache degradation on large matrices: the paper's
//!   Figure 13(b) shows real/predicted growing roughly linearly in the
//!   matrix size once communication is fast, which a per-unit compute cost
//!   `w · (1 + γ·n)` reproduces.

use rand::Rng;

/// Multiplicative random jitter on a nominal duration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Noise {
    /// No jitter: durations are exactly nominal.
    None,
    /// `nominal · (1 + U(-a, a))`.
    Uniform {
        /// Half-width `a` of the relative perturbation (e.g. `0.05` = ±5%).
        amplitude: f64,
    },
    /// `nominal · (1 + N(0, σ))`, truncated at ±3σ so durations can never
    /// go negative for σ < 1/3.
    Gaussian {
        /// Relative standard deviation.
        sigma: f64,
    },
}

impl Noise {
    /// Applies the jitter to a nominal duration (always returns a
    /// non-negative value).
    pub fn apply(&self, nominal: f64, rng: &mut impl Rng) -> f64 {
        debug_assert!(nominal >= 0.0);
        let jittered = match *self {
            Noise::None => nominal,
            Noise::Uniform { amplitude } => {
                let eps: f64 = rng.gen_range(-amplitude..=amplitude);
                nominal * (1.0 + eps)
            }
            Noise::Gaussian { sigma } => {
                // Box-Muller transform; both uniforms drawn regardless of
                // truncation to keep the RNG stream aligned.
                let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                let n = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                let eps = (n * sigma).clamp(-3.0 * sigma, 3.0 * sigma);
                nominal * (1.0 + eps)
            }
        };
        jittered.max(0.0)
    }
}

/// Systematic deviations from the pure linear cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RealismModel {
    /// Jitter on communication intervals.
    pub comm_noise: Noise,
    /// Jitter on computation intervals.
    pub comp_noise: Noise,
    /// Fixed per-message latency (seconds), added to every transfer. The
    /// paper's Figure 8 finds it negligible on the real cluster; it is 0 by
    /// default and available for sensitivity studies.
    pub comm_latency: f64,
    /// Multiplicative inflation of computation time (`>= 1`); models cache
    /// degradation for large working sets (Figure 13(b) discussion).
    pub comp_inflation: f64,
}

impl RealismModel {
    /// The pure linear model: no noise, no latency, no inflation. The
    /// simulator then reproduces [`dls_core::timeline::Timeline`] exactly.
    pub fn ideal() -> Self {
        RealismModel {
            comm_noise: Noise::None,
            comp_noise: Noise::None,
            comm_latency: 0.0,
            comp_inflation: 1.0,
        }
    }

    /// Default "real cluster" jitter used for the Section 5 reproduction:
    /// ±3% Gaussian on both communication and computation.
    pub fn cluster_jitter() -> Self {
        RealismModel {
            comm_noise: Noise::Gaussian { sigma: 0.03 },
            comp_noise: Noise::Gaussian { sigma: 0.03 },
            comm_latency: 0.0,
            comp_inflation: 1.0,
        }
    }

    /// Cluster jitter plus cache-degradation inflation for matrix size `n`:
    /// `comp_inflation = 1 + γ·n` with `γ = 0.002` (calibrated so that the
    /// real/LP ratio roughly doubles over the paper's 40..200 size sweep
    /// when communication is fast, matching Figure 13(b)'s trend).
    pub fn cluster_with_cache_effects(n: usize) -> Self {
        RealismModel {
            comp_inflation: 1.0 + 0.002 * n as f64,
            ..Self::cluster_jitter()
        }
    }

    /// Effective duration of a transfer whose nominal linear cost is
    /// `nominal` seconds.
    pub fn transfer_duration(&self, nominal: f64, rng: &mut impl Rng) -> f64 {
        self.comm_noise.apply(nominal, rng) + self.comm_latency
    }

    /// Effective duration of a computation whose nominal linear cost is
    /// `nominal` seconds.
    pub fn compute_duration(&self, nominal: f64, rng: &mut impl Rng) -> f64 {
        self.comp_noise.apply(nominal * self.comp_inflation, rng)
    }
}

#[cfg(test)]
// Unit tests assert exact outcomes of exact arithmetic.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn none_is_identity() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(Noise::None.apply(3.5, &mut rng), 3.5);
    }

    #[test]
    fn uniform_stays_in_band() {
        let mut rng = StdRng::seed_from_u64(1);
        let noise = Noise::Uniform { amplitude: 0.1 };
        for _ in 0..1000 {
            let v = noise.apply(2.0, &mut rng);
            assert!((1.8..=2.2).contains(&v), "out of band: {v}");
        }
    }

    #[test]
    fn gaussian_is_centered_and_truncated() {
        let mut rng = StdRng::seed_from_u64(2);
        let noise = Noise::Gaussian { sigma: 0.05 };
        let n = 20_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let v = noise.apply(1.0, &mut rng);
            assert!((0.85..=1.15).contains(&v), "beyond 3 sigma: {v}");
            sum += v;
        }
        let mean = sum / n as f64;
        assert!((mean - 1.0).abs() < 0.01, "bias: {mean}");
    }

    #[test]
    fn noise_never_negative() {
        let mut rng = StdRng::seed_from_u64(3);
        let noise = Noise::Uniform { amplitude: 2.0 }; // absurd amplitude
        for _ in 0..100 {
            assert!(noise.apply(1.0, &mut rng) >= 0.0);
        }
    }

    #[test]
    fn seeded_noise_is_deterministic() {
        let noise = Noise::Gaussian { sigma: 0.1 };
        let a: Vec<f64> = {
            let mut rng = StdRng::seed_from_u64(7);
            (0..10).map(|_| noise.apply(1.0, &mut rng)).collect()
        };
        let b: Vec<f64> = {
            let mut rng = StdRng::seed_from_u64(7);
            (0..10).map(|_| noise.apply(1.0, &mut rng)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn ideal_model_is_exact() {
        let mut rng = StdRng::seed_from_u64(4);
        let m = RealismModel::ideal();
        assert_eq!(m.transfer_duration(1.25, &mut rng), 1.25);
        assert_eq!(m.compute_duration(0.75, &mut rng), 0.75);
    }

    #[test]
    fn latency_adds_per_message() {
        let mut rng = StdRng::seed_from_u64(5);
        let m = RealismModel {
            comm_latency: 0.1,
            ..RealismModel::ideal()
        };
        assert!((m.transfer_duration(1.0, &mut rng) - 1.1).abs() < 1e-12);
    }

    #[test]
    fn inflation_scales_compute_only() {
        let mut rng = StdRng::seed_from_u64(6);
        let m = RealismModel {
            comp_inflation: 1.5,
            ..RealismModel::ideal()
        };
        assert!((m.compute_duration(2.0, &mut rng) - 3.0).abs() < 1e-12);
        assert_eq!(m.transfer_duration(2.0, &mut rng), 2.0);
    }

    #[test]
    fn cache_effect_grows_with_n() {
        let a = RealismModel::cluster_with_cache_effects(40).comp_inflation;
        let b = RealismModel::cluster_with_cache_effects(200).comp_inflation;
        assert!(b > a);
        assert!((a - 1.08).abs() < 1e-12);
        assert!((b - 1.4).abs() < 1e-12);
    }
}
