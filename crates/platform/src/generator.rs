//! Random platform generation matching Section 5.3.2 of the paper.
//!
//! The paper evaluates heuristics on "a large number of platforms, randomly
//! generated, with parameters varying from 1 to 10, where 1 represents the
//! original speed ... and 10 represents a worker 10 times faster". Three
//! families appear in Figures 10-12:
//!
//! * **homogeneous** platforms (Fig. 10): every worker shares the same
//!   (random) communication and computation speed — a bus;
//! * **homogeneous communication, heterogeneous computation** (Fig. 11):
//!   a bus with per-worker compute speeds — the Theorem 2 regime;
//! * **fully heterogeneous** stars (Fig. 12).
//!
//! Generation is seeded and deterministic: every figure `repro_all` writes
//! (README, "Reproducing the paper's figures") regenerates bit-for-bit.

use rand::distributions::{Distribution, Uniform};
use rand::Rng;

use crate::app::{ClusterModel, MatrixApp};
use crate::platform::Platform;

/// How a speed factor varies across the workers of one platform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Heterogeneity {
    /// Factor fixed to 1 for every worker (the base cluster).
    Base,
    /// One random factor drawn per platform, shared by all workers.
    PerPlatform,
    /// An independent random factor per worker.
    PerWorker,
}

/// Configuration for random platform sampling.
#[derive(Debug, Clone)]
pub struct PlatformSampler {
    /// Number of workers (the paper uses 11: twelve nodes, one master).
    pub workers: usize,
    /// Communication-speed heterogeneity.
    pub comm: Heterogeneity,
    /// Computation-speed heterogeneity.
    pub comp: Heterogeneity,
    /// Inclusive range speed factors are drawn from (paper: `[1, 10]`).
    pub factor_range: (f64, f64),
}

impl PlatformSampler {
    /// The paper's default: 11 workers, factors in `[1, 10]`.
    pub fn paper_default(comm: Heterogeneity, comp: Heterogeneity) -> Self {
        PlatformSampler {
            workers: 11,
            comm,
            comp,
            factor_range: (1.0, 10.0),
        }
    }

    /// Fig. 10 family: homogeneous random platforms (bus, uniform compute).
    pub fn homogeneous() -> Self {
        Self::paper_default(Heterogeneity::PerPlatform, Heterogeneity::PerPlatform)
    }

    /// Fig. 11 family: homogeneous communication, heterogeneous computation.
    pub fn hetero_compute_bus() -> Self {
        Self::paper_default(Heterogeneity::PerPlatform, Heterogeneity::PerWorker)
    }

    /// Fig. 12 family: fully heterogeneous star.
    pub fn hetero_star() -> Self {
        Self::paper_default(Heterogeneity::PerWorker, Heterogeneity::PerWorker)
    }

    /// Draws the per-worker speed-factor vectors `(comm, comp)`.
    pub fn sample_factors(&self, rng: &mut impl Rng) -> (Vec<f64>, Vec<f64>) {
        let dist = Uniform::new_inclusive(self.factor_range.0, self.factor_range.1);
        let draw = |kind: Heterogeneity, rng: &mut dyn rand::RngCore| -> Vec<f64> {
            match kind {
                Heterogeneity::Base => vec![1.0; self.workers],
                Heterogeneity::PerPlatform => {
                    let f = dist.sample(rng);
                    vec![f; self.workers]
                }
                Heterogeneity::PerWorker => (0..self.workers).map(|_| dist.sample(rng)).collect(),
            }
        };
        let comm = draw(self.comm, rng);
        let comp = draw(self.comp, rng);
        (comm, comp)
    }

    /// Samples a platform for the matrix application `app` on cluster
    /// `cluster`.
    pub fn sample(&self, app: &MatrixApp, cluster: &ClusterModel, rng: &mut impl Rng) -> Platform {
        let (comm, comp) = self.sample_factors(rng);
        cluster
            .platform(app, &comm, &comp)
            .expect("sampled factors always yield valid costs")
    }

    /// Samples an *abstract* platform with unit base costs (`c = 1/f_comm`,
    /// `w = base_w/f_comp`, `d = z·c`). Useful for theory-level tests that
    /// need no application model.
    pub fn sample_abstract(&self, base_w: f64, z: f64, rng: &mut impl Rng) -> Platform {
        let (comm, comp) = self.sample_factors(rng);
        let workers: Vec<(f64, f64)> = comm
            .iter()
            .zip(&comp)
            .map(|(&cf, &wf)| (1.0 / cf, base_w / wf))
            .collect();
        Platform::star_with_z(&workers, z).expect("positive factors yield valid costs")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn homogeneous_sampler_yields_bus() {
        let mut rng = StdRng::seed_from_u64(42);
        let app = MatrixApp::new(100);
        let cl = ClusterModel::gdsdmi();
        for _ in 0..10 {
            let p = PlatformSampler::homogeneous().sample(&app, &cl, &mut rng);
            assert!(p.is_bus());
            assert_eq!(p.num_workers(), 11);
            // Fig. 10 platforms are fully homogeneous: same w too.
            let w0 = p.workers()[0].w;
            assert!(p.workers().iter().all(|w| (w.w - w0).abs() < 1e-12));
        }
    }

    #[test]
    fn hetero_compute_bus_is_bus_with_varied_w() {
        let mut rng = StdRng::seed_from_u64(7);
        let app = MatrixApp::new(100);
        let cl = ClusterModel::gdsdmi();
        let p = PlatformSampler::hetero_compute_bus().sample(&app, &cl, &mut rng);
        assert!(p.is_bus());
        let w0 = p.workers()[0].w;
        assert!(p.workers().iter().any(|w| (w.w - w0).abs() > 1e-9));
    }

    #[test]
    fn hetero_star_varies_links() {
        let mut rng = StdRng::seed_from_u64(3);
        let app = MatrixApp::new(100);
        let cl = ClusterModel::gdsdmi();
        let p = PlatformSampler::hetero_star().sample(&app, &cl, &mut rng);
        assert!(!p.is_bus());
        // z stays pinned at the application value.
        assert!((p.common_z().unwrap() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn factors_respect_range() {
        let mut rng = StdRng::seed_from_u64(11);
        let s = PlatformSampler::hetero_star();
        for _ in 0..100 {
            let (comm, comp) = s.sample_factors(&mut rng);
            for f in comm.iter().chain(&comp) {
                assert!(*f >= 1.0 && *f <= 10.0, "factor {f} out of range");
            }
        }
    }

    #[test]
    fn seeded_sampling_is_deterministic() {
        let app = MatrixApp::new(80);
        let cl = ClusterModel::gdsdmi();
        let a = PlatformSampler::hetero_star().sample(&app, &cl, &mut StdRng::seed_from_u64(5));
        let b = PlatformSampler::hetero_star().sample(&app, &cl, &mut StdRng::seed_from_u64(5));
        assert_eq!(a, b);
    }

    #[test]
    fn abstract_sampler_ties_z() {
        let mut rng = StdRng::seed_from_u64(13);
        let p = PlatformSampler::hetero_star().sample_abstract(5.0, 0.8, &mut rng);
        assert!((p.common_z().unwrap() - 0.8).abs() < 1e-9);
        assert_eq!(p.num_workers(), 11);
    }

    #[test]
    fn base_heterogeneity_gives_unit_factors() {
        let mut rng = StdRng::seed_from_u64(1);
        let s = PlatformSampler {
            workers: 4,
            comm: Heterogeneity::Base,
            comp: Heterogeneity::Base,
            factor_range: (1.0, 10.0),
        };
        let (comm, comp) = s.sample_factors(&mut rng);
        assert_eq!(comm, vec![1.0; 4]);
        assert_eq!(comp, vec![1.0; 4]);
    }
}
