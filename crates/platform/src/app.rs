//! Application cost models.
//!
//! The paper's MPI experiments (Section 5) use **matrix multiplication** as
//! the divisible application: one load unit = one product of two dense
//! `n × n` matrices of `f64`. The master ships both operands (so the input
//! message is twice the size of the output) and receives the product back:
//! `z = d/c = 1/2` exactly.
//!
//! [`ClusterModel`] captures the testbed: the paper's `gdsdmi` cluster at
//! LIP/ENS Lyon (P4 2.4 GHz nodes on commodity Ethernet, MPICH). We model
//! it as a bandwidth and an effective flop rate; the calibration constants
//! are documented on [`ClusterModel::gdsdmi`]. Absolute seconds are not
//! expected to match the 2005 hardware — only the *cost structure* matters
//! for reproducing the paper's comparisons, which are throughput ratios
//! between strategies on the same platforms.

use crate::platform::{Platform, PlatformError};
use crate::worker::Worker;

/// The matrix-product divisible application of Section 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatrixApp {
    /// Matrix dimension `n` (each product multiplies two `n × n` matrices).
    pub n: usize,
}

impl MatrixApp {
    /// New application instance for `n × n` matrices.
    pub fn new(n: usize) -> Self {
        MatrixApp { n }
    }

    /// Bytes shipped from master to worker per load unit: two `n × n`
    /// matrices of 8-byte floats.
    pub fn input_bytes(&self) -> f64 {
        2.0 * 8.0 * (self.n * self.n) as f64
    }

    /// Bytes returned per load unit: one `n × n` matrix.
    pub fn output_bytes(&self) -> f64 {
        8.0 * (self.n * self.n) as f64
    }

    /// Floating-point operations per product (`2n³`: an add and a multiply
    /// per inner-loop step).
    pub fn flops(&self) -> f64 {
        2.0 * (self.n as f64).powi(3)
    }

    /// Return-to-forward message ratio: exactly `1/2` for this application.
    pub fn z(&self) -> f64 {
        self.output_bytes() / self.input_bytes()
    }
}

/// A homogeneous cluster node/network model from which per-worker costs are
/// derived by speed factors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterModel {
    /// Sustained point-to-point bandwidth of a master-worker link, bytes/s.
    pub bandwidth: f64,
    /// Effective sustained flop rate of one worker, flop/s.
    pub flops: f64,
}

impl ClusterModel {
    /// Model of the paper's `gdsdmi` cluster (12 × P4 2.4 GHz, commodity
    /// Ethernet, MPICH):
    ///
    /// * 100 Mbit/s switched Ethernet ≈ **11.9 MB/s** sustained;
    /// * a straightforward triple-loop matrix product on a P4 2.4 GHz with
    ///   out-of-cache operands sustains on the order of **60 Mflop/s**
    ///   (the paper's programs are plain MPI + C, not tuned BLAS; for
    ///   n ≳ 130 the three `n × n` double matrices exceed the P4's 512 KB
    ///   L2 and the naive loop is memory-bound).
    ///
    /// This calibration puts the random platforms of Figures 10-12 in the
    /// mixed comm/compute regime where the paper's observed heuristic
    /// ranking (`LIFO ≲ INC_C < INC_W`) is reproduced; the FIFO/LIFO gap
    /// changes sign with the comm/compute regime, so a more comm- or
    /// compute-bound calibration need not reproduce it.
    pub fn gdsdmi() -> Self {
        ClusterModel {
            bandwidth: 11.9e6,
            flops: 60.0e6,
        }
    }

    /// Forward communication cost (s per load unit) at speed factor `k`
    /// (`k` times faster than the base cluster; the paper simulates
    /// heterogeneity exactly this way, by shrinking message sizes).
    pub fn comm_cost(&self, app: &MatrixApp, factor: f64) -> f64 {
        app.input_bytes() / (self.bandwidth * factor)
    }

    /// Computation cost (s per load unit) at speed factor `k`.
    pub fn comp_cost(&self, app: &MatrixApp, factor: f64) -> f64 {
        app.flops() / (self.flops * factor)
    }

    /// Builds the star platform for `app` given per-worker speed factors.
    ///
    /// `comm_factors[i]` and `comp_factors[i]` are the paper's "1 to 10"
    /// speed multipliers (1 = original node speed, 10 = ten times faster).
    /// Both slices must have the same length.
    pub fn platform(
        &self,
        app: &MatrixApp,
        comm_factors: &[f64],
        comp_factors: &[f64],
    ) -> Result<Platform, PlatformError> {
        assert_eq!(
            comm_factors.len(),
            comp_factors.len(),
            "factor slices must have equal length"
        );
        let z = app.z();
        Platform::new(
            comm_factors
                .iter()
                .zip(comp_factors)
                .map(|(&cf, &wf)| {
                    let c = self.comm_cost(app, cf);
                    Worker::new(c, self.comp_cost(app, wf), z * c)
                })
                .collect(),
        )
    }
}

#[cfg(test)]
// Unit tests assert exact outcomes of exact arithmetic.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn matrix_sizes_scale_correctly() {
        let app = MatrixApp::new(100);
        assert_eq!(app.input_bytes(), 160_000.0);
        assert_eq!(app.output_bytes(), 80_000.0);
        assert_eq!(app.flops(), 2.0e6);
        assert_eq!(app.z(), 0.5);
    }

    #[test]
    fn z_is_half_for_all_sizes() {
        for n in [1, 40, 200, 400] {
            assert_eq!(MatrixApp::new(n).z(), 0.5);
        }
    }

    #[test]
    fn faster_factor_means_smaller_cost() {
        let app = MatrixApp::new(200);
        let cl = ClusterModel::gdsdmi();
        assert!(cl.comm_cost(&app, 10.0) < cl.comm_cost(&app, 1.0));
        assert!((cl.comm_cost(&app, 2.0) * 2.0 - cl.comm_cost(&app, 1.0)).abs() < 1e-12);
        assert!(cl.comp_cost(&app, 5.0) < cl.comp_cost(&app, 1.0));
    }

    #[test]
    fn derived_platform_has_tied_z() {
        let app = MatrixApp::new(100);
        let cl = ClusterModel::gdsdmi();
        let p = cl
            .platform(&app, &[1.0, 2.0, 4.0], &[1.0, 1.0, 8.0])
            .unwrap();
        assert_eq!(p.num_workers(), 3);
        let z = p.common_z().unwrap();
        assert!((z - 0.5).abs() < 1e-12);
        // Twice the comm factor halves c.
        let w = p.workers();
        assert!((w[0].c / w[1].c - 2.0).abs() < 1e-9);
    }

    #[test]
    fn gdsdmi_magnitudes_are_sane() {
        // For n = 400 on the base node: sending ~2.56 MB at ~11.9 MB/s takes
        // a few tenths of a second; computing 1.28e8 flops at 6e7 flop/s
        // takes ~2.1 s. Sanity-check orders of magnitude only.
        let app = MatrixApp::new(400);
        let cl = ClusterModel::gdsdmi();
        let c = cl.comm_cost(&app, 1.0);
        let w = cl.comp_cost(&app, 1.0);
        assert!(c > 0.05 && c < 1.0, "comm cost {c}");
        assert!(w > 0.5 && w < 5.0, "comp cost {w}");
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_factor_slices_panic() {
        let app = MatrixApp::new(10);
        let _ = ClusterModel::gdsdmi().platform(&app, &[1.0], &[1.0, 2.0]);
    }
}
