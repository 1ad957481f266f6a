//! Bottleneck diagnosis via LP duality.
//!
//! The dual value (shadow price) of each constraint of LP (2) measures the
//! throughput gained per unit of extra deadline budget: a positive dual on
//! the one-port row (2b) means the master's port is the bottleneck (the
//! comm-bound regime of Theorem 2); positive duals on deadline rows (2a)
//! identify the workers whose timing chain limits the schedule. Because
//! every right-hand side is `T = 1`, strong duality gives the tidy
//! identity `Σ duals = ρ` — which the tests exploit.
//!
//! The scenario LP is built by [`lp_model::scenario_model`] and solved
//! through [`lp_model::solve_model`], so a diagnosis passes the same
//! analyzer gate, engine and tableau retry as the schedule it explains.

use dls_lp::Solution;
use dls_platform::{Platform, WorkerId};

use crate::error::CoreError;
use crate::lp_model;
use crate::schedule::PortModel;

/// Shadow prices of a scenario's constraints.
#[derive(Debug, Clone)]
pub struct Diagnosis {
    /// Throughput of the diagnosed scenario.
    pub throughput: f64,
    /// Shadow price of the one-port constraint (2b); 0 under two-port or
    /// when the port is not saturated.
    pub port_dual: f64,
    /// `(worker, shadow price)` of each deadline constraint (2a), in
    /// enrollment order.
    pub deadline_duals: Vec<(WorkerId, f64)>,
}

impl Diagnosis {
    /// `true` when the master's port is the binding resource.
    pub fn is_comm_bound(&self) -> bool {
        self.port_dual > 1e-7
    }

    /// Workers whose deadline constraints bind (positive shadow price).
    pub fn binding_workers(&self) -> Vec<WorkerId> {
        self.deadline_duals
            .iter()
            .filter(|(_, y)| *y > 1e-7)
            .map(|(w, _)| *w)
            .collect()
    }
}

/// Solves the scenario LP and extracts its dual prices.
pub fn diagnose(
    platform: &Platform,
    send_order: &[WorkerId],
    return_order: &[WorkerId],
    model: PortModel,
) -> Result<Diagnosis, CoreError> {
    let (ir, _vars) = lp_model::scenario_model(platform, send_order, return_order, model)?;
    let sol = lp_model::solve_model(&ir)?;
    Ok(read_duals(send_order, model, &sol))
}

/// Reads the shadow prices off an optimum `sol` of the scenario LP that
/// enrolls `send_order` under `model`. The constraint layout is
/// `scenario_model`'s: one deadline row per enrolled worker (send order),
/// then the one-port row if applicable.
fn read_duals(send_order: &[WorkerId], model: PortModel, sol: &Solution<f64>) -> Diagnosis {
    let deadline_duals: Vec<(WorkerId, f64)> = send_order
        .iter()
        .zip(&sol.duals)
        .map(|(w, y)| (*w, y.max(0.0)))
        .collect();
    let port_dual = if model == PortModel::OnePort {
        sol.duals[send_order.len()].max(0.0)
    } else {
        0.0
    };
    Diagnosis {
        throughput: sol.objective,
        port_dual,
        deadline_duals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diagnose_fifo(p: &Platform) -> Diagnosis {
        let order = p.order_by_c();
        diagnose(p, &order, &order, PortModel::OnePort).unwrap()
    }

    #[test]
    fn comm_bound_platform_has_positive_port_dual() {
        // Very fast workers: the port is the bottleneck.
        let p = Platform::star_with_z(&[(1.0, 0.01), (1.0, 0.01)], 0.5).unwrap();
        let d = diagnose_fifo(&p);
        assert!(d.is_comm_bound(), "port dual = {}", d.port_dual);
    }

    #[test]
    fn compute_bound_platform_has_zero_port_dual() {
        let p = Platform::star_with_z(&[(0.1, 10.0), (0.1, 12.0)], 0.5).unwrap();
        let d = diagnose_fifo(&p);
        assert!(!d.is_comm_bound(), "port dual = {}", d.port_dual);
        // Every enrolled worker's deadline binds.
        assert_eq!(d.binding_workers().len(), 2);
    }

    #[test]
    fn duals_sum_to_throughput() {
        // All rhs are 1, so strong duality gives sum(duals) = rho.
        for p in [
            Platform::star_with_z(&[(1.0, 2.0), (2.0, 1.0), (1.5, 3.0)], 0.5).unwrap(),
            Platform::star_with_z(&[(1.0, 0.05), (1.2, 0.02)], 0.5).unwrap(),
        ] {
            let d = diagnose_fifo(&p);
            let total: f64 = d.deadline_duals.iter().map(|(_, y)| y).sum::<f64>() + d.port_dual;
            assert!(
                (total - d.throughput).abs() < 1e-6,
                "sum of duals {total} != rho {}",
                d.throughput
            );
        }
    }

    #[test]
    fn two_port_never_reports_port_bound() {
        let p = Platform::star_with_z(&[(1.0, 0.01), (1.0, 0.01)], 0.5).unwrap();
        let order = p.order_by_c();
        let d = diagnose(&p, &order, &order, PortModel::TwoPort).unwrap();
        assert!(!d.is_comm_bound());
    }

    #[test]
    fn both_engines_give_the_same_diagnosis() {
        // Each engine solves the scenario LP directly, and `diagnose`'s own
        // read-out turns its duals into a diagnosis. On a comm-bound and a
        // compute-bound platform (both with a unique dual optimum) the two
        // engines must agree on the regime, the binding workers and ρ, and
        // each must satisfy strong duality on its own.
        for (p, comm_bound) in [
            (
                Platform::star_with_z(&[(1.0, 0.01), (1.2, 0.02)], 0.5).unwrap(),
                true,
            ),
            (
                Platform::star_with_z(&[(0.1, 10.0), (0.1, 12.0)], 0.5).unwrap(),
                false,
            ),
        ] {
            let order = p.order_by_c();
            let (ir, _) = lp_model::scenario_model(&p, &order, &order, PortModel::OnePort).unwrap();
            let [revised, tableau] = [
                dls_lp::solve_revised(ir.problem()).unwrap(),
                dls_lp::solve(ir.problem()).unwrap(),
            ]
            .map(|sol| read_duals(&order, PortModel::OnePort, &sol));
            assert_eq!(revised.is_comm_bound(), comm_bound);
            assert_eq!(tableau.is_comm_bound(), comm_bound);
            assert_eq!(revised.binding_workers(), tableau.binding_workers());
            let rel = (revised.throughput - tableau.throughput).abs() / tableau.throughput;
            assert!(
                rel <= 1e-9,
                "engines disagree on rho: revised {} vs tableau {}",
                revised.throughput,
                tableau.throughput
            );
            for d in [&revised, &tableau] {
                let total: f64 = d.deadline_duals.iter().map(|(_, y)| y).sum::<f64>() + d.port_dual;
                assert!(
                    (total - d.throughput).abs() <= 1e-9 * d.throughput,
                    "sum of duals {total} != rho {}",
                    d.throughput
                );
            }
        }
    }

    #[test]
    fn non_participating_worker_has_zero_dual() {
        // A worker the LP excludes cannot have a binding deadline.
        let p = Platform::star_with_z(&[(0.1, 1.0), (0.1, 1.0), (50.0, 1.0)], 0.5).unwrap();
        let d = diagnose_fifo(&p);
        let slow = d
            .deadline_duals
            .iter()
            .find(|(w, _)| w.index() == 2)
            .unwrap();
        assert!(slow.1 < 1e-7, "excluded worker has dual {}", slow.1);
    }
}
