//! Theorem 2: closed-form optimal FIFO throughput on a bus network.
//!
//! For a bus (`c_i = c`, `d_i = d`) the optimal one-port FIFO throughput is
//!
//! ```text
//! ρ_opt = min{ 1/(c+d),  U / (1 + d·U) }
//! U     = Σ_i u_i,   u_i = 1/(d+w_i) · Π_{j≤i} (d+w_j)/(c+w_j)
//! ```
//!
//! and **all** processors are enrolled. The `U/(1+dU)` term is the optimal
//! *two-port* throughput `ρ̃` of the companion paper \[7, 8\]; the paper's
//! proof (Figure 7) turns the two-port schedule into a one-port one:
//!
//! * if `ρ̃ ≤ 1/(c+d)` sends and returns never overlap, so the two-port
//!   schedule already obeys the one-port rule;
//! * otherwise insert a uniform gap `x = ρ̃(c+d) − 1` before every return
//!   and rescale everything by `1/(ρ̃(c+d))`, landing exactly on
//!   `ρ_opt = 1/(c+d)`.
//!
//! This module also derives the per-worker loads: the two-port loads are
//! `α_i = u_i / (1 + dU)` (recovered here from the tight constraint chain;
//! validated against the LP in tests), and the one-port loads follow by the
//! rescaling above.
//!
//! The companion papers' LIFO load chain is not here: it is
//! [`crate::lifo::optimal_lifo`] itself, the one LIFO path of the crate.

use dls_platform::Platform;

use crate::error::CoreError;
use crate::schedule::Schedule;

/// Which regime of Theorem 2's `min` applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusRegime {
    /// `ρ̃ ≤ 1/(c+d)`: computation is the bottleneck; the two-port optimum
    /// is already one-port feasible and no idle time is needed.
    ComputeBound,
    /// `ρ̃ > 1/(c+d)`: the master's port is saturated; every worker gets a
    /// uniform idle gap and `ρ_opt = 1/(c+d)`.
    CommBound,
}

/// Closed-form solution of Theorem 2.
#[derive(Debug, Clone)]
pub struct BusFifoSolution {
    /// Optimal one-port FIFO throughput `ρ_opt`.
    pub throughput: f64,
    /// Optimal two-port FIFO throughput `ρ̃ = U/(1+dU)` from \[7, 8\].
    pub two_port_throughput: f64,
    /// One-port loads per worker, in platform declaration order (which is
    /// also the FIFO service order; on a bus all FIFO orders are
    /// equivalent).
    pub loads: Vec<f64>,
    /// Uniform idle gap inserted before each return (0 when compute-bound).
    pub gap: f64,
    /// Which side of the `min` fired.
    pub regime: BusRegime,
}

impl BusFifoSolution {
    /// Packages the loads as a FIFO [`Schedule`] in declaration order.
    pub fn schedule(&self, platform: &Platform) -> Schedule {
        Schedule::fifo(platform, platform.ids().collect(), self.loads.clone())
            .expect("closed-form loads are valid")
    }
}

/// Evaluates Theorem 2 on a bus platform.
///
/// Errors with [`CoreError::NotABus`] when links are heterogeneous.
pub fn bus_fifo(platform: &Platform) -> Result<BusFifoSolution, CoreError> {
    if !platform.is_bus() {
        return Err(CoreError::NotABus);
    }
    let c = platform.workers()[0].c;
    let d = platform.workers()[0].d;

    // u_i = 1/(d+w_i) * prod_{j<=i} (d+w_j)/(c+w_j), accumulated left to
    // right.
    let mut prefix = 1.0;
    let mut us = Vec::with_capacity(platform.num_workers());
    for w in platform.workers() {
        prefix *= (d + w.w) / (c + w.w);
        us.push(prefix / (d + w.w));
    }
    let u: f64 = us.iter().sum();

    let rho_two_port = u / (1.0 + d * u);
    let comm_cap = 1.0 / (c + d);

    // Two-port loads: alpha_i = u_i / (1 + dU).
    let two_port_loads: Vec<f64> = us.iter().map(|ui| ui / (1.0 + d * u)).collect();

    if rho_two_port <= comm_cap {
        Ok(BusFifoSolution {
            throughput: rho_two_port,
            two_port_throughput: rho_two_port,
            loads: two_port_loads,
            gap: 0.0,
            regime: BusRegime::ComputeBound,
        })
    } else {
        // Figure 7 transformation: scale by 1/(rho~ (c+d)), uniform gap.
        let scale = 1.0 / (rho_two_port * (c + d));
        let loads: Vec<f64> = two_port_loads.iter().map(|a| a * scale).collect();
        Ok(BusFifoSolution {
            throughput: comm_cap,
            two_port_throughput: rho_two_port,
            loads,
            gap: 1.0 - scale,
            regime: BusRegime::CommBound,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lp_model::solve_fifo;
    use crate::schedule::PortModel;
    use crate::timeline::{makespan, Timeline};
    use dls_platform::WorkerId;

    #[test]
    fn single_worker_bus_closed_form() {
        // One worker: rho~ = u1/(1+d u1), u1 = 1/(c+w1);
        // rho~ = 1/(c+w+d). comm_cap = 1/(c+d) > rho~ so compute-bound.
        let p = Platform::bus(2.0, 1.0, &[3.0]).unwrap();
        let sol = bus_fifo(&p).unwrap();
        assert_eq!(sol.regime, BusRegime::ComputeBound);
        assert!((sol.throughput - 1.0 / 6.0).abs() < 1e-12);
        assert!((sol.loads[0] - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn closed_form_matches_lp_compute_bound() {
        // Slow workers: compute-bound regime.
        let p = Platform::bus(1.0, 0.5, &[10.0, 8.0, 12.0, 9.0]).unwrap();
        let sol = bus_fifo(&p).unwrap();
        assert_eq!(sol.regime, BusRegime::ComputeBound);
        let lp = solve_fifo(&p, &p.order_by_c(), PortModel::OnePort).unwrap();
        assert!(
            (sol.throughput - lp.throughput).abs() < 1e-7,
            "closed form {} vs LP {}",
            sol.throughput,
            lp.throughput
        );
    }

    #[test]
    fn closed_form_matches_lp_comm_bound() {
        // Fast workers: the master's port saturates.
        let p = Platform::bus(1.0, 0.5, &[0.1, 0.2, 0.1, 0.15]).unwrap();
        let sol = bus_fifo(&p).unwrap();
        assert_eq!(sol.regime, BusRegime::CommBound);
        assert!((sol.throughput - 1.0 / 1.5).abs() < 1e-12);
        let lp = solve_fifo(&p, &p.order_by_c(), PortModel::OnePort).unwrap();
        assert!((sol.throughput - lp.throughput).abs() < 1e-7);
        assert!(sol.gap > 0.0);
    }

    #[test]
    fn loads_match_lp_loads_up_to_symmetry() {
        // With distinct w_i the optimal loads are unique; compare vectors.
        let p = Platform::bus(1.0, 0.5, &[5.0, 7.0, 9.0]).unwrap();
        let sol = bus_fifo(&p).unwrap();
        let lp = solve_fifo(&p, &p.ids().collect::<Vec<_>>(), PortModel::OnePort).unwrap();
        for (i, l) in sol.loads.iter().enumerate() {
            let lp_l = lp.schedule.load(WorkerId(i));
            assert!((l - lp_l).abs() < 1e-6, "load {i}: closed {l} vs lp {lp_l}");
        }
    }

    #[test]
    fn all_workers_enrolled() {
        let p = Platform::bus(1.0, 0.5, &[1.0, 50.0, 2.0]).unwrap();
        let sol = bus_fifo(&p).unwrap();
        assert!(sol.loads.iter().all(|&l| l > 0.0));
    }

    #[test]
    fn throughput_is_order_invariant_on_bus() {
        // Adler-Gong-Rosenberg: all FIFO orderings are equivalent on a bus.
        let ws = [3.0, 1.0, 7.0, 2.0];
        let p1 = Platform::bus(1.0, 0.5, &ws).unwrap();
        let mut rev = ws;
        rev.reverse();
        let p2 = Platform::bus(1.0, 0.5, &rev).unwrap();
        let a = bus_fifo(&p1).unwrap().throughput;
        let b = bus_fifo(&p2).unwrap().throughput;
        assert!(
            (a - b).abs() < 1e-9,
            "order changed bus throughput: {a} vs {b}"
        );
    }

    #[test]
    fn closed_form_schedule_fits_horizon() {
        for ws in [vec![10.0, 8.0], vec![0.1, 0.2, 0.3]] {
            let p = Platform::bus(1.0, 0.5, &ws).unwrap();
            let sol = bus_fifo(&p).unwrap();
            let s = sol.schedule(&p);
            let ms = makespan(&p, &s, PortModel::OnePort);
            assert!(ms <= 1.0 + 1e-9, "overflow: {ms}");
            // And saturates it (optimality).
            assert!((ms - 1.0).abs() < 1e-7, "wasted time: {ms}");
            let t = Timeline::build(&p, &s, PortModel::OnePort);
            assert!(t.verify(&p, &s, 1e-7).is_empty());
        }
    }

    #[test]
    fn comm_bound_gap_matches_timeline_idle() {
        // In the comm-bound regime every worker's physical idle time in the
        // earliest-feasible timeline... the *uniform-gap* construction is
        // one canonical optimal schedule; the eager timeline may place
        // returns earlier but the total makespan is identical.
        let p = Platform::bus(1.0, 0.5, &[0.1, 0.1]).unwrap();
        let sol = bus_fifo(&p).unwrap();
        let s = sol.schedule(&p);
        assert!((makespan(&p, &s, PortModel::OnePort) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn star_is_rejected() {
        let p = Platform::star_with_z(&[(1.0, 1.0), (2.0, 1.0)], 0.5).unwrap();
        assert_eq!(bus_fifo(&p).unwrap_err(), CoreError::NotABus);
    }

    #[test]
    fn two_port_throughput_matches_two_port_lp() {
        let p = Platform::bus(1.0, 0.5, &[2.0, 3.0, 4.0]).unwrap();
        let sol = bus_fifo(&p).unwrap();
        let lp = solve_fifo(&p, &p.ids().collect::<Vec<_>>(), PortModel::TwoPort).unwrap();
        assert!(
            (sol.two_port_throughput - lp.throughput).abs() < 1e-7,
            "rho~ {} vs two-port LP {}",
            sol.two_port_throughput,
            lp.throughput
        );
    }

    #[test]
    fn zero_return_cost_degrades_to_classical_formula() {
        // d = 0: u_i chain reduces to the classical no-return bus formula.
        let p = Platform::bus(1.0, 0.0, &[2.0, 2.0]).unwrap();
        let sol = bus_fifo(&p).unwrap();
        // alpha_1 = 1/(c+w) = 1/3; alpha_2 = alpha_1 * w/(c+w) = 2/9;
        // rho = 5/9.
        assert!((sol.throughput - 5.0 / 9.0).abs() < 1e-9);
    }
}
