//! Hand-computed certification of the paper's formulas on small
//! instances, carried out in exact rational arithmetic where possible.
//! Every expected value below was derived by hand from the paper's
//! equations, independently of the implementation.

use dls::core::closed_form::{bus_fifo, BusRegime};
use dls::core::lp_model::solve_scenario_exact;
use dls::core::prelude::*;
use dls::core::PortModel;
use dls::lp::Rational;
use dls::platform::{Platform, WorkerId};

fn close(a: f64, b: f64) {
    assert!((a - b).abs() < 1e-12, "expected {b}, got {a}");
}

/// Theorem 2 by hand, two identical workers: c = 1, d = 1/2, w = 2.
///
/// u1 = 1/(d+w) · (d+w)/(c+w) = 1/3.
/// u2 = 1/(d+w) · [(d+w)/(c+w)]² = (1/2.5)·(2.5/3)² = 25/90 = 5/18.
/// U  = 1/3 + 5/18 = 11/18.
/// ρ̃  = U/(1 + U/2) = (11/18)/(47/36) = 22/47.
/// 1/(c+d) = 2/3 > 22/47, so the schedule is compute-bound and
/// ρ_opt = 22/47.
#[test]
fn theorem2_two_identical_workers_by_hand() {
    let p = Platform::bus(1.0, 0.5, &[2.0, 2.0]).unwrap();
    let sol = bus_fifo(&p).unwrap();
    assert_eq!(sol.regime, BusRegime::ComputeBound);
    close(sol.throughput, 22.0 / 47.0);
    // Loads: alpha_i = u_i / (1 + dU): alpha1 = (1/3)/(47/36) = 12/47,
    // alpha2 = (5/18)/(47/36) = 10/47.
    close(sol.loads[0], 12.0 / 47.0);
    close(sol.loads[1], 10.0 / 47.0);
    // The exact rational LP agrees.
    let order: Vec<WorkerId> = p.ids().collect();
    let (rho, loads) =
        solve_scenario_exact::<Rational>(&p, &order, &order, PortModel::OnePort).unwrap();
    assert_eq!(rho, Rational::new(22, 47));
    assert_eq!(loads[0], Rational::new(12, 47));
    assert_eq!(loads[1], Rational::new(10, 47));
}

/// Comm-bound side of Theorem 2 by hand: c = 1, d = 1/2, w = 1/4, two
/// workers.
///
/// u1 = 1/(3/4)·(3/4)/(5/4) = 4/5.        (d+w = 3/4, c+w = 5/4)
/// u2 = (4/3)·(3/5)² = 12/25.
/// U = 4/5 + 12/25 = 32/25.
/// ρ̃ = U/(1+U/2) = (32/25)/(41/25) = 32/41 > 2/3 = 1/(c+d):
/// the port saturates and ρ_opt = 2/3.
#[test]
fn theorem2_comm_bound_by_hand() {
    let p = Platform::bus(1.0, 0.5, &[0.25, 0.25]).unwrap();
    let sol = bus_fifo(&p).unwrap();
    assert_eq!(sol.regime, BusRegime::CommBound);
    close(sol.throughput, 2.0 / 3.0);
    close(sol.two_port_throughput, 32.0 / 41.0);
    // Figure 7 rescaling: scale = 1/(ρ̃(c+d)) = 41/48, gap = 7/48.
    close(sol.gap, 7.0 / 48.0);
    // One-port loads sum to ρ_opt.
    close(sol.loads.iter().sum::<f64>(), 2.0 / 3.0);
    // Exact LP certification.
    let order: Vec<WorkerId> = p.ids().collect();
    let (rho, _) =
        solve_scenario_exact::<Rational>(&p, &order, &order, PortModel::OnePort).unwrap();
    assert_eq!(rho, Rational::new(2, 3));
}

/// LIFO chain by hand, two workers: c = 1, w = 2, d = 1/2 each.
///
/// alpha1 (c+w+d) = 1          -> alpha1 = 2/7.
/// alpha2 (c+w+d) = alpha1 w   -> alpha2 = (2/7)(2)/(7/2) = 8/49.
/// rho = 2/7 + 8/49 = 22/49.
#[test]
fn lifo_chain_by_hand() {
    let p = Platform::bus(1.0, 0.5, &[2.0, 2.0]).unwrap();
    let sol = optimal_lifo(&p).unwrap();
    close(sol.schedule.load(WorkerId(0)), 2.0 / 7.0);
    close(sol.schedule.load(WorkerId(1)), 8.0 / 49.0);
    close(sol.throughput, 22.0 / 49.0);
    // Exact LIFO LP agrees.
    let order: Vec<WorkerId> = p.ids().collect();
    let rev: Vec<WorkerId> = order.iter().rev().copied().collect();
    let (rho, _) = solve_scenario_exact::<Rational>(&p, &order, &rev, PortModel::OnePort).unwrap();
    assert_eq!(rho, Rational::new(22, 49));
    // On this bus instance FIFO (22/47) beats LIFO (22/49): the identical
    // numerators are a neat coincidence of the algebra, and the comparison
    // is exactly the comm-bound FIFO advantage (its sign flips with the
    // regime; see `ClusterModel::gdsdmi`).
    assert!(22.0 / 47.0 > sol.throughput);
}

/// Classical no-return bus formula [5, 10] by hand: c = 1, w = 2, two
/// workers: alpha1 = 1/3, alpha2 = alpha1·w/(c+w) = 2/9, rho = 5/9.
#[test]
fn classical_no_return_by_hand() {
    let p = Platform::bus(1.0, 0.0, &[2.0, 2.0]).unwrap();
    let sol = optimal_no_return(&p).unwrap();
    close(sol.loads[0], 1.0 / 3.0);
    close(sol.loads[1], 2.0 / 9.0);
    close(sol.throughput, 5.0 / 9.0);
}

/// The single-worker star under every model: rho = 1/(c+w+d) one-port and
/// two-port (no overlap possible with one worker), exact in rationals.
#[test]
fn single_worker_all_models() {
    let p = Platform::star_with_z(&[(3.0, 4.0)], 0.5).unwrap();
    let order = vec![WorkerId(0)];
    for model in [PortModel::OnePort, PortModel::TwoPort] {
        let (rho, _) = solve_scenario_exact::<Rational>(&p, &order, &order, model).unwrap();
        assert_eq!(rho, Rational::new(2, 17)); // 1/(3 + 4 + 1.5)
    }
}

/// Figure 2's general-schedule shape: a valid scenario with sigma2 != sigma1
/// on four workers solves and verifies (the paper's introductory example
/// uses sigma1 = (1,2,3,4), sigma2 = (1,3,2,4)).
#[test]
fn figure2_permutation_pair_shape() {
    let p = Platform::star_with_z(&[(1.0, 2.0), (1.5, 1.0), (2.0, 3.0), (1.2, 2.5)], 0.5).unwrap();
    let s1: Vec<WorkerId> = [0, 1, 2, 3].map(WorkerId).to_vec();
    let s2: Vec<WorkerId> = [0, 2, 1, 3].map(WorkerId).to_vec();
    let sol = solve_scenario(&p, &s1, &s2, PortModel::OnePort).unwrap();
    assert!(sol.throughput > 0.0);
    let t = Timeline::build(&p, &sol.schedule, PortModel::OnePort);
    assert!(t.verify(&p, &sol.schedule, 1e-7).is_empty());
    // The *specified* orders differ (mixed permutation pair); note the LP
    // may zero some loads, in which case the effective orders can collapse
    // back to FIFO — resource selection applies to any scenario.
    assert_ne!(sol.schedule.send_order(), sol.schedule.return_order());
}
