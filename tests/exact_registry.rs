//! Engine-level exact-rational certification (ROADMAP item): every
//! registry strategy, driven through `Scheduler::solve_exact`, must be
//! certified against the exact rational optimum of the scenario it selects
//! — no floating point anywhere in the exact pivot path.
//!
//! The certification contract (documented on `Scheduler::solve_exact`):
//! strategies whose reported throughput *is* their scenario's LP optimum
//! must match the exact objective to fp accuracy; the strategies that
//! report an achieved value (see [`UPPER_BOUNDED`]) are bounded by it from
//! above. A strategy may instead refuse a platform it cannot solve.

use dls::core::prelude::*;
use dls::lp::Scalar;
use dls::platform::{Platform, Worker};

/// Strategies whose module documents an achieved throughput below their
/// scenario's exact optimum: the `no_return` baseline, the non-LP
/// multi-round planners, the affine family (its exact re-solve drops the
/// latencies) and `tree_lp` (its exact pass certifies the relaxation
/// bound).
const UPPER_BOUNDED: [&str; 5] = [
    "no_return",
    "multiround_uniform",
    "multiround_geometric",
    "affine_fifo",
    "tree_lp",
];

/// The whole registry: the built-ins plus every provider's defaults.
/// Every test of this binary installs all providers before it reads the
/// registry, so none of them sees a registry that changes under it.
fn registry() -> Vec<Box<dyn Scheduler>> {
    dls::rounds::install();
    dls::tree::install();
    dls::core::affine::install();
    dls::core::interleaved::install();
    dls::core::registry()
}

/// 4-worker bus: small enough for both exhaustive searches (4!² scenario
/// LPs), bus-shaped so the Theorem 2 closed form applies — every built-in
/// strategy solves it.
fn fixture() -> Platform {
    Platform::bus(1.0, 0.5, &[2.0, 4.0, 3.0, 6.0]).unwrap()
}

/// Certifies one strategy's solution of `p` against its exact pass.
fn certify(s: &dyn Scheduler, p: &Platform, sol: &Solution) {
    let exact = s
        .solve_exact(p)
        .unwrap_or_else(|e| panic!("{} failed the exact pass: {e}", s.name()));
    let exact_rho = exact.throughput.to_f64();
    if UPPER_BOUNDED.contains(&s.name()) {
        // Achieved throughput; the exact scenario optimum re-optimizes
        // the loads and can only do better.
        assert!(
            exact_rho >= sol.throughput - 1e-9,
            "{}: exact {exact_rho} below achieved {}",
            s.name(),
            sol.throughput
        );
    } else {
        assert!(
            (exact_rho - sol.throughput).abs() < 1e-9,
            "{}: float {} not certified by exact {exact_rho}",
            s.name(),
            sol.throughput
        );
    }
    // Exact loads are a consistent primal point: they sum to the exact
    // objective (the LP's objective is the load total).
    let load_sum: f64 = exact.loads.iter().map(|l| l.to_f64()).sum();
    assert!(
        (load_sum - exact_rho).abs() < 1e-9,
        "{}: exact loads sum {load_sum} vs objective {exact_rho}",
        s.name()
    );
}

#[test]
fn every_one_round_registry_strategy_is_certified_against_exact_rationals() {
    let p = fixture();
    for s in registry() {
        let sol = s
            .solve(&p)
            .unwrap_or_else(|e| panic!("{} failed on the fixture: {e}", s.name()));
        certify(s.as_ref(), &p, &sol);
    }
}

#[test]
fn every_registry_strategy_refuses_or_certifies_a_star_that_is_not_z_tied() {
    // (c, w, d) = (1, 1, 10) and (2, 0.1, 0.1): the LIFO chain would report
    // 0.1212 against its scenario's 0.4545, the prefix chain 0.1245
    // against 0.4570. A closed form must refuse such a platform rather
    // than report a value its own certificate contradicts.
    let p = Platform::new(vec![
        Worker::new(1.0, 1.0, 10.0),
        Worker::new(2.0, 0.1, 0.1),
    ])
    .unwrap();
    for s in registry() {
        if let Ok(sol) = s.solve(&p) {
            certify(s.as_ref(), &p, &sol);
        }
    }
}

#[test]
fn exact_pass_agrees_with_the_direct_exact_lp_for_optimal_fifo() {
    // Cross-check the engine path against the raw lp_model exact API.
    let p = fixture();
    let s = dls::core::lookup("optimal_fifo").unwrap();
    let via_engine = s.solve_exact(&p).unwrap();
    let order = p.order_by_c();
    let (rho, loads) = dls::core::lp_model::solve_scenario_exact::<dls::lp::Rational>(
        &p,
        &order,
        &order,
        PortModel::OnePort,
    )
    .unwrap();
    assert_eq!(via_engine.throughput, rho);
    assert_eq!(via_engine.loads, loads);
}

#[test]
fn exact_pass_propagates_applicability_errors() {
    // A star: the bus closed form cannot select a scenario, so the exact
    // pass reports the same applicability error as solve().
    let p = Platform::star_with_z(&[(1.0, 2.0), (2.0, 1.0)], 0.5).unwrap();
    let s = dls::core::lookup("bus_fifo").unwrap();
    assert_eq!(s.solve_exact(&p).unwrap_err(), CoreError::NotABus);
}
