//! Degenerate instances through the *registry*: the Beale cycling LP and a
//! fully tie-ridden platform, solved by every registered strategy, with
//! each LP-backed answer's own scenario re-solved on both LP engines
//! (revised and tableau) and certified against the exact rational backend.
//!
//! The raw-`SolverOptions` unit tests in `dls-lp` cover the solver kernels;
//! this suite covers the full path the sweeps take — `Scheduler::solve` →
//! `lp_model::solve_model` — on inputs engineered to cycle or stall a
//! naive simplex.

use dls::core::lp_model::{scenario_model, solve_scenario_exact};
use dls::core::prelude::*;
use dls::lp::{
    solve, solve_exact, solve_revised, solve_revised_with, Problem, Rational, Relation, Scalar,
    SolverOptions,
};
use dls::platform::Platform;
use dls::tree::{TreeOrder, TreeScheduler};

/// Beale's 1955 cycling LP: min -0.75a + 150b - 0.02c + 6d, the classic
/// instance on which Dantzig's rule cycles forever.
fn beale() -> Problem {
    let mut p = Problem::minimize();
    let a = p.add_var(-0.75);
    let b = p.add_var(150.0);
    let c = p.add_var(-0.02);
    let d = p.add_var(6.0);
    p.add_constraint(
        [(a, 0.25), (b, -60.0), (c, -0.04), (d, 9.0)],
        Relation::Le,
        0.0,
    );
    p.add_constraint(
        [(a, 0.5), (b, -90.0), (c, -0.02), (d, 3.0)],
        Relation::Le,
        0.0,
    );
    p.add_constraint([(c, 1.0)], Relation::Le, 1.0);
    p
}

/// A maximally degenerate platform: four identical workers on a bus, so
/// every ordering ties and the scenario LPs are riddled with equal ratios.
/// Small enough (p = 4) for the `p!²` brute-force scenario search.
fn degenerate_bus() -> Platform {
    Platform::bus(1.0, 0.5, &[2.0, 2.0, 2.0, 2.0]).unwrap()
}

/// Re-solves the scenario LP that strategy `name` chose on `p` (its
/// answer `sol`) on both engines, each handed the problem directly, and
/// checks that both optima match the reported throughput to 1e-9 relative.
/// Only LP-backed answers have a scenario LP of their own.
fn assert_engines_agree_on_own_scenario(name: &str, p: &Platform, sol: &Solution) {
    if !matches!(sol.provenance, Provenance::Lp { .. }) {
        return;
    }
    let (ir, _) = scenario_model(
        sol.execution_platform(p),
        sol.schedule.send_order(),
        sol.schedule.return_order(),
        PortModel::OnePort,
    )
    .unwrap();
    for (engine, result) in [
        ("revised", solve_revised(ir.problem())),
        ("tableau", solve(ir.problem())),
    ] {
        let objective = result
            .unwrap_or_else(|e| panic!("{name}: {engine} failed on its own scenario: {e}"))
            .objective;
        let rel = (objective - sol.throughput).abs() / sol.throughput.abs().max(1.0);
        assert!(
            rel <= 1e-9,
            "{name}: {engine} re-solve of its scenario gives {objective}, the strategy reported {}",
            sol.throughput
        );
    }
}

#[test]
fn beale_agrees_across_engines_and_backends() {
    let p = beale();
    let opts = SolverOptions::for_size(p.num_vars(), p.num_constraints());
    let tableau = solve(&p).unwrap();
    let revised = solve_revised_with::<f64>(&p, &opts, None).unwrap();
    let exact = solve_exact::<Rational>(&p).unwrap().to_f64();
    assert!((exact.objective - (-0.05)).abs() < 1e-12);
    for (name, obj) in [
        ("tableau", tableau.objective),
        ("revised", revised.solution.objective),
    ] {
        assert!(
            (obj - exact.objective).abs() <= 1e-9 * exact.objective.abs().max(1.0),
            "{name} disagrees with exact on Beale: {obj} vs {}",
            exact.objective
        );
    }
}

#[test]
fn registry_strategies_agree_across_engines_on_the_degenerate_bus() {
    let p = degenerate_bus();
    for s in dls::core::registry() {
        let sol = s
            .solve(&p)
            .unwrap_or_else(|e| panic!("{} failed on the degenerate bus: {e}", s.name()));
        assert_engines_agree_on_own_scenario(s.name(), &p, &sol);
        assert!(
            sol.verified_timeline(&p, 1e-7).is_ok(),
            "{}: infeasible timeline",
            s.name()
        );
    }
}

#[test]
fn registry_strategies_match_exact_rationals_on_the_degenerate_bus() {
    let p = degenerate_bus();
    // The built-ins plus the two star-collapse tree strategies, built
    // directly so that no global provider changes what the other tests of
    // this binary iterate.
    let tree: [Box<dyn Scheduler>; 2] = [
        Box::new(TreeScheduler::registry_default(TreeOrder::Fifo)),
        Box::new(TreeScheduler::registry_default(TreeOrder::Lifo)),
    ];
    for s in dls::core::registry().into_iter().chain(tree) {
        let sol = s
            .solve(&p)
            .unwrap_or_else(|e| panic!("{} failed on the degenerate bus: {e}", s.name()));
        // Re-solve the strategy's own chosen scenario with exact rational
        // arithmetic: the LP optimum over that scenario bounds what the
        // strategy reports, and LP-provenance strategies must attain it.
        let (rho, _) = solve_scenario_exact::<Rational>(
            sol.execution_platform(&p),
            sol.schedule.send_order(),
            sol.schedule.return_order(),
            PortModel::OnePort,
        )
        .unwrap();
        let rho = rho.to_f64();
        assert!(
            rho + 1e-9 >= sol.throughput,
            "{}: reported throughput {} exceeds the exact LP optimum {rho} of its own scenario",
            s.name(),
            sol.throughput
        );
        let lp_backed = matches!(sol.provenance, Provenance::Lp { .. });
        // The closed forms on this bus are also exact scenario optima
        // (Theorem 2 / the tight LIFO chain), as is the brute-force search.
        let exact_optimal = lp_backed
            || matches!(
                s.name(),
                "bus_fifo" | "optimal_lifo" | "tree_lifo" | "chain" | "brute_fifo" | "brute_force"
            );
        if exact_optimal {
            assert!(
                (rho - sol.throughput).abs() <= 1e-9 * rho.max(1.0),
                "{}: throughput {} does not attain the exact optimum {rho}",
                s.name(),
                sol.throughput
            );
        }
    }
}

#[test]
fn degenerate_star_with_zero_cost_ties_survives_both_engines() {
    // A star whose c-order has ties *and* whose optimal selection drops a
    // worker: heavy degeneracy in phase 2 (many zero loads / zero ratios).
    let p =
        Platform::star_with_z(&[(1.0, 2.0), (1.0, 2.0), (1.0, 2.0), (100.0, 0.1)], 0.5).unwrap();
    for s in dls::core::registry() {
        // The bus closed form rightly refuses a star; every LP-backed
        // strategy's scenario must solve alike on both engines.
        match s.solve(&p) {
            Ok(sol) => assert_engines_agree_on_own_scenario(s.name(), &p, &sol),
            Err(e) => assert_eq!(s.name(), "bus_fifo", "unexpected failure: {e}"),
        }
    }
}
