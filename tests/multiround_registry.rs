//! Workspace integration of the multi-round subsystem: provider
//! registration into `dls_core::registry`, parameterized lookup, the
//! R = 1 ↔ `optimal_fifo` reduction, monotone improvement in R, and the
//! engine surfaces (verified timelines, exact certification, sweeps) on
//! expanded multi-round solutions.

use dls::core::engine::{Execution, Provenance};
use dls::core::prelude::*;
use dls::lp::Scalar;
use dls::platform::Platform;
use dls::sim::{simulate, SimConfig};

/// Compute-bound heterogeneous star where multi-round pipelining pays off.
fn fixture() -> Platform {
    Platform::star_with_z(&[(1.0, 5.0), (2.0, 4.0), (1.5, 6.0), (0.8, 7.0)], 0.5).unwrap()
}

#[test]
fn registry_lists_the_three_multiround_strategies() {
    dls::rounds::install();
    let names: Vec<String> = dls::core::registry()
        .iter()
        .map(|s| s.name().to_string())
        .collect();
    for expected in [
        "multiround_uniform",
        "multiround_geometric",
        "multiround_lp",
    ] {
        assert!(
            names.iter().any(|n| n == expected),
            "registry misses {expected}: {names:?}"
        );
    }
    // Names stay unique with the provider installed.
    let mut sorted = names.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), names.len(), "duplicate names: {names:?}");
}

#[test]
fn parameterized_ids_resolve_through_lookup() {
    dls::rounds::install();
    let s = dls::core::lookup("multiround_lp@8").expect("parameterized id resolves");
    assert_eq!(s.name(), "multiround_lp@8");
    assert_eq!(s.legend(), "MR_LP@8");
    assert!(dls::core::lookup("multiround_lp@0").is_none());
    assert!(dls::core::lookup("multiround_bogus@2").is_none());
}

#[test]
fn r1_reduces_to_optimal_fifo_for_every_planner() {
    dls::rounds::install();
    let p = fixture();
    let best = optimal_fifo(&p).unwrap().throughput;
    for id in [
        "multiround_uniform@1",
        "multiround_geometric@1",
        "multiround_lp@1",
    ] {
        let sol = dls::core::lookup(id).unwrap().solve(&p).unwrap();
        assert!(
            (sol.throughput - best).abs() < 1e-9,
            "{id}: {} vs optimal_fifo {best}",
            sol.throughput
        );
    }
}

#[test]
fn lp_planner_improves_monotonically_and_strictly_in_r() {
    dls::rounds::install();
    let p = fixture();
    let mut prev = 0.0;
    for r in [1, 2, 4, 8] {
        let sol = dls::core::lookup(&format!("multiround_lp@{r}"))
            .unwrap()
            .solve(&p)
            .unwrap();
        assert!(
            sol.throughput >= prev - 1e-9,
            "throughput dropped at R = {r}"
        );
        prev = sol.throughput;
    }
    let one = dls::core::lookup("multiround_lp@1")
        .unwrap()
        .solve(&p)
        .unwrap()
        .throughput;
    assert!(
        prev > one + 1e-6,
        "R = 8 should strictly beat one round: {prev} vs {one}"
    );
}

#[test]
fn multiround_solutions_verify_and_replay_on_their_execution_platform() {
    dls::rounds::install();
    let p = fixture();
    for s in dls::core::registry() {
        let Ok(sol) = s.solve(&p) else {
            continue; // bus-only closed form etc.
        };
        // Engine-level invariant: every solution's verified timeline exists
        // and its makespan matches an ideal simulator replay on the
        // execution platform.
        let t = sol
            .verified_timeline(&p, 1e-7)
            .unwrap_or_else(|v| panic!("{}: violations {v:?}", s.name()));
        let replay = simulate(
            sol.execution_platform(&p),
            &sol.schedule,
            &SimConfig::ideal(),
        );
        assert!(
            (replay.makespan - t.makespan()).abs() < 1e-9,
            "{}: timeline {} vs sim {}",
            s.name(),
            t.makespan(),
            replay.makespan
        );
        if s.name().starts_with("multiround") {
            assert!(matches!(sol.execution, Execution::Rounds { .. }));
            assert_eq!(sol.rounds(), 4, "{} default budget", s.name());
            assert!(sol.enrolled_workers(&p) <= p.num_workers());
        } else {
            assert_eq!(sol.execution, Execution::Direct);
        }
    }
}

#[test]
fn multiround_lp_is_exactly_certified_and_repeatable() {
    dls::rounds::install();
    let p = fixture();
    let s = dls::core::lookup("multiround_lp").unwrap();
    let first = s.solve(&p).unwrap();
    assert!(matches!(first.provenance, Provenance::Lp { .. }));
    // Exact certification of the expanded scenario.
    let exact = s.solve_exact(&p).unwrap();
    assert!(
        (exact.throughput.to_f64() - first.throughput).abs() < 1e-9,
        "exact {} vs float {}",
        exact.throughput.to_f64(),
        first.throughput
    );
    // A re-solve of the same expanded scenario starts cold again: same
    // pivots, same throughput to the bit.
    let again = s.solve(&p).unwrap();
    assert_eq!(again.provenance, first.provenance);
    assert_eq!(again.throughput.to_bits(), first.throughput.to_bits());
}

#[test]
fn uniform_planner_can_lose_to_one_round_on_comm_bound_platforms() {
    // The honest trade-off: equal installments re-send the port-bound
    // communication pattern without enough compute to hide, so uniform@R
    // may be worse than R = 1 — while the LP planner never is.
    dls::rounds::install();
    let p = Platform::star_with_z(&[(2.0, 0.2), (3.0, 0.1), (2.5, 0.3)], 0.5).unwrap();
    let one = dls::core::lookup("multiround_uniform@1")
        .unwrap()
        .solve(&p)
        .unwrap()
        .throughput;
    let lp8 = dls::core::lookup("multiround_lp@8")
        .unwrap()
        .solve(&p)
        .unwrap()
        .throughput;
    assert!(lp8 >= one - 1e-9, "LP embedding violated: {lp8} vs {one}");
}
