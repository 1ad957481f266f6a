//! Registry round-trip: every built-in strategy, driven purely through the
//! `Scheduler` trait object, must produce a feasible (`Timeline::verify`
//! clean) schedule on a shared 5-worker fixture — and the engine's results
//! must coincide with the historical free-function API.

use dls::core::engine::Provenance;
use dls::core::prelude::*;
use dls::platform::Platform;
use dls::report::strategy_table;

/// The shared 5-worker fixture: a bus (so the Theorem 2 closed form
/// applies) with heterogeneous compute speeds, `z = 1/2`.
fn fixture() -> Platform {
    Platform::bus(1.0, 0.5, &[2.0, 4.0, 3.0, 6.0, 5.0]).unwrap()
}

#[test]
fn registry_enumerates_at_least_six_schedulers() {
    assert!(dls::core::registry().len() >= 6);
}

#[test]
fn every_registered_scheduler_is_verify_clean_on_the_fixture() {
    let p = fixture();
    for s in dls::core::registry() {
        let sol = s
            .solve(&p)
            .unwrap_or_else(|e| panic!("{} failed on the fixture: {e}", s.name()));
        let t = Timeline::build(&p, &sol.schedule, PortModel::OnePort);
        let violations = t.verify(&p, &sol.schedule, 1e-7);
        assert!(
            violations.is_empty(),
            "{}: timeline violations {violations:?}",
            s.name()
        );
        assert!(sol.throughput > 0.0, "{}: zero throughput", s.name());
    }
}

#[test]
fn optimal_fifo_dominates_inc_c_and_inc_w_on_the_fixture() {
    let p = fixture();
    let best = dls::core::lookup("optimal_fifo")
        .unwrap()
        .solve(&p)
        .unwrap()
        .throughput;
    for h in ["inc_c", "inc_w"] {
        let rho = dls::core::lookup(h).unwrap().solve(&p).unwrap().throughput;
        assert!(best >= rho - 1e-9, "optimal_fifo {best} lost to {h} {rho}");
    }
}

#[test]
fn optimal_fifo_dominates_heuristics_on_a_heterogeneous_star() {
    // The bus fixture makes all FIFO orders tie; a heterogeneous star makes
    // the dominance strict against INC_W.
    let p = Platform::star_with_z(
        &[(3.0, 0.5), (1.0, 5.0), (2.0, 1.0), (1.5, 2.0), (2.5, 0.8)],
        0.5,
    )
    .unwrap();
    let best = dls::core::lookup("optimal_fifo")
        .unwrap()
        .solve(&p)
        .unwrap()
        .throughput;
    let inc_c = dls::core::lookup("inc_c")
        .unwrap()
        .solve(&p)
        .unwrap()
        .throughput;
    let inc_w = dls::core::lookup("inc_w")
        .unwrap()
        .solve(&p)
        .unwrap()
        .throughput;
    assert!(best >= inc_c - 1e-9);
    assert!(best >= inc_w - 1e-9);
    assert!(
        best > inc_w + 1e-6,
        "expected strict dominance over INC_W: {best} vs {inc_w}"
    );
    // The bus-only closed form must refuse the star (not silently solve).
    assert!(dls::core::lookup("bus_fifo").unwrap().solve(&p).is_err());
}

#[test]
fn engine_agrees_with_free_functions_on_the_fixture() {
    let p = fixture();
    let pairs: [(&str, f64); 4] = [
        ("optimal_fifo", optimal_fifo(&p).unwrap().throughput),
        ("optimal_lifo", optimal_lifo(&p).unwrap().throughput),
        ("inc_c", inc_c_fifo(&p).unwrap().throughput),
        ("bus_fifo", bus_fifo(&p).unwrap().throughput),
    ];
    for (name, direct) in pairs {
        let via_engine = dls::core::lookup(name)
            .unwrap()
            .solve(&p)
            .unwrap()
            .throughput;
        assert!(
            (via_engine - direct).abs() < 1e-12,
            "{name}: engine {via_engine} != free function {direct}"
        );
    }
}

#[test]
fn provenance_distinguishes_solver_families() {
    let p = fixture();
    let lp = dls::core::lookup("optimal_fifo")
        .unwrap()
        .solve(&p)
        .unwrap();
    assert!(matches!(lp.provenance, Provenance::Lp { iterations, .. } if iterations > 0));
    let cf = dls::core::lookup("bus_fifo").unwrap().solve(&p).unwrap();
    assert_eq!(cf.provenance, Provenance::ClosedForm);
    let lifo = dls::core::lookup("optimal_lifo")
        .unwrap()
        .solve(&p)
        .unwrap();
    assert_eq!(lifo.provenance, Provenance::ClosedForm);
    let search = dls::core::lookup("brute_fifo").unwrap().solve(&p).unwrap();
    assert!(
        matches!(search.provenance, Provenance::Search { evaluated } if evaluated == 120),
        "5-worker FIFO search must evaluate 5! orders"
    );
}

#[test]
fn brute_force_certifies_the_registry_optima_on_the_fixture() {
    let p = fixture();
    let brute = dls::core::lookup("brute_fifo").unwrap().solve(&p).unwrap();
    let thm1 = dls::core::lookup("optimal_fifo")
        .unwrap()
        .solve(&p)
        .unwrap();
    assert!((brute.throughput - thm1.throughput).abs() < 1e-7);
    // Theorem 2's closed form agrees as well (the fixture is a bus).
    let thm2 = dls::core::lookup("bus_fifo").unwrap().solve(&p).unwrap();
    assert!((thm2.throughput - thm1.throughput).abs() < 1e-7);
}

#[test]
fn strategy_table_covers_the_fixture() {
    let table = strategy_table(&fixture());
    assert_eq!(table.num_rows(), dls::core::registry().len());
    let rendered = table.render();
    for s in dls::core::registry() {
        assert!(rendered.contains(s.name()), "missing {}", s.name());
    }
    // A closed form never poses as a pivot-free LP.
    assert!(!rendered.contains("lp (0 pivots)"), "{rendered}");
}
