//! Workspace-level observability contract: one `solve_scenario` call,
//! which solves on the revised engine, and one direct tableau solve of the
//! same LP must populate the metric names the README inventory promises,
//! so dashboards and the `DLS_TRACE=summary` table never go silently stale
//! when the solver internals move.

use dls::core::lp_model::{scenario_model, solve_scenario};
use dls::core::prelude::*;
use dls::lp::{solve_with, SolverOptions};
use dls::obs::{set_mode, Mode};
use dls::platform::{Platform, WorkerId};

fn fixture() -> Platform {
    Platform::star_with_z(&[(3.0, 0.5), (1.0, 5.0), (2.0, 1.0), (1.5, 2.0)], 0.5).unwrap()
}

fn ids(xs: &[usize]) -> Vec<WorkerId> {
    xs.iter().copied().map(WorkerId).collect()
}

#[test]
fn solve_scenario_populates_the_advertised_metrics_on_both_engines() {
    // Timing spans only record while a mode is active; force one
    // programmatically so the test is independent of `DLS_TRACE`.
    set_mode(Some(Mode::Summary));
    dls::obs::reset_all();

    let p = fixture();
    let order = ids(&[0, 1, 2, 3]);

    let revised = solve_scenario(&p, &order, &order, PortModel::OnePort).unwrap();
    let (ir, _) = scenario_model(&p, &order, &order, PortModel::OnePort).unwrap();
    let lp = ir.problem();
    let opts = SolverOptions::for_size(lp.num_vars(), lp.num_constraints());
    let tableau = solve_with::<f64>(lp, &opts).unwrap();
    assert!((revised.throughput - tableau.objective).abs() < 1e-9);

    let snap = dls::obs::snapshot();
    set_mode(Some(Mode::Disabled));

    // Counters: `solve_model` counts its solves (all cold) under
    // `basis_cache.miss` (here exactly the one `solve_scenario` made; the
    // direct tableau solve bypasses it), each engine counts its entry
    // point, and the revised path refactorizes at least once (the initial
    // slack-basis factorization).
    let solves = snap.counter("basis_cache.miss").unwrap_or(0);
    assert_eq!(solves, 1, "solve_model counted {solves} solves");
    assert!(snap.counter("revised.solve").unwrap_or(0) >= 1);
    assert!(snap.counter("tableau.solve").unwrap_or(0) >= 1);
    assert!(snap.counter("revised.refactorizations").unwrap_or(0) >= 1);

    // Histograms: iteration counts from both engines, phase timings from
    // the shared pipeline. Names must match the README inventory verbatim.
    for name in [
        "revised.iterations",
        "tableau.iterations",
        "revised.solve.seconds",
        "tableau.solve.seconds",
        "lp_model.solve.seconds",
    ] {
        let h = snap
            .histogram(name)
            .unwrap_or_else(|| panic!("histogram '{name}' not populated"));
        assert!(h.count >= 1, "'{name}' empty");
        assert!(h.min >= 0.0, "'{name}' negative observation");
    }
    let iters = snap.histogram("revised.iterations").unwrap();
    assert!(iters.max >= 1.0, "a 4-worker scenario LP takes iterations");

    // Solve latency is one histogram, not one per scenario.
    assert!(
        !snap
            .histograms
            .iter()
            .any(|(name, _)| name.starts_with("lp_model.solve.key_")),
        "per-key latency histograms are gone"
    );

    // The solve path emits a causal trace tree alongside the histograms:
    // the scenario root must exist and the engine phases must nest (by
    // parent id, transitively) under it.
    let events = dls::obs::trace_events();
    let root = events
        .iter()
        .find(|e| e.name == "core.solve_scenario.seconds")
        .expect("solve_scenario records a root trace span");
    assert!(root.parent_id.is_none(), "scenario span is a trace root");
    assert!(
        events
            .iter()
            .filter(|e| e.name == "lp_model.solve.seconds")
            .any(|e| e.trace_id == root.trace_id),
        "lp_model.solve spans join the scenario's trace"
    );

    // The registry never silently drops registrations in a normal run: a
    // nonzero count means the name table overflowed and the inventory
    // above is incomplete — fail loudly.
    assert_eq!(
        snap.dropped, 0,
        "registry dropped {} registrations; summary data is incomplete",
        snap.dropped
    );
}
