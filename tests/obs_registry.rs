//! Workspace-level observability contract: one `solve_scenario` call,
//! which solves on the revised engine, and one direct tableau solve of the
//! same LP must populate the metric names the README inventory promises,
//! so dashboards and the `DLS_TRACE=summary` table never go silently stale
//! when the solver internals move.

use dls::core::lp_model::{scenario_model, solve_scenario};
use dls::core::prelude::*;
use dls::lp::{solve_with, SolverOptions};
use dls::obs::{with_mode, Mode, Snapshot};
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
    // programmatically so the test is independent of `DLS_TRACE`. Counts
    // are differences of two snapshots taken around the solves.
    let (before, snap, events) = with_mode(Mode::Summary, || {
        let before = dls::obs::snapshot();
        let p = fixture();
        let order = ids(&[0, 1, 2, 3]);

        let revised = solve_scenario(&p, &order, &order, PortModel::OnePort).unwrap();
        let (ir, _) = scenario_model(&p, &order, &order, PortModel::OnePort).unwrap();
        let lp = ir.problem();
        let opts = SolverOptions::for_size(lp.num_vars(), lp.num_constraints());
        let tableau = solve_with::<f64>(lp, &opts).unwrap();
        assert!((revised.throughput - tableau.objective).abs() < 1e-9);
        (before, dls::obs::snapshot(), dls::obs::trace_events())
    });
    let count = |s: &Snapshot, name| s.counter(name).unwrap_or(0);
    let counted = |name| count(&snap, name) - count(&before, name);
    let observations = |s: &Snapshot, name| s.histogram(name).map_or(0, |h| h.count);
    let observed = |name| observations(&snap, name) - observations(&before, name);

    // Counters: `solve_model` counts its solves (all cold) under
    // `basis_cache.miss` (here exactly the one `solve_scenario` made; the
    // direct tableau solve bypasses it), each engine counts its entry
    // point, and the revised path refactorizes at least once (the initial
    // slack-basis factorization).
    let solves = counted("basis_cache.miss");
    assert_eq!(solves, 1, "solve_model counted {solves} solves");
    assert!(counted("revised.solve") >= 1);
    assert!(counted("tableau.solve") >= 1);
    assert!(counted("revised.refactorizations") >= 1);

    // Histograms: iteration counts from both engines, phase timings from
    // the shared pipeline. Names must match the README inventory verbatim.
    for name in [
        "revised.iterations",
        "tableau.iterations",
        "revised.solve.seconds",
        "tableau.solve.seconds",
    ] {
        let h = snap
            .histogram(name)
            .unwrap_or_else(|| panic!("histogram '{name}' not populated"));
        assert!(observed(name) >= 1, "'{name}' empty");
        assert!(h.min >= 0.0, "'{name}' negative observation");
    }
    let iters = snap.histogram("revised.iterations").unwrap();
    assert!(iters.max >= 1.0, "a 4-worker scenario LP takes iterations");

    // Engine phase times: one observation per solve (the seconds that
    // solve spent in the phase), not one per pivot or per call.
    for (engine, phases) in [
        (
            "revised.solve",
            &[
                "revised.refactorize.seconds",
                "revised.pricing.seconds",
                "revised.ftran.seconds",
                "revised.btran.seconds",
            ][..],
        ),
        ("tableau.solve", &["tableau.pivot.seconds"][..]),
    ] {
        let solves = counted(engine);
        for name in phases {
            let h = snap
                .histogram(name)
                .unwrap_or_else(|| panic!("histogram '{name}' not populated"));
            assert_eq!(
                observed(name),
                solves,
                "'{name}' has one observation per {engine}"
            );
            assert!(h.min >= 0.0, "'{name}' negative observation");
        }
    }

    // Solve latency is one histogram, not one per scenario.
    assert!(
        !snap
            .histograms
            .iter()
            .any(|(name, _)| name.starts_with("lp_model.solve.key_")),
        "per-key latency histograms are gone"
    );

    // The solve path emits a causal trace tree alongside the histograms:
    // the scenario root must exist and the engine's solve span must nest
    // directly under it.
    let root = events
        .iter()
        .find(|e| e.name == "core.solve_scenario.seconds")
        .expect("solve_scenario records a root trace span");
    assert!(root.parent_id.is_none(), "scenario span is a trace root");
    let engine = events
        .iter()
        .find(|e| e.name == "revised.solve.seconds" && e.trace_id == root.trace_id)
        .expect("the engine solve span joins the scenario's trace");
    assert_eq!(
        engine.parent_id,
        Some(root.span_id),
        "the engine solve span's parent is the scenario root"
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
