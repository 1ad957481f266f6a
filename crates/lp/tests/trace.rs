//! The LP engines' trace contract: one span per solve, carrying the pivot
//! count and the per-phase seconds as attributes, and no per-pivot or
//! per-phase events (the scheduling LPs make ~10 pivots of about a
//! microsecond each, so a span per pivot would cost as much as the work).

use dls_lp::{solve_revised_with, solve_with, Problem, Relation, SolverOptions};
use dls_obs::{with_mode, AttrValue, Mode, TraceEvent};

/// A small LP with a `>=` row, so both engines run phase 1 and pivot.
fn lp() -> Problem {
    let mut p = Problem::maximize();
    let x = p.add_var(3.0);
    let y = p.add_var(2.0);
    let z = p.add_var(4.0);
    p.add_constraint([(x, 1.0), (y, 1.0), (z, 2.0)], Relation::Le, 4.0);
    p.add_constraint([(x, 2.0), (z, 1.0)], Relation::Le, 5.0);
    p.add_constraint([(x, 1.0), (y, 3.0)], Relation::Ge, 2.0);
    p
}

fn attr<'a>(event: &'a TraceEvent, key: &str) -> &'a AttrValue {
    &event
        .attrs
        .iter()
        .find(|(k, _)| *k == key)
        .unwrap_or_else(|| panic!("{} has no {key} attribute", event.name))
        .1
}

#[test]
fn each_engine_solve_records_one_span_with_pivots_and_phase_seconds() {
    let p = lp();
    let opts = SolverOptions::for_size(p.num_vars(), p.num_constraints());
    let (revised, tableau, events) = with_mode(Mode::Summary, || {
        let (revised, tableau) = {
            let _root = dls_obs::trace_span!("lp.test.root.seconds");
            (
                solve_revised_with::<f64>(&p, &opts, None).expect("revised solves"),
                solve_with::<f64>(&p, &opts).expect("tableau solves"),
            )
        };
        (revised.solution, tableau, dls_obs::trace_events())
    });
    assert!((revised.objective - tableau.objective).abs() < 1e-9);

    // Only this test's own trace: the root span and everything under it.
    let root = events
        .iter()
        .find(|e| e.name == "lp.test.root.seconds")
        .expect("root span recorded");
    let mine: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| e.trace_id == root.trace_id)
        .collect();

    for (span_name, iterations, phases) in [
        (
            "revised.solve.seconds",
            revised.iterations,
            &["refactorize_s", "pricing_s", "ftran_s", "btran_s"][..],
        ),
        (
            "tableau.solve.seconds",
            tableau.iterations,
            &["pivot_s"][..],
        ),
    ] {
        let spans: Vec<&&TraceEvent> = mine.iter().filter(|e| e.name == span_name).collect();
        assert_eq!(spans.len(), 1, "one {span_name} per solve");
        let span = spans[0];
        assert_eq!(span.parent_id, Some(root.span_id));
        assert!(iterations >= 1, "{span_name}: the LP takes pivots");
        assert_eq!(
            attr(span, "pivots"),
            &AttrValue::from(iterations),
            "{span_name}: pivots is Solution::iterations"
        );
        let mut phase_total = 0.0;
        for phase in phases {
            let AttrValue::Float(seconds) = *attr(span, phase) else {
                panic!("{span_name}: {phase} is not a float");
            };
            assert!(seconds >= 0.0, "{span_name}: {phase} = {seconds}");
            phase_total += seconds;
        }
        // The phases are disjoint stretches of the solve.
        assert!(
            phase_total <= span.dur_ns as f64 * 1e-9 + 1e-6,
            "{span_name}: phases {phase_total} s exceed the span's {} ns",
            span.dur_ns
        );
    }

    // No per-pivot or per-phase events: the root and the two solve spans
    // are the whole trace.
    let names: Vec<&str> = mine.iter().map(|e| e.name).collect();
    assert_eq!(
        names.len(),
        3,
        "root + one span per engine solve, got {names:?}"
    );
}
