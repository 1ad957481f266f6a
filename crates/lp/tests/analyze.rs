//! Property-based validation of the pre-solve static analyzer.
//!
//! Two directions: every *valid* randomly-generated schedule model must
//! come back clean (no error-severity findings) and solve to a positive
//! throughput; every *seeded corruption* of a valid model must be caught,
//! with the diagnostic naming the right row (its kind and position among
//! the rows of that kind) and [`RowKind`].

use dls_lp::{analyze, solve, RowKind, ScheduleModel, Severity};
use proptest::prelude::*;

/// Per-worker positive costs on a small grid (matches the platform
/// parameters the real builders consume).
fn cost() -> impl Strategy<Value = f64> {
    (1i32..=12).prop_map(|v| v as f64 / 2.0)
}

/// Random platform-shaped parts: `(c, w, d)` cost vectors of equal length.
fn parts() -> impl Strategy<Value = (Vec<f64>, Vec<f64>, Vec<f64>)> {
    (1usize..=5).prop_flat_map(|n| {
        (
            prop::collection::vec(cost(), n),
            prop::collection::vec(cost(), n),
            prop::collection::vec(cost(), n),
        )
    })
}

/// Which corruption to seed into an otherwise-valid model.
#[derive(Debug, Clone, Copy)]
enum Corruption {
    DuplicateRow,
    EmptyGroup,
    SignFlippedOnePort,
}

fn corruption() -> impl Strategy<Value = Corruption> {
    prop_oneof![
        Just(Corruption::DuplicateRow),
        Just(Corruption::EmptyGroup),
        Just(Corruption::SignFlippedOnePort),
    ]
}

/// Builds the canonical one-round FIFO model for the given costs:
/// throughput variables `a_i` maximized under per-worker deadline rows,
/// the master's one-port row, and (for two or more workers) a send-event
/// precedence chain — the same row shapes every registry builder emits.
/// `corrupt` seeds exactly one defect.
// Index loops: `i` drives prefix (`0..=i`) and suffix (`i..n`) slices of
// three parallel cost vectors, which enumerate() cannot express.
#[allow(clippy::needless_range_loop)]
fn build(c: &[f64], w: &[f64], d: &[f64], corrupt: Option<Corruption>) -> ScheduleModel {
    let n = c.len();
    let mut m = ScheduleModel::maximize();
    let alpha = m.group("alpha", vec![1.0; n]);
    for i in 0..n {
        // FIFO timing chain: sends up to me, my compute, returns from me
        // onward (the paper's (2a) shape).
        let mut terms: Vec<_> = (0..=i).map(|j| (alpha.var(j), c[j])).collect();
        terms.push((alpha.var(i), w[i]));
        terms.extend((i..n).map(|j| (alpha.var(j), d[j])));
        m.deadline(terms, 1.0);
    }
    let flip = matches!(corrupt, Some(Corruption::SignFlippedOnePort));
    m.one_port(
        (0..n).map(|i| {
            let coeff = c[i] + d[i];
            // The sign flip lands on the last coefficient.
            (
                alpha.var(i),
                if flip && i == n - 1 { -coeff } else { coeff },
            )
        }),
        1.0,
    );
    if n >= 2 {
        let send = m.group("send_start", vec![0.0; n]);
        m.release(send.var(0), []);
        for i in 0..n - 1 {
            m.precedence(send.var(i + 1), send.var(i), [(alpha.var(i), c[i])]);
        }
        // Bound the event variables so the chain stays bounded-feasible.
        m.capacity((0..n).map(|i| (send.var(i), 1.0)), n as f64);
    }
    match corrupt {
        Some(Corruption::DuplicateRow) => {
            // Exact duplicate of the one-port row, appended as the second
            // one-port row.
            m.one_port((0..n).map(|i| (alpha.var(i), c[i] + d[i])), 1.0);
        }
        Some(Corruption::EmptyGroup) => {
            m.group("ghost", []);
        }
        Some(Corruption::SignFlippedOnePort) | None => {}
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Valid models are clean, and the problem they build solves.
    #[test]
    fn valid_models_are_clean_and_solvable((c, w, d) in parts()) {
        let m = build(&c, &w, &d, None);
        let report = analyze(&m);
        prop_assert!(!report.has_errors(), "valid model flagged:\n{report}");

        let sol = solve(m.problem()).expect("solve the built model");
        prop_assert!(sol.objective > 0.0, "optimum {}", sol.objective);
    }

    /// Every seeded corruption is caught as an error, and row-scoped
    /// corruptions carry the right row name and kind.
    #[test]
    fn seeded_corruptions_are_caught((c, w, d) in parts(), which in corruption()) {
        let m = build(&c, &w, &d, Some(which));
        let report = analyze(&m);
        prop_assert!(report.has_errors(), "{which:?} not caught:\n{report}");
        match which {
            Corruption::DuplicateRow => {
                let hit = report
                    .errors()
                    .find(|diag| diag.row.as_deref() == Some("one_port[1]"))
                    .expect("duplicate row must be reported by name");
                prop_assert_eq!(hit.kind, Some(RowKind::OnePort));
                prop_assert!(hit.message.contains("'one_port[0]'"), "{}", hit.message);
            }
            Corruption::EmptyGroup => {
                prop_assert!(
                    report.errors().any(|diag| diag.message.contains("ghost")),
                    "{report}"
                );
            }
            Corruption::SignFlippedOnePort => {
                let hit = report
                    .errors()
                    .find(|diag| diag.row.as_deref() == Some("one_port[0]"))
                    .expect("sign-flipped one-port row must be reported");
                prop_assert_eq!(hit.kind, Some(RowKind::OnePort));
                prop_assert_eq!(hit.severity, Severity::Error);
            }
        }
    }
}

/// Deterministic spot check kept alongside the properties so a failure is
/// reproducible at a glance without a proptest seed.
#[test]
fn canonical_three_worker_model_is_clean() {
    let c = [1.0, 2.0, 0.5];
    let w = [3.0, 1.5, 2.0];
    let d = [0.5, 1.0, 0.25];
    let report = analyze(&build(&c, &w, &d, None));
    assert!(!report.has_errors(), "{report}");
}
