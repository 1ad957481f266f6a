//! Property-based validation of both simplex engines.
//!
//! Strategy: generate random bounded-feasible LPs, then check solver
//! invariants on the dense tableau and the revised simplex alike —
//! feasibility of the returned point, optimality via weak/strong duality,
//! and agreement between the `f64` and exact-rational backends. A second
//! generator draws scheduling-shaped LPs (some infeasible or unbounded) on
//! which the two engines must reach the same objective or the same verdict,
//! and a third draws interleaved-master precedence LPs, whose `≥ 0` rows
//! the engines start from their slacks.

use dls_lp::{
    solve, solve_exact, solve_revised, solve_revised_with, LpError, Problem, Rational, Relation,
    Scalar, ScheduleModel, Solution, SolverOptions,
};
use proptest::prelude::*;

/// One simplex engine, through its `f64` and exact-rational entry points.
struct Engine {
    name: &'static str,
    f64: fn(&Problem) -> Result<Solution<f64>, LpError>,
    exact: fn(&Problem) -> Result<Solution<Rational>, LpError>,
}

fn revised_exact(p: &Problem) -> Result<Solution<Rational>, LpError> {
    let opts = SolverOptions::for_size(p.num_vars(), p.num_constraints());
    solve_revised_with::<Rational>(p, &opts, None).map(|r| r.solution)
}

/// The dense tableau and the revised simplex (the engine every scheduling
/// solve runs); each property below holds for both.
const ENGINES: [Engine; 2] = [
    Engine {
        name: "tableau",
        f64: solve,
        exact: solve_exact::<Rational>,
    },
    Engine {
        name: "revised",
        f64: solve_revised,
        exact: revised_exact,
    },
];

/// Coefficients drawn from a small grid keeps the rational backend fast and
/// overflow-free while still exercising plenty of vertex geometry.
fn coeff() -> impl Strategy<Value = f64> {
    prop_oneof![
        (-8i32..=8).prop_map(|v| v as f64),
        (-40i32..=40).prop_map(|v| v as f64 / 4.0),
    ]
}

fn pos_coeff() -> impl Strategy<Value = f64> {
    (1i32..=12).prop_map(|v| v as f64)
}

/// A random LP of the shape
///   max c^T x  s.t.  A x <= b  (b > 0 so x = 0 is feasible),
///   plus a box row sum(x) <= B guaranteeing boundedness.
fn bounded_lp() -> impl Strategy<Value = Problem> {
    (2usize..=5, 1usize..=5).prop_flat_map(|(n, m)| {
        (
            prop::collection::vec(coeff(), n),
            prop::collection::vec(prop::collection::vec(coeff(), n), m),
            prop::collection::vec(pos_coeff(), m),
            pos_coeff(),
        )
            .prop_map(move |(obj, rows, rhs, bbox)| {
                let mut p = Problem::maximize();
                let vars: Vec<_> = obj.iter().map(|&c| p.add_var(c)).collect();
                for (row, b) in rows.iter().zip(&rhs) {
                    p.add_constraint(
                        vars.iter().copied().zip(row.iter().copied()),
                        Relation::Le,
                        *b,
                    );
                }
                p.add_constraint(vars.iter().map(|&v| (v, 1.0)), Relation::Le, bbox * 10.0);
                p
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The returned point must satisfy every constraint and reproduce the
    /// reported objective.
    #[test]
    fn solution_is_feasible_and_consistent(p in bounded_lp()) {
        for e in &ENGINES {
            let s = (e.f64)(&p).expect("bounded feasible LP must solve");
            prop_assert!(p.check_feasible(&s.x, 1e-6).is_none(),
                "{}: infeasible point returned: {:?}", e.name, s.x);
            let obj = p.eval_objective(&s.x);
            prop_assert!((obj - s.objective).abs() < 1e-6,
                "{}: point gives {obj}, reported {}", e.name, s.objective);
        }
    }

    /// Exact-rational and floating-point backends must agree on the optimum.
    #[test]
    fn exact_matches_float(p in bounded_lp()) {
        for e in &ENGINES {
            let sf = (e.f64)(&p).expect("f64 solve");
            let sr = (e.exact)(&p).expect("exact solve").to_f64();
            prop_assert!((sf.objective - sr.objective).abs() < 1e-6,
                "{}: f64 gave {}, exact gave {}", e.name, sf.objective, sr.objective);
        }
    }

    /// Weak duality bound: for any feasible candidate point we can cook up
    /// (x = 0 here), the optimum must not be below its objective (0 only if
    /// all costs allow) — and strong duality: y^T b == objective for Le-only
    /// problems with y from the solver.
    #[test]
    fn strong_duality_holds(p in bounded_lp()) {
        for e in &ENGINES {
            let s = (e.f64)(&p).expect("solve");
            let rhs_dot: f64 = p
                .constraints()
                .iter()
                .zip(&s.duals)
                .map(|(c, y)| c.rhs * y)
                .sum();
            prop_assert!((rhs_dot - s.objective).abs() < 1e-5,
                "{}: strong duality violated: y^T b = {rhs_dot}, z = {}", e.name, s.objective);
            // Dual feasibility signs for a maximization with <= rows.
            for y in &s.duals {
                prop_assert!(*y >= -1e-7, "{}: negative dual on <= row: {y}", e.name);
            }
        }
    }

    /// Scaling the objective scales the optimum (homogeneity), a quick
    /// sanity property that exercises fresh pivots.
    #[test]
    fn objective_homogeneity(p in bounded_lp(), k in 2u32..=4) {
        let mut p2 = Problem::maximize();
        for i in 0..p.num_vars() {
            p2.add_var(p.objective()[i] * k as f64);
        }
        for c in p.constraints() {
            p2.add_constraint(
                c.coeffs.iter().map(|&(i, v)| (dls_lp_varid(i), v)),
                c.relation,
                c.rhs,
            );
        }
        for e in &ENGINES {
            let s1 = (e.f64)(&p).expect("solve");
            let s2 = (e.f64)(&p2).expect("solve scaled");
            prop_assert!((s2.objective - k as f64 * s1.objective).abs() < 1e-5,
                "{}: {} is not {k} x {}", e.name, s2.objective, s1.objective);
        }
    }

    /// The revised engine reaches the tableau's optimum on scheduling-shaped
    /// LPs — to 1e-7 relative on `f64`, exactly on `Rational` — and the
    /// same `Infeasible`/`Unbounded` verdict when there is none. Objectives,
    /// not points: on a degenerate optimum the two engines may stop at
    /// different vertices of the optimal face.
    #[test]
    fn revised_matches_tableau_on_star_lps(p in star_lp()) {
        let objective = |s: Result<Solution<f64>, LpError>| s.map(|s| s.objective);
        match (objective(solve(&p)), objective(solve_revised(&p))) {
            (Ok(t), Ok(r)) => prop_assert!((t - r).abs() <= 1e-7 * t.abs().max(1.0),
                "objectives diverge: tableau {t} vs revised {r}"),
            (t, r) => prop_assert_eq!(t.err(), r.err()),
        }
        prop_assert_eq!(
            solve_exact::<Rational>(&p).map(|s| s.objective),
            revised_exact(&p).map(|s| s.objective)
        );
    }

    /// Precedence LPs: the tableau, the revised engine and the exact
    /// backend reach the same optimum, each float engine's point satisfies
    /// every row, and every `≥ 0` row's dual is non-positive (raising its
    /// budget can only tighten a maximization).
    #[test]
    fn engines_agree_on_precedence_lps(p in precedence_lp()) {
        let exact = solve_exact::<Rational>(&p).expect("exact solve");
        let reference = exact.objective.to_f64();
        prop_assert!(exact.duals.iter().zip(p.constraints()).all(|(y, c)| {
            c.relation != Relation::Ge || *y <= Rational::zero()
        }), "exact: positive dual on a >= row: {:?}", exact.duals);
        for e in &ENGINES {
            let s = (e.f64)(&p).expect("precedence LP must solve");
            prop_assert!((s.objective - reference).abs() <= 1e-9 * reference.abs().max(1.0),
                "{}: objective {} vs exact {reference}", e.name, s.objective);
            prop_assert!(p.check_feasible(&s.x, 1e-7).is_none(),
                "{}: infeasible point returned: {:?}", e.name, s.x);
            for (y, c) in s.duals.iter().zip(p.constraints()) {
                if c.relation == Relation::Ge {
                    prop_assert!(*y <= 1e-9, "{}: positive dual on a >= row: {y}", e.name);
                }
            }
        }
    }
}

/// Random scheduling LPs through the `ScheduleModel` IR: nested-prefix
/// deadline rows plus the dense one-port row, the structure the revised
/// engine's sparse factorization is built for. Three in eight draws add a
/// twist: a `>=` floor on the first worker's load (phase 1 runs, and the
/// LP is infeasible when the floor overruns the horizon) or a profitable
/// variable that no row bounds (unbounded).
fn star_lp() -> impl Strategy<Value = Problem> {
    (
        2usize..=6,
        prop::collection::vec(1i32..=8, 6),
        prop::collection::vec(1i32..=8, 6),
        prop::collection::vec(1i32..=8, 6),
        4i32..=12,
        (0u32..=7, 1i32..=4),
    )
        .prop_map(|(p, comm, comp, obj, horizon, (twist, floor))| {
            let mut m = ScheduleModel::maximize();
            let alpha = m.group("alpha", obj[..p].iter().map(|&o| o as f64));
            for (i, &cw) in comp.iter().enumerate().take(p) {
                let mut terms: Vec<_> = (0..=i).map(|j| (alpha.var(j), comm[j] as f64)).collect();
                terms.push((alpha.var(i), cw as f64));
                m.deadline(terms, horizon as f64);
            }
            m.one_port(
                (0..p).map(|j| (alpha.var(j), comm[j] as f64)),
                horizon as f64,
            );
            match twist {
                5 | 6 => {
                    m.constraint([(alpha.var(0), 1.0)], Relation::Ge, floor as f64);
                }
                7 => {
                    m.group("spare", [1.0]);
                }
                _ => {}
            }
            m.lower()
        })
}

/// Random interleaved-master LPs through the `ScheduleModel` IR: an
/// `alpha` group, a `start` group with one member per port operation, and
/// the operations of a random merge of `q` sends and `q` returns (sends and
/// returns each in worker order, every return after its own send). The
/// merge's port chain and each later worker's compute chain are
/// `precedence` rows, the first worker's compute chain is a `release` row
/// against time zero, and one `deadline` row bounds the last operation.
/// Every row except the horizon is a `≥ 0` row.
fn precedence_lp() -> impl Strategy<Value = Problem> {
    (1usize..=4).prop_flat_map(|q| {
        (
            prop::collection::vec((1i32..=4, 1i32..=4, 1i32..=4), q),
            prop::collection::vec(1i32..=3, q),
            prop::collection::vec(any::<bool>(), 2 * q),
            1i32..=8,
        )
            .prop_map(move |(workers, obj, picks, horizon)| {
                // Merge positions of each worker's send and return.
                let (mut send_at, mut ret_at) = (Vec::with_capacity(q), Vec::with_capacity(q));
                for (slot, &pick_send) in picks.iter().enumerate() {
                    let can_send = send_at.len() < q;
                    if can_send && (pick_send || ret_at.len() == send_at.len()) {
                        send_at.push(slot);
                    } else {
                        ret_at.push(slot);
                    }
                }
                // Worker and duration of the operation in each slot.
                let mut ops = vec![(0, 0); 2 * q];
                for (k, (&(c, _, d), (&s, &r))) in
                    workers.iter().zip(send_at.iter().zip(&ret_at)).enumerate()
                {
                    ops[s] = (k, c);
                    ops[r] = (k, d);
                }
                let mut m = ScheduleModel::maximize();
                let alpha = m.group("alpha", obj.iter().map(|&o| o as f64));
                let start = m.group("start", vec![0.0; 2 * q]);
                for slot in 1..2 * q {
                    let (k, dur) = ops[slot - 1];
                    m.precedence(
                        start.var(slot),
                        start.var(slot - 1),
                        [(alpha.var(k), dur as f64)],
                    );
                }
                for (k, &(c, w, _)) in workers.iter().enumerate() {
                    let compute = [(alpha.var(k), (c + w) as f64)];
                    if k == 0 {
                        m.release(start.var(ret_at[0]), compute);
                    } else {
                        m.precedence(start.var(ret_at[k]), start.var(send_at[k]), compute);
                    }
                }
                let (k, dur) = ops[2 * q - 1];
                m.deadline(
                    [(start.var(2 * q - 1), 1.0), (alpha.var(k), dur as f64)],
                    horizon as f64,
                );
                m.lower()
            })
    })
}

/// Helper: VarId construction by index is not public; rebuild through a
/// scratch problem with the same declaration order.
fn dls_lp_varid(index: usize) -> dls_lp::VarId {
    // Declaration order is the only identity, so re-declaring the same count
    // of variables on a throwaway problem yields matching ids.
    let mut scratch = Problem::maximize();
    let mut last = scratch.add_var(0.0);
    for _ in 1..=index {
        last = scratch.add_var(0.0);
    }
    last
}

#[test]
fn infeasible_stays_infeasible_under_tightening() {
    let mut p = Problem::maximize();
    let x = p.add_var(1.0);
    p.add_constraint([(x, 1.0)], Relation::Ge, 10.0);
    p.add_constraint([(x, 1.0)], Relation::Le, 1.0);
    for e in &ENGINES {
        assert_eq!((e.f64)(&p).unwrap_err(), LpError::Infeasible, "{}", e.name);
        let exact = (e.exact)(&p).unwrap_err();
        assert_eq!(exact, LpError::Infeasible, "{}", e.name);
    }
}
