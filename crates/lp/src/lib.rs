//! # dls-lp — two simplex engines for divisible-load scheduling
//!
//! A self-contained linear-programming solver built for the LP formulations
//! of Beaumont, Marchal, Rehn & Robert, *"FIFO scheduling of divisible loads
//! with return messages under the one-port model"* (RR-5738, 2005). The
//! paper solves its scheduling LPs with `lp_solve`; this crate plays that
//! role for the reproduction.
//!
//! The instances of interest are small and dense (`2p` variables, `3p + 1`
//! constraints for `p` workers). Two solver *engines* share the same
//! standardization and column layout:
//!
//! * the **dense tableau** ([`solve`], [`solve_with`]) — two-phase primal
//!   simplex, the simple reference engine for small instances;
//! * the **revised simplex** ([`solve_revised`], [`solve_revised_with`]) —
//!   a sparse LU basis factorization (Markowitz pivoting, Forrest–Tomlin
//!   updates) with periodic refactorization, candidate-list (partial)
//!   pricing on wide instances, and optional warm starts from a
//!   caller-supplied [`Basis`]. The sparse factors make it the faster cold
//!   engine on large instances (p ≥ 128 workers). The sparse LU is its
//!   only basis factorization; the dense product-form inverse it replaced
//!   is kept only as the oracle of the factorization's own unit tests.
//!
//! Above the raw [`Problem`] builder sits the **schedule-model IR**
//! ([`ScheduleModel`]): named variable groups and tagged constraint
//! combinators (deadline/one-port/capacity/precedence) that write straight
//! into one deterministic [`Problem`] — the shared vocabulary every
//! divisible-load LP variant in the workspace is built from. The engines
//! solve [`ScheduleModel::problem`] in place; [`ScheduleModel::lower`]
//! returns an owned copy. The [`analyze`](fn@analyze) pass statically checks a model's
//! structural invariants (row-kind signatures, duplicate/dominated rows,
//! conditioning) from the problem's rows and their kinds *before* the
//! solve, turning builder bugs into named diagnostics instead of garbage
//! optima.
//!
//! Both are generic over the [`Scalar`] backend:
//!
//! * **`f64`** — the fast default, with *relative* tolerances (scaled by
//!   [`Problem::coefficient_scale`]) and a Dantzig-then-Bland pivot rule
//!   for anti-cycling;
//! * **[`Rational`]** — exact `i128` rationals, used by the test-suite to
//!   certify the floating-point answers on small instances.
//!
//! ## Example
//!
//! ```
//! use dls_lp::{Problem, Relation, solve};
//!
//! // maximize x + y  s.t.  2x + y <= 4,  x + 3y <= 6
//! let mut p = Problem::maximize();
//! let x = p.add_var("x", 1.0);
//! let y = p.add_var("y", 1.0);
//! p.add_constraint("c1", [(x, 2.0), (y, 1.0)], Relation::Le, 4.0);
//! p.add_constraint("c2", [(x, 1.0), (y, 3.0)], Relation::Le, 6.0);
//! let sol = solve(&p).unwrap();
//! assert!((sol.objective - 2.8).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analyze;
mod error;
mod model;
mod problem;
mod rational;
mod revised;
mod scalar;
mod simplex;
mod sparse_lu;

pub use analyze::{analyze, AnalysisReport, Diagnostic, Severity, SPREAD_LIMIT};
pub use error::LpError;
pub use model::{MVar, RowKind, ScheduleModel, VarGroup};
pub use problem::{Constraint, Problem, Relation, Sense, VarId};
pub use rational::Rational;
pub use revised::{solve_revised, solve_revised_with, Basis, RevisedSolution};
pub use scalar::Scalar;
pub use simplex::{solve, solve_exact, solve_with, Solution, SolverOptions};
