//! Dense two-phase primal simplex.
//!
//! The engine is generic over [`Scalar`], so the identical pivoting code
//! runs in floating point (fast path) and in exact rational arithmetic
//! (validation path). Design notes:
//!
//! * **Standard form.** Internally everything is a maximization over
//!   non-negative variables with rows normalized to non-negative right-hand
//!   sides. A `>=` row with a zero right-hand side (the IR's precedence
//!   rows) is negated into a `<=` row like a negative right-hand side is.
//!   `<=` rows get a slack, `>=` rows (a positive budget) a surplus plus an
//!   artificial, `==` rows an artificial.
//! * **Phase 1** maximizes minus the sum of artificials from the trivial
//!   slack/artificial basis; a nonzero optimum means infeasible. It runs
//!   only when some row has an artificial. Residual basic artificials are
//!   driven out by degenerate pivots where possible; rows where that is
//!   impossible are redundant and become inert.
//! * **Phase 2** prices only non-artificial columns. Dantzig's rule is used
//!   until `bland_after` pivots, then Bland's rule guarantees termination on
//!   degenerate instances (e.g. Beale's cycling example, covered in tests).
//! * **Duals** are recovered from the reduced costs of the logical columns.
//!
//! This module also owns what the revised engine in [`crate::revised`]
//! shares with the tableau: [`SolverOptions`], the standard form and the
//! column layout. That engine factorizes its basis with the sparse LU of
//! [`crate::sparse_lu`] and nothing else; the dense product-form inverse
//! survives only as a test oracle for that module.

use crate::error::LpError;
use crate::problem::{Problem, Relation, Sense, VarId};
use crate::scalar::Scalar;
use crate::solve_trace::{Phase, SolveTrace};

/// Index of the tableau's one timed phase (its pivots) in its
/// [`SolveTrace`].
const PIVOT: usize = 0;

/// Tunable solver parameters.
#[derive(Debug, Clone)]
pub struct SolverOptions {
    /// Hard cap on total pivots across both phases.
    pub max_iterations: usize,
    /// Pivot count after which the entering rule switches from Dantzig to
    /// Bland (anti-cycling).
    pub bland_after: usize,
    /// Forrest–Tomlin update count after which the revised solver
    /// refactorizes its basis from scratch (ignored by the dense tableau).
    pub refactor_every: usize,
    /// Candidate-list (partial) pricing budget for the revised solver:
    /// `0` prices every column each pivot (classic Dantzig); a positive
    /// value keeps a rotating list of at most this many improving columns
    /// and re-prices only the list between full scans. Optimality is
    /// still decided by a full scan, so the answer is unchanged — only
    /// the per-pivot pricing cost drops on wide instances. Ignored by the
    /// dense tableau and by Bland's rule.
    pub candidate_list: usize,
}

impl SolverOptions {
    /// Sensible defaults scaled to the instance size. Partial pricing
    /// switches on for wide instances only (`dim ≥ 192`: the cold-solve
    /// regime where full Dantzig pricing starts to dominate); the paper's
    /// 11-worker LPs keep classic full pricing and bit-identical pivots.
    /// The list width is deliberately narrow — on the scheduling LPs the
    /// pivot count is insensitive to it (measured flat from 16 up to full
    /// pricing at p = 128/256), so per-pivot re-pricing cost is all that
    /// matters and the smallest measured-safe width wins.
    pub fn for_size(num_vars: usize, num_constraints: usize) -> Self {
        let dim = num_vars + num_constraints;
        SolverOptions {
            max_iterations: 2_000 + 200 * dim,
            bland_after: 200 + 20 * dim,
            refactor_every: 48,
            candidate_list: if dim >= 192 { 16 } else { 0 },
        }
    }
}

/// Result of a successful solve.
#[derive(Debug, Clone)]
pub struct Solution<S> {
    /// Optimal objective value (in the problem's own sense).
    pub objective: S,
    /// Optimal point, one entry per declared variable.
    pub x: Vec<S>,
    /// Dual value (Lagrange multiplier) per constraint, in declaration
    /// order. Sign convention: for a `Maximize` problem, binding `<=`
    /// constraints have non-negative duals. For `Minimize` input the duals
    /// are reported for the minimization problem (negated internally).
    pub duals: Vec<S>,
    /// Total simplex pivots performed.
    pub iterations: usize,
}

impl<S: Scalar> Solution<S> {
    /// Value of variable `v` at the optimum.
    pub fn value(&self, v: VarId) -> S {
        self.x[v.index()].clone()
    }

    /// Converts every payload to `f64` (useful for the exact backend).
    pub fn to_f64(&self) -> Solution<f64> {
        Solution {
            objective: self.objective.to_f64(),
            x: self.x.iter().map(Scalar::to_f64).collect(),
            duals: self.duals.iter().map(Scalar::to_f64).collect(),
            iterations: self.iterations,
        }
    }
}

/// Solves `problem` with default options on the `f64` backend.
pub fn solve(problem: &Problem) -> Result<Solution<f64>, LpError> {
    solve_with::<f64>(
        problem,
        &SolverOptions::for_size(problem.num_vars(), problem.num_constraints()),
    )
}

/// Solves `problem` with default options on an arbitrary scalar backend.
pub fn solve_exact<S: Scalar>(problem: &Problem) -> Result<Solution<S>, LpError> {
    solve_with::<S>(
        problem,
        &SolverOptions::for_size(problem.num_vars(), problem.num_constraints()),
    )
}

/// Kind of a standardized column (shared with the revised solver).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ColKind {
    /// One of the problem's declared variables.
    Structural,
    /// Slack (`<=`) or surplus (`>=`) of the given standardized row.
    Logical(usize),
    /// Artificial variable of the given standardized row.
    Artificial(usize),
}

/// Column layout of a standardized instance: structural columns first, then
/// one logical per `<=`/`>=` row, then one artificial per `>=`/`==` row.
/// Both engines derive it with [`column_layout`], so they pivot over the
/// same columns; the revised engine's [`crate::Basis`] (its warm-start
/// currency) is expressed in these indices.
pub(crate) struct ColumnLayout {
    /// Kind of every column, in layout order.
    pub kinds: Vec<ColKind>,
    /// Row index -> its logical column (`usize::MAX` for `==` rows).
    pub logical_col: Vec<usize>,
    /// Row index -> its artificial column (`usize::MAX` for `<=` rows).
    pub artificial_col: Vec<usize>,
    /// Total column count.
    pub cols: usize,
}

impl ColumnLayout {
    /// `true` when column `c` is an artificial.
    pub fn is_artificial(&self, c: usize) -> bool {
        matches!(self.kinds[c], ColKind::Artificial(_))
    }
}

/// Derives the canonical column layout for `n` structural variables and the
/// given standardized row relations.
pub(crate) fn column_layout(n: usize, relations: &[Relation]) -> ColumnLayout {
    let m = relations.len();
    let mut kinds: Vec<ColKind> = vec![ColKind::Structural; n];
    let mut logical_col = vec![usize::MAX; m];
    let mut artificial_col = vec![usize::MAX; m];
    let mut next = n;
    for (i, rel) in relations.iter().enumerate() {
        if matches!(rel, Relation::Le | Relation::Ge) {
            logical_col[i] = next;
            kinds.push(ColKind::Logical(i));
            next += 1;
        }
    }
    for (i, rel) in relations.iter().enumerate() {
        if matches!(rel, Relation::Ge | Relation::Eq) {
            artificial_col[i] = next;
            kinds.push(ColKind::Artificial(i));
            next += 1;
        }
    }
    ColumnLayout {
        kinds,
        logical_col,
        artificial_col,
        cols: next,
    }
}

/// Dense simplex tableau with an explicit basis.
struct Tableau<S> {
    /// Row-major coefficient matrix, `rows x cols`.
    a: Vec<S>,
    /// Right-hand sides, one per row (kept non-negative by pivoting).
    rhs: Vec<S>,
    /// Reduced-cost row, one per column.
    zrow: Vec<S>,
    /// Current (phase-specific) objective value accumulator.
    zval: S,
    /// Basic column index per row.
    basis: Vec<usize>,
    rows: usize,
    cols: usize,
    /// Relative comparison tolerance: the backend's base tolerance scaled by
    /// the largest input coefficient magnitude, so platforms with large
    /// `w`/`c` ratios are not judged against an absolute `1e-9`.
    tol: S,
}

impl<S: Scalar> Tableau<S> {
    #[inline]
    fn at(&self, r: usize, c: usize) -> &S {
        &self.a[r * self.cols + c]
    }

    #[inline]
    fn set(&mut self, r: usize, c: usize, v: S) {
        self.a[r * self.cols + c] = v;
    }

    /// `v > tol` under the instance-scaled tolerance.
    #[inline]
    fn is_pos(&self, v: &S) -> bool {
        *v > self.tol
    }

    /// Gauss-Jordan pivot on `(pr, pc)`: row `pr` is scaled so the pivot is
    /// one, then eliminated from all other rows and the reduced-cost row.
    fn pivot(&mut self, pr: usize, pc: usize) {
        let piv = self.at(pr, pc).clone();
        debug_assert!(!piv.is_zero(), "pivot on a zero element");
        let inv = S::one() / piv;

        // Scale the pivot row.
        for c in 0..self.cols {
            let v = self.at(pr, c).clone() * inv.clone();
            self.set(pr, c, v);
        }
        self.rhs[pr] = self.rhs[pr].clone() * inv;

        // Eliminate the pivot column from every other row. The skip is the
        // backend's *base* zero test, not the instance-scaled tolerance:
        // the pivot row is normalized to O(1), so a factor of, say, 1e-4 is
        // a genuine entry on a 1e6-scaled instance and must be eliminated
        // (the scaled tolerance is only for decision predicates on
        // O(scale) quantities).
        for r in 0..self.rows {
            if r == pr {
                continue;
            }
            let factor = self.at(r, pc).clone();
            if factor.is_zero() {
                continue;
            }
            for c in 0..self.cols {
                let v = self.at(r, c).clone() - factor.clone() * self.at(pr, c).clone();
                self.set(r, c, v);
            }
            self.rhs[r] = self.rhs[r].clone() - factor * self.rhs[pr].clone();
            // Clamp tiny negative noise on the f64 backend so the invariant
            // rhs >= 0 survives long pivot sequences.
            if self.rhs[r] < S::zero() && self.rhs[r].abs() <= self.tol.clone() + self.tol.clone() {
                self.rhs[r] = S::zero();
            }
        }

        // Eliminate from the reduced-cost row (same base-zero skip).
        let zfactor = self.zrow[pc].clone();
        if !zfactor.is_zero() {
            for c in 0..self.cols {
                self.zrow[c] = self.zrow[c].clone() - zfactor.clone() * self.at(pr, c).clone();
            }
            self.zval = self.zval.clone() + zfactor * self.rhs[pr].clone();
        }

        self.basis[pr] = pc;
    }

    /// Rebuilds `zrow`/`zval` from scratch for cost vector `costs`.
    fn reprice(&mut self, costs: &[S]) {
        for c in 0..self.cols {
            let mut z = S::zero();
            for r in 0..self.rows {
                let cb = costs[self.basis[r]].clone();
                if !cb.is_zero() {
                    z = z + cb * self.at(r, c).clone();
                }
            }
            self.zrow[c] = costs[c].clone() - z;
        }
        let mut zv = S::zero();
        for r in 0..self.rows {
            let cb = costs[self.basis[r]].clone();
            if !cb.is_zero() {
                zv = zv + cb * self.rhs[r].clone();
            }
        }
        self.zval = zv;
    }
}

/// One standardized row: sparse structural coefficients, relation, rhs,
/// plus bookkeeping for dual-sign recovery.
pub(crate) struct StdRow<S> {
    /// Distinct structural indices with nonzero coefficients (first-touch
    /// order, not sorted) — the scheduling rows are sparse, and both
    /// engines assemble their working matrices from this list instead of
    /// a dense row vector.
    pub nz: Vec<usize>,
    /// Coefficient values parallel to `nz` (duplicate input indices
    /// already summed, rhs-flip already applied).
    pub nzv: Vec<S>,
    pub relation: Relation,
    pub rhs: S,
    /// `true` when the row was negated: a row with a negative rhs, so its
    /// rhs turns non-negative, or a `>=` row with a zero rhs, so it turns
    /// into a `<=` row that starts feasible at its slack. Both engines
    /// negate the row's dual back on the way out.
    pub flipped: bool,
}

/// Fully assembled standard-form instance (shared with the revised solver).
pub(crate) struct StandardForm<S> {
    pub rows: Vec<StdRow<S>>,
    /// Phase-2 cost per structural variable (maximization).
    pub costs: Vec<S>,
    /// `true` if the input sense was `Minimize` (objective and duals are
    /// negated on the way out).
    pub negated: bool,
}

pub(crate) fn standardize<S: Scalar>(problem: &Problem) -> StandardForm<S> {
    let negate = problem.sense() == Sense::Minimize;
    let costs: Vec<S> = problem
        .objective()
        .iter()
        .map(|&c| {
            let s = S::from_f64(c);
            if negate {
                -s
            } else {
                s
            }
        })
        .collect();

    let n = problem.num_vars();
    // Generation-tagged dedup scratch shared across rows: `tag[i] == gen`
    // marks index `i` as already touched by the current row (its running
    // sum lives in `acc[i]`), without a per-row sort, clear, or dense row
    // allocation. `nz` comes out in first-touch order, which is
    // deterministic (constraint coefficient order is) and fine downstream —
    // column assembly walks rows outermost, so supports stay row-major.
    let mut tag = vec![0usize; n];
    let mut acc = vec![S::zero(); n];
    let mut rows = Vec::with_capacity(problem.num_constraints());
    for (gen, con) in problem.constraints().iter().enumerate() {
        let gen = gen + 1;
        // Duplicate indices sum, as in `Problem::dense_rows`.
        let mut touched: Vec<usize> = Vec::with_capacity(con.coeffs.len());
        for &(i, c) in &con.coeffs {
            if tag[i] != gen {
                tag[i] = gen;
                acc[i] = S::zero();
                touched.push(i);
            }
            acc[i] = acc[i].clone() + S::from_f64(c);
        }
        let mut rhs = S::from_f64(con.rhs);
        let mut relation = con.relation;
        let mut flipped = false;
        // A `>=` row with a zero budget (a precedence row) is negated too:
        // `-a·x <= 0` holds at its own slack, so it needs no artificial.
        let zero_ge = relation == Relation::Ge && rhs == S::zero();
        if rhs.is_negative() || zero_ge {
            for &i in &touched {
                acc[i] = -acc[i].clone();
            }
            // `0 - rhs`, not `-rhs`: a zero budget stays `+0`.
            rhs = S::zero() - rhs;
            relation = match relation {
                Relation::Le => Relation::Ge,
                Relation::Ge => Relation::Le,
                Relation::Eq => Relation::Eq,
            };
            flipped = true;
        }
        let mut nz = Vec::with_capacity(touched.len());
        let mut nzv = Vec::with_capacity(touched.len());
        for &i in &touched {
            if !acc[i].is_zero() {
                nz.push(i);
                nzv.push(acc[i].clone());
            }
        }
        rows.push(StdRow {
            nz,
            nzv,
            relation,
            rhs,
            flipped,
        });
    }

    StandardForm {
        rows,
        costs,
        negated: negate,
    }
}

/// Solves `problem` with explicit options on scalar backend `S`.
pub fn solve_with<S: Scalar>(
    problem: &Problem,
    opts: &SolverOptions,
) -> Result<Solution<S>, LpError> {
    dls_obs::counter!("tableau.solve").incr();
    let mut trace = SolveTrace::new(
        dls_obs::trace_span!(
            "tableau.solve.seconds",
            "vars" => problem.num_vars(),
            "rows" => problem.num_constraints(),
        ),
        [Phase::new(
            "pivot_s",
            dls_obs::histogram!("tableau.pivot.seconds"),
        )],
    );
    problem.validate()?;
    let n = problem.num_vars();
    let std_form = standardize::<S>(problem);
    let m = std_form.rows.len();
    let tol = S::tolerance() * S::from_f64(problem.coefficient_scale());

    // ---- Column layout: structural | logical | artificial | (rhs separate).
    let relations: Vec<Relation> = std_form.rows.iter().map(|r| r.relation).collect();
    let layout = column_layout(n, &relations);
    let ColumnLayout {
        ref kinds,
        ref logical_col,
        ref artificial_col,
        cols,
    } = layout;

    // ---- Assemble the tableau.
    let mut t = Tableau {
        a: vec![S::zero(); m * cols],
        rhs: Vec::with_capacity(m),
        zrow: vec![S::zero(); cols],
        zval: S::zero(),
        basis: vec![0; m],
        rows: m,
        cols,
        tol,
    };
    for (i, row) in std_form.rows.iter().enumerate() {
        for (&j, v) in row.nz.iter().zip(&row.nzv) {
            t.set(i, j, v.clone());
        }
        match row.relation {
            Relation::Le => {
                t.set(i, logical_col[i], S::one());
                t.basis[i] = logical_col[i];
            }
            Relation::Ge => {
                t.set(i, logical_col[i], -S::one());
                t.set(i, artificial_col[i], S::one());
                t.basis[i] = artificial_col[i];
            }
            Relation::Eq => {
                t.set(i, artificial_col[i], S::one());
                t.basis[i] = artificial_col[i];
            }
        }
        t.rhs.push(row.rhs.clone());
    }

    let is_artificial = |c: usize| matches!(kinds[c], ColKind::Artificial(_));

    // ---- Phase 1 (only if artificials exist): maximize -sum(artificials).
    let need_phase1 = (0..cols).any(is_artificial);
    if need_phase1 {
        let mut p1_costs = vec![S::zero(); cols];
        for (c, p1c) in p1_costs.iter_mut().enumerate() {
            if is_artificial(c) {
                *p1c = -S::one();
            }
        }
        t.reprice(&p1_costs);
        run_phase(&mut t, &mut trace, opts, |_c| true)?;

        // Optimal phase-1 value must be ~0 for feasibility; the threshold is
        // row-scaled because the value sums residuals over all m rows.
        let infeas_tol = t.tol.clone() * S::from_f64(m.max(1) as f64);
        if t.zval < -infeas_tol {
            return Err(LpError::Infeasible);
        }

        // Drive residual basic artificials out with degenerate pivots
        // (base-tolerance test: these are normalized-frame entries).
        for r in 0..m {
            if is_artificial(t.basis[r]) {
                if let Some(pc) = (0..cols).find(|&c| !is_artificial(c) && !t.at(r, c).is_zero()) {
                    trace.time(PIVOT, || t.pivot(r, pc));
                    trace.pivots += 1;
                }
                // Otherwise the row is redundant: all structural and logical
                // entries are zero, so no later pivot can touch it.
            }
        }
    }

    // ---- Phase 2: the real objective over structural columns.
    let mut p2_costs = vec![S::zero(); cols];
    p2_costs[..n].clone_from_slice(&std_form.costs);
    t.reprice(&p2_costs);
    run_phase(&mut t, &mut trace, opts, |c| {
        !matches!(kinds[c], ColKind::Artificial(_))
    })?;

    // ---- Extract the primal point.
    let mut x = vec![S::zero(); n];
    for r in 0..m {
        let b = t.basis[r];
        if b < n {
            x[b] = t.rhs[r].clone();
        }
    }

    // Recompute the objective from the point (avoids accumulated zval noise)
    // and restore the input sense.
    let mut obj = S::zero();
    for (c, xv) in std_form.costs.iter().zip(&x) {
        obj = obj + c.clone() * xv.clone();
    }
    if std_form.negated {
        obj = -obj;
    }

    // ---- Duals from reduced costs of the logical/artificial columns.
    let mut duals = Vec::with_capacity(m);
    for (i, row) in std_form.rows.iter().enumerate() {
        let mut y = match row.relation {
            Relation::Le => -t.zrow[logical_col[i]].clone(),
            Relation::Ge => t.zrow[logical_col[i]].clone(),
            Relation::Eq => -t.zrow[artificial_col[i]].clone(),
        };
        if row.flipped {
            y = -y;
        }
        if std_form.negated {
            y = -y;
        }
        duals.push(y);
    }

    dls_obs::histogram!("tableau.iterations").record(trace.pivots as f64);
    Ok(Solution {
        objective: obj,
        x,
        duals,
        iterations: trace.pivots,
    })
}

/// Runs the pivot loop until no entering column improves the (already
/// priced) objective. `enterable` filters candidate entering columns.
fn run_phase<S: Scalar>(
    t: &mut Tableau<S>,
    trace: &mut SolveTrace<1>,
    opts: &SolverOptions,
    enterable: impl Fn(usize) -> bool,
) -> Result<(), LpError> {
    let start = trace.pivots;
    loop {
        if trace.pivots >= opts.max_iterations {
            return Err(LpError::IterationLimit {
                iterations: trace.pivots,
            });
        }
        let use_bland = trace.pivots - start >= opts.bland_after;

        // Entering column: positive reduced cost (maximization).
        let mut entering: Option<usize> = None;
        if use_bland {
            entering = (0..t.cols).find(|&c| enterable(c) && t.is_pos(&t.zrow[c]));
        } else {
            let mut best: Option<(usize, S)> = None;
            for c in 0..t.cols {
                if enterable(c) && t.is_pos(&t.zrow[c]) {
                    let improves = match &best {
                        Some((_, v)) => t.zrow[c] > *v,
                        None => true,
                    };
                    if improves {
                        best = Some((c, t.zrow[c].clone()));
                    }
                }
            }
            entering = best.map(|(c, _)| c).or(entering);
        }
        let Some(pc) = entering else {
            return Ok(()); // optimal for this phase
        };

        // Ratio test. Degenerate-artificial guard: if a basic artificial sits
        // at zero and the entering column touches its row, pivot it out
        // immediately (keeps artificials from re-entering the positive
        // orthant during phase 2).
        // Ratio test. Tableau entries are O(1) after pivot normalization —
        // not O(coefficient_scale) — so eligibility uses the backend's
        // *base* tolerance; the scaled tolerance would skip genuine small
        // pivots on mixed-scale instances and misreport Unbounded.
        let mut leaving: Option<(usize, S)> = None;
        for r in 0..t.rows {
            let a = t.at(r, pc).clone();
            if !a.is_positive() {
                continue;
            }
            let ratio = t.rhs[r].clone() / a;
            let better = match &leaving {
                None => true,
                Some((lr, lv)) => {
                    // Strictly better ratio, or an equal ratio broken by the
                    // smaller basis index (Bland) — `<=` is safe because the
                    // scalar ordering is total on solver-produced values.
                    ratio < *lv || (ratio <= *lv && t.basis[r] < t.basis[*lr])
                }
            };
            if better {
                leaving = Some((r, ratio));
            }
        }
        let Some((pr, _)) = leaving else {
            return Err(LpError::Unbounded);
        };

        trace.time(PIVOT, || t.pivot(pr, pc));
        trace.pivots += 1;
    }
}

#[cfg(test)]
// Unit tests assert exact outcomes of exact arithmetic.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use crate::problem::{Problem, Relation};
    use crate::rational::Rational;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-7, "expected {b}, got {a}");
    }

    #[test]
    fn textbook_2d_max() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  -> z = 36 at (2, 6)
        let mut p = Problem::maximize();
        let x = p.add_var(3.0);
        let y = p.add_var(5.0);
        p.add_constraint([(x, 1.0)], Relation::Le, 4.0);
        p.add_constraint([(y, 2.0)], Relation::Le, 12.0);
        p.add_constraint([(x, 3.0), (y, 2.0)], Relation::Le, 18.0);
        let s = solve(&p).unwrap();
        assert_close(s.objective, 36.0);
        assert_close(s.value(x), 2.0);
        assert_close(s.value(y), 6.0);
    }

    #[test]
    fn textbook_2d_max_exact() {
        let mut p = Problem::maximize();
        let x = p.add_var(3.0);
        let y = p.add_var(5.0);
        p.add_constraint([(x, 1.0)], Relation::Le, 4.0);
        p.add_constraint([(y, 2.0)], Relation::Le, 12.0);
        p.add_constraint([(x, 3.0), (y, 2.0)], Relation::Le, 18.0);
        let s = solve_exact::<Rational>(&p).unwrap();
        assert_eq!(s.objective, Rational::from_int(36));
        assert_eq!(s.value(x), Rational::from_int(2));
        assert_eq!(s.value(y), Rational::from_int(6));
    }

    #[test]
    fn minimization_with_ge_constraints() {
        // min 2x + 3y s.t. x + y >= 10, x >= 2  -> x=10?? check: put all on x:
        // cost 2 < 3, so x = 10, y = 0, z = 20.
        let mut p = Problem::minimize();
        let x = p.add_var(2.0);
        let y = p.add_var(3.0);
        p.add_constraint([(x, 1.0), (y, 1.0)], Relation::Ge, 10.0);
        p.add_constraint([(x, 1.0)], Relation::Ge, 2.0);
        let s = solve(&p).unwrap();
        assert_close(s.objective, 20.0);
        assert_close(s.value(x), 10.0);
        assert_close(s.value(y), 0.0);
    }

    #[test]
    fn equality_constraints() {
        // max x + y s.t. x + y == 5, x - y == 1 -> (3, 2), z = 5.
        let mut p = Problem::maximize();
        let x = p.add_var(1.0);
        let y = p.add_var(1.0);
        p.add_constraint([(x, 1.0), (y, 1.0)], Relation::Eq, 5.0);
        p.add_constraint([(x, 1.0), (y, -1.0)], Relation::Eq, 1.0);
        let s = solve(&p).unwrap();
        assert_close(s.objective, 5.0);
        assert_close(s.value(x), 3.0);
        assert_close(s.value(y), 2.0);
    }

    #[test]
    fn negative_rhs_rows_are_flipped() {
        // x - y <= -2 with x,y >= 0 means y >= x + 2.
        // max x + y s.t. x - y <= -2, x + y <= 10 -> best x: x=4,y=6, z=10.
        let mut p = Problem::maximize();
        let x = p.add_var(1.0);
        let y = p.add_var(1.0);
        p.add_constraint([(x, 1.0), (y, -1.0)], Relation::Le, -2.0);
        p.add_constraint([(x, 1.0), (y, 1.0)], Relation::Le, 10.0);
        let s = solve(&p).unwrap();
        assert_close(s.objective, 10.0);
        assert!(s.value(y) >= s.value(x) + 2.0 - 1e-7);
    }

    #[test]
    fn zero_budget_ge_rows_start_at_their_slack() {
        // x - 2y >= 0 standardizes to -x + 2y <= 0: a logical column, no
        // artificial, so no phase 1.
        let mut p = Problem::maximize();
        let x = p.add_var(1.0);
        let y = p.add_var(1.0);
        p.add_constraint([(x, 1.0), (y, -2.0)], Relation::Ge, 0.0);
        let std_form = standardize::<f64>(&p);
        let row = &std_form.rows[0];
        assert_eq!(row.relation, Relation::Le);
        assert!(row.flipped);
        assert_eq!(row.nz, [0, 1]);
        assert_eq!(row.nzv, [-1.0, 2.0]);
        assert_eq!(row.rhs.to_bits(), 0.0_f64.to_bits());
        let layout = column_layout(2, &[row.relation]);
        assert_eq!(layout.logical_col[0], 2);
        assert_eq!(layout.artificial_col[0], usize::MAX);
        assert_eq!(layout.cols, 3);
    }

    #[test]
    fn precedence_chains_have_no_artificial_column() {
        // The interleaved shape through the IR: a release row, a port chain
        // of precedence rows and one deadline horizon row.
        let mut m = crate::model::ScheduleModel::maximize();
        let alpha = m.group("alpha", [1.0; 2]);
        let start = m.group("start", [0.0; 3]);
        m.release(start.var(0), [(alpha.var(0), 2.0)]);
        m.precedence(start.var(1), start.var(0), [(alpha.var(0), 1.0)]);
        m.precedence(start.var(2), start.var(1), [(alpha.var(1), 3.0)]);
        m.deadline([(start.var(2), 1.0), (alpha.var(1), 1.0)], 1.0);
        let std_form = standardize::<f64>(m.problem());
        let relations: Vec<Relation> = std_form.rows.iter().map(|r| r.relation).collect();
        assert_eq!(relations, [Relation::Le; 4]);
        let layout = column_layout(m.num_vars(), &relations);
        assert!(
            (0..layout.cols).all(|c| !layout.is_artificial(c)),
            "{:?}",
            layout.kinds
        );
    }

    #[test]
    fn binding_zero_budget_ge_row_has_a_non_positive_dual() {
        // max 2x + y s.t. y - x >= 0, x + y <= 4 -> (2, 2), z = 6. The
        // `>=` row binds with dual -1/2 and the `<=` row has dual 3/2.
        let mut p = Problem::maximize();
        let x = p.add_var(2.0);
        let y = p.add_var(1.0);
        p.add_constraint([(y, 1.0), (x, -1.0)], Relation::Ge, 0.0);
        p.add_constraint([(x, 1.0), (y, 1.0)], Relation::Le, 4.0);
        let opts = SolverOptions::for_size(p.num_vars(), p.num_constraints());
        for exact in [
            solve_exact::<Rational>(&p).unwrap(),
            crate::revised::solve_revised_with::<Rational>(&p, &opts, None)
                .unwrap()
                .solution,
        ] {
            assert_eq!(exact.objective, Rational::from_int(6));
            assert_eq!(exact.duals, [Rational::new(-1, 2), Rational::new(3, 2)]);
        }
        for s in [
            solve(&p).unwrap(),
            crate::revised::solve_revised(&p).unwrap(),
        ] {
            assert_close(s.objective, 6.0);
            assert_close(s.duals[0], -0.5);
            assert_close(s.duals[1], 1.5);
        }
    }

    #[test]
    fn infeasible_detected() {
        let mut p = Problem::maximize();
        let x = p.add_var(1.0);
        p.add_constraint([(x, 1.0)], Relation::Ge, 5.0);
        p.add_constraint([(x, 1.0)], Relation::Le, 3.0);
        assert_eq!(solve(&p).unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut p = Problem::maximize();
        // x has positive cost and no constraint touches it: unbounded ray.
        let _x = p.add_var(1.0);
        let y = p.add_var(0.0);
        p.add_constraint([(y, 1.0)], Relation::Le, 3.0);
        assert_eq!(solve(&p).unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn redundant_equalities_are_tolerated() {
        // Same equality twice: the second row's artificial cannot always be
        // pivoted out and must be left inert.
        let mut p = Problem::maximize();
        let x = p.add_var(1.0);
        let y = p.add_var(1.0);
        p.add_constraint([(x, 1.0), (y, 1.0)], Relation::Eq, 4.0);
        p.add_constraint([(x, 2.0), (y, 2.0)], Relation::Eq, 8.0);
        let s = solve(&p).unwrap();
        assert_close(s.objective, 4.0);
    }

    #[test]
    fn duals_of_binding_constraints() {
        // max 3x + 5y, x <= 4 (slack at opt -> dual 0), 2y <= 12 (dual 3/2),
        // 3x + 2y <= 18 (dual 1). Classic Dantzig example.
        let mut p = Problem::maximize();
        let x = p.add_var(3.0);
        let y = p.add_var(5.0);
        p.add_constraint([(x, 1.0)], Relation::Le, 4.0);
        p.add_constraint([(y, 2.0)], Relation::Le, 12.0);
        p.add_constraint([(x, 3.0), (y, 2.0)], Relation::Le, 18.0);
        let s = solve(&p).unwrap();
        assert_close(s.duals[0], 0.0);
        assert_close(s.duals[1], 1.5);
        assert_close(s.duals[2], 1.0);
        // Strong duality: y^T b == objective.
        let dual_obj = s.duals[0] * 4.0 + s.duals[1] * 12.0 + s.duals[2] * 18.0;
        assert_close(dual_obj, s.objective);
    }

    #[test]
    fn beale_cycling_example_terminates() {
        // Beale (1955): Dantzig's rule cycles forever on this LP without an
        // anti-cycling rule. min -0.75a + 150b - 0.02c + 6d subject to
        //   0.25a - 60b - 0.04c + 9d <= 0
        //   0.50a - 90b - 0.02c + 3d <= 0
        //   c <= 1
        // Optimum: z = -0.05 at a = 0.04/0.8... (c=1, a=0.04, b=0, d=0) ->
        // check: -0.75*0.04 - 0.02*1 = -0.05.
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
        let s = solve(&p).unwrap();
        assert_close(s.objective, -0.05);
    }

    #[test]
    fn exact_and_float_agree_on_mixed_relations() {
        let mut p = Problem::maximize();
        let x = p.add_var(2.0);
        let y = p.add_var(3.0);
        let z = p.add_var(1.0);
        p.add_constraint([(x, 1.0), (y, 2.0), (z, 1.0)], Relation::Le, 10.0);
        p.add_constraint([(x, 1.0), (y, 1.0)], Relation::Ge, 2.0);
        p.add_constraint([(z, 1.0), (y, -1.0)], Relation::Eq, 0.0);
        let sf = solve(&p).unwrap();
        let sr = solve_exact::<Rational>(&p).unwrap().to_f64();
        assert_close(sf.objective, sr.objective);
        for (a, b) in sf.x.iter().zip(&sr.x) {
            assert_close(*a, *b);
        }
    }

    #[test]
    fn iteration_limit_is_enforced() {
        let mut p = Problem::maximize();
        let x = p.add_var(1.0);
        let y = p.add_var(1.0);
        p.add_constraint([(x, 1.0), (y, 1.0)], Relation::Le, 1.0);
        let opts = SolverOptions {
            max_iterations: 0,
            ..SolverOptions::for_size(p.num_vars(), p.num_constraints())
        };
        assert!(matches!(
            solve_with::<f64>(&p, &opts),
            Err(LpError::IterationLimit { .. })
        ));
    }

    #[test]
    fn zero_rhs_degenerate_start() {
        // All rhs zero: heavily degenerate but feasible with optimum 0.
        let mut p = Problem::maximize();
        let x = p.add_var(1.0);
        let y = p.add_var(1.0);
        p.add_constraint([(x, 1.0), (y, -1.0)], Relation::Le, 0.0);
        p.add_constraint([(y, 1.0), (x, -1.0)], Relation::Le, 0.0);
        p.add_constraint([(x, 1.0), (y, 1.0)], Relation::Le, 0.0);
        let s = solve(&p).unwrap();
        assert_close(s.objective, 0.0);
    }

    #[test]
    fn large_coefficients_use_relative_tolerance() {
        // The same textbook LP with every row scaled by 1e6: an absolute
        // 1e-9 pivot tolerance is meaningless against 1e6-range entries
        // (reduced costs of ~1e-3 relative noise look "positive"), while the
        // relative tolerance keeps the solve exact. Regression for the
        // hard-coded-epsilon bug.
        let mut p = Problem::maximize();
        let x = p.add_var(3.0e6);
        let y = p.add_var(5.0e6);
        p.add_constraint([(x, 1.0e6)], Relation::Le, 4.0e6);
        p.add_constraint([(y, 2.0e6)], Relation::Le, 12.0e6);
        p.add_constraint([(x, 3.0e6), (y, 2.0e6)], Relation::Le, 18.0e6);
        assert_eq!(p.coefficient_scale(), 18.0e6);
        let s = solve(&p).unwrap();
        assert!(
            (s.objective - 36.0e6).abs() < 36.0 * 1e-3,
            "{}",
            s.objective
        );
        assert_close(s.value(x), 2.0);
        assert_close(s.value(y), 6.0);
    }

    #[test]
    fn large_coefficients_no_spurious_infeasibility() {
        // Equality rows in the 1e6 range: phase 1 must accept the residual
        // rounding noise (relative to the coefficient scale) instead of
        // declaring the instance infeasible.
        let mut p = Problem::maximize();
        let x = p.add_var(1.0);
        let y = p.add_var(1.0);
        p.add_constraint([(x, 1.0e6), (y, 1.0e6)], Relation::Eq, 5.0e6);
        p.add_constraint([(x, 3.0e6), (y, -1.0e6)], Relation::Eq, 3.0e6);
        let s = solve(&p).unwrap();
        assert_close(s.objective, 5.0);
        assert_close(s.value(x), 2.0);
        assert_close(s.value(y), 3.0);
    }

    #[test]
    fn large_w_over_c_ratio_platform_shape() {
        // The divisible-load shape that motivated the fix: deadline rows
        // mixing O(1) communication with O(1e6) computation coefficients.
        // maximize a1 + a2 with w = 2e6, c = 1, d = 0.5 (so the optimum is
        // tiny but must not be declared one pivot early).
        let mut p = Problem::maximize();
        let a1 = p.add_var(1.0);
        let a2 = p.add_var(1.0);
        p.add_constraint([(a1, 1.0 + 2.0e6 + 0.5), (a2, 0.5)], Relation::Le, 1.0);
        p.add_constraint([(a1, 1.0), (a2, 1.0 + 2.0e6 + 0.5)], Relation::Le, 1.0);
        p.add_constraint([(a1, 1.5), (a2, 1.5)], Relation::Le, 1.0);
        let s = solve(&p).unwrap();
        // Both workers saturate their compute deadline: a_i ~= 1/(w + c + d).
        let sr = solve_exact::<Rational>(&p).unwrap().to_f64();
        assert!(
            (s.objective - sr.objective).abs() <= 1e-9 * sr.objective.abs().max(1.0),
            "float {} vs exact {}",
            s.objective,
            sr.objective
        );
        assert!(s.objective > 0.0);
    }

    #[test]
    fn mixed_scale_coefficients_are_still_eliminated() {
        // One 1e6-range row next to O(1e-3) coefficients: the scaled
        // tolerance must gate *decisions* only — a small-but-real pivot
        // factor (far below tol = 1e-9 * scale) still has to be eliminated,
        // or the tableau drifts at ~1e-3 relative error. Certified against
        // the exact backend.
        let mut p = Problem::maximize();
        let x = p.add_var(1.0);
        let y = p.add_var(1.0);
        p.add_constraint([(x, 1.0e6), (y, 1.0e6)], Relation::Le, 2.0e6);
        p.add_constraint([(x, 5.0e-4), (y, 1.0)], Relation::Le, 1.0);
        p.add_constraint([(x, 1.0)], Relation::Le, 1.2);
        let sf = solve(&p).unwrap();
        let sr = solve_exact::<Rational>(&p).unwrap().to_f64();
        assert!(
            (sf.objective - sr.objective).abs() <= 1e-9 * sr.objective.abs().max(1.0),
            "float {} vs exact {}",
            sf.objective,
            sr.objective
        );
        for (a, b) in sf.x.iter().zip(&sr.x) {
            assert!((a - b).abs() <= 1e-7, "point drifted: {a} vs {b}");
        }
    }

    #[test]
    fn mixed_scale_ratio_test_is_not_unbounded() {
        // coefficient_scale = 1e6 makes the scaled tolerance 1e-3 — larger
        // than x's only constraint coefficient (1e-4). The ratio test must
        // still accept that entry (tableau entries are normalized-frame):
        // the LP is bounded with optimum 1e4 + 1 = 10001.
        let mut p = Problem::maximize();
        let x = p.add_var(1.0);
        let y = p.add_var(1.0);
        p.add_constraint([(x, 1.0e-4)], Relation::Le, 1.0);
        p.add_constraint([(y, 1.0e6)], Relation::Le, 1.0e6);
        let s = solve(&p).unwrap();
        assert!(
            (s.objective - 10_001.0).abs() < 1e-6,
            "expected 10001, got {}",
            s.objective
        );
    }

    #[test]
    fn solution_accessors() {
        let mut p = Problem::maximize();
        let x = p.add_var(1.0);
        p.add_constraint([(x, 1.0)], Relation::Le, 7.0);
        let s = solve(&p).unwrap();
        assert_close(s.value(x), 7.0);
        assert!(s.iterations >= 1);
    }
}
