//! Revised simplex with a sparse LU basis factorization.
//!
//! The dense tableau in [`crate::simplex`] rewrites the whole `m x n`
//! matrix on every pivot. This module keeps the constraint columns
//! *immutable* and maintains only a factorization of the basis `B`:
//!
//! * **Sparse LU.** [`crate::sparse_lu`] factorizes the basis with
//!   Markowitz pivoting and absorbs pivots as Forrest–Tomlin row etas;
//!   `FTRAN`/`BTRAN` are sparse triangular solves. This is what makes
//!   *cold* solves cheap — the scheduling LPs are mostly sparse, and the
//!   factors stay near the basis nonzero count instead of `m^2`. It is the
//!   solver's only basis representation: the dense product-form inverse
//!   it replaced lives on solely as the factor-level oracle in
//!   `sparse_lu`'s unit tests.
//! * **Periodic refactorization.** When the update file reaches
//!   [`crate::SolverOptions::refactor_every`] entries, update fill
//!   outgrows the factors, or a Forrest–Tomlin update is rejected as
//!   numerically unsafe, the factorization is rebuilt from the basis
//!   columns, which both bounds the per-iteration cost and flushes
//!   accumulated floating-point drift. A cold solve replays the same
//!   pivots every time, so its answer is deterministic without an
//!   end-of-solve refactorization.
//! * **Warm starts.** [`solve_revised_with`] accepts a caller-supplied
//!   [`Basis`] (in the standardized column indexing: structural, then
//!   logical, then artificial columns). If the basis factorizes and is
//!   primal feasible, phase 1 is skipped entirely and phase 2 starts from
//!   it; otherwise the solver silently falls back to the cold
//!   slack/artificial start. The workspace's own solve path
//!   (`dls_core::lp_model`) always passes `None`: at scenario sizes a cold
//!   solve is cheaper than keeping bases around to seed the next one.
//!
//! The solver is generic over [`Scalar`], so the exact rational backend can
//! certify the floating-point path. It shares standardization and the
//! column layout with the tableau, so the two engines solve the same
//! standard form; only this engine takes or returns a [`Basis`].

use crate::error::LpError;
use crate::problem::{Problem, Relation};
use crate::scalar::Scalar;
use crate::simplex::{column_layout, standardize, ColumnLayout, Solution, SolverOptions, StdRow};
use crate::solve_trace::{Phase, SolveTrace};
use crate::sparse_lu::SparseLu;

/// Indices of the revised engine's timed phases in its [`SolveTrace`].
const REFACTORIZE: usize = 0;
const PRICING: usize = 1;
const FTRAN: usize = 2;
const BTRAN: usize = 3;

/// A simplex basis: one standardized column index per constraint row.
///
/// Column indices follow the layout shared by both solver engines:
/// structural variables first, then logicals (slack/surplus), then
/// artificials. A basis returned by one solve can warm-start any instance
/// with the same standardized shape (`num_rows` rows, `num_cols` columns).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Basis {
    cols: Vec<usize>,
    num_cols: usize,
}

impl Basis {
    /// The basic column index of each row.
    pub fn columns(&self) -> &[usize] {
        &self.cols
    }

    /// Number of constraint rows this basis was taken from.
    pub fn num_rows(&self) -> usize {
        self.cols.len()
    }

    /// Total standardized column count of the originating instance.
    pub fn num_cols(&self) -> usize {
        self.num_cols
    }

    /// `true` when this basis is dimension-compatible with an instance of
    /// `rows` rows and `cols` standardized columns.
    fn fits(&self, rows: usize, cols: usize) -> bool {
        self.cols.len() == rows && self.num_cols == cols
    }
}

/// Result of a revised-simplex solve: the solution plus the optimal basis
/// (for reuse) and whether a warm start was actually used.
#[derive(Debug, Clone)]
pub struct RevisedSolution<S> {
    /// The optimal point, objective, duals and pivot count.
    pub solution: Solution<S>,
    /// The optimal basis, suitable for warm-starting related instances.
    pub basis: Basis,
    /// `true` when the caller-supplied basis was accepted (factorized and
    /// primal feasible), skipping phase 1.
    pub warm_started: bool,
}

/// Solves `problem` with default options on the `f64` backend, cold start.
pub fn solve_revised(problem: &Problem) -> Result<Solution<f64>, LpError> {
    solve_revised_with::<f64>(
        problem,
        &SolverOptions::for_size(problem.num_vars(), problem.num_constraints()),
        None,
    )
    .map(|r| r.solution)
}

/// The standardized instance in column-major form, immutable during the
/// solve.
pub(crate) struct Columns<S> {
    /// Flat compressed-sparse-column storage: column `j` holds the row
    /// indices `rows[col_ptr[j]..col_ptr[j + 1]]` (ascending) paired with
    /// the values `vals[..]` at the same offsets. The scheduling LPs are
    /// far from fully dense (idle and logical columns touch one row), and
    /// pricing, `FTRAN` and the sparse LU factorization iterate only these
    /// entry lists — no dense `m x cols` array is ever materialized.
    col_ptr: Vec<usize>,
    rows: Vec<usize>,
    vals: Vec<S>,
    /// Non-negative right-hand side.
    pub(crate) b: Vec<S>,
    pub(crate) m: usize,
}

impl<S: Scalar> Columns<S> {
    pub(crate) fn build(rows: &[StdRow<S>], layout: &ColumnLayout) -> Self {
        let m = rows.len();
        // Counting pass sizes every column exactly (logical/artificial
        // columns hold one entry; structural counts come from the rows'
        // nonzero lists), then a row-major scatter fills the flat arrays —
        // ascending row order per column comes for free.
        let mut col_ptr = vec![0usize; layout.cols + 1];
        for (i, row) in rows.iter().enumerate() {
            for &j in &row.nz {
                col_ptr[j + 1] += 1;
            }
            match row.relation {
                Relation::Le => col_ptr[layout.logical_col[i] + 1] += 1,
                Relation::Ge => {
                    col_ptr[layout.logical_col[i] + 1] += 1;
                    col_ptr[layout.artificial_col[i] + 1] += 1;
                }
                Relation::Eq => col_ptr[layout.artificial_col[i] + 1] += 1,
            }
        }
        for j in 0..layout.cols {
            col_ptr[j + 1] += col_ptr[j];
        }
        let nnz = col_ptr[layout.cols];
        let mut rows_idx = vec![0usize; nnz];
        let mut vals = vec![S::zero(); nnz];
        let mut fill = col_ptr.clone();
        let mut put = |j: usize, i: usize, v: S| {
            rows_idx[fill[j]] = i;
            vals[fill[j]] = v;
            fill[j] += 1;
        };
        for (i, row) in rows.iter().enumerate() {
            for (&j, v) in row.nz.iter().zip(&row.nzv) {
                put(j, i, v.clone());
            }
            match row.relation {
                Relation::Le => put(layout.logical_col[i], i, S::one()),
                Relation::Ge => {
                    put(layout.logical_col[i], i, -S::one());
                    put(layout.artificial_col[i], i, S::one());
                }
                Relation::Eq => put(layout.artificial_col[i], i, S::one()),
            }
        }
        let b = rows.iter().map(|r| r.rhs.clone()).collect();
        Columns {
            col_ptr,
            rows: rows_idx,
            vals,
            b,
            m,
        }
    }

    /// Row indices of column `j`'s nonzero entries, ascending.
    #[inline]
    pub(crate) fn support(&self, j: usize) -> &[usize] {
        &self.rows[self.col_ptr[j]..self.col_ptr[j + 1]]
    }

    /// Values of column `j`'s nonzero entries, parallel to
    /// [`Columns::support`].
    #[inline]
    pub(crate) fn vals(&self, j: usize) -> &[S] {
        &self.vals[self.col_ptr[j]..self.col_ptr[j + 1]]
    }
}

/// Internal solver state for one (phase-agnostic) pivot loop.
struct State<S> {
    cols: Columns<S>,
    layout: ColumnLayout,
    basis: Vec<usize>,
    in_basis: Vec<bool>,
    factor: SparseLu<S>,
    /// Current basic values `x_B = B^-1 b` (kept incrementally, rebuilt on
    /// refactorization).
    xb: Vec<S>,
    tol: S,
    /// The solve's span, pivot count and phase clocks.
    trace: SolveTrace<4>,
}

enum PhaseOutcome {
    Optimal,
    Unbounded,
}

impl<S: Scalar> State<S> {
    fn refactorize(&mut self) -> Result<(), LpError> {
        dls_obs::histogram!("revised.eta_len").record(self.factor.updates_len() as f64);
        self.factor = self
            .trace
            .time(REFACTORIZE, || SparseLu::factorize(&self.cols, &self.basis))
            .ok_or(LpError::SingularBasis)?;
        self.xb = self.trace.time(FTRAN, || self.factor.ftran(&self.cols.b));
        self.clamp_xb();
        Ok(())
    }

    /// Absorbs sub-tolerance negative noise in the basic values.
    fn clamp_xb(&mut self) {
        let two_tol = self.tol.clone() + self.tol.clone();
        for v in &mut self.xb {
            if *v < S::zero() && v.abs() <= two_tol {
                *v = S::zero();
            }
        }
    }

    /// Runs one simplex phase: prices with `costs`, enters columns passing
    /// `enterable`, pivots until optimal/unbounded or the iteration cap.
    ///
    /// Pricing rule: Bland after `opts.bland_after` pivots (full scan,
    /// first improving index); otherwise Dantzig — over *all* columns when
    /// `opts.candidate_list == 0`, or over a rotating **candidate list**
    /// of at most `opts.candidate_list` recently improving columns
    /// (partial pricing). The list is re-priced each pivot and rebuilt by
    /// a wrapping full scan whenever it runs dry; optimality is only ever
    /// declared by a full scan, so partial pricing changes pivot order,
    /// never the answer.
    fn run_phase(
        &mut self,
        costs: &[S],
        opts: &SolverOptions,
        enterable: impl Fn(usize) -> bool,
    ) -> Result<PhaseOutcome, LpError> {
        let start = self.trace.pivots;
        // Partial-pricing state: the candidate pool and the wrap cursor of
        // the last rebuild scan (rotating the scan start spreads the
        // pool across the column range instead of favoring low indices).
        let mut candidates: Vec<usize> = Vec::new();
        let mut cursor = 0usize;
        loop {
            if self.trace.pivots >= opts.max_iterations {
                return Err(LpError::IterationLimit {
                    iterations: self.trace.pivots,
                });
            }
            let use_bland = self.trace.pivots - start >= opts.bland_after;

            // Price: y = c_B^T B^-1, then d_j = c_j - y . a_j.
            let cb: Vec<S> = self.basis.iter().map(|&c| costs[c].clone()).collect();
            let y = self.trace.time(BTRAN, || self.factor.btran(&cb));
            let entering: Option<(usize, S)> = self.trace.time(PRICING, || {
                let price = |c: usize| -> S {
                    let mut d = costs[c].clone();
                    for (&r, av) in self.cols.support(c).iter().zip(self.cols.vals(c)) {
                        let yv = &y[r];
                        if !yv.is_zero() {
                            d = d - yv.clone() * av.clone();
                        }
                    }
                    d
                };
                if use_bland {
                    // Bland: full scan, first improving index.
                    let mut found = None;
                    for c in 0..self.layout.cols {
                        if self.in_basis[c] || !enterable(c) {
                            continue;
                        }
                        let d = price(c);
                        if d > self.tol {
                            found = Some((c, d));
                            break;
                        }
                    }
                    found
                } else if opts.candidate_list == 0 {
                    // Classic Dantzig: full scan, steepest reduced cost.
                    let mut best: Option<(usize, S)> = None;
                    for c in 0..self.layout.cols {
                        if self.in_basis[c] || !enterable(c) {
                            continue;
                        }
                        let d = price(c);
                        if d > self.tol && best.as_ref().is_none_or(|(_, bd)| d > *bd) {
                            best = Some((c, d));
                        }
                    }
                    best
                } else {
                    // Partial pricing: re-price the surviving candidates…
                    let mut best: Option<(usize, S)> = None;
                    let mut kept = Vec::with_capacity(candidates.len());
                    for &c in &candidates {
                        if self.in_basis[c] || !enterable(c) {
                            continue;
                        }
                        let d = price(c);
                        if d > self.tol {
                            if best.as_ref().is_none_or(|(_, bd)| d > *bd) {
                                best = Some((c, d.clone()));
                            }
                            kept.push(c);
                        }
                    }
                    candidates = kept;
                    // …and rebuild from a wrapping full scan when dry. A
                    // dry *full* scan is the (exact) optimality proof.
                    if best.is_none() {
                        dls_obs::counter!("revised.candidate_rebuilds").incr();
                        candidates.clear();
                        let cols = self.layout.cols;
                        for off in 0..cols {
                            let c = (cursor + off) % cols;
                            if self.in_basis[c] || !enterable(c) {
                                continue;
                            }
                            let d = price(c);
                            if d > self.tol {
                                if best.as_ref().is_none_or(|(_, bd)| d > *bd) {
                                    best = Some((c, d.clone()));
                                }
                                candidates.push(c);
                                if candidates.len() >= opts.candidate_list {
                                    cursor = (c + 1) % cols;
                                    break;
                                }
                            }
                        }
                    }
                    best
                }
            });
            let Some((pc, _)) = entering else {
                return Ok(PhaseOutcome::Optimal);
            };
            candidates.retain(|&c| c != pc);

            // FTRAN the entering column and run the ratio test.
            let w = self.trace.time(FTRAN, || {
                self.factor
                    .ftran_sparse(self.cols.support(pc), self.cols.vals(pc))
            });
            // Ratio test. `w` lives in the normalized basis frame (O(1)
            // entries), so eligibility uses the backend's *base* tolerance;
            // the instance-scaled tolerance would skip genuine small pivots
            // on mixed-scale instances and misreport Unbounded.
            let mut leaving: Option<(usize, S)> = None;
            for (r, wr) in w.iter().enumerate() {
                if !wr.is_positive() {
                    continue;
                }
                let ratio = self.xb[r].clone() / wr.clone();
                let better = match &leaving {
                    None => true,
                    Some((lr, lv)) => {
                        ratio < *lv || (ratio <= *lv && self.basis[r] < self.basis[*lr])
                    }
                };
                if better {
                    leaving = Some((r, ratio));
                }
            }
            let Some((pr, theta)) = leaving else {
                return Ok(PhaseOutcome::Unbounded);
            };

            // Update basic values: x_B -= theta * w, entering takes theta.
            for (r, wr) in w.iter().enumerate() {
                if r != pr && !wr.is_zero() {
                    self.xb[r] = self.xb[r].clone() - theta.clone() * wr.clone();
                }
            }
            self.xb[pr] = theta;
            self.clamp_xb();

            self.in_basis[self.basis[pr]] = false;
            self.in_basis[pc] = true;
            self.basis[pr] = pc;
            // A rejected Forrest–Tomlin update leaves the factors untouched;
            // rebuild them from the (already updated) basis instead.
            let applied = self.factor.ft_update(pr, &w);
            self.trace.pivots += 1;

            if !applied
                || self.factor.updates_len() >= opts.refactor_every.max(1)
                || self.factor.fill_exceeded()
            {
                self.refactorize()?;
            }
        }
    }

    /// Drives residual basic artificials out after phase 1 (degenerate
    /// pivots); redundant rows keep their inert artificial, exactly like the
    /// tableau engine.
    fn drive_out_artificials(&mut self) -> Result<(), LpError> {
        for r in 0..self.cols.m {
            if !self.layout.is_artificial(self.basis[r]) {
                continue;
            }
            // Row r of B^-1 A: e_r^T B^-1 then dot with every column.
            let mut e = vec![S::zero(); self.cols.m];
            e[r] = S::one();
            let rho = self.trace.time(BTRAN, || self.factor.btran(&e));
            let candidate = (0..self.layout.cols).find(|&c| {
                if self.in_basis[c] || self.layout.is_artificial(c) {
                    return false;
                }
                let mut v = S::zero();
                for (&i, av) in self.cols.support(c).iter().zip(self.cols.vals(c)) {
                    if !rho[i].is_zero() {
                        v = v + rho[i].clone() * av.clone();
                    }
                }
                !v.is_zero()
            });
            if let Some(pc) = candidate {
                let w = self.trace.time(FTRAN, || {
                    self.factor
                        .ftran_sparse(self.cols.support(pc), self.cols.vals(pc))
                });
                let theta = self.xb[r].clone() / w[r].clone();
                for (i, wi) in w.iter().enumerate() {
                    if i != r && !wi.is_zero() {
                        self.xb[i] = self.xb[i].clone() - theta.clone() * wi.clone();
                    }
                }
                self.xb[r] = theta;
                self.clamp_xb();
                self.in_basis[self.basis[r]] = false;
                self.in_basis[pc] = true;
                self.basis[r] = pc;
                if !self.factor.ft_update(r, &w) {
                    self.refactorize()?;
                }
                self.trace.pivots += 1;
            }
        }
        Ok(())
    }
}

/// Solves `problem` with the revised simplex on backend `S`, optionally
/// warm-starting from `warm`.
///
/// The warm basis is accepted only when it is dimension-compatible,
/// factorizes, and yields a primal-feasible point with every artificial at
/// zero; otherwise the solver falls back to the cold two-phase start (the
/// result then has `warm_started == false`).
pub fn solve_revised_with<S: Scalar>(
    problem: &Problem,
    opts: &SolverOptions,
    warm: Option<&Basis>,
) -> Result<RevisedSolution<S>, LpError> {
    dls_obs::counter!("revised.solve").incr();
    let mut trace = SolveTrace::new(
        dls_obs::trace_span!(
            "revised.solve.seconds",
            "vars" => problem.num_vars(),
            "rows" => problem.num_constraints(),
        ),
        [
            Phase::new(
                "refactorize_s",
                dls_obs::histogram!("revised.refactorize.seconds"),
            ),
            Phase::new("pricing_s", dls_obs::histogram!("revised.pricing.seconds")),
            Phase::new("ftran_s", dls_obs::histogram!("revised.ftran.seconds")),
            Phase::new("btran_s", dls_obs::histogram!("revised.btran.seconds")),
        ],
    );
    problem.validate()?;
    let n = problem.num_vars();
    let std_form = standardize::<S>(problem);
    let m = std_form.rows.len();
    let tol = S::tolerance() * S::from_f64(problem.coefficient_scale());
    let relations: Vec<Relation> = std_form.rows.iter().map(|r| r.relation).collect();
    let layout = column_layout(n, &relations);
    let cols = Columns::build(&std_form.rows, &layout);
    let num_cols = layout.cols;

    // Phase-2 costs over the standardized columns.
    let mut p2_costs = vec![S::zero(); num_cols];
    p2_costs[..n].clone_from_slice(&std_form.costs);

    // ---- Try the warm start: vet the basis before committing any state,
    // so both branches below assemble the State from the same (single)
    // standardization.
    let mut warm_parts: Option<(Vec<usize>, SparseLu<S>, Vec<S>)> = None;
    if let Some(wb) = warm {
        if wb.fits(m, num_cols) && is_valid_basis_set(&wb.cols, num_cols) {
            if let Some(factor) = trace.time(REFACTORIZE, || SparseLu::factorize(&cols, &wb.cols)) {
                let xb = trace.time(FTRAN, || factor.ftran(&cols.b));
                let feasible = xb.iter().enumerate().all(|(r, v)| {
                    let nonneg = *v >= -(tol.clone() + tol.clone());
                    // A basic artificial above tolerance means the point
                    // violates the original constraints.
                    let art_ok = !layout.is_artificial(wb.cols[r]) || v.abs() <= tol;
                    nonneg && art_ok
                });
                if feasible {
                    warm_parts = Some((wb.cols.clone(), factor, xb));
                }
            }
        }
    }
    let warm_started = warm_parts.is_some();

    let mut state = match warm_parts {
        Some((basis, factor, xb)) => {
            let mut in_basis = vec![false; num_cols];
            for &c in &basis {
                in_basis[c] = true;
            }
            let mut s = State {
                cols,
                layout,
                basis,
                in_basis,
                factor,
                xb,
                tol: tol.clone(),
                trace,
            };
            s.clamp_xb();
            // A warm basis can carry an inert basic artificial (a redundant
            // row in the donor instance). If that row is live here, phase 2
            // could re-grow the artificial through a pivot with a negative
            // entry in its row — drive it out with a degenerate pivot now,
            // exactly as the cold path does after phase 1 (a genuinely
            // redundant row stays inert and is harmless).
            if s.basis.iter().any(|&c| s.layout.is_artificial(c)) {
                s.drive_out_artificials()?;
            }
            s
        }
        // ---- Cold start: slack/artificial identity basis (+ phase 1 if
        // needed).
        None => {
            let mut basis = Vec::with_capacity(m);
            for (i, row) in std_form.rows.iter().enumerate() {
                basis.push(match row.relation {
                    Relation::Le => layout.logical_col[i],
                    Relation::Ge | Relation::Eq => layout.artificial_col[i],
                });
            }
            let mut in_basis = vec![false; layout.cols];
            for &c in &basis {
                in_basis[c] = true;
            }
            // The initial basis is an identity matrix: factorizing it is m
            // singleton pivots.
            let factor = trace
                .time(REFACTORIZE, || SparseLu::factorize(&cols, &basis))
                .ok_or(LpError::SingularBasis)?;
            let xb = cols.b.clone();
            let mut s = State {
                cols,
                layout,
                basis,
                in_basis,
                factor,
                xb,
                tol: tol.clone(),
                trace,
            };

            // Phase 1 only when artificials exist.
            let has_artificials = (0..s.layout.cols).any(|c| s.layout.is_artificial(c));
            if has_artificials {
                let mut p1_costs = vec![S::zero(); s.layout.cols];
                for (c, p1c) in p1_costs.iter_mut().enumerate() {
                    if s.layout.is_artificial(c) {
                        *p1c = -S::one();
                    }
                }
                match s.run_phase(&p1_costs, opts, |_| true)? {
                    PhaseOutcome::Optimal => {}
                    // Phase-1 objective is bounded above by 0; an unbounded
                    // report can only be numerical noise.
                    PhaseOutcome::Unbounded => return Err(LpError::SingularBasis),
                }
                // Infeasible iff some artificial remains positive: the
                // phase-1 objective is -sum of basic artificial values.
                let mut infeas = S::zero();
                for (r, &c) in s.basis.iter().enumerate() {
                    if s.layout.is_artificial(c) {
                        infeas = infeas + s.xb[r].clone();
                    }
                }
                let infeas_tol = tol.clone() * S::from_f64(m.max(1) as f64);
                if infeas > infeas_tol {
                    return Err(LpError::Infeasible);
                }
                s.drive_out_artificials()?;
            }
            s
        }
    };

    // ---- Phase 2 from the (warm or phase-1) feasible basis.
    let layout_artificial: Vec<bool> = (0..state.layout.cols)
        .map(|c| state.layout.is_artificial(c))
        .collect();
    match state.run_phase(&p2_costs, opts, |c| !layout_artificial[c])? {
        PhaseOutcome::Optimal => {}
        PhaseOutcome::Unbounded => return Err(LpError::Unbounded),
    }

    // Every solve contributes an end-of-solve `revised.eta_len` sample
    // (`refactorize` records the length it flushes mid-solve).
    dls_obs::histogram!("revised.eta_len").record(state.factor.updates_len() as f64);

    // ---- Extract primal point, objective, duals.
    let mut x = vec![S::zero(); n];
    for (r, &c) in state.basis.iter().enumerate() {
        if c < n {
            x[c] = state.xb[r].clone();
        }
    }
    let mut obj = S::zero();
    for (c, xv) in std_form.costs.iter().zip(&x) {
        obj = obj + c.clone() * xv.clone();
    }
    if std_form.negated {
        obj = -obj;
    }

    let cb: Vec<S> = state.basis.iter().map(|&c| p2_costs[c].clone()).collect();
    let y = state.trace.time(BTRAN, || state.factor.btran(&cb));
    let mut duals = Vec::with_capacity(m);
    for (i, row) in std_form.rows.iter().enumerate() {
        let mut d = y[i].clone();
        if row.flipped {
            d = -d;
        }
        if std_form.negated {
            d = -d;
        }
        duals.push(d);
    }

    let iterations = state.trace.pivots;
    dls_obs::histogram!("revised.iterations").record(iterations as f64);
    Ok(RevisedSolution {
        solution: Solution {
            objective: obj,
            x,
            duals,
            iterations,
        },
        basis: Basis {
            cols: state.basis,
            num_cols,
        },
        warm_started,
    })
}

/// `true` when `basis` is a plausible basis index set: right length is the
/// caller's job, here we check range and distinctness.
fn is_valid_basis_set(basis: &[usize], num_cols: usize) -> bool {
    let mut seen = vec![false; num_cols];
    basis.iter().all(|&c| {
        if c >= num_cols || seen[c] {
            return false;
        }
        seen[c] = true;
        true
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Problem, Relation};
    use crate::rational::Rational;
    use crate::simplex::solve;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-7, "expected {b}, got {a}");
    }

    fn opts_for(p: &Problem) -> SolverOptions {
        SolverOptions::for_size(p.num_vars(), p.num_constraints())
    }

    fn textbook() -> Problem {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 -> z = 36 at (2,6)
        let mut p = Problem::maximize();
        let x = p.add_var(3.0);
        let y = p.add_var(5.0);
        p.add_constraint([(x, 1.0)], Relation::Le, 4.0);
        p.add_constraint([(y, 2.0)], Relation::Le, 12.0);
        p.add_constraint([(x, 3.0), (y, 2.0)], Relation::Le, 18.0);
        p
    }

    #[test]
    fn textbook_matches_tableau() {
        let p = textbook();
        let s = solve_revised(&p).unwrap();
        assert_close(s.objective, 36.0);
        assert_close(s.x[0], 2.0);
        assert_close(s.x[1], 6.0);
        // Duals agree with the tableau engine.
        let t = solve(&p).unwrap();
        for (a, b) in s.duals.iter().zip(&t.duals) {
            assert_close(*a, *b);
        }
    }

    #[test]
    fn exact_backend_agrees() {
        let p = textbook();
        let s = solve_revised_with::<Rational>(&p, &opts_for(&p), None).unwrap();
        assert_eq!(s.solution.objective, Rational::from_int(36));
        assert_eq!(s.solution.x[0], Rational::from_int(2));
        assert_eq!(s.solution.x[1], Rational::from_int(6));
    }

    #[test]
    fn two_phase_with_ge_and_eq_rows() {
        // min 2x + 3y s.t. x + y >= 10, x >= 2 -> z = 20 at (10, 0).
        let mut p = Problem::minimize();
        let x = p.add_var(2.0);
        let y = p.add_var(3.0);
        p.add_constraint([(x, 1.0), (y, 1.0)], Relation::Ge, 10.0);
        p.add_constraint([(x, 1.0)], Relation::Ge, 2.0);
        let s = solve_revised(&p).unwrap();
        assert_close(s.objective, 20.0);
        assert_close(s.x[0], 10.0);

        // max x + y s.t. x + y == 5, x - y == 1 -> (3, 2).
        let mut p = Problem::maximize();
        let x = p.add_var(1.0);
        let y = p.add_var(1.0);
        p.add_constraint([(x, 1.0), (y, 1.0)], Relation::Eq, 5.0);
        p.add_constraint([(x, 1.0), (y, -1.0)], Relation::Eq, 1.0);
        let s = solve_revised(&p).unwrap();
        assert_close(s.objective, 5.0);
        assert_close(s.x[0], 3.0);
        assert_close(s.x[1], 2.0);
    }

    #[test]
    fn infeasible_and_unbounded_detected() {
        let mut p = Problem::maximize();
        let x = p.add_var(1.0);
        p.add_constraint([(x, 1.0)], Relation::Ge, 5.0);
        p.add_constraint([(x, 1.0)], Relation::Le, 3.0);
        assert_eq!(solve_revised(&p).unwrap_err(), LpError::Infeasible);

        let mut p = Problem::maximize();
        let _x = p.add_var(1.0);
        let y = p.add_var(0.0);
        p.add_constraint([(y, 1.0)], Relation::Le, 3.0);
        assert_eq!(solve_revised(&p).unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn redundant_equalities_are_tolerated() {
        let mut p = Problem::maximize();
        let x = p.add_var(1.0);
        let y = p.add_var(1.0);
        p.add_constraint([(x, 1.0), (y, 1.0)], Relation::Eq, 4.0);
        p.add_constraint([(x, 2.0), (y, 2.0)], Relation::Eq, 8.0);
        let s = solve_revised(&p).unwrap();
        assert_close(s.objective, 4.0);
    }

    #[test]
    fn beale_cycling_example_terminates() {
        // Beale (1955): cycles under pure Dantzig without anti-cycling.
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
        let s = solve_revised(&p).unwrap();
        assert_close(s.objective, -0.05);
    }

    #[test]
    fn frequent_refactorization_is_stable() {
        // refactor_every = 1 exercises the rebuild path on every pivot.
        let p = textbook();
        let opts = SolverOptions {
            refactor_every: 1,
            ..opts_for(&p)
        };
        let s = solve_revised_with::<f64>(&p, &opts, None).unwrap();
        assert_close(s.solution.objective, 36.0);
    }

    #[test]
    fn warm_start_from_own_optimum_takes_zero_pivots() {
        let p = textbook();
        let opts = opts_for(&p);
        let cold = solve_revised_with::<f64>(&p, &opts, None).unwrap();
        assert!(!cold.warm_started);
        assert!(cold.solution.iterations > 0);
        let warm = solve_revised_with::<f64>(&p, &opts, Some(&cold.basis)).unwrap();
        assert!(warm.warm_started);
        assert_eq!(warm.solution.iterations, 0);
        assert_close(warm.solution.objective, 36.0);
    }

    #[test]
    fn warm_start_across_perturbed_instances() {
        // Perturb the rhs: the optimal basis usually survives, and the
        // solve must still be correct either way.
        let p = textbook();
        let opts = opts_for(&p);
        let cold = solve_revised_with::<f64>(&p, &opts, None).unwrap();

        let mut q = Problem::maximize();
        let x = q.add_var(3.0);
        let y = q.add_var(5.0);
        q.add_constraint([(x, 1.0)], Relation::Le, 4.5);
        q.add_constraint([(y, 2.0)], Relation::Le, 12.5);
        q.add_constraint([(x, 3.0), (y, 2.0)], Relation::Le, 18.5);
        let warm = solve_revised_with::<f64>(&q, &opts, Some(&cold.basis)).unwrap();
        let fresh = solve_revised_with::<f64>(&q, &opts, None).unwrap();
        assert_close(warm.solution.objective, fresh.solution.objective);
        assert!(warm.solution.iterations <= fresh.solution.iterations);
    }

    #[test]
    fn mismatched_warm_basis_falls_back_to_cold() {
        let p = textbook();
        let opts = opts_for(&p);
        // A basis from a different-shaped problem is ignored.
        let bogus = Basis {
            cols: vec![0, 1],
            num_cols: 3,
        };
        let s = solve_revised_with::<f64>(&p, &opts, Some(&bogus)).unwrap();
        assert!(!s.warm_started);
        assert_close(s.solution.objective, 36.0);
        // A right-shaped but singular basis also falls back.
        let singular = Basis {
            cols: vec![2, 2, 3],
            num_cols: 5,
        };
        let s = solve_revised_with::<f64>(&p, &opts, Some(&singular)).unwrap();
        assert!(!s.warm_started);
        assert_close(s.solution.objective, 36.0);
    }

    #[test]
    fn warm_basic_artificial_cannot_regrow_in_phase_2() {
        // max y s.t. x + y == 4, x - y == 4: unique point (4, 0), optimum 0.
        // Hand-craft a warm basis {x, artificial-of-row-1}: it factorizes
        // and the artificial sits at exactly 0, so the vet accepts it. A
        // naive phase 2 would then pivot y in through row 0 and *grow* the
        // artificial (its row-1 FTRAN entry is negative), reporting the
        // infeasible point (0, 4) as optimal. The artificial must be driven
        // out before phase 2 instead.
        let mut p = Problem::maximize();
        let x = p.add_var(0.0);
        let y = p.add_var(1.0);
        p.add_constraint([(x, 1.0), (y, 1.0)], Relation::Eq, 4.0);
        p.add_constraint([(x, 1.0), (y, -1.0)], Relation::Eq, 4.0);
        let opts = opts_for(&p);
        let cold = solve_revised_with::<f64>(&p, &opts, None).unwrap();
        assert_close(cold.solution.objective, 0.0);
        // Columns: x = 0, y = 1, artificial(r0) = 2, artificial(r1) = 3.
        let warm = Basis {
            cols: vec![0, 3],
            num_cols: 4,
        };
        let s = solve_revised_with::<f64>(&p, &opts, Some(&warm)).unwrap();
        assert!(s.warm_started, "the vet must accept this basis");
        assert_close(s.solution.objective, 0.0);
        assert_close(s.solution.x[0], 4.0);
        assert_close(s.solution.x[1], 0.0);
    }

    #[test]
    fn candidate_list_pricing_matches_full_pricing() {
        // A wide random-ish LP (the regime partial pricing targets): the
        // optimum must be identical whatever the list budget, because
        // optimality is only declared by a full scan.
        let n = 60;
        let mut p = Problem::maximize();
        let vars: Vec<_> = (0..n)
            .map(|j| p.add_var(1.0 + ((j * 7) % 13) as f64 * 0.25))
            .collect();
        for i in 0..n / 2 {
            let coeffs: Vec<_> = vars
                .iter()
                .enumerate()
                .filter(|(j, _)| (i + j) % 3 != 0)
                .map(|(j, &v)| (v, 1.0 + ((i * 5 + j * 11) % 7) as f64 * 0.5))
                .collect();
            p.add_constraint(coeffs, Relation::Le, 10.0 + (i % 4) as f64);
        }
        let full = SolverOptions {
            candidate_list: 0,
            ..SolverOptions::for_size(p.num_vars(), p.num_constraints())
        };
        let reference = solve_revised_with::<f64>(&p, &full, None).unwrap();
        for list in [1usize, 4, 16, 128] {
            let partial = SolverOptions {
                candidate_list: list,
                ..full.clone()
            };
            let s = solve_revised_with::<f64>(&p, &partial, None).unwrap();
            assert!(
                (s.solution.objective - reference.solution.objective).abs()
                    <= 1e-7 * reference.solution.objective.abs().max(1.0),
                "candidate_list = {list}: {} vs {}",
                s.solution.objective,
                reference.solution.objective
            );
        }
        // The exact backend agrees under partial pricing too (optimality
        // proofs stay full-scan-exact).
        let partial = SolverOptions {
            candidate_list: 8,
            ..full
        };
        let exact = solve_revised_with::<Rational>(&p, &partial, None).unwrap();
        assert!(
            (exact.solution.objective.to_f64() - reference.solution.objective).abs() <= 1e-7,
            "exact under partial pricing diverged"
        );
    }

    #[test]
    fn duals_satisfy_strong_duality() {
        let p = textbook();
        let s = solve_revised(&p).unwrap();
        let dual_obj = s.duals[0] * 4.0 + s.duals[1] * 12.0 + s.duals[2] * 18.0;
        assert_close(dual_obj, s.objective);
    }

    #[test]
    fn mixed_scale_ratio_test_is_not_unbounded() {
        // Mirror of the tableau regression: with coefficient_scale = 1e6,
        // x's only pivot entry (1e-4) sits below the scaled tolerance but
        // must still be eligible in the (basis-frame) ratio test.
        let mut p = Problem::maximize();
        let x = p.add_var(1.0);
        let y = p.add_var(1.0);
        p.add_constraint([(x, 1.0e-4)], Relation::Le, 1.0);
        p.add_constraint([(y, 1.0e6)], Relation::Le, 1.0e6);
        let s = solve_revised(&p).unwrap();
        assert!(
            (s.objective - 10_001.0).abs() < 1e-6,
            "expected 10001, got {}",
            s.objective
        );
    }

    #[test]
    fn large_coefficients_relative_tolerance() {
        // Mirror of the tableau regression: 1e6-range coefficients must not
        // trip the scaled tolerance.
        let mut p = Problem::maximize();
        let x = p.add_var(3.0e6);
        let y = p.add_var(5.0e6);
        p.add_constraint([(x, 1.0e6)], Relation::Le, 4.0e6);
        p.add_constraint([(y, 2.0e6)], Relation::Le, 12.0e6);
        p.add_constraint([(x, 3.0e6), (y, 2.0e6)], Relation::Le, 18.0e6);
        let s = solve_revised(&p).unwrap();
        assert!((s.objective - 36.0e6).abs() < 36.0 * 1e-3);
    }
}
