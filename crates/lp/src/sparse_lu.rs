//! Sparse LU basis factorization with Forrest–Tomlin updates.
//!
//! The revised simplex in [`crate::revised`] needs three operations on the
//! basis matrix `B`: `FTRAN` (`B x = a`), `BTRAN` (`B^T y = c`) and a rank-1
//! column replacement per pivot, and this module is the only way it gets
//! them. A dense product-form inverse would serve them from an explicit
//! `m x m` matrix — `O(m^3)` per refactorization and `O(m^2)` per solve,
//! which dominates *cold* solves; that form survives only as `Factor` in
//! this module's tests, the oracle the sparse factors are checked against.
//! The scheduling LPs are far from dense (deadline rows are nested-prefix
//! sparse; idle and logical columns are singletons; only the one-port and
//! capacity rows are dense), so this module factorizes `P B Q = L U`
//! sparsely instead:
//!
//! * **Markowitz pivoting.** Each elimination step picks the pivot
//!   minimizing the fill-in merit `(r_i - 1)(c_j - 1)` over the active
//!   submatrix, restricted to entries passing *threshold partial
//!   pivoting* (`|a_ij| >= 0.1 * max_i |a_ij|`) for stability. Candidate
//!   columns are scanned lowest-count-first with a bounded search; ties
//!   break on larger magnitude (`f64::total_cmp`), then smaller column
//!   and row index, so pivot order is deterministic.
//! * **Sparse triangular solves.** `FTRAN`/`BTRAN` scatter the right-hand
//!   side (the caller's `support` list feeds this directly) and walk only
//!   stored nonzeros, skipping vector entries that are zero at the
//!   backend tolerance — structural sparsity in, structural sparsity out.
//! * **Forrest–Tomlin row etas.** Replacing basis column `p` swaps the
//!   spike `ũ = R L^{-1} a` into `U`, cyclically moves position `p` to
//!   the end of the elimination order, and eliminates the now-subdiagonal
//!   row `p` with one sparse row transformation — the *row eta* — leaving
//!   `U` triangular in the new order. Updates are `O(row p of U)` instead
//!   of the dense eta file's `O(m)` per application.
//! * **Fallback ladder.** An update whose new diagonal is numerically
//!   unsafe is rejected and the caller refactorizes from scratch
//!   (Bartels–Golub style); the update file and fill growth are capped by
//!   [`crate::SolverOptions::refactor_every`] / [`SparseLu::fill_exceeded`],
//!   and a genuinely singular basis fails factorization, which the solver
//!   reports as `LpError::SingularBasis`.
//!
//! Everything is generic over [`Scalar`]: with `S = Rational` the
//! tolerance is zero, every drop/skip test degenerates to an exact zero
//! test, and the factorization is arithmetic-exact (property-tested
//! against the dense oracle bit for bit).

use crate::revised::Columns;
use crate::scalar::Scalar;

/// Threshold-partial-pivoting stability bound: a candidate pivot must have
/// magnitude at least this fraction of its column's largest entry. The
/// classic compromise (Suhl & Suhl use 0.01–0.1): small enough to let the
/// Markowitz merit steer fill-in, large enough to bound element growth.
const MARKOWITZ_THRESHOLD: f64 = 0.1;

/// Candidate columns examined per pivot step, lowest active count first.
const SEARCH_CAP: usize = 8;

/// Distinct column-count levels gathered into the candidate set.
const SEARCH_LEVELS: usize = 3;

/// One stored entry of `U`, tagged with the update epoch that wrote it.
///
/// Forrest–Tomlin rewrites whole rows and columns of `U` in place; rather
/// than scrubbing the transposed index lists on every update, superseded
/// entries are left behind and filtered on read: an entry in a *column*
/// list is live while `epoch >= row_epoch[idx]`, an entry in a *row* list
/// while `epoch >= col_epoch[idx]`. Refactorization resets everything.
#[derive(Debug, Clone)]
struct Entry<S> {
    idx: usize,
    val: S,
    epoch: usize,
}

/// Sparse LU factors of the basis, `P B Q = L U`, plus the Forrest–Tomlin
/// update state accumulated since the last refactorization.
///
/// Coordinates: *elimination positions* `0..m` index pivots in the order
/// they were chosen; `pr`/`pc` map them back to original row indices and
/// basis positions. After updates, triangularity of `U` holds with respect
/// to the logical `order` permutation (updated positions cycle to the
/// end), never by physically permuting the stored lists.
pub(crate) struct SparseLu<S> {
    m: usize,
    /// Elimination position -> original row index.
    pr: Vec<usize>,
    /// Elimination position -> basis position (row of `Basis::columns`).
    pc: Vec<usize>,
    /// Original row index -> elimination position.
    row_pos: Vec<usize>,
    /// Basis position -> elimination position.
    basis_pos: Vec<usize>,
    /// Unit-lower-triangular factor, column-wise: `lcols[k]` holds
    /// `(s, l_sk)` with `s > k`. Immutable between refactorizations.
    lcols: Vec<Vec<(usize, S)>>,
    /// Diagonal of `U` per elimination position.
    diag: Vec<S>,
    /// Off-diagonal `U` by row: `urows[s]` holds entries at columns `t`
    /// ordered after `s` (filter by epoch; see [`Entry`]).
    urows: Vec<Vec<Entry<S>>>,
    /// Off-diagonal `U` by column: `ucols[t]` holds entries at rows `s`
    /// ordered before `t` (filter by epoch).
    ucols: Vec<Vec<Entry<S>>>,
    /// Epoch at which row / column `k` of `U` was last rewritten.
    row_epoch: Vec<usize>,
    col_epoch: Vec<usize>,
    epoch: usize,
    /// Current elimination order (elimination positions); updates cycle
    /// the pivotal position to the back.
    order: Vec<usize>,
    /// Elimination position -> index in `order`.
    order_pos: Vec<usize>,
    /// Forrest–Tomlin row etas `(p, [(t, μ_t)])`, chronological. `FTRAN`
    /// applies them between the `L` and `U` solves; `BTRAN` applies the
    /// transposes in reverse.
    etas: Vec<(usize, Vec<(usize, S)>)>,
    /// Nonzeros of `L + U + diag` at factorization time.
    lu_nnz: usize,
    /// Entries appended by updates since then (fill growth).
    update_nnz: usize,
}

impl<S: Scalar> SparseLu<S> {
    /// Factorizes the basis columns. Returns `None` when the basis is
    /// singular — structurally (an active column runs empty) or
    /// numerically (every remaining entry of a column is noise relative
    /// to that column's original magnitude: the per-column relative
    /// tolerance the dense test oracle also applies).
    ///
    /// Two phases. The scheduling bases are almost perfectly
    /// triangularizable (idle/slack columns are singletons; deadline rows
    /// nest), so a *structural* pass first pivots every singleton column
    /// and singleton row with counter bookkeeping only — no column is
    /// ever rewritten, because a merit-0 pivot changes no remaining
    /// value. The general Markowitz loop then runs on the (tiny)
    /// compacted residue. Without the structural pass the merit-0 pivots
    /// dominate: each one rewrites every column of its pivot row, which
    /// is `O(sum of squared column lengths)` on these bases.
    pub(crate) fn factorize(cols: &Columns<S>, basis: &[usize]) -> Option<Self> {
        dls_obs::counter!("revised.refactorizations").incr();
        let m = cols.m;
        let threshold = S::from_f64(MARKOWITZ_THRESHOLD);

        // Values never change during the structural phase, so the active
        // submatrix is read straight out of the immutable column store —
        // no working copy. Only a row-wise mirror of the basis submatrix
        // is built (flat CSR over `basis_nnz` entries, values included so
        // the row walks need no column searches); active entries are the
        // ones whose row *and* column are still undone (done entries are
        // skipped on read).
        let mut col_tol = Vec::with_capacity(m);
        let mut basis_nnz = 0usize;
        for &c in basis {
            let mut col_max = S::zero();
            for v in cols.vals(c) {
                if v.abs() > col_max {
                    col_max = v.abs();
                }
            }
            basis_nnz += cols.support(c).len();
            col_tol.push(S::tolerance() * col_max);
        }
        let mut row_ptr = vec![0usize; m + 1];
        for &c in basis {
            for &r in cols.support(c) {
                row_ptr[r + 1] += 1;
            }
        }
        for r in 0..m {
            row_ptr[r + 1] += row_ptr[r];
        }
        let mut row_cols = vec![0usize; basis_nnz];
        let mut row_vals = vec![S::zero(); basis_nnz];
        let mut csr_fill = row_ptr.clone();
        for (j, &c) in basis.iter().enumerate() {
            for (&r, v) in cols.support(c).iter().zip(cols.vals(c)) {
                row_cols[csr_fill[r]] = j;
                row_vals[csr_fill[r]] = v.clone();
                csr_fill[r] += 1;
            }
        }
        drop(csr_fill);
        let mut col_count: Vec<usize> = basis.iter().map(|&c| cols.support(c).len()).collect();
        let mut row_count: Vec<usize> = (0..m).map(|r| row_ptr[r + 1] - row_ptr[r]).collect();
        let mut row_done = vec![false; m];
        let mut col_done = vec![false; m];

        // Per-step pivot records in original row / basis-position indices.
        let mut pr: Vec<usize> = Vec::with_capacity(m);
        let mut pc: Vec<usize> = Vec::with_capacity(m);
        let mut diag: Vec<S> = Vec::with_capacity(m);
        let mut lraw: Vec<Vec<(usize, S)>> = Vec::with_capacity(m);
        let mut uraw: Vec<Vec<(usize, S)>> = Vec::with_capacity(m);

        // Phase 1: structural triangularization. Singleton columns pivot
        // with an empty L column (merit 0, nothing below the pivot);
        // singleton rows pivot with an empty U row (nothing to its
        // right). Either way no remaining entry changes value — only the
        // counts move, cascading new singletons onto the stacks. A
        // numerically degenerate singleton (its entry is noise at the
        // column's tolerance, or below the stability threshold) is left
        // for the residue, where the Markowitz loop applies the same
        // acceptance tests and the same singularity verdict as before.
        let mut col_stack: Vec<usize> = (0..m).filter(|&j| col_count[j] == 1).collect();
        let mut row_stack: Vec<usize> = (0..m).filter(|&r| row_count[r] == 1).collect();
        loop {
            if let Some(j) = col_stack.pop() {
                if col_done[j] || col_count[j] != 1 {
                    continue;
                }
                let mut hit: Option<(usize, S)> = None;
                for (&r, v) in cols.support(basis[j]).iter().zip(cols.vals(basis[j])) {
                    if !row_done[r] {
                        hit = Some((r, v.clone()));
                        break;
                    }
                }
                let (pi, pv) = hit?;
                if pv.is_zero() || pv.abs() <= col_tol[j] {
                    continue; // degenerate singleton: leave for the residue
                }
                let mut urow: Vec<(usize, S)> = Vec::new();
                for k in row_ptr[pi]..row_ptr[pi + 1] {
                    let jc = row_cols[k];
                    if jc != j && !col_done[jc] {
                        urow.push((jc, row_vals[k].clone()));
                        col_count[jc] -= 1;
                        if col_count[jc] == 1 {
                            col_stack.push(jc);
                        }
                    }
                }
                row_done[pi] = true;
                col_done[j] = true;
                pr.push(pi);
                pc.push(j);
                diag.push(pv);
                lraw.push(Vec::new());
                uraw.push(urow);
                continue;
            }
            if let Some(r) = row_stack.pop() {
                if row_done[r] || row_count[r] != 1 {
                    continue;
                }
                let mut hit: Option<usize> = None;
                for &jc in &row_cols[row_ptr[r]..row_ptr[r + 1]] {
                    if !col_done[jc] {
                        hit = Some(jc);
                        break;
                    }
                }
                let j = hit?;
                let mut pv = S::zero();
                let mut col_max = S::zero();
                for (&i, v) in cols.support(basis[j]).iter().zip(cols.vals(basis[j])) {
                    if row_done[i] {
                        continue;
                    }
                    if v.abs() > col_max {
                        col_max = v.abs();
                    }
                    if i == r {
                        pv = v.clone();
                    }
                }
                if col_max.is_zero()
                    || col_max <= col_tol[j]
                    || pv.abs() < threshold.clone() * col_max
                {
                    continue; // fails threshold pivoting: leave for the residue
                }
                let mut mults: Vec<(usize, S)> = Vec::new();
                for (&i, v) in cols.support(basis[j]).iter().zip(cols.vals(basis[j])) {
                    if i != r && !row_done[i] {
                        mults.push((i, v.clone() / pv.clone()));
                        row_count[i] -= 1;
                        if row_count[i] == 1 {
                            row_stack.push(i);
                        }
                    }
                }
                row_done[r] = true;
                col_done[j] = true;
                pr.push(r);
                pc.push(j);
                diag.push(pv);
                lraw.push(mults);
                uraw.push(Vec::new());
                continue;
            }
            break;
        }

        // Phase 2: general Markowitz elimination on the compacted residue
        // (usually a handful of columns coupling the dense one-port row).
        let res_cols: Vec<usize> = (0..m).filter(|&j| !col_done[j]).collect();
        if !res_cols.is_empty() {
            let res_rows: Vec<usize> = (0..m).filter(|&r| !row_done[r]).collect();
            let n = res_cols.len();
            let mut rmap = vec![usize::MAX; m];
            for (k, &r) in res_rows.iter().enumerate() {
                rmap[r] = k;
            }
            let mut rcols: Vec<Vec<(usize, S)>> = Vec::with_capacity(n);
            let mut rcol_tol = Vec::with_capacity(n);
            for &j in &res_cols {
                let mut col = Vec::new();
                for (&r, v) in cols.support(basis[j]).iter().zip(cols.vals(basis[j])) {
                    if !row_done[r] {
                        col.push((rmap[r], v.clone()));
                    }
                }
                rcols.push(col);
                rcol_tol.push(col_tol[j].clone());
            }
            let mut rsup: Vec<Vec<usize>> = vec![Vec::new(); n];
            for (j, col) in rcols.iter().enumerate() {
                for (r, _) in col {
                    rsup[*r].push(j);
                }
            }
            let mut col_active = vec![true; n];

            // Dense per-column scratch, generation-tagged to avoid
            // clearing, plus one reusable rebuild buffer: columns are
            // rewritten by swapping with `tmp` so the steady state
            // allocates nothing.
            let mut sval = vec![S::zero(); n];
            let mut stag = vec![0usize; n];
            let mut sgen = 0usize;
            let mut tmp: Vec<(usize, S)> = Vec::new();

            for _ in 0..n {
                let (pi, pj) = select_pivot(&rcols, &rsup, &col_active, &rcol_tol, &threshold)?;

                let pivot_col = std::mem::take(&mut rcols[pj]);
                let mut pv = S::zero();
                for (r, v) in &pivot_col {
                    if *r == pi {
                        pv = v.clone();
                    }
                }
                let mut mults: Vec<(usize, S)> = Vec::with_capacity(pivot_col.len() - 1);
                for (r, v) in pivot_col {
                    if r != pi {
                        mults.push((r, v / pv.clone()));
                    }
                }

                // Eliminate: for every other active column of the pivot
                // row, subtract `mult * a[pi, j]` from the rows below,
                // tracking cancellation (entry drops) and fill-in (entry
                // appears).
                let prow: Vec<usize> = rsup[pi].iter().copied().filter(|&j| j != pj).collect();
                let mut urow: Vec<(usize, S)> = Vec::with_capacity(prow.len());
                for &j in &prow {
                    sgen += 1;
                    for (r, v) in &rcols[j] {
                        sval[*r] = v.clone();
                        stag[*r] = sgen;
                    }
                    let apj = sval[pi].clone();
                    urow.push((res_cols[j], apj.clone()));
                    for (i, mult) in &mults {
                        let delta = mult.clone() * apj.clone();
                        if stag[*i] == sgen {
                            sval[*i] = sval[*i].clone() - delta;
                        } else {
                            sval[*i] = -delta;
                            stag[*i] = sgen;
                        }
                    }
                    tmp.clear();
                    for &(r, _) in &rcols[j] {
                        if r == pi {
                            stag[r] = 0;
                            continue;
                        }
                        let v = sval[r].clone();
                        stag[r] = 0;
                        if v.is_zero() {
                            remove_index(&mut rsup[r], j);
                        } else {
                            tmp.push((r, v));
                        }
                    }
                    for (i, _) in &mults {
                        if stag[*i] == sgen {
                            stag[*i] = 0;
                            let v = sval[*i].clone();
                            if !v.is_zero() {
                                tmp.push((*i, v));
                                rsup[*i].push(j);
                            }
                        }
                    }
                    std::mem::swap(&mut rcols[j], &mut tmp);
                }

                for (i, _) in &mults {
                    remove_index(&mut rsup[*i], pj);
                }
                rsup[pi].clear();
                col_active[pj] = false;
                pr.push(res_rows[pi]);
                pc.push(res_cols[pj]);
                diag.push(pv);
                lraw.push(mults.into_iter().map(|(i, v)| (res_rows[i], v)).collect());
                uraw.push(urow);
            }
        }

        // Re-index the records into elimination coordinates.
        let mut row_pos = vec![0usize; m];
        let mut basis_pos = vec![0usize; m];
        for (k, &i) in pr.iter().enumerate() {
            row_pos[i] = k;
        }
        for (k, &j) in pc.iter().enumerate() {
            basis_pos[j] = k;
        }
        let mut lu_nnz = m;
        let mut lcols: Vec<Vec<(usize, S)>> = Vec::with_capacity(m);
        for col in lraw {
            let mapped: Vec<(usize, S)> = col.into_iter().map(|(i, v)| (row_pos[i], v)).collect();
            lu_nnz += mapped.len();
            lcols.push(mapped);
        }
        let mut urows: Vec<Vec<Entry<S>>> = vec![Vec::new(); m];
        let mut ucols: Vec<Vec<Entry<S>>> = vec![Vec::new(); m];
        for (k, row) in uraw.into_iter().enumerate() {
            for (j, v) in row {
                let t = basis_pos[j];
                urows[k].push(Entry {
                    idx: t,
                    val: v.clone(),
                    epoch: 0,
                });
                ucols[t].push(Entry {
                    idx: k,
                    val: v,
                    epoch: 0,
                });
                lu_nnz += 1;
            }
        }
        dls_obs::histogram!("revised.lu.nnz").record(lu_nnz as f64);
        dls_obs::histogram!("revised.lu.fill_ratio")
            .record(lu_nnz as f64 / basis_nnz.max(1) as f64);

        Some(SparseLu {
            m,
            pr,
            pc,
            row_pos,
            basis_pos,
            lcols,
            diag,
            urows,
            ucols,
            row_epoch: vec![0; m],
            col_epoch: vec![0; m],
            epoch: 0,
            order: (0..m).collect(),
            order_pos: (0..m).collect(),
            etas: Vec::new(),
            lu_nnz,
            update_nnz: 0,
        })
    }

    /// `L` forward solve followed by the row etas, in place on the
    /// elimination-coordinate work vector.
    fn forward_solve(&self, work: &mut [S]) {
        for k in 0..self.m {
            if work[k].is_zero() {
                continue;
            }
            let wk = work[k].clone();
            for (s, v) in &self.lcols[k] {
                work[*s] = work[*s].clone() - v.clone() * wk.clone();
            }
        }
        for (p, mu) in &self.etas {
            let mut acc = work[*p].clone();
            for (t, mv) in mu {
                if !work[*t].is_zero() {
                    acc = acc - mv.clone() * work[*t].clone();
                }
            }
            work[*p] = acc;
        }
    }

    /// `U` backward solve in the logical elimination order, in place.
    fn backward_solve(&self, work: &mut [S]) {
        for pos in (0..self.m).rev() {
            let t = self.order[pos];
            if work[t].is_zero() {
                continue;
            }
            let z = work[t].clone() / self.diag[t].clone();
            for e in &self.ucols[t] {
                if e.epoch >= self.row_epoch[e.idx] {
                    work[e.idx] = work[e.idx].clone() - e.val.clone() * z.clone();
                }
            }
            work[t] = z;
        }
    }

    fn gather(&self, work: Vec<S>) -> Vec<S> {
        let mut out = vec![S::zero(); self.m];
        for (t, wv) in work.into_iter().enumerate() {
            if !wv.is_zero() {
                out[self.pc[t]] = wv;
            }
        }
        out
    }

    /// `FTRAN`: solves `B x = v` for a dense `v` (indexed by row).
    pub(crate) fn ftran(&self, v: &[S]) -> Vec<S> {
        let mut work = vec![S::zero(); self.m];
        for (r, vv) in v.iter().enumerate() {
            if !vv.is_zero() {
                work[self.row_pos[r]] = vv.clone();
            }
        }
        self.forward_solve(&mut work);
        self.backward_solve(&mut work);
        self.gather(work)
    }

    /// `FTRAN` of a sparse column given as parallel (row indices, values)
    /// entry lists: only those entries are scattered, so a sparse
    /// right-hand side stays sparse through the triangular solves.
    pub(crate) fn ftran_sparse(&self, support: &[usize], vals: &[S]) -> Vec<S> {
        let mut work = vec![S::zero(); self.m];
        for (&r, vv) in support.iter().zip(vals) {
            if !vv.is_zero() {
                work[self.row_pos[r]] = vv.clone();
            }
        }
        self.forward_solve(&mut work);
        self.backward_solve(&mut work);
        self.gather(work)
    }

    /// `BTRAN`: solves `B^T y = c` (`c` indexed by basis position, `y` by
    /// row) — `U^T` forward, transposed etas in reverse, `L^T` backward.
    pub(crate) fn btran(&self, c: &[S]) -> Vec<S> {
        let m = self.m;
        let mut work = vec![S::zero(); m];
        for (t, out_slot) in work.iter_mut().enumerate() {
            let cv = &c[self.pc[t]];
            if !cv.is_zero() {
                *out_slot = cv.clone();
            }
        }
        for pos in 0..m {
            let t = self.order[pos];
            if work[t].is_zero() {
                continue;
            }
            let wt = work[t].clone() / self.diag[t].clone();
            for e in &self.urows[t] {
                if e.epoch >= self.col_epoch[e.idx] {
                    work[e.idx] = work[e.idx].clone() - wt.clone() * e.val.clone();
                }
            }
            work[t] = wt;
        }
        for (p, mu) in self.etas.iter().rev() {
            let wp = work[*p].clone();
            if !wp.is_zero() {
                for (t, mv) in mu {
                    work[*t] = work[*t].clone() - mv.clone() * wp.clone();
                }
            }
        }
        for k in (0..m).rev() {
            let mut acc = work[k].clone();
            for (s, v) in &self.lcols[k] {
                if !work[*s].is_zero() {
                    acc = acc - v.clone() * work[*s].clone();
                }
            }
            work[k] = acc;
        }
        let mut out = vec![S::zero(); m];
        for (s, wv) in work.into_iter().enumerate() {
            if !wv.is_zero() {
                out[self.pr[s]] = wv;
            }
        }
        out
    }

    /// Forrest–Tomlin update: basis position `r_leave` is replaced by the
    /// column whose `FTRAN` result is `w`. Returns `false` (leaving the
    /// factorization untouched) when the resulting diagonal would be
    /// numerically unsafe — the caller must refactorize instead.
    pub(crate) fn ft_update(&mut self, r_leave: usize, w: &[S]) -> bool {
        let m = self.m;
        let p = self.basis_pos[r_leave];

        // The spike ũ = R L^{-1} a is recovered as Ū w — one sparse
        // mat-vec instead of a second forward solve.
        let mut spike = vec![S::zero(); m];
        for t in 0..m {
            let wv = &w[self.pc[t]];
            if wv.is_zero() {
                continue;
            }
            spike[t] = spike[t].clone() + self.diag[t].clone() * wv.clone();
            for e in &self.ucols[t] {
                if e.epoch >= self.row_epoch[e.idx] {
                    spike[e.idx] = spike[e.idx].clone() + e.val.clone() * wv.clone();
                }
            }
        }

        // Eliminate row p against the rows ordered after it: the row eta
        // μ solves μ^T Ū[after, after] = Ū[p, after] (a partial BTRAN of
        // the row). Column p counts as already replaced by the spike.
        let mut acc = vec![S::zero(); m];
        let mut present = vec![false; m];
        for e in &self.urows[p] {
            if e.idx != p && e.epoch >= self.col_epoch[e.idx] {
                acc[e.idx] = e.val.clone();
                present[e.idx] = true;
            }
        }
        let mut mu: Vec<(usize, S)> = Vec::new();
        for pos in self.order_pos[p] + 1..m {
            let t = self.order[pos];
            if !present[t] {
                continue;
            }
            present[t] = false;
            let v = std::mem::replace(&mut acc[t], S::zero());
            if v.is_zero() {
                continue;
            }
            let mult = v / self.diag[t].clone();
            for e in &self.urows[t] {
                if e.idx != p && e.epoch >= self.col_epoch[e.idx] {
                    let delta = mult.clone() * e.val.clone();
                    if present[e.idx] {
                        acc[e.idx] = acc[e.idx].clone() - delta;
                    } else {
                        acc[e.idx] = -delta;
                        present[e.idx] = true;
                    }
                }
            }
            mu.push((t, mult));
        }

        // New diagonal at the (cyclically last) position p, judged
        // relative to the spike's own scale.
        let mut spike_max = S::zero();
        for sv in &spike {
            if sv.abs() > spike_max {
                spike_max = sv.abs();
            }
        }
        let mut d = spike[p].clone();
        for (t, mult) in &mu {
            if !spike[*t].is_zero() {
                d = d - mult.clone() * spike[*t].clone();
            }
        }
        if d.is_zero() || d.abs() <= S::tolerance() * spike_max {
            return false;
        }

        // Commit: row p collapses to its diagonal, column p becomes the
        // spike, and position p cycles to the end of the order.
        self.epoch += 1;
        let ep = self.epoch;
        self.row_epoch[p] = ep;
        self.col_epoch[p] = ep;
        self.urows[p].clear();
        self.ucols[p].clear();
        self.diag[p] = d;
        let mut added = 1 + mu.len();
        for (s, v) in spike.into_iter().enumerate() {
            if s == p || v.is_zero() {
                continue;
            }
            self.ucols[p].push(Entry {
                idx: s,
                val: v.clone(),
                epoch: ep,
            });
            self.urows[s].push(Entry {
                idx: p,
                val: v,
                epoch: ep,
            });
            added += 2;
        }
        self.update_nnz += added;
        let pos = self.order_pos[p];
        self.order.remove(pos);
        self.order.push(p);
        for (q, &t) in self.order.iter().enumerate().skip(pos) {
            self.order_pos[t] = q;
        }
        self.etas.push((p, mu));
        dls_obs::counter!("revised.lu.ft_updates").incr();
        true
    }

    /// Forrest–Tomlin updates applied since the last refactorization.
    pub(crate) fn updates_len(&self) -> usize {
        self.etas.len()
    }

    /// `true` when update fill has outgrown the factors — time to
    /// refactorize even if the update count is below its cap.
    ///
    /// The allowance is generous on purpose: a near-identity factorization
    /// (`lu_nnz ≈ m`) absorbing a handful of dense-ish spikes is still far
    /// cheaper to apply than to rebuild, so the bound scales with both the
    /// factor size and the dimension. [`crate::SolverOptions::refactor_every`]
    /// stays the primary cadence; this only catches pathological fill.
    pub(crate) fn fill_exceeded(&self) -> bool {
        self.update_nnz > 4 * self.lu_nnz + 32 * self.m
    }
}

/// Removes one occurrence of `value` from `v` (order not preserved).
fn remove_index(v: &mut Vec<usize>, value: usize) {
    if let Some(at) = v.iter().position(|&x| x == value) {
        v.swap_remove(at);
    }
}

/// Deterministic Markowitz pivot selection over the active submatrix.
/// Returns `(row, col)` or `None` when the basis is singular.
fn select_pivot<S: Scalar>(
    wcols: &[Vec<(usize, S)>],
    rsup: &[Vec<usize>],
    col_active: &[bool],
    col_tol: &[S],
    threshold: &S,
) -> Option<(usize, usize)> {
    let mut min_count = usize::MAX;
    for (j, col) in wcols.iter().enumerate() {
        if col_active[j] {
            min_count = min_count.min(col.len());
        }
    }
    if min_count == 0 || min_count == usize::MAX {
        return None; // an active column ran empty: structurally singular
    }
    let mut candidates: Vec<usize> = Vec::with_capacity(SEARCH_CAP);
    'levels: for level in 0..SEARCH_LEVELS {
        let want = min_count + level;
        for (j, col) in wcols.iter().enumerate() {
            if col_active[j] && col.len() == want {
                candidates.push(j);
                if candidates.len() >= SEARCH_CAP {
                    break 'levels;
                }
            }
        }
    }
    if let Some(found) = best_pivot(&candidates, wcols, rsup, col_tol, threshold) {
        return Some(found);
    }
    // Every capped candidate was numerically degenerate (its remaining
    // entries are noise relative to the column's original magnitude):
    // widen to all active columns before declaring the basis singular.
    let all: Vec<usize> = (0..wcols.len()).filter(|&j| col_active[j]).collect();
    best_pivot(&all, wcols, rsup, col_tol, threshold)
}

/// The best `(row, col)` pivot over `cols_list` by Markowitz merit, or
/// `None` when no column offers a numerically acceptable entry.
///
/// Tie-breaks are total and index-anchored — merit, then larger magnitude
/// via `f64::total_cmp`, then smaller column index, then smaller row
/// index — so the pivot sequence never depends on scan or float quirks.
fn best_pivot<S: Scalar>(
    cols_list: &[usize],
    wcols: &[Vec<(usize, S)>],
    rsup: &[Vec<usize>],
    col_tol: &[S],
    threshold: &S,
) -> Option<(usize, usize)> {
    // (merit, magnitude, col, row) — lexicographic best.
    let mut best: Option<(usize, f64, usize, usize)> = None;
    for &j in cols_list {
        let col = &wcols[j];
        let mut col_max = S::zero();
        for (_, v) in col {
            if v.abs() > col_max {
                col_max = v.abs();
            }
        }
        if col_max.is_zero() || col_max <= col_tol[j] {
            continue; // numerically degenerate column
        }
        let cut = threshold.clone() * col_max;
        let cj = col.len();
        for (r, v) in col {
            let mag = v.abs();
            if mag < cut {
                continue;
            }
            let merit = (rsup[*r].len() - 1) * (cj - 1);
            let mag_f = mag.to_f64();
            let better = match &best {
                None => true,
                Some((bm, bmag, bc, br)) => {
                    merit < *bm
                        || (merit == *bm
                            && match mag_f.total_cmp(bmag) {
                                std::cmp::Ordering::Greater => true,
                                std::cmp::Ordering::Less => false,
                                std::cmp::Ordering::Equal => (j, *r) < (*bc, *br),
                            })
                }
            };
            if better {
                best = Some((merit, mag_f, j, *r));
            }
        }
    }
    best.map(|(_, _, j, r)| (r, j))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ScheduleModel;
    use crate::problem::{Problem, Relation};
    use crate::rational::Rational;
    use crate::simplex::{column_layout, standardize, ColumnLayout};
    use proptest::prelude::*;

    /// Product-form representation of the basis inverse: the dense
    /// Gauss-Jordan oracle the sparse factors are checked against.
    struct Factor<S> {
        /// Dense inverse of the basis at the last refactorization, row-major
        /// `m x m`.
        binv: Vec<S>,
        /// Eta file: `(pivot row, pivot column in the then-current basis
        /// frame)` per pivot since the last refactorization.
        etas: Vec<(usize, Vec<S>)>,
        m: usize,
    }

    impl<S: Scalar> Factor<S> {
        /// Builds `B^-1` from the basis columns via Gauss-Jordan with partial
        /// pivoting. Returns `None` when the basis matrix is singular.
        ///
        /// Singularity is judged *per column*, relative to that column's own
        /// largest original magnitude: a column whose entries are legitimately
        /// tiny (a `1e-4` coefficient on a `1e6`-scaled instance) still
        /// factorizes, while a dependent column — whose post-elimination
        /// residual is noise relative to its original entries — is rejected.
        fn refactorize(cols: &Columns<S>, basis: &[usize]) -> Option<Factor<S>> {
            let m = cols.m;
            // Augmented [B | I], eliminated in place.
            let mut b = vec![S::zero(); m * m];
            let mut inv = vec![S::zero(); m * m];
            for (r, row) in inv.chunks_mut(m).enumerate() {
                row[r] = S::one();
            }
            let mut col_tol = vec![S::zero(); m];
            for (k, &c) in basis.iter().enumerate() {
                let mut col_max = S::zero();
                for (&r, v) in cols.support(c).iter().zip(cols.vals(c)) {
                    if v.abs() > col_max {
                        col_max = v.abs();
                    }
                    b[r * m + k] = v.clone();
                }
                col_tol[k] = S::tolerance() * col_max;
            }
            for k in 0..m {
                // Partial pivoting: largest magnitude in column k at/below row k.
                let mut pr = k;
                let mut best = b[k * m + k].abs();
                for r in (k + 1)..m {
                    let mag = b[r * m + k].abs();
                    if mag > best {
                        best = mag;
                        pr = r;
                    }
                }
                // Exact backends have col_tol = 0: only an exact zero column is
                // singular there.
                if best <= col_tol[k] || best.is_zero() {
                    return None; // singular basis
                }
                if pr != k {
                    for c in 0..m {
                        b.swap(pr * m + c, k * m + c);
                        inv.swap(pr * m + c, k * m + c);
                    }
                }
                let piv_inv = S::one() / b[k * m + k].clone();
                for c in 0..m {
                    b[k * m + c] = b[k * m + c].clone() * piv_inv.clone();
                    inv[k * m + c] = inv[k * m + c].clone() * piv_inv.clone();
                }
                for r in 0..m {
                    if r == k {
                        continue;
                    }
                    let f = b[r * m + k].clone();
                    if f.is_zero() {
                        continue;
                    }
                    for c in 0..m {
                        b[r * m + c] = b[r * m + c].clone() - f.clone() * b[k * m + c].clone();
                        inv[r * m + c] =
                            inv[r * m + c].clone() - f.clone() * inv[k * m + c].clone();
                    }
                }
            }
            Some(Factor {
                binv: inv,
                etas: Vec::new(),
                m,
            })
        }

        /// Applies the eta file (in chronological order) to `out`.
        fn apply_etas(&self, out: &mut [S]) {
            for (pr, w) in &self.etas {
                let t = out[*pr].clone() / w[*pr].clone();
                for (i, wi) in w.iter().enumerate() {
                    if i == *pr {
                        continue;
                    }
                    if !wi.is_zero() {
                        out[i] = out[i].clone() - wi.clone() * t.clone();
                    }
                }
                out[*pr] = t;
            }
        }

        /// `FTRAN`: computes `B^-1 v` for a dense `v`.
        fn ftran(&self, v: &[S]) -> Vec<S> {
            let m = self.m;
            let mut out = vec![S::zero(); m];
            for (c, vc) in v.iter().enumerate() {
                if !vc.is_zero() {
                    for (r, o) in out.iter_mut().enumerate() {
                        *o = o.clone() + self.binv[r * m + c].clone() * vc.clone();
                    }
                }
            }
            self.apply_etas(&mut out);
            out
        }

        /// `FTRAN` of a sparse column given as parallel (row indices, values)
        /// entry lists.
        fn ftran_sparse(&self, support: &[usize], vals: &[S]) -> Vec<S> {
            let m = self.m;
            let mut out = vec![S::zero(); m];
            for (&c, vc) in support.iter().zip(vals) {
                for (r, o) in out.iter_mut().enumerate() {
                    *o = o.clone() + self.binv[r * m + c].clone() * vc.clone();
                }
            }
            self.apply_etas(&mut out);
            out
        }

        /// `BTRAN`: computes `c^T B^-1` (as a column vector).
        fn btran(&self, c: &[S]) -> Vec<S> {
            let m = self.m;
            let mut y: Vec<S> = c.to_vec();
            for (pr, w) in self.etas.iter().rev() {
                // y <- y E^-1: only component pr changes.
                let mut acc = y[*pr].clone();
                for (i, wi) in w.iter().enumerate() {
                    if i != *pr && !y[i].is_zero() && !wi.is_zero() {
                        acc = acc - y[i].clone() * wi.clone();
                    }
                }
                y[*pr] = acc / w[*pr].clone();
            }
            let mut out = vec![S::zero(); m];
            for (r, yr) in y.iter().enumerate() {
                if !yr.is_zero() {
                    let row = &self.binv[r * m..(r + 1) * m];
                    for (o, br) in out.iter_mut().zip(row) {
                        *o = o.clone() + yr.clone() * br.clone();
                    }
                }
            }
            out
        }

        /// Appends the eta of a pivot on `(pr, w)` where `w = FTRAN(a_entering)`.
        fn push_eta(&mut self, pr: usize, w: Vec<S>) {
            self.etas.push((pr, w));
        }
    }

    /// Standardizes `p` into the immutable column store the factorizations
    /// read, plus the layout and row relations needed to pick bases.
    fn setup<S: Scalar>(p: &Problem) -> (Columns<S>, ColumnLayout, Vec<Relation>) {
        let std_form = standardize::<S>(p);
        let relations: Vec<Relation> = std_form.rows.iter().map(|r| r.relation).collect();
        let layout = column_layout(p.num_vars(), &relations);
        let cols = Columns::build(&std_form.rows, &layout);
        (cols, layout, relations)
    }

    /// The cold slack/artificial basis — an identity matrix, so it always
    /// factorizes and every pivot sequence can start from it.
    fn cold_basis(layout: &ColumnLayout, relations: &[Relation]) -> Vec<usize> {
        relations
            .iter()
            .enumerate()
            .map(|(i, rel)| match rel {
                Relation::Le => layout.logical_col[i],
                Relation::Ge | Relation::Eq => layout.artificial_col[i],
            })
            .collect()
    }

    /// Largest entrywise difference between `a` and `b`, relative to the
    /// larger magnitude in either vector (floored at 1).
    fn max_rel_diff(a: &[f64], b: &[f64]) -> f64 {
        let scale = a
            .iter()
            .chain(b)
            .fold(1.0f64, |acc, v| if v.abs() > acc { v.abs() } else { acc });
        a.iter()
            .zip(b)
            .fold(0.0f64, |acc, (x, y)| acc.max((x - y).abs()))
            / scale
    }

    /// Random instances with the scheduling structure the factorization
    /// targets, built through the `ScheduleModel` IR: nested-prefix
    /// deadline rows, a dense one-port row, and (sometimes) a `Ge` row so
    /// artificial columns exist in the standardized layout.
    fn star_model() -> impl Strategy<Value = Problem> {
        (
            2usize..=5,
            prop::collection::vec(1i32..=6, 5),
            prop::collection::vec(1i32..=6, 5),
            prop::collection::vec(1i32..=6, 5),
            any::<bool>(),
        )
            .prop_map(|(p, comm, comp, obj, with_ge)| {
                let mut m = ScheduleModel::maximize();
                let alpha = m.group("alpha", obj[..p].iter().map(|&o| o as f64));
                for (i, &cw) in comp.iter().enumerate().take(p) {
                    // Prefix of communications plus this worker's compute
                    // (the alpha_i term appears twice on purpose: duplicate
                    // terms exercise standardization's accumulation).
                    let mut terms: Vec<_> =
                        (0..=i).map(|j| (alpha.var(j), comm[j] as f64)).collect();
                    terms.push((alpha.var(i), cw as f64));
                    m.deadline(terms, 10.0);
                }
                m.one_port((0..p).map(|j| (alpha.var(j), comm[j] as f64)), 10.0);
                if with_ge {
                    m.constraint([(alpha.var(0), 1.0)], Relation::Ge, 0.0);
                }
                m.lower()
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// On random bases (duplicates and all) the sparse factorization
        /// must agree with the dense Gauss-Jordan oracle: identical
        /// singularity verdicts, and matching `FTRAN`/`BTRAN` results when
        /// both factorize.
        #[test]
        fn sparse_matches_dense_oracle(
            p in star_model(),
            raw in prop::collection::vec(0u32..10_000, 8),
            rhs_raw in prop::collection::vec(-4i32..=4, 8),
        ) {
            let (cols, layout, _) = setup::<f64>(&p);
            let m = cols.m;
            prop_assert!(m <= 8);
            let basis: Vec<usize> =
                raw.iter().take(m).map(|&r| r as usize % layout.cols).collect();
            let dense = Factor::refactorize(&cols, &basis);
            let sparse = SparseLu::factorize(&cols, &basis);
            prop_assert_eq!(
                dense.is_some(),
                sparse.is_some(),
                "singularity verdicts disagree on basis {:?}",
                basis
            );
            if let (Some(df), Some(sf)) = (dense, sparse) {
                let v: Vec<f64> = rhs_raw.iter().take(m).map(|&x| x as f64).collect();
                prop_assert!(max_rel_diff(&df.ftran(&v), &sf.ftran(&v)) < 1e-6);
                prop_assert!(max_rel_diff(&df.btran(&v), &sf.btran(&v)) < 1e-6);
                // Sparse right-hand sides through the dedicated entry path.
                for j in (0..layout.cols).step_by(3) {
                    prop_assert!(
                        max_rel_diff(
                            &df.ftran_sparse(cols.support(j), cols.vals(j)),
                            &sf.ftran_sparse(cols.support(j), cols.vals(j)),
                        ) < 1e-6
                    );
                }
            }
        }

        /// A factorization carrying `k` Forrest–Tomlin updates must answer
        /// `FTRAN`/`BTRAN` like a from-scratch factorization of the updated
        /// basis — and like the dense eta-file oracle fed the same pivots.
        #[test]
        fn ft_updates_match_refactorization(
            p in star_model(),
            picks in prop::collection::vec(0u32..10_000, 6),
        ) {
            let (cols, layout, relations) = setup::<f64>(&p);
            let mut basis = cold_basis(&layout, &relations);
            let mut in_basis = vec![false; layout.cols];
            for &c in &basis {
                in_basis[c] = true;
            }
            let mut sparse = SparseLu::factorize(&cols, &basis).expect("identity basis");
            let mut dense = Factor::refactorize(&cols, &basis).expect("identity basis");
            let costs: Vec<f64> = (0..cols.m).map(|i| 1.0 + (i % 3) as f64).collect();
            let mut applied = 0usize;
            for &pick in &picks {
                let e = pick as usize % layout.cols;
                if in_basis[e] {
                    continue;
                }
                let w = sparse.ftran_sparse(cols.support(e), cols.vals(e));
                // Leave on the largest |w_r|: the exchange stays far from
                // singular, so the update acceptance is not what's tested.
                let (mut r, mut best) = (0usize, 0.0f64);
                for (i, wv) in w.iter().enumerate() {
                    if wv.abs() > best {
                        best = wv.abs();
                        r = i;
                    }
                }
                if best < 1e-6 {
                    continue;
                }
                if !sparse.ft_update(r, &w) {
                    // Rejected updates must leave the factors untouched.
                    prop_assert_eq!(sparse.updates_len(), applied);
                    continue;
                }
                dense.push_eta(r, w.clone());
                applied += 1;
                prop_assert_eq!(sparse.updates_len(), applied);
                in_basis[basis[r]] = false;
                in_basis[e] = true;
                basis[r] = e;

                let fresh =
                    SparseLu::factorize(&cols, &basis).expect("updated basis factorizes");
                let via_update = sparse.ftran(&cols.b);
                prop_assert!(max_rel_diff(&via_update, &fresh.ftran(&cols.b)) < 1e-6);
                prop_assert!(max_rel_diff(&via_update, &dense.ftran(&cols.b)) < 1e-6);
                let y_update = sparse.btran(&costs);
                prop_assert!(max_rel_diff(&y_update, &fresh.btran(&costs)) < 1e-6);
                prop_assert!(max_rel_diff(&y_update, &dense.btran(&costs)) < 1e-6);
            }
        }

        /// With the exact backend every drop test degenerates to an exact
        /// zero test: verdicts and solve results must match the dense
        /// oracle *exactly*, not just within tolerance.
        #[test]
        fn exact_backend_matches_dense_oracle_exactly(
            p in star_model(),
            raw in prop::collection::vec(0u32..10_000, 8),
        ) {
            let (cols, layout, _) = setup::<Rational>(&p);
            let m = cols.m;
            let basis: Vec<usize> =
                raw.iter().take(m).map(|&r| r as usize % layout.cols).collect();
            let dense = Factor::refactorize(&cols, &basis);
            let sparse = SparseLu::factorize(&cols, &basis);
            prop_assert_eq!(dense.is_some(), sparse.is_some());
            if let (Some(df), Some(sf)) = (dense, sparse) {
                prop_assert_eq!(df.ftran(&cols.b), sf.ftran(&cols.b));
                let costs: Vec<Rational> =
                    (0..m).map(|i| Rational::from_int(1 + (i % 3) as i64)).collect();
                prop_assert_eq!(df.btran(&costs), sf.btran(&costs));
            }
        }
    }

    /// Exact-`Rational` Forrest–Tomlin: after a sequence of updates the
    /// factorization must equal a from-scratch refactorization *exactly* —
    /// the update formulas are algebra, not approximation.
    #[test]
    fn exact_rational_ft_updates_are_exact() {
        let mut model = ScheduleModel::maximize();
        let alpha = model.group("alpha", [1.0, 2.0, 3.0]);
        model.deadline([(alpha.var(0), 2.0)], 8.0);
        model.deadline([(alpha.var(0), 2.0), (alpha.var(1), 3.0)], 8.0);
        model.deadline(
            [
                (alpha.var(0), 2.0),
                (alpha.var(1), 3.0),
                (alpha.var(2), 5.0),
            ],
            8.0,
        );
        model.one_port(
            [
                (alpha.var(0), 2.0),
                (alpha.var(1), 3.0),
                (alpha.var(2), 5.0),
            ],
            8.0,
        );
        let p = model.lower();
        let (cols, layout, relations) = setup::<Rational>(&p);
        let mut basis = cold_basis(&layout, &relations);
        let mut sparse = SparseLu::factorize(&cols, &basis).unwrap();
        let mut dense = Factor::refactorize(&cols, &basis).unwrap();
        // Pivot the three structural columns in, one by one.
        for e in 0..3usize {
            let w = sparse.ftran_sparse(cols.support(e), cols.vals(e));
            let r = (0..cols.m)
                .max_by(|&a, &b| w[a].abs().cmp(&w[b].abs()))
                .unwrap();
            assert!(!w[r].is_zero());
            assert!(sparse.ft_update(r, &w), "exact update must be accepted");
            dense.push_eta(r, w);
            basis[r] = e;

            let fresh = SparseLu::factorize(&cols, &basis).unwrap();
            assert_eq!(sparse.ftran(&cols.b), fresh.ftran(&cols.b));
            assert_eq!(sparse.ftran(&cols.b), dense.ftran(&cols.b));
            let costs: Vec<Rational> = (0..cols.m)
                .map(|i| Rational::from_int(i as i64 % 4))
                .collect();
            assert_eq!(sparse.btran(&costs), fresh.btran(&costs));
            assert_eq!(sparse.btran(&costs), dense.btran(&costs));
        }
        assert_eq!(sparse.updates_len(), 3);
    }

    /// Structural singularity: a repeated column (and a zero-column basis)
    /// must be rejected by both representations.
    #[test]
    fn singular_bases_rejected_like_the_dense_oracle() {
        let mut p = Problem::maximize();
        let x = p.add_var(1.0);
        let y = p.add_var(1.0);
        p.add_constraint([(x, 1.0), (y, 1.0)], Relation::Le, 4.0);
        p.add_constraint([(x, 2.0), (y, 1.0)], Relation::Le, 6.0);
        let (cols, _, _) = setup::<f64>(&p);
        // Column 0 twice: structurally singular.
        assert!(Factor::refactorize(&cols, &[0, 0]).is_none());
        assert!(SparseLu::factorize(&cols, &[0, 0]).is_none());
        // Dependent structural pair {x+y, 2x+2y}? Columns here are the
        // constraint columns (1,2) and (1,1): nonsingular — both agree.
        assert!(Factor::refactorize(&cols, &[0, 1]).is_some());
        assert!(SparseLu::factorize(&cols, &[0, 1]).is_some());
    }

    /// The fill cap trips only on pathological update growth.
    #[test]
    fn fill_exceeded_stays_quiet_on_small_updates() {
        let mut p = Problem::maximize();
        let x = p.add_var(1.0);
        p.add_constraint([(x, 1.0)], Relation::Le, 4.0);
        let (cols, layout, relations) = setup::<f64>(&p);
        let basis = cold_basis(&layout, &relations);
        let f = SparseLu::factorize(&cols, &basis).unwrap();
        assert!(!f.fill_exceeded());
        assert_eq!(f.updates_len(), 0);
    }
}
