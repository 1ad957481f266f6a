//! Pre-solve static analysis of [`ScheduleModel`]s.
//!
//! Every LP-backed strategy in the workspace builds its problem through
//! the schedule-model IR, so one structural bug in a builder — a sign-flipped
//! coefficient, a duplicated row, a group declared but never constrained —
//! silently corrupts every solver family riding on it. The literature shows
//! this is exactly where divisible-load work goes wrong: Gallet, Robert &
//! Vivien's *Comments on "Design and performance evaluation of load
//! distribution strategies…"* exists because published schedules violated
//! their own constraints. [`analyze`] turns those classes of bugs into
//! pre-solve diagnostics.
//!
//! Three layers of checks, each finding carried as a [`Diagnostic`] with
//! the offending row's name and [`RowKind`]. A row is named by its kind and
//! its position among the rows of that kind (`one_port[0]`, `deadline[3]`),
//! a variable by its group and member (`alpha[2]`): the model's structure
//! locates the builder loop that emitted it.
//!
//! * **per-kind row signatures** — [`RowKind::Deadline`] rows are `≤` with
//!   a strictly positive budget and nonnegative coefficients (the paper's
//!   (2a) shape; the literal nested-prefix structure is *not* checked,
//!   because general permutation pairs scatter the return block across
//!   send positions); [`RowKind::OnePort`] / [`RowKind::Capacity`] rows
//!   are `≤` with nonnegative coefficients and a nonnegative budget;
//!   [`RowKind::Precedence`] rows (which also back
//!   [`ScheduleModel::release`]) are `≥ 0` differences: exactly one `+1`
//!   event term, every other term nonpositive;
//! * **whole-model structure** — every declared variable appears in at
//!   least one row, the objective touches the model, groups are non-empty,
//!   no two rows are identical, and no row is trivially infeasible
//!   (`≤ negative` over nonnegative terms, `≥ positive` over nonpositive
//!   terms); coefficient-wise *dominated* rows (redundant but harmless)
//!   are reported as warnings — the tree-native per-link relaxation
//!   legitimately emits a dominated master-port row on chains, so this
//!   cannot be an error;
//! * **conditioning** — per-row coefficient-magnitude spread beyond
//!   [`SPREAD_LIMIT`] is flagged, because the solver engines' tolerances
//!   are *relative* (scaled by [`crate::Problem::coefficient_scale`]): a
//!   row mixing `1e-6` and `1e6` coefficients defeats them.
//!
//! Checks operate on the *normalized* row (duplicate variable entries
//! summed, exact zeros dropped) — the canonical scenario builder pushes a
//! worker's send and compute coefficients as separate terms of the same
//! variable, which is well-formed.
//!
//! ```
//! use dls_lp::{analyze, ScheduleModel, RowKind, Severity};
//!
//! let mut m = ScheduleModel::maximize();
//! let a = m.group("alpha", [1.0]);
//! // Sign-flipped one-port row: a structural bug, caught pre-solve.
//! m.one_port([(a.var(0), -1.5)], 1.0);
//! let report = analyze(&m);
//! assert!(report.has_errors());
//! let d = report.errors().next().unwrap();
//! assert_eq!(d.kind, Some(RowKind::OnePort));
//! assert_eq!(d.row.as_deref(), Some("one_port[0]"));
//! assert_eq!(d.severity, Severity::Error);
//! ```

use std::collections::{BTreeMap, HashMap};
use std::fmt;

use crate::model::{Item, ScheduleModel};
use crate::problem::{Constraint, Relation};
use crate::RowKind;

/// Per-row coefficient-magnitude spread (max |c| / min |c| over nonzero
/// terms) beyond which a conditioning warning is emitted. The engines'
/// relative tolerance is `1e-9 ·` coefficient scale, so a spread of `1e8`
/// leaves less than one decimal digit between the smallest coefficient and
/// numerical noise.
pub const SPREAD_LIMIT: f64 = 1e8;

/// How bad a finding is.
// The derived PartialOrd forwards to partial_cmp on the discriminant,
// which the workspace-wide disallowed-methods ban would otherwise flag.
#[allow(clippy::disallowed_methods)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Advisory: the model solves correctly but carries redundancy or a
    /// conditioning hazard worth knowing about.
    Warning,
    /// The model is structurally broken; solving it would return garbage
    /// (or fail deep inside the engine without naming the culprit).
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One analyzer finding, carrying enough context to locate the bug in the
/// *builder* that emitted the row (its kind and position among the rows of
/// that kind), not just in the constraint matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Error or warning.
    pub severity: Severity,
    /// Name of the offending row (`deadline[3]`), when the finding is
    /// row-scoped.
    pub row: Option<String>,
    /// [`RowKind`] of the offending row, when row-scoped.
    pub kind: Option<RowKind>,
    /// Human-readable description of the finding.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.severity)?;
        if let Some(kind) = self.kind {
            write!(f, "[{kind:?}]")?;
        }
        if let Some(row) = &self.row {
            write!(f, " row '{row}':")?;
        }
        write!(f, " {}", self.message)
    }
}

/// The outcome of [`analyze`]: every finding, in check order.
#[derive(Debug, Clone, Default)]
pub struct AnalysisReport {
    diagnostics: Vec<Diagnostic>,
}

impl AnalysisReport {
    /// All findings, errors and warnings, in check order.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Error-severity findings only.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// Warning-severity findings only.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
    }

    /// `true` when at least one finding is an error.
    pub fn has_errors(&self) -> bool {
        self.errors().next().is_some()
    }

    fn error(&mut self, row: &Row, message: String) {
        self.diagnostics.push(Diagnostic {
            severity: Severity::Error,
            row: Some(row.name()),
            kind: Some(row.kind),
            message,
        });
    }

    fn warn(&mut self, row: &Row, message: String) {
        self.diagnostics.push(Diagnostic {
            severity: Severity::Warning,
            row: Some(row.name()),
            kind: Some(row.kind),
            message,
        });
    }

    fn model_error(&mut self, message: String) {
        self.diagnostics.push(Diagnostic {
            severity: Severity::Error,
            row: None,
            kind: None,
            message,
        });
    }
}

impl fmt::Display for AnalysisReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.diagnostics.is_empty() {
            return write!(f, "model analysis: clean");
        }
        let errors = self.errors().count();
        let warnings = self.warnings().count();
        writeln!(
            f,
            "model analysis: {errors} error(s), {warnings} warning(s)"
        )?;
        for d in &self.diagnostics {
            writeln!(f, "  {d}")?;
        }
        Ok(())
    }
}

/// One model row as the analyzer reads it: the problem's constraint, the
/// scheduling role the model tagged it with, and its position, which
/// names it in findings.
struct Row<'a> {
    model: &'a ScheduleModel,
    index: usize,
    con: &'a Constraint,
    kind: RowKind,
}

impl Row<'_> {
    fn name(&self) -> String {
        self.model.name(Item::Row(self.index))
    }
}

/// A row reduced to its mathematical content: duplicate variable entries
/// summed, exact zeros dropped. Keyed by variable index, so two rows over
/// the same variables compare structurally.
fn normalize(con: &Constraint) -> BTreeMap<usize, f64> {
    let mut terms: BTreeMap<usize, f64> = BTreeMap::new();
    for &(i, c) in &con.coeffs {
        *terms.entry(i).or_insert(0.0) += c;
    }
    terms.retain(|_, c| c.abs() > 0.0 || c.is_nan());
    terms
}

fn fmt_coeff_list(
    terms: &BTreeMap<usize, f64>,
    model: &ScheduleModel,
    pred: impl Fn(f64) -> bool,
) -> String {
    let mut out = Vec::new();
    for (&j, &c) in terms {
        if pred(c) {
            out.push(format!("{}={c}", model.name(Item::Column(j))));
        }
    }
    out.join(", ")
}

/// Statically analyzes a [`ScheduleModel`] for structural well-formedness.
/// Pure and read-only; safe to call on every model before solving. See the
/// module docs for the full check list.
pub fn analyze(model: &ScheduleModel) -> AnalysisReport {
    let mut report = AnalysisReport::default();
    let problem = model.problem();
    let declared = problem.num_vars();
    let rows: Vec<Row> = problem
        .constraints()
        .iter()
        .zip(model.row_kinds())
        .enumerate()
        .map(|(index, (con, kind))| Row {
            model,
            index,
            con,
            kind,
        })
        .collect();

    // ---- whole-model: declarations ------------------------------------
    if declared == 0 {
        report.model_error("model declares no variables".to_string());
        return report;
    }
    for g in model.groups() {
        if g.is_empty() {
            report.model_error(format!("group '{}' declares no variables", g.name()));
        }
    }
    if !problem.objective().iter().any(|c| c.abs() > 0.0) {
        report.model_error(
            "objective touches no variable (every objective coefficient is zero)".to_string(),
        );
    }
    let mut referenced = vec![false; declared];

    // ---- per-row checks ------------------------------------------------
    let mut normalized: Vec<BTreeMap<usize, f64>> = Vec::with_capacity(rows.len());
    for row in &rows {
        let terms = normalize(row.con);

        // Validity of the references themselves.
        let mut broken = false;
        for (&i, &c) in &terms {
            if i >= declared {
                report.error(
                    row,
                    format!(
                        "references variable index {i}, but the model declares only \
                         {declared} variables"
                    ),
                );
                broken = true;
            }
            if !c.is_finite() {
                report.error(row, format!("non-finite coefficient {c} on variable {i}"));
                broken = true;
            } else {
                referenced[i.min(declared - 1)] |= i < declared;
            }
        }
        let (relation, rhs) = (row.con.relation, row.con.rhs);
        if !rhs.is_finite() {
            report.error(row, format!("non-finite right-hand side {rhs}"));
            broken = true;
        }
        if terms.is_empty() {
            report.error(
                row,
                "has no terms (every coefficient is zero or the row is empty)".to_string(),
            );
            broken = true;
        }
        if broken {
            normalized.push(terms);
            continue;
        }

        let all_nonneg = terms.values().all(|&c| c >= 0.0);
        let all_nonpos = terms.values().all(|&c| c <= 0.0);

        // Kind-specific signatures.
        match row.kind {
            RowKind::Deadline => {
                if relation != Relation::Le {
                    report.error(row, format!("deadline rows must be ≤, found {relation:?}"));
                }
                if rhs <= 0.0 {
                    report.error(
                        row,
                        format!("deadline budget must be strictly positive, found {rhs}"),
                    );
                }
                if !all_nonneg {
                    report.error(
                        row,
                        format!(
                            "deadline rows take nonnegative coefficients; negative: {}",
                            fmt_coeff_list(&terms, model, |c| c < 0.0)
                        ),
                    );
                }
            }
            RowKind::OnePort | RowKind::Capacity => {
                if relation != Relation::Le {
                    report.error(row, format!("capacity rows must be ≤, found {relation:?}"));
                }
                if !all_nonneg {
                    report.error(
                        row,
                        format!(
                            "capacity rows take nonnegative coefficients (sign-flipped \
                             builder?); negative: {}",
                            fmt_coeff_list(&terms, model, |c| c < 0.0)
                        ),
                    );
                }
                if rhs < 0.0 {
                    report.error(
                        row,
                        format!("capacity budget must be nonnegative, found {rhs}"),
                    );
                }
            }
            RowKind::Precedence => {
                if relation != Relation::Ge {
                    report.error(
                        row,
                        format!("precedence rows must be ≥, found {relation:?}"),
                    );
                }
                if rhs.abs() > 0.0 {
                    report.error(
                        row,
                        format!("precedence rows are homogeneous differences (rhs 0), found {rhs}"),
                    );
                }
                let positives: Vec<f64> = terms.values().copied().filter(|&c| c > 0.0).collect();
                if positives.len() != 1 || (positives[0] - 1.0).abs() > 0.0 {
                    report.error(
                        row,
                        format!(
                            "precedence rows carry exactly one +1 event term and \
                             nonpositive duration terms; positive terms: [{}]",
                            fmt_coeff_list(&terms, model, |c| c > 0.0)
                        ),
                    );
                }
            }
            RowKind::Custom => {}
        }

        // Trivial infeasibility over nonnegative variables, any kind.
        match relation {
            Relation::Le if rhs < 0.0 && all_nonneg => report.error(
                row,
                format!("trivially infeasible: nonnegative terms can never be ≤ {rhs}"),
            ),
            Relation::Ge if rhs > 0.0 && all_nonpos => report.error(
                row,
                format!("trivially infeasible: nonpositive terms can never be ≥ {rhs}"),
            ),
            Relation::Eq if rhs.abs() > 0.0 && (all_nonneg && all_nonpos) => report.error(
                row,
                format!("trivially infeasible: zero row can never equal {rhs}"),
            ),
            _ => {}
        }

        // Conditioning: coefficient-magnitude spread within the row.
        let mut min_mag = f64::INFINITY;
        let mut max_mag = 0.0f64;
        for &c in terms.values() {
            let m = c.abs();
            if m < min_mag {
                min_mag = m;
            }
            if m > max_mag {
                max_mag = m;
            }
        }
        if min_mag.is_finite() && max_mag > min_mag * SPREAD_LIMIT {
            report.warn(
                row,
                format!(
                    "coefficient magnitudes span {min_mag:e}..{max_mag:e} \
                     (spread {:.1e} > {SPREAD_LIMIT:e}): the engines' relative \
                     tolerances cannot separate the small terms from noise",
                    max_mag / min_mag
                ),
            );
        }

        normalized.push(terms);
    }

    // ---- whole-model: unused variables ---------------------------------
    for (i, used) in referenced.iter().enumerate() {
        if !used {
            report.model_error(format!(
                "variable '{}' appears in no row (unbounded or dead column)",
                model.name(Item::Column(i))
            ));
        }
    }

    // ---- duplicate rows ------------------------------------------------
    // Signature: relation + rhs bits + normalized term bits. Exact
    // duplicates are builder bugs (a loop emitted the same row twice).
    type RowSignature = (u8, u64, Vec<(usize, u64)>);
    let mut seen: HashMap<RowSignature, usize> = HashMap::new();
    for (r, row) in rows.iter().enumerate() {
        let sig = (
            row.con.relation as u8,
            row.con.rhs.to_bits(),
            normalized[r]
                .iter()
                .map(|(&i, &c)| (i, c.to_bits()))
                .collect::<Vec<_>>(),
        );
        if let Some(&first) = seen.get(&sig) {
            report.error(
                row,
                format!("duplicates row '{}' exactly", rows[first].name()),
            );
        } else {
            seen.insert(sig, r);
        }
    }

    // ---- dominated rows ------------------------------------------------
    // Over nonnegative variables, a ≤-row A makes ≤-row B redundant when
    // A's coefficients are ≥ B's everywhere and A's budget is ≤ B's (dual
    // direction for ≥-rows). Redundant rows are legal — the tree per-link
    // relaxation emits a dominated master-port row on chain topologies —
    // so this is advisory.
    let cons = problem.constraints();
    for (b, con_b) in cons.iter().enumerate() {
        if matches!(con_b.relation, Relation::Eq) {
            continue;
        }
        for (a, con_a) in cons.iter().enumerate() {
            if a == b || con_a.relation != con_b.relation {
                continue;
            }
            let dominated = match con_b.relation {
                Relation::Le => con_a.rhs <= con_b.rhs && covers(&normalized[a], &normalized[b]),
                Relation::Ge => con_a.rhs >= con_b.rhs && covers(&normalized[b], &normalized[a]),
                Relation::Eq => false,
            };
            // Exact duplicates were already reported as errors above.
            if dominated
                && !(con_a.rhs.to_bits() == con_b.rhs.to_bits() && normalized[a] == normalized[b])
            {
                report.warn(
                    &rows[b],
                    format!(
                        "coefficient-wise dominated by row '{}' (redundant)",
                        rows[a].name()
                    ),
                );
                break;
            }
        }
    }

    report
}

/// `true` when `hi[v] ≥ lo[v]` for every variable (missing entries are 0).
fn covers(hi: &BTreeMap<usize, f64>, lo: &BTreeMap<usize, f64>) -> bool {
    for (&i, &c) in lo {
        if hi.get(&i).copied().unwrap_or(0.0) < c {
            return false;
        }
    }
    for (&i, &c) in hi {
        if c < 0.0 && lo.get(&i).copied().unwrap_or(0.0) > c {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScheduleModel;

    /// A well-formed 2-worker canonical model (the shape `dls-core`
    /// builds), including the duplicate-variable term idiom.
    fn canonical() -> ScheduleModel {
        let mut m = ScheduleModel::maximize();
        let a = m.group("alpha", [1.0; 2]);
        let x = m.group("idle", [0.0; 2]);
        m.deadline(
            [
                (a.var(0), 1.0),
                (a.var(0), 2.0),
                (x.var(0), 1.0),
                (a.var(0), 0.5),
                (a.var(1), 1.0),
            ],
            1.0,
        );
        m.deadline(
            [
                (a.var(0), 1.0),
                (a.var(1), 3.0),
                (x.var(1), 1.0),
                (a.var(1), 1.0),
            ],
            1.0,
        );
        m.one_port([(a.var(0), 1.5), (a.var(1), 3.0)], 1.0);
        m
    }

    #[test]
    fn canonical_model_is_error_free() {
        let report = analyze(&canonical());
        assert!(!report.has_errors(), "{report}");
    }

    #[test]
    fn precedence_and_release_rows_pass() {
        let mut m = ScheduleModel::maximize();
        let a = m.group("alpha", [1.0]);
        let s = m.group("start", [0.0; 2]);
        m.release(s.var(0), [(a.var(0), 2.0)]);
        m.precedence(s.var(1), s.var(0), [(a.var(0), 1.0)]);
        m.deadline([(s.var(1), 1.0), (a.var(0), 1.0)], 1.0);
        let report = analyze(&m);
        assert!(!report.has_errors(), "{report}");
    }

    #[test]
    fn sign_flipped_one_port_is_caught_with_kind() {
        let mut m = ScheduleModel::maximize();
        let a = m.group("alpha", [1.0; 2]);
        m.deadline([(a.var(0), 3.0)], 1.0);
        m.deadline([(a.var(1), 4.0)], 1.0);
        m.one_port([(a.var(0), -1.5), (a.var(1), 3.0)], 1.0);
        let report = analyze(&m);
        assert!(report.has_errors());
        let d = report.errors().next().unwrap();
        assert_eq!(d.kind, Some(RowKind::OnePort));
        assert_eq!(d.row.as_deref(), Some("one_port[0]"));
        assert!(d.message.contains("alpha[0]=-1.5"), "{}", d.message);
    }

    #[test]
    fn duplicate_rows_are_errors_naming_both_rows() {
        let mut m = ScheduleModel::maximize();
        let a = m.group("alpha", [1.0; 2]);
        m.deadline([(a.var(0), 3.0), (a.var(1), 1.0)], 1.0);
        m.deadline([(a.var(1), 1.0), (a.var(0), 3.0)], 1.0);
        let report = analyze(&m);
        let dup: Vec<_> = report
            .errors()
            .filter(|d| d.message.contains("duplicates"))
            .collect();
        assert_eq!(dup.len(), 1, "{report}");
        assert_eq!(dup[0].row.as_deref(), Some("deadline[1]"));
        assert!(dup[0].message.contains("deadline[0]"), "{}", dup[0].message);
    }

    #[test]
    fn empty_group_and_unused_variable_are_errors() {
        let mut m = ScheduleModel::maximize();
        let a = m.group("alpha", [1.0]);
        let _ghost = m.group("ghost", []);
        let _dead = m.group("dead", [0.0]);
        m.deadline([(a.var(0), 2.0)], 1.0);
        let report = analyze(&m);
        assert!(report
            .errors()
            .any(|d| d.row.is_none() && d.message.contains("ghost")));
        assert!(report
            .errors()
            .any(|d| d.row.is_none() && d.message.contains("'dead[0]'")));
    }

    #[test]
    fn zero_objective_is_an_error() {
        let mut m = ScheduleModel::maximize();
        let a = m.group("alpha", [0.0]);
        m.deadline([(a.var(0), 2.0)], 1.0);
        let report = analyze(&m);
        assert!(report
            .errors()
            .any(|d| d.message.contains("objective touches no variable")));
    }

    #[test]
    fn trivially_infeasible_rows_are_errors() {
        let mut m = ScheduleModel::maximize();
        let a = m.group("alpha", [1.0]);
        m.deadline([(a.var(0), 2.0)], 1.0);
        m.constraint([(a.var(0), 2.0)], Relation::Le, -1.0);
        let report = analyze(&m);
        let d = report
            .errors()
            .find(|d| d.row.as_deref() == Some("custom[0]"))
            .expect("trivially infeasible row reported");
        assert_eq!(d.kind, Some(RowKind::Custom));
        assert!(d.message.contains("trivially infeasible"));
    }

    #[test]
    fn wrong_sense_deadline_and_bad_precedence_shapes() {
        let mut m = ScheduleModel::maximize();
        let a = m.group("alpha", [1.0]);
        let s = m.group("start", [0.0]);
        m.deadline([(a.var(0), 2.0)], 0.0);
        // A precedence row whose event coefficient cancels itself.
        m.precedence(s.var(0), s.var(0), [(a.var(0), 1.0)]);
        let report = analyze(&m);
        assert!(report
            .errors()
            .any(|d| d.row.as_deref() == Some("deadline[0]") && d.kind == Some(RowKind::Deadline)));
        assert!(report
            .errors()
            .any(|d| d.row.as_deref() == Some("precedence[0]")
                && d.kind == Some(RowKind::Precedence)));
    }

    #[test]
    fn dominated_row_is_a_warning_not_an_error() {
        let mut m = ScheduleModel::maximize();
        let a = m.group("alpha", [1.0; 2]);
        // capacity[0] dominates capacity[1]: larger coefficients, same
        // budget.
        m.capacity([(a.var(0), 3.0), (a.var(1), 2.0)], 1.0);
        m.capacity([(a.var(0), 1.0), (a.var(1), 2.0)], 1.0);
        let report = analyze(&m);
        assert!(!report.has_errors(), "{report}");
        let w = report
            .warnings()
            .find(|d| d.row.as_deref() == Some("capacity[1]"))
            .expect("dominated row warned");
        assert!(w.message.contains("capacity[0]"), "{}", w.message);
    }

    #[test]
    fn conditioning_spread_is_a_warning() {
        let mut m = ScheduleModel::maximize();
        let a = m.group("alpha", [1.0; 2]);
        m.deadline([(a.var(0), 1e-6), (a.var(1), 1e6)], 1.0);
        m.deadline([(a.var(0), 1.0), (a.var(1), 1.0)], 1.0);
        let report = analyze(&m);
        assert!(!report.has_errors(), "{report}");
        assert!(report
            .warnings()
            .any(|d| d.row.as_deref() == Some("deadline[0]") && d.message.contains("tolerances")));
    }

    #[test]
    fn report_display_counts_and_lists() {
        let mut m = ScheduleModel::maximize();
        let a = m.group("alpha", [1.0]);
        m.one_port([(a.var(0), -1.0)], 1.0);
        let report = analyze(&m);
        let text = report.to_string();
        assert!(text.contains("error"), "{text}");
        assert!(text.contains("row 'one_port[0]'"), "{text}");
        let clean = analyze(&canonical());
        assert!(!clean.has_errors());
        assert!(clean.to_string().contains("analysis"));
    }

    #[test]
    fn empty_model_reports_once() {
        let m = ScheduleModel::maximize();
        let report = analyze(&m);
        assert!(report.has_errors());
        assert_eq!(report.diagnostics().len(), 1);
    }
}
