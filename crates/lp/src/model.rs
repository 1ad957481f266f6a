//! Schedule-model IR: a structured layer over the raw [`Problem`] builder
//! that builds the one problem the engines solve.
//!
//! Every LP-backed strategy in the workspace used to hand-roll its
//! constraint rows around the paper's sends-then-returns canonical shape,
//! which made each new LP variant (multi-round, affine, interleaved
//! master, tree-native per-link) a cross-crate fork of the same
//! row-emission code. A [`ScheduleModel`] names the *structure* instead:
//!
//! * **variable groups** ([`ScheduleModel::group`]) — `alpha` loads,
//!   `x` idle gaps, per-message start times — declared in a deterministic
//!   group-major order, so the column order (and therefore the
//!   standardized [`column layout`](crate::simplex) both solver engines
//!   share) is a function of the model alone;
//! * **constraint combinators** — [`deadline`](ScheduleModel::deadline),
//!   [`one_port`](ScheduleModel::one_port),
//!   [`capacity`](ScheduleModel::capacity),
//!   [`precedence`](ScheduleModel::precedence) — that write each row
//!   straight into the model's [`Problem`] and tag it with a [`RowKind`],
//!   keeping the scheduling semantics visible to debuggers and the static
//!   analyzer ([`crate::analyze`](fn@crate::analyze));
//! * **one deterministic problem** ([`ScheduleModel::problem`]) —
//!   variables in declaration order, rows in declaration order: two
//!   identical model builds produce byte-identical [`Problem`]s, which is
//!   what lets the `dls-core` builders reproduce the pre-IR LPs bit for
//!   bit. The engines solve that problem in place;
//!   [`ScheduleModel::lower`] returns an owned copy for callers that keep
//!   it past the model.
//!
//! ```
//! use dls_lp::{ScheduleModel, solve};
//!
//! // One worker, canonical shape: alpha (c + w + d) <= 1.
//! let mut m = ScheduleModel::maximize();
//! let alpha = m.group("alpha", [("alpha_P1".to_string(), 1.0)]);
//! let idle = m.group("idle", [("x_P1".to_string(), 0.0)]);
//! m.deadline(
//!     "deadline_P1",
//!     [(alpha.var(0), 2.0 + 3.0 + 1.0), (idle.var(0), 1.0)],
//!     1.0,
//! );
//! m.one_port("one_port", [(alpha.var(0), 3.0)], 1.0);
//! let sol = solve(m.problem()).unwrap();
//! assert!((sol.objective - 1.0 / 6.0).abs() < 1e-9);
//! ```

use std::ops::Range;

use crate::problem::{Problem, Relation, Sense, VarId};

/// Handle to one model variable: its absolute column index in the model's
/// [`Problem`]. Obtained from [`VarGroup::var`]; valid for the model that
/// declared it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MVar(usize);

impl MVar {
    /// The [`Problem`] column of this variable (columns follow
    /// declaration order, so the mapping is the identity on indices).
    pub fn var_id(self) -> VarId {
        VarId(self.0)
    }

    /// Absolute column index in the model's problem.
    pub fn index(self) -> usize {
        self.0
    }
}

/// A contiguous, named group of model variables (e.g. the `alpha` loads of
/// every enrolled worker). Groups occupy columns in declaration order,
/// members in member order.
#[derive(Debug, Clone)]
pub struct VarGroup {
    name: String,
    range: Range<usize>,
}

impl VarGroup {
    /// The group's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of member variables.
    pub fn len(&self) -> usize {
        self.range.len()
    }

    /// `true` when the group has no members.
    pub fn is_empty(&self) -> bool {
        self.range.is_empty()
    }

    /// Member `i` of the group.
    ///
    /// # Panics
    /// Panics when `i` is out of range.
    pub fn var(&self, i: usize) -> MVar {
        assert!(
            i < self.len(),
            "group '{}' has {} members",
            self.name,
            self.len()
        );
        MVar(self.range.start + i)
    }

    /// All members, in declaration order.
    pub fn vars(&self) -> impl Iterator<Item = MVar> + '_ {
        self.range.clone().map(MVar)
    }

    /// The [`VarId`]s of every member, in declaration order.
    pub fn var_ids(&self) -> Vec<VarId> {
        self.range.clone().map(VarId).collect()
    }
}

/// Scheduling role of a model row — recorded for debuggability and checked
/// per kind by the static analyzer ([`crate::analyze`](fn@crate::analyze)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RowKind {
    /// A per-worker horizon constraint (the paper's (2a) rows).
    Deadline,
    /// The master's one-port capacity row (the paper's (2b) row).
    OnePort,
    /// A per-resource capacity row (tree links, relay ports).
    Capacity,
    /// An ordering constraint between event variables (`later ≥ earlier +
    /// duration`).
    Precedence,
    /// Anything else (caller-shaped rows added via the raw relations).
    Custom,
}

/// The schedule-model IR: named variable groups plus tagged constraint
/// rows, written straight into the [`Problem`] the engines solve. See the
/// module docs.
#[derive(Debug, Clone)]
pub struct ScheduleModel {
    problem: Problem,
    kinds: Vec<RowKind>,
    groups: Vec<VarGroup>,
}

impl ScheduleModel {
    /// An empty model with the given optimization direction.
    pub fn new(sense: Sense) -> Self {
        ScheduleModel {
            problem: Problem::new(sense),
            kinds: Vec::new(),
            groups: Vec::new(),
        }
    }

    /// Convenience constructor for maximization models.
    pub fn maximize() -> Self {
        Self::new(Sense::Maximize)
    }

    /// Convenience constructor for minimization models.
    pub fn minimize() -> Self {
        Self::new(Sense::Minimize)
    }

    /// Declares a named group of non-negative variables; `members` yields
    /// `(variable name, objective coefficient)` pairs. Returns the group
    /// handle whose [`VarGroup::var`]s feed the constraint combinators.
    pub fn group(
        &mut self,
        name: impl Into<String>,
        members: impl IntoIterator<Item = (String, f64)>,
    ) -> VarGroup {
        let start = self.problem.num_vars();
        for (member, obj) in members {
            self.problem.add_var(member, obj);
        }
        let group = VarGroup {
            name: name.into(),
            range: start..self.problem.num_vars(),
        };
        self.groups.push(group.clone());
        group
    }

    /// Appends one tagged row to the problem. In debug builds a reference
    /// to an undeclared variable fails here, naming the row, instead of
    /// index-panicking deep inside the solver's standardization.
    fn add_row(
        &mut self,
        label: impl Into<String>,
        kind: RowKind,
        terms: impl IntoIterator<Item = (MVar, f64)>,
        relation: Relation,
        rhs: f64,
    ) {
        self.problem.add_constraint(
            label,
            terms.into_iter().map(|(v, c)| (v.var_id(), c)),
            relation,
            rhs,
        );
        self.kinds.push(kind);
        let declared = self.problem.num_vars();
        let row = &self.problem.constraints()[self.kinds.len() - 1];
        debug_assert!(
            row.coeffs.iter().all(|&(i, _)| i < declared),
            "row '{}' ({kind:?}) references an undeclared variable (the model declares {declared})",
            row.label
        );
    }

    /// A per-worker horizon row: `Σ terms ≤ rhs` (the paper's (2a) shape).
    pub fn deadline(
        &mut self,
        label: impl Into<String>,
        terms: impl IntoIterator<Item = (MVar, f64)>,
        rhs: f64,
    ) {
        self.add_row(label, RowKind::Deadline, terms, Relation::Le, rhs);
    }

    /// The master's one-port capacity row: `Σ terms ≤ rhs` (the paper's
    /// (2b) shape).
    pub fn one_port(
        &mut self,
        label: impl Into<String>,
        terms: impl IntoIterator<Item = (MVar, f64)>,
        rhs: f64,
    ) {
        self.add_row(label, RowKind::OnePort, terms, Relation::Le, rhs);
    }

    /// A per-resource capacity row (`Σ terms ≤ rhs`): a tree link, a relay
    /// port, any shared medium that serializes traffic.
    pub fn capacity(
        &mut self,
        label: impl Into<String>,
        terms: impl IntoIterator<Item = (MVar, f64)>,
        rhs: f64,
    ) {
        self.add_row(label, RowKind::Capacity, terms, Relation::Le, rhs);
    }

    /// An ordering row between event variables: `later ≥ earlier +
    /// Σ durations`, i.e. `later - earlier - Σ durations ≥ 0`. This is the
    /// one-port *disjunction resolved by a fixed order*: once the port
    /// sequence is pinned (by σ/FIFO), each adjacent pair needs exactly one
    /// of these rows.
    pub fn precedence(
        &mut self,
        label: impl Into<String>,
        later: MVar,
        earlier: MVar,
        durations: impl IntoIterator<Item = (MVar, f64)>,
    ) {
        let mut terms: Vec<(MVar, f64)> = vec![(later, 1.0), (earlier, -1.0)];
        terms.extend(durations.into_iter().map(|(v, c)| (v, -c)));
        self.add_row(label, RowKind::Precedence, terms, Relation::Ge, 0.0);
    }

    /// An ordering row against the start of time: `event ≥ Σ durations`.
    pub fn release(
        &mut self,
        label: impl Into<String>,
        event: MVar,
        durations: impl IntoIterator<Item = (MVar, f64)>,
    ) {
        let mut terms: Vec<(MVar, f64)> = vec![(event, 1.0)];
        terms.extend(durations.into_iter().map(|(v, c)| (v, -c)));
        self.add_row(label, RowKind::Precedence, terms, Relation::Ge, 0.0);
    }

    /// A caller-shaped row with an explicit relation (tagged
    /// [`RowKind::Custom`]).
    pub fn constraint(
        &mut self,
        label: impl Into<String>,
        terms: impl IntoIterator<Item = (MVar, f64)>,
        relation: Relation,
        rhs: f64,
    ) {
        self.add_row(label, RowKind::Custom, terms, relation, rhs);
    }

    /// Number of declared variables.
    pub fn num_vars(&self) -> usize {
        self.problem.num_vars()
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.kinds.len()
    }

    /// The declared groups, in declaration order.
    pub fn groups(&self) -> &[VarGroup] {
        &self.groups
    }

    /// Row kinds in declaration order (the model's constraint signature),
    /// one per row of [`problem`](Self::problem).
    pub fn row_kinds(&self) -> impl Iterator<Item = RowKind> + '_ {
        self.kinds.iter().copied()
    }

    /// Name of a declared variable (declaration order).
    pub fn var_name(&self, v: MVar) -> &str {
        self.problem.var_name(v.var_id())
    }

    /// The problem the engines solve: variables in declaration order, rows
    /// in declaration order. Deterministic — two identical model builds
    /// produce byte-identical problems.
    pub fn problem(&self) -> &Problem {
        &self.problem
    }

    /// An owned copy of [`problem`](Self::problem), for callers that keep
    /// the problem past the model.
    pub fn lower(&self) -> Problem {
        self.problem.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simplex::solve;

    /// A 2-worker canonical scenario model, the shape `dls-core` builds.
    fn two_worker_model() -> (ScheduleModel, VarGroup, VarGroup) {
        // P1 = (c=1, w=2, d=0.5), P2 = (c=2, w=1, d=1), FIFO.
        let mut m = ScheduleModel::maximize();
        let alphas = m.group("alpha", (1..=2).map(|i| (format!("alpha_P{i}"), 1.0)));
        let idles = m.group("idle", (1..=2).map(|i| (format!("x_P{i}"), 0.0)));
        m.deadline(
            "deadline_P1",
            [
                (alphas.var(0), 1.0 + 2.0), // own send + compute
                (idles.var(0), 1.0),
                (alphas.var(0), 0.5), // own return
                (alphas.var(1), 1.0), // P2's return after P1's
            ],
            1.0,
        );
        m.deadline(
            "deadline_P2",
            [
                (alphas.var(0), 1.0),
                (alphas.var(1), 2.0 + 1.0),
                (idles.var(1), 1.0),
                (alphas.var(1), 1.0),
            ],
            1.0,
        );
        m.one_port(
            "one_port",
            [(alphas.var(0), 1.5), (alphas.var(1), 3.0)],
            1.0,
        );
        (m, alphas, idles)
    }

    #[test]
    fn groups_lower_in_declaration_order() {
        let (m, alphas, idles) = two_worker_model();
        let p = m.lower();
        assert_eq!(p.num_vars(), 4);
        assert_eq!(p.var_name(alphas.var(0).var_id()), "alpha_P1");
        assert_eq!(p.var_name(alphas.var(1).var_id()), "alpha_P2");
        assert_eq!(p.var_name(idles.var(0).var_id()), "x_P1");
        assert_eq!(p.var_name(idles.var(1).var_id()), "x_P2");
        assert_eq!(p.objective(), &[1.0, 1.0, 0.0, 0.0]);
        assert_eq!(p.num_constraints(), 3);
        assert_eq!(p.constraints()[2].label, "one_port");
    }

    #[test]
    fn lowering_is_deterministic_and_solvable() {
        let (m, _, _) = two_worker_model();
        let a = m.lower();
        let b = m.lower();
        assert_eq!(a.to_lp_format(), b.to_lp_format());
        let sol = solve(&a).unwrap();
        assert!(sol.objective > 0.0);
    }

    #[test]
    fn precedence_encodes_later_minus_earlier() {
        let mut m = ScheduleModel::maximize();
        let alpha = m.group("alpha", [("alpha".to_string(), 1.0)]);
        let starts = m.group("start", [("s".to_string(), 0.0), ("r".to_string(), 0.0)]);
        // r >= s + 2 alpha; r + alpha <= 1; maximize alpha -> alpha = 1/3.
        m.precedence("chain", starts.var(1), starts.var(0), [(alpha.var(0), 2.0)]);
        m.deadline("horizon", [(starts.var(1), 1.0), (alpha.var(0), 1.0)], 1.0);
        let sol = solve(&m.lower()).unwrap();
        assert!((sol.objective - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn release_pins_events_after_durations() {
        let mut m = ScheduleModel::maximize();
        let alpha = m.group("alpha", [("alpha".to_string(), 1.0)]);
        let start = m.group("start", [("s".to_string(), 0.0)]);
        // s >= 3 alpha, s + alpha <= 1 -> alpha = 1/4.
        m.release("release", start.var(0), [(alpha.var(0), 3.0)]);
        m.deadline("horizon", [(start.var(0), 1.0), (alpha.var(0), 1.0)], 1.0);
        let sol = solve(&m.lower()).unwrap();
        assert!((sol.objective - 0.25).abs() < 1e-9);
    }

    #[test]
    fn ir_models_snapshot_as_lp_text_and_round_trip() {
        // The debuggability contract: an IR-built model dumps to exactly
        // this CPLEX-LP text, and the text parses back into the same
        // problem (the `to_lp_format` round-trip satellite).
        let (m, _, _) = two_worker_model();
        let text = m.lower().to_lp_format();
        let expected = "\
Maximize
 obj: +1 alpha_P1 +1 alpha_P2
Subject To
 deadline_P1: +3.5 alpha_P1 +1 alpha_P2 +1 x_P1 <= 1
 deadline_P2: +1 alpha_P1 +4 alpha_P2 +1 x_P2 <= 1
 one_port: +1.5 alpha_P1 +3 alpha_P2 <= 1
End
";
        assert_eq!(text, expected);
        let parsed = crate::Problem::from_lp_format(&text).unwrap();
        assert_eq!(parsed.to_lp_format(), text);
        let direct = solve(&m.lower()).unwrap();
        let reparsed = solve(&parsed).unwrap();
        assert!((direct.objective - reparsed.objective).abs() < 1e-12);
    }

    #[test]
    fn var_group_accessors() {
        let mut m = ScheduleModel::minimize();
        let g = m.group("g", (0..3).map(|i| (format!("v{i}"), 1.0)));
        assert_eq!(g.name(), "g");
        assert_eq!(g.len(), 3);
        assert!(!g.is_empty());
        assert_eq!(g.vars().count(), 3);
        assert_eq!(g.var_ids().len(), 3);
        assert_eq!(g.var(2).index(), 2);
        assert_eq!(m.groups().len(), 1);
        assert_eq!(m.row_kinds().count(), 0);
    }

    #[test]
    #[should_panic(expected = "has 3 members")]
    fn out_of_range_member_panics() {
        let mut m = ScheduleModel::maximize();
        let g = m.group("g", (0..3).map(|i| (format!("v{i}"), 1.0)));
        let _ = g.var(3);
    }
}
