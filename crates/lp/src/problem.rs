//! Linear program description and builder API.
//!
//! A [`Problem`] is a linear objective over non-negative variables together
//! with a list of linear constraints (`<=`, `>=`, `==`). Non-negativity of
//! every variable is built in: the divisible-load formulations of RR-5738
//! only ever need `x >= 0` bounds, and fixing the convention keeps the
//! simplex construction simple and well tested.

use crate::error::LpError;

/// Optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    /// Maximize the objective.
    Maximize,
    /// Minimize the objective.
    Minimize,
}

/// Constraint relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// `lhs <= rhs`
    Le,
    /// `lhs >= rhs`
    Ge,
    /// `lhs == rhs`
    Eq,
}

/// Opaque handle to a declared variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// Index of the variable in solution vectors.
    pub fn index(&self) -> usize {
        self.0
    }
}

/// A single linear constraint in sparse form.
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    /// `(variable index, coefficient)` pairs; indices need not be sorted but
    /// duplicates are summed during standardization.
    pub coeffs: Vec<(usize, f64)>,
    /// Relation between lhs and rhs.
    pub relation: Relation,
    /// Right-hand side.
    pub rhs: f64,
}

/// A linear program over non-negative variables.
///
/// Variables and rows have no names: a variable is its index, a row its
/// position. Equality is structural: same sense, objective, and rows with
/// the same relations, right-hand sides and coefficient lists in the same
/// order. Coefficients compare as `f64` values, so a model build is pinned
/// bit for bit (up to the sign of zero).
#[derive(Debug, Clone, PartialEq)]
pub struct Problem {
    sense: Sense,
    objective: Vec<f64>,
    constraints: Vec<Constraint>,
}

impl Problem {
    /// Creates an empty problem with the given optimization direction.
    pub fn new(sense: Sense) -> Self {
        Problem {
            sense,
            objective: Vec::new(),
            constraints: Vec::new(),
        }
    }

    /// Convenience constructor for maximization problems.
    pub fn maximize() -> Self {
        Self::new(Sense::Maximize)
    }

    /// Convenience constructor for minimization problems.
    pub fn minimize() -> Self {
        Self::new(Sense::Minimize)
    }

    /// Declares a non-negative variable with objective coefficient
    /// `obj_coeff` and returns its handle.
    pub fn add_var(&mut self, obj_coeff: f64) -> VarId {
        self.objective.push(obj_coeff);
        VarId(self.objective.len() - 1)
    }

    /// Adds the constraint `sum coeffs . vars  relation  rhs`.
    pub fn add_constraint(
        &mut self,
        coeffs: impl IntoIterator<Item = (VarId, f64)>,
        relation: Relation,
        rhs: f64,
    ) {
        self.constraints.push(Constraint {
            coeffs: coeffs.into_iter().map(|(v, c)| (v.0, c)).collect(),
            relation,
            rhs,
        });
    }

    /// Optimization direction.
    pub fn sense(&self) -> Sense {
        self.sense
    }

    /// Number of declared variables.
    pub fn num_vars(&self) -> usize {
        self.objective.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Objective coefficients (one per variable, in declaration order).
    pub fn objective(&self) -> &[f64] {
        &self.objective
    }

    /// Declared constraints.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Validates indices and finiteness of all coefficients. Errors name
    /// a variable and a row by index: `variable j`, `row i`.
    ///
    /// Called automatically by the solver; exposed for early error surfacing
    /// in model-building code.
    pub fn validate(&self) -> Result<(), LpError> {
        if self.objective.is_empty() {
            return Err(LpError::Empty);
        }
        for (j, &c) in self.objective.iter().enumerate() {
            if !c.is_finite() {
                return Err(LpError::NonFiniteCoefficient {
                    location: format!("objective coefficient of variable {j}"),
                });
            }
        }
        for (i, con) in self.constraints.iter().enumerate() {
            if !con.rhs.is_finite() {
                return Err(LpError::NonFiniteCoefficient {
                    location: format!("rhs of row {i}"),
                });
            }
            for &(j, c) in &con.coeffs {
                if j >= self.num_vars() {
                    return Err(LpError::UnknownVariable {
                        index: j,
                        declared: self.num_vars(),
                    });
                }
                if !c.is_finite() {
                    return Err(LpError::NonFiniteCoefficient {
                        location: format!("coefficient of variable {j} in row {i}"),
                    });
                }
            }
        }
        Ok(())
    }

    /// Returns each constraint's lhs as a dense row (duplicate entries
    /// summed), paired with its relation and rhs. Used by the standardizer.
    pub(crate) fn dense_rows(&self) -> Vec<(Vec<f64>, Relation, f64)> {
        self.constraints
            .iter()
            .map(|con| {
                let mut row = vec![0.0; self.num_vars()];
                for &(idx, c) in &con.coeffs {
                    row[idx] += c;
                }
                (row, con.relation, con.rhs)
            })
            .collect()
    }

    /// Largest coefficient magnitude across the objective, constraint
    /// matrix and right-hand sides, floored at 1.
    ///
    /// The solvers scale their comparison tolerances by this value so that
    /// optimality and feasibility tests are *relative*: an instance with
    /// costs in the `1e6` range is not judged against the same absolute
    /// epsilon as one with costs in the units range (which could declare
    /// optimality one pivot early or report spurious infeasibility).
    pub fn coefficient_scale(&self) -> f64 {
        let mut scale = 1.0f64;
        for &c in &self.objective {
            scale = scale.max(c.abs());
        }
        for con in &self.constraints {
            scale = scale.max(con.rhs.abs());
            for &(_, c) in &con.coeffs {
                scale = scale.max(c.abs());
            }
        }
        scale
    }

    /// Evaluates the objective at a point (panics if dimensions mismatch).
    pub fn eval_objective(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.objective.len(), "dimension mismatch");
        self.objective.iter().zip(x).map(|(c, v)| c * v).sum()
    }

    /// Checks primal feasibility of `x` within tolerance `tol`.
    ///
    /// Returns the first violation — `variable j` for a negative entry,
    /// `row i` for a violated constraint — or `None` if feasible.
    pub fn check_feasible(&self, x: &[f64], tol: f64) -> Option<String> {
        if let Some(j) = x.iter().position(|&v| v < -tol) {
            return Some(format!("variable {j}"));
        }
        for (i, (row, rel, rhs)) in self.dense_rows().into_iter().enumerate() {
            let lhs: f64 = row.iter().zip(x).map(|(c, v)| c * v).sum();
            let ok = match rel {
                Relation::Le => lhs <= rhs + tol,
                Relation::Ge => lhs >= rhs - tol,
                Relation::Eq => (lhs - rhs).abs() <= tol,
            };
            if !ok {
                return Some(format!("row {i}"));
            }
        }
        None
    }
}

#[cfg(test)]
// Unit tests assert exact outcomes of exact arithmetic.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn builder_tracks_vars_and_constraints() {
        let mut p = Problem::maximize();
        let x = p.add_var(1.0);
        let y = p.add_var(2.0);
        p.add_constraint([(x, 1.0), (y, 1.0)], Relation::Le, 4.0);
        assert_eq!(p.num_vars(), 2);
        assert_eq!(p.num_constraints(), 1);
        assert_eq!((x.index(), y.index()), (0, 1));
        assert_eq!(p.sense(), Sense::Maximize);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn validate_rejects_empty() {
        let p = Problem::maximize();
        assert_eq!(p.validate(), Err(LpError::Empty));
    }

    #[test]
    fn validate_rejects_unknown_variable() {
        let mut p = Problem::maximize();
        let _x = p.add_var(1.0);
        p.constraints.push(Constraint {
            coeffs: vec![(5, 1.0)],
            relation: Relation::Le,
            rhs: 1.0,
        });
        assert!(matches!(
            p.validate(),
            Err(LpError::UnknownVariable { index: 5, .. })
        ));
    }

    #[test]
    fn validate_rejects_nan() {
        let mut p = Problem::maximize();
        let x = p.add_var(f64::NAN);
        p.add_constraint([(x, 1.0)], Relation::Le, 1.0);
        assert_eq!(
            p.validate(),
            Err(LpError::NonFiniteCoefficient {
                location: "objective coefficient of variable 0".into()
            })
        );
        let mut q = Problem::maximize();
        let x = q.add_var(1.0);
        q.add_constraint([(x, 1.0)], Relation::Le, 1.0);
        q.add_constraint([(x, f64::INFINITY)], Relation::Le, 1.0);
        assert_eq!(
            q.validate(),
            Err(LpError::NonFiniteCoefficient {
                location: "coefficient of variable 0 in row 1".into()
            })
        );
    }

    #[test]
    fn dense_rows_sum_duplicates() {
        let mut p = Problem::maximize();
        let x = p.add_var(1.0);
        p.add_constraint([(x, 1.0), (x, 2.0)], Relation::Le, 3.0);
        let rows = p.dense_rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].0, vec![3.0]);
    }

    #[test]
    fn coefficient_scale_tracks_largest_magnitude() {
        let mut p = Problem::maximize();
        let x = p.add_var(-3.0);
        p.add_constraint([(x, 2.0e6)], Relation::Le, 7.0);
        assert_eq!(p.coefficient_scale(), 2.0e6);
        // Floored at 1 for small instances.
        let mut q = Problem::maximize();
        let y = q.add_var(0.25);
        q.add_constraint([(y, 0.5)], Relation::Le, 0.125);
        assert_eq!(q.coefficient_scale(), 1.0);
    }

    #[test]
    fn eval_and_feasibility() {
        let mut p = Problem::maximize();
        let x = p.add_var(3.0);
        let y = p.add_var(1.0);
        p.add_constraint([(x, 1.0), (y, 1.0)], Relation::Le, 2.0);
        assert_eq!(p.eval_objective(&[1.0, 1.0]), 4.0);
        assert_eq!(p.check_feasible(&[1.0, 1.0], 1e-9), None);
        assert_eq!(
            p.check_feasible(&[3.0, 0.0], 1e-9).as_deref(),
            Some("row 0")
        );
        assert_eq!(
            p.check_feasible(&[1.0, -1.0], 1e-9).as_deref(),
            Some("variable 1")
        );
    }
}
