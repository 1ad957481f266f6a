//! Error types for LP construction and solving.

use core::fmt;

/// Errors raised while building or solving a linear program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LpError {
    /// The constraint system admits no feasible point.
    Infeasible,
    /// The objective is unbounded above (for maximization) on the feasible
    /// region.
    Unbounded,
    /// The pivot loop exceeded its iteration budget; the instance is likely
    /// degenerate beyond what the anti-cycling safeguards handle, or the
    /// budget is too small.
    IterationLimit {
        /// Number of pivots performed before giving up.
        iterations: usize,
    },
    /// A constraint referenced a variable index that was never declared.
    UnknownVariable {
        /// The offending index.
        index: usize,
        /// Number of declared variables.
        declared: usize,
    },
    /// A coefficient or right-hand side was NaN/infinite.
    NonFiniteCoefficient {
        /// Human-readable location of the bad value.
        location: String,
    },
    /// The problem has no variables.
    Empty,
    /// The revised solver's basis matrix could not be factorized (singular
    /// at the working tolerance). A cold start never produces this — the
    /// initial slack/artificial basis is an identity — so it signals a
    /// numerically collapsed instance.
    SingularBasis,
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpError::Infeasible => write!(f, "linear program is infeasible"),
            LpError::Unbounded => write!(f, "linear program is unbounded"),
            LpError::IterationLimit { iterations } => {
                write!(f, "simplex exceeded iteration budget ({iterations} pivots)")
            }
            LpError::UnknownVariable { index, declared } => write!(
                f,
                "constraint references variable #{index} but only {declared} are declared"
            ),
            LpError::NonFiniteCoefficient { location } => {
                write!(f, "non-finite coefficient at {location}")
            }
            LpError::Empty => write!(f, "linear program has no variables"),
            LpError::SingularBasis => {
                write!(f, "basis matrix is singular at the working tolerance")
            }
        }
    }
}

impl std::error::Error for LpError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        assert!(LpError::Infeasible.to_string().contains("infeasible"));
        assert!(LpError::Unbounded.to_string().contains("unbounded"));
        assert!(LpError::IterationLimit { iterations: 7 }
            .to_string()
            .contains('7'));
        let e = LpError::UnknownVariable {
            index: 9,
            declared: 3,
        };
        assert!(e.to_string().contains("#9"));
        assert!(e.to_string().contains('3'));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&LpError::Empty);
    }
}
