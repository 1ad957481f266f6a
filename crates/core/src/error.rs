//! Error type for the scheduling library.

use core::fmt;

use dls_lp::LpError;
use dls_platform::PlatformError;

/// Errors raised by schedule construction and optimization.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// Underlying platform was invalid.
    Platform(PlatformError),
    /// The LP solver failed (should not happen for well-formed scheduling
    /// LPs: the zero schedule is always feasible and throughput is bounded).
    Lp(LpError),
    /// The requested optimality result (Theorem 1 / Theorem 2) requires all
    /// workers to share the ratio `z = d/c`, which this platform does not.
    NotZTied,
    /// The requested closed form requires a bus platform (`ci = c`,
    /// `di = d`).
    NotABus,
    /// Exhaustive search was requested on a platform too large to enumerate.
    TooManyWorkers {
        /// Workers in the platform.
        got: usize,
        /// Enumeration limit for this routine.
        limit: usize,
    },
    /// An order contained duplicate or out-of-range worker ids, or the send
    /// and return orders enrolled different sets.
    MalformedOrder(String),
    /// A multi-round plan asked for more installments than the expanded
    /// virtual platform supports (the round count times the worker count is
    /// capped to keep scenario LPs tractable).
    TooManyRounds {
        /// Requested installment rounds.
        rounds: usize,
        /// Maximum supported for this platform size.
        limit: usize,
    },
    /// The pre-solve static analyzer ([`dls_lp::analyze`]) found
    /// error-severity diagnostics in a schedule model about to be lowered —
    /// a structural bug in the builder that produced it. Carries the
    /// rendered [`dls_lp::AnalysisReport`], which names each offending row
    /// by its kind and position (`one_port[0]`) and gives its
    /// [`dls_lp::RowKind`]. Raised only in debug builds, where
    /// [`crate::lp_model::analyze_gate`] runs.
    InvalidModel(String),
    /// A pinned interleaved-master lead exceeds the platform's enrollment:
    /// the merge family only defines leads `1..=q`, so
    /// `interleaved_fifo@<lead>` does not apply to smaller platforms
    /// (silently clamping would mislabel the canonical merge's result).
    LeadBeyondEnrollment {
        /// The pinned lead.
        lead: usize,
        /// Enrolled workers (= the largest valid lead).
        enrolled: usize,
    },
}

impl CoreError {
    /// `true` when the error means a strategy simply *does not apply* to
    /// the platform at hand (wrong family, too large for exhaustive
    /// search) — the benign class that batch runners may record as a skip.
    /// Everything else (LP failures, malformed orders, invalid platforms)
    /// is a bug in the caller or the solver and should stay loud. New
    /// applicability-style variants must be added here so every batch
    /// runner classifies them consistently.
    pub fn is_applicability(&self) -> bool {
        matches!(
            self,
            CoreError::NotABus
                | CoreError::NotZTied
                | CoreError::TooManyWorkers { .. }
                | CoreError::TooManyRounds { .. }
                | CoreError::LeadBeyondEnrollment { .. }
        )
    }
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Platform(e) => write!(f, "platform error: {e}"),
            CoreError::Lp(e) => write!(f, "LP solver error: {e}"),
            CoreError::NotZTied => {
                write!(f, "workers do not share a common ratio z = d/c")
            }
            CoreError::NotABus => write!(f, "platform is not a bus network"),
            CoreError::TooManyWorkers { got, limit } => write!(
                f,
                "exhaustive search limited to {limit} workers, platform has {got}"
            ),
            CoreError::MalformedOrder(msg) => write!(f, "malformed order: {msg}"),
            CoreError::TooManyRounds { rounds, limit } => write!(
                f,
                "multi-round plan limited to {limit} rounds on this platform, requested {rounds}"
            ),
            CoreError::InvalidModel(report) => {
                write!(f, "schedule model failed static analysis: {report}")
            }
            CoreError::LeadBeyondEnrollment { lead, enrolled } => write!(
                f,
                "interleaved lead {lead} exceeds the {enrolled}-worker enrollment \
                 (valid leads are 1..={enrolled})"
            ),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Platform(e) => Some(e),
            CoreError::Lp(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PlatformError> for CoreError {
    fn from(e: PlatformError) -> Self {
        CoreError::Platform(e)
    }
}

impl From<LpError> for CoreError {
    fn from(e: LpError) -> Self {
        CoreError::Lp(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: CoreError = LpError::Infeasible.into();
        assert!(e.to_string().contains("infeasible"));
        let e: CoreError = PlatformError::Empty.into();
        assert!(e.to_string().contains("no workers"));
        assert!(CoreError::NotZTied.to_string().contains('z'));
        let e = CoreError::TooManyWorkers { got: 12, limit: 8 };
        assert!(e.to_string().contains("12"));
    }

    #[test]
    fn applicability_classification() {
        assert!(CoreError::NotABus.is_applicability());
        assert!(CoreError::NotZTied.is_applicability());
        assert!(CoreError::TooManyWorkers { got: 9, limit: 8 }.is_applicability());
        assert!(CoreError::TooManyRounds {
            rounds: 4096,
            limit: 512
        }
        .is_applicability());
        assert!(CoreError::LeadBeyondEnrollment {
            lead: 9,
            enrolled: 4
        }
        .is_applicability());
        assert!(!CoreError::from(LpError::Infeasible).is_applicability());
        assert!(!CoreError::MalformedOrder("dup".into()).is_applicability());
        assert!(!CoreError::InvalidModel("dup row".into()).is_applicability());
        assert!(!CoreError::from(PlatformError::Empty).is_applicability());
    }

    #[test]
    fn source_chains() {
        use std::error::Error;
        let e: CoreError = LpError::Unbounded.into();
        assert!(e.source().is_some());
        assert!(CoreError::NotABus.source().is_none());
    }
}
