//! Worker identity and per-worker cost parameters.

use core::fmt;

/// Index of a worker within a [`crate::Platform`].
///
/// Identifies `P_{i+1}` in the paper's numbering (the master is `P0` and
/// owns no id — it has no processing capability, per Section 2.1).
// The derived PartialOrd forwards to usize::partial_cmp, which the
// workspace-wide disallowed-methods ban would otherwise flag.
#[allow(clippy::disallowed_methods)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WorkerId(pub usize);

impl WorkerId {
    /// Zero-based index.
    pub fn index(&self) -> usize {
        self.0
    }
}

impl fmt::Display for WorkerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // One-based in displays to match the paper's P1..Pp.
        write!(f, "P{}", self.0 + 1)
    }
}

/// Linear cost parameters of one worker (Section 2.1 of RR-5738).
///
/// Executing `X` load units on this worker costs `X·w` time units; shipping
/// the input for `X` units from the master costs `X·c`; returning the
/// results costs `X·d`. All three are *costs* (inverse speeds): smaller is
/// faster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Worker {
    /// Communication cost per load unit for the initial (forward) message.
    pub c: f64,
    /// Computation cost per load unit.
    pub w: f64,
    /// Communication cost per load unit for the return message.
    pub d: f64,
}

impl Worker {
    /// Builds a worker from explicit `(c, w, d)` costs.
    pub fn new(c: f64, w: f64, d: f64) -> Self {
        Worker { c, w, d }
    }

    /// Builds a worker whose return cost is tied to the forward cost by the
    /// application constant `z` (`d = z·c`), the regime analyzed by
    /// Theorem 1.
    pub fn with_z(c: f64, w: f64, z: f64) -> Self {
        Worker { c, w, d: z * c }
    }

    /// The ratio `d/c` for this worker (`z` when costs are tied).
    pub fn ratio(&self) -> f64 {
        self.d / self.c
    }

    /// Mirror image: forward and return costs swapped. Used by the `z > 1`
    /// reduction (Section 3): a schedule for the mirrored platform read
    /// backwards in time is a schedule for the original.
    pub fn mirrored(&self) -> Self {
        Worker {
            c: self.d,
            w: self.w,
            d: self.c,
        }
    }
}

#[cfg(test)]
// Unit tests assert exact outcomes of exact arithmetic.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn display_is_one_based() {
        assert_eq!(WorkerId(0).to_string(), "P1");
        assert_eq!(WorkerId(4).to_string(), "P5");
        assert_eq!(WorkerId(2).index(), 2);
    }

    #[test]
    fn with_z_ties_return_cost() {
        let w = Worker::with_z(2.0, 5.0, 0.5);
        assert_eq!(w.d, 1.0);
        assert_eq!(w.ratio(), 0.5);
    }

    #[test]
    fn mirror_is_involutive() {
        let w = Worker::new(2.0, 5.0, 0.75);
        let m = w.mirrored();
        assert_eq!(m.c, 0.75);
        assert_eq!(m.d, 2.0);
        assert_eq!(m.w, 5.0);
        assert_eq!(m.mirrored(), w);
    }
}
