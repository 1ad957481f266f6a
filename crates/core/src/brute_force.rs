//! Exhaustive scenario search for small platforms.
//!
//! The paper conjectures the general problem (free choice of both
//! permutations) is NP-hard and proves optimality results only for fixed
//! communication schemes. These enumerators provide ground truth on small
//! instances:
//!
//! * [`best_fifo`] — every FIFO order (`p!` LPs), certifying Theorem 1;
//! * [`best_lifo`] — every LIFO order, certifying the companion-paper
//!   characterization;
//! * [`best_scenario`] — every `(σ1, σ2)` pair (`p!²` LPs), probing the
//!   open general problem under the canonical sends-then-returns shape.
//!
//! All enumeration is over *full* permutations of the worker set: the LP
//! performs resource selection by zeroing loads, so subsets need not be
//! enumerated separately.

use dls_platform::{Platform, WorkerId};

use crate::error::CoreError;
use crate::lp_model::{solve_fifo, solve_scenario, LpSchedule};
use crate::schedule::PortModel;

/// Maximum workers for single-permutation enumeration (`8! = 40320` LPs).
pub const MAX_SINGLE_PERM: usize = 8;
/// Maximum workers for permutation-pair enumeration (`5!² = 14400` LPs).
pub const MAX_PAIR_PERM: usize = 5;

/// Iterator over all permutations of `0..n` (Heap's algorithm,
/// non-recursive).
pub struct Permutations {
    items: Vec<usize>,
    counters: Vec<usize>,
    depth: usize,
    first: bool,
}

impl Permutations {
    /// All permutations of `0..n`.
    pub fn new(n: usize) -> Self {
        Permutations {
            items: (0..n).collect(),
            counters: vec![0; n],
            depth: 0,
            first: true,
        }
    }
}

impl Iterator for Permutations {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        if self.first {
            self.first = false;
            return Some(self.items.clone());
        }
        let n = self.items.len();
        while self.depth < n {
            if self.counters[self.depth] < self.depth {
                if self.depth.is_multiple_of(2) {
                    self.items.swap(0, self.depth);
                } else {
                    self.items.swap(self.counters[self.depth], self.depth);
                }
                self.counters[self.depth] += 1;
                self.depth = 0;
                return Some(self.items.clone());
            }
            self.counters[self.depth] = 0;
            self.depth += 1;
        }
        None
    }
}

fn to_ids(perm: &[usize]) -> Vec<WorkerId> {
    perm.iter().map(|&i| WorkerId(i)).collect()
}

/// Result of an exhaustive search.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// The best scenario found.
    pub best: LpSchedule,
    /// Number of scenarios (LPs) evaluated.
    pub evaluated: usize,
}

fn search<I>(scenarios: I) -> Option<SearchResult>
where
    I: Iterator<Item = Result<LpSchedule, CoreError>>,
{
    let mut best: Option<LpSchedule> = None;
    let mut evaluated = 0;
    for sol in scenarios {
        let sol = sol.ok()?;
        evaluated += 1;
        if best
            .as_ref()
            .map(|b| sol.throughput > b.throughput)
            .unwrap_or(true)
        {
            best = Some(sol);
        }
    }
    best.map(|best| SearchResult { best, evaluated })
}

/// Exhaustive best FIFO schedule under `model` (all `p!` orders).
pub fn best_fifo(platform: &Platform, model: PortModel) -> Result<SearchResult, CoreError> {
    let p = platform.num_workers();
    if p > MAX_SINGLE_PERM {
        return Err(CoreError::TooManyWorkers {
            got: p,
            limit: MAX_SINGLE_PERM,
        });
    }
    search(Permutations::new(p).map(|perm| solve_fifo(platform, &to_ids(&perm), model)))
        .ok_or_else(|| CoreError::MalformedOrder("search produced no scenario".into()))
}

/// Exhaustive best LIFO schedule under `model`.
pub fn best_lifo(platform: &Platform, model: PortModel) -> Result<SearchResult, CoreError> {
    let p = platform.num_workers();
    if p > MAX_SINGLE_PERM {
        return Err(CoreError::TooManyWorkers {
            got: p,
            limit: MAX_SINGLE_PERM,
        });
    }
    search(Permutations::new(p).map(|perm| {
        let order = to_ids(&perm);
        let rev: Vec<WorkerId> = order.iter().rev().copied().collect();
        solve_scenario(platform, &order, &rev, model)
    }))
    .ok_or_else(|| CoreError::MalformedOrder("search produced no scenario".into()))
}

/// Exhaustive best over every `(σ1, σ2)` pair under the canonical
/// sends-then-returns structure.
pub fn best_scenario(platform: &Platform, model: PortModel) -> Result<SearchResult, CoreError> {
    let p = platform.num_workers();
    if p > MAX_PAIR_PERM {
        return Err(CoreError::TooManyWorkers {
            got: p,
            limit: MAX_PAIR_PERM,
        });
    }
    let perms: Vec<Vec<usize>> = Permutations::new(p).collect();
    search(perms.iter().flat_map(|s1| {
        let s1 = to_ids(s1);
        perms.iter().map(move |s2| {
            let s2 = to_ids(s2);
            solve_scenario(platform, &s1, &s2, model)
        })
    }))
    .ok_or_else(|| CoreError::MalformedOrder("search produced no scenario".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fifo::optimal_fifo;
    use crate::lifo::optimal_lifo;

    fn star(z: f64, cw: &[(f64, f64)]) -> Platform {
        Platform::star_with_z(cw, z).unwrap()
    }

    #[test]
    fn permutations_count_and_uniqueness() {
        for n in 1..=5 {
            let mut seen: Vec<Vec<usize>> = Permutations::new(n).collect();
            let total = seen.len();
            seen.sort();
            seen.dedup();
            assert_eq!(seen.len(), total, "duplicates for n={n}");
            assert_eq!(total, (1..=n).product::<usize>(), "wrong count for n={n}");
        }
    }

    #[test]
    fn permutations_of_zero_and_one() {
        assert_eq!(Permutations::new(0).count(), 1); // the empty permutation
        let one: Vec<_> = Permutations::new(1).collect();
        assert_eq!(one, vec![vec![0]]);
    }

    #[test]
    fn theorem1_certified_on_small_star() {
        // Exhaustive FIFO search must agree with the INC_C optimum (z < 1).
        let p = star(0.5, &[(2.0, 1.0), (1.0, 3.0), (3.0, 0.5), (1.5, 2.0)]);
        let exhaustive = best_fifo(&p, PortModel::OnePort).unwrap();
        assert_eq!(exhaustive.evaluated, 24);
        let thm = optimal_fifo(&p).unwrap();
        assert!(
            (exhaustive.best.throughput - thm.throughput).abs() < 1e-7,
            "Theorem 1 violated: brute {} vs theorem {}",
            exhaustive.best.throughput,
            thm.throughput
        );
    }

    #[test]
    fn theorem1_certified_for_z_greater_one() {
        let p = star(2.0, &[(2.0, 1.0), (1.0, 3.0), (1.5, 0.5)]);
        let exhaustive = best_fifo(&p, PortModel::OnePort).unwrap();
        let thm = optimal_fifo(&p).unwrap();
        assert!((exhaustive.best.throughput - thm.throughput).abs() < 1e-7);
    }

    #[test]
    fn lifo_characterization_certified() {
        let p = star(0.5, &[(2.0, 1.0), (1.0, 3.0), (3.0, 0.5)]);
        let exhaustive = best_lifo(&p, PortModel::OnePort).unwrap();
        let inc_c = optimal_lifo(&p).unwrap();
        assert!(
            (exhaustive.best.throughput - inc_c.throughput).abs() < 1e-7,
            "LIFO INC_C not optimal: brute {} vs inc_c {}",
            exhaustive.best.throughput,
            inc_c.throughput
        );
    }

    #[test]
    fn pair_search_dominates_fifo_and_lifo() {
        let p = star(0.5, &[(2.0, 1.0), (1.0, 3.0), (1.5, 0.8)]);
        let pairs = best_scenario(&p, PortModel::OnePort).unwrap();
        assert_eq!(pairs.evaluated, 36);
        let fifo = best_fifo(&p, PortModel::OnePort).unwrap();
        let lifo = best_lifo(&p, PortModel::OnePort).unwrap();
        assert!(pairs.best.throughput >= fifo.best.throughput - 1e-9);
        assert!(pairs.best.throughput >= lifo.best.throughput - 1e-9);
    }

    #[test]
    fn guards_reject_large_platforms() {
        let p = star(0.5, &[(1.0, 1.0); 9]);
        assert!(matches!(
            best_fifo(&p, PortModel::OnePort),
            Err(CoreError::TooManyWorkers { .. })
        ));
        let p = star(0.5, &[(1.0, 1.0); 6]);
        assert!(matches!(
            best_scenario(&p, PortModel::OnePort),
            Err(CoreError::TooManyWorkers { .. })
        ));
    }
}
