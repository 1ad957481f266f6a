//! Schedule description: orders, loads and derived quantities.
//!
//! Following Section 2.2 of the paper, a one-round divisible-load schedule
//! is fully described by
//!
//! * `σ1` — the order in which the master sends initial data,
//! * `σ2` — the order in which it receives result messages,
//! * `α_i` — the load assigned to each worker,
//!
//! plus idle times `x_i` which are *derived* here (by the timeline
//! construction in [`crate::timeline`]) rather than stored: for fixed
//! orders and loads the earliest-feasible timing is unique.

use dls_platform::{Platform, WorkerId};

use crate::error::CoreError;

/// Load tolerance: LP outputs below this are treated as "not enrolled".
pub const LOAD_EPS: f64 = 1e-9;

/// Communication model for the master's port(s) (Section 2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortModel {
    /// The master is engaged in at most one communication (send *or*
    /// receive) at any time — the model of this paper.
    OnePort,
    /// The master can send to one worker and simultaneously receive from
    /// another — the model of the companion paper \[7, 8\].
    TwoPort,
}

/// Checks that `send_order` and `return_order` are permutations of the
/// same set of in-range workers — the order validation of
/// [`Schedule::new`], shared with the LP builders so they need no
/// throwaway schedule.
pub(crate) fn check_orders(
    platform: &Platform,
    send_order: &[WorkerId],
    return_order: &[WorkerId],
) -> Result<(), CoreError> {
    let p = platform.num_workers();
    let mut enrolled = [vec![false; p], vec![false; p]];
    for (order, seen) in [send_order, return_order].into_iter().zip(&mut enrolled) {
        for id in order {
            if id.index() >= p {
                return Err(CoreError::MalformedOrder(format!(
                    "{id} out of range for {p} workers"
                )));
            }
            if seen[id.index()] {
                return Err(CoreError::MalformedOrder(format!("{id} appears twice")));
            }
            seen[id.index()] = true;
        }
    }
    if enrolled[0] != enrolled[1] {
        return Err(CoreError::MalformedOrder(
            "send and return orders enroll different worker sets".into(),
        ));
    }
    Ok(())
}

/// A complete one-round schedule on a platform.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Send order `σ1` (worker ids; a permutation of the considered set).
    send_order: Vec<WorkerId>,
    /// Return order `σ2` (same id set as `send_order`).
    return_order: Vec<WorkerId>,
    /// Load per worker, indexed by `WorkerId::index()` over the *platform*
    /// (workers absent from the orders, or with negligible load, carry 0).
    loads: Vec<f64>,
}

impl Schedule {
    /// Builds a schedule, validating that the orders are permutations of
    /// the same worker set, ids are in range, and loads are non-negative.
    pub fn new(
        platform: &Platform,
        send_order: Vec<WorkerId>,
        return_order: Vec<WorkerId>,
        loads: Vec<f64>,
    ) -> Result<Self, CoreError> {
        let p = platform.num_workers();
        if loads.len() != p {
            return Err(CoreError::MalformedOrder(format!(
                "loads has {} entries for {p} workers",
                loads.len()
            )));
        }
        check_orders(platform, &send_order, &return_order)?;
        for (i, &l) in loads.iter().enumerate() {
            if !l.is_finite() || l < -LOAD_EPS {
                return Err(CoreError::MalformedOrder(format!(
                    "negative or non-finite load {l} for P{}",
                    i + 1
                )));
            }
        }
        let loads = loads.into_iter().map(|l| l.max(0.0)).collect();
        Ok(Schedule {
            send_order,
            return_order,
            loads,
        })
    }

    /// FIFO schedule: results return in the order data was sent
    /// (`σ2 = σ1`).
    pub fn fifo(
        platform: &Platform,
        order: Vec<WorkerId>,
        loads: Vec<f64>,
    ) -> Result<Self, CoreError> {
        let ret = order.clone();
        Self::new(platform, order, ret, loads)
    }

    /// LIFO schedule: results return in the reverse of the send order
    /// (`σ2 = σ1^R`).
    pub fn lifo(
        platform: &Platform,
        order: Vec<WorkerId>,
        loads: Vec<f64>,
    ) -> Result<Self, CoreError> {
        let ret: Vec<WorkerId> = order.iter().rev().copied().collect();
        Self::new(platform, order, ret, loads)
    }

    /// The send order `σ1`.
    pub fn send_order(&self) -> &[WorkerId] {
        &self.send_order
    }

    /// The return order `σ2`.
    pub fn return_order(&self) -> &[WorkerId] {
        &self.return_order
    }

    /// Load per worker (platform indexing).
    pub fn loads(&self) -> &[f64] {
        &self.loads
    }

    /// Load of one worker.
    pub fn load(&self, id: WorkerId) -> f64 {
        self.loads[id.index()]
    }

    /// Total load `Σ α_i` — the throughput when the schedule fits in
    /// `T = 1`.
    pub fn total_load(&self) -> f64 {
        self.loads.iter().sum()
    }

    /// Ids of workers that actually process load (`α_i > LOAD_EPS`), in
    /// send order.
    pub fn participants(&self) -> Vec<WorkerId> {
        self.send_order
            .iter()
            .copied()
            .filter(|id| self.loads[id.index()] > LOAD_EPS)
            .collect()
    }

    /// `true` when `σ2 = σ1` after dropping non-participants.
    pub fn is_fifo(&self) -> bool {
        let s = self.participants();
        let r: Vec<WorkerId> = self
            .return_order
            .iter()
            .copied()
            .filter(|id| self.loads[id.index()] > LOAD_EPS)
            .collect();
        s == r
    }

    /// `true` when `σ2 = σ1^R` after dropping non-participants.
    pub fn is_lifo(&self) -> bool {
        let s = self.participants();
        let mut r: Vec<WorkerId> = self
            .return_order
            .iter()
            .copied()
            .filter(|id| self.loads[id.index()] > LOAD_EPS)
            .collect();
        r.reverse();
        s == r
    }

    /// Returns a copy with every load scaled by `k` (the linear cost model
    /// makes schedules scale-invariant: timing scales by the same factor).
    pub fn scaled(&self, k: f64) -> Schedule {
        Schedule {
            send_order: self.send_order.clone(),
            return_order: self.return_order.clone(),
            loads: self.loads.iter().map(|l| l * k).collect(),
        }
    }

    /// Returns a copy with the given integer loads (platform indexing),
    /// preserving the orders. Used after [`crate::rounding`].
    pub fn with_loads(&self, loads: Vec<f64>) -> Schedule {
        assert_eq!(loads.len(), self.loads.len());
        Schedule {
            send_order: self.send_order.clone(),
            return_order: self.return_order.clone(),
            loads,
        }
    }

    /// Mirror image (Section 3, `z > 1` reduction): time reversal swaps the
    /// roles of sends and returns, so `σ1' = reverse(σ2)`,
    /// `σ2' = reverse(σ1)`; loads are unchanged. A schedule feasible on `P`
    /// within `T` is mirrored into one feasible on `P.mirror()` within `T`.
    pub fn mirror(&self) -> Schedule {
        Schedule {
            send_order: self.return_order.iter().rev().copied().collect(),
            return_order: self.send_order.iter().rev().copied().collect(),
            loads: self.loads.clone(),
        }
    }
}

#[cfg(test)]
// Unit tests assert exact outcomes of exact arithmetic.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    fn platform() -> Platform {
        Platform::star_with_z(&[(1.0, 2.0), (2.0, 3.0), (3.0, 4.0)], 0.5).unwrap()
    }

    fn ids(v: &[usize]) -> Vec<WorkerId> {
        v.iter().map(|&i| WorkerId(i)).collect()
    }

    #[test]
    fn fifo_and_lifo_constructors() {
        let p = platform();
        let f = Schedule::fifo(&p, ids(&[0, 1, 2]), vec![1.0, 1.0, 1.0]).unwrap();
        assert!(f.is_fifo());
        assert!(!f.is_lifo());
        let l = Schedule::lifo(&p, ids(&[0, 1, 2]), vec![1.0, 1.0, 1.0]).unwrap();
        assert!(l.is_lifo());
        assert!(!l.is_fifo());
        assert_eq!(l.return_order(), &ids(&[2, 1, 0])[..]);
    }

    #[test]
    fn single_worker_is_both_fifo_and_lifo() {
        let p = platform();
        let s = Schedule::fifo(&p, ids(&[1]), vec![0.0, 2.0, 0.0]).unwrap();
        assert!(s.is_fifo());
        assert!(s.is_lifo());
    }

    #[test]
    fn validation_rejects_duplicates_and_out_of_range() {
        let p = platform();
        assert!(matches!(
            Schedule::fifo(&p, ids(&[0, 0]), vec![1.0, 1.0, 0.0]),
            Err(CoreError::MalformedOrder(_))
        ));
        assert!(matches!(
            Schedule::fifo(&p, ids(&[7]), vec![1.0, 0.0, 0.0]),
            Err(CoreError::MalformedOrder(_))
        ));
        assert!(matches!(
            Schedule::new(&p, ids(&[0]), ids(&[1]), vec![1.0, 0.0, 0.0]),
            Err(CoreError::MalformedOrder(_))
        ));
        assert!(matches!(
            Schedule::fifo(&p, ids(&[0]), vec![1.0]),
            Err(CoreError::MalformedOrder(_))
        ));
        assert!(matches!(
            Schedule::fifo(&p, ids(&[0, 1, 2]), vec![1.0, -3.0, 0.0]),
            Err(CoreError::MalformedOrder(_))
        ));
    }

    #[test]
    fn participants_filter_zero_loads() {
        let p = platform();
        let s = Schedule::fifo(&p, ids(&[2, 0, 1]), vec![1.0, 0.0, 2.0]).unwrap();
        assert_eq!(s.participants(), ids(&[2, 0]));
        assert_eq!(s.total_load(), 3.0);
        assert_eq!(s.load(WorkerId(2)), 2.0);
    }

    #[test]
    fn fifo_check_ignores_idle_workers() {
        // Return order differs only in a zero-load worker's position: still
        // FIFO in effect.
        let p = platform();
        let s = Schedule::new(&p, ids(&[0, 1, 2]), ids(&[1, 0, 2]), vec![1.0, 0.0, 1.0]).unwrap();
        assert!(s.is_fifo());
    }

    #[test]
    fn scaling_scales_loads() {
        let p = platform();
        let s = Schedule::fifo(&p, ids(&[0, 1, 2]), vec![1.0, 2.0, 3.0]).unwrap();
        let t = s.scaled(0.5);
        assert_eq!(t.total_load(), 3.0);
        assert_eq!(t.send_order(), s.send_order());
    }

    #[test]
    fn mirror_swaps_orders_and_is_involutive() {
        let p = platform();
        let s = Schedule::new(&p, ids(&[0, 1, 2]), ids(&[1, 2, 0]), vec![1.0, 2.0, 3.0]).unwrap();
        let m = s.mirror();
        assert_eq!(m.send_order(), &ids(&[0, 2, 1])[..]);
        assert_eq!(m.return_order(), &ids(&[2, 1, 0])[..]);
        assert_eq!(m.mirror(), s);
    }

    #[test]
    fn mirror_of_fifo_is_fifo() {
        let p = platform();
        let s = Schedule::fifo(&p, ids(&[2, 1, 0]), vec![1.0, 1.0, 1.0]).unwrap();
        assert!(s.mirror().is_fifo());
        let l = Schedule::lifo(&p, ids(&[0, 1, 2]), vec![1.0, 1.0, 1.0]).unwrap();
        assert!(l.mirror().is_lifo());
        // LIFO mirrors onto the *same* send order.
        assert_eq!(l.mirror().send_order(), l.send_order());
    }

    #[test]
    fn tiny_negative_loads_clamped() {
        let p = platform();
        let s = Schedule::fifo(&p, ids(&[0, 1, 2]), vec![1.0, -1e-12, 0.0]).unwrap();
        assert_eq!(s.load(WorkerId(1)), 0.0);
    }
}
