//! Optimal one-port FIFO schedules (Theorem 1 and Proposition 1).
//!
//! Theorem 1: when `d_i = z·c_i` with `0 < z < 1`, there is an optimal
//! one-port FIFO schedule that serves workers in **non-decreasing `c_i`**
//! order, with idle time only on the last enrolled worker. Proposition 1
//! turns this into a polynomial algorithm: sort all `p` workers by `c_i`,
//! solve the LP (2) with every worker enrolled, and read the participating
//! set off the nonzero `α_i` — the LP performs resource selection for free
//! (Section 3: the best FIFO schedule may well *not* involve all workers).
//!
//! The case `z > 1` reduces to `z' = 1/z < 1` by the mirror argument: solve
//! on the mirrored platform (`c` and `d` swapped) and flip the resulting
//! schedule in time, which reverses the send order to non-increasing `c_i`.
//! When `z = 1` the ordering is irrelevant (we keep non-decreasing `c` for
//! determinism).

use dls_platform::{Platform, WorkerId};

use crate::error::CoreError;
use crate::lp_model::{solve_fifo, LpSchedule};
use crate::schedule::PortModel;

/// Computes the optimal one-port FIFO schedule with resource selection.
///
/// Requires all workers to share the ratio `z = d_i / c_i`
/// ([`CoreError::NotZTied`] otherwise); this is the hypothesis of
/// Theorem 1. For arbitrary `d_i`, use [`crate::brute_force::best_fifo`]
/// or solve a chosen order with [`crate::lp_model::solve_fifo`].
pub fn optimal_fifo(platform: &Platform) -> Result<LpSchedule, CoreError> {
    let z = platform.common_z().ok_or(CoreError::NotZTied)?;
    if z <= 1.0 {
        solve_fifo(platform, &platform.order_by_c(), PortModel::OnePort)
    } else {
        // Mirror reduction: the mirrored platform has z' = 1/z < 1.
        let mirrored = platform.mirror();
        let sol = solve_fifo(&mirrored, &mirrored.order_by_c(), PortModel::OnePort)?;
        // Flip the schedule back in time: feasible and optimal on the
        // original platform with the same loads and throughput.
        let schedule = sol.schedule.mirror();
        Ok(LpSchedule {
            schedule,
            throughput: sol.throughput,
            // Idle variables are not time-symmetric; physical idles should
            // be recomputed from the timeline.
            lp_idles: vec![0.0; platform.num_workers()],
            iterations: sol.iterations,
        })
    }
}

/// The send order Theorem 1 prescribes for this platform (`z`-tied):
/// non-decreasing `c` when `z <= 1`, non-increasing `c` when `z > 1`.
pub fn theorem1_order(platform: &Platform) -> Result<Vec<WorkerId>, CoreError> {
    let z = platform.common_z().ok_or(CoreError::NotZTied)?;
    Ok(if z <= 1.0 {
        platform.order_by_c()
    } else {
        platform.order_by_c_desc()
    })
}

/// The paper's `INC_C` heuristic: FIFO over **all** workers sorted by
/// non-decreasing `c` (fast-communicating first), loads from the LP.
/// For `z <= 1` this coincides with the optimal FIFO schedule.
pub fn inc_c_fifo(platform: &Platform) -> Result<LpSchedule, CoreError> {
    solve_fifo(platform, &platform.order_by_c(), PortModel::OnePort)
}

/// The paper's `INC_W` heuristic: FIFO over all workers sorted by
/// non-decreasing `w` (fast-computing first), loads from the LP.
pub fn inc_w_fifo(platform: &Platform) -> Result<LpSchedule, CoreError> {
    solve_fifo(platform, &platform.order_by_w(), PortModel::OnePort)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::{makespan, Timeline};
    use dls_platform::Worker;

    fn star(z: f64, cw: &[(f64, f64)]) -> Platform {
        Platform::star_with_z(cw, z).unwrap()
    }

    #[test]
    fn optimal_fifo_orders_by_c_for_small_z() {
        let p = star(0.5, &[(3.0, 1.0), (1.0, 2.0), (2.0, 1.5)]);
        let sol = optimal_fifo(&p).unwrap();
        assert_eq!(
            sol.schedule.send_order(),
            &[WorkerId(1), WorkerId(2), WorkerId(0)]
        );
        assert!(sol.schedule.is_fifo());
        assert!(sol.throughput > 0.0);
    }

    #[test]
    fn optimal_fifo_fits_unit_horizon_and_verifies() {
        let p = star(0.5, &[(3.0, 1.0), (1.0, 2.0), (2.0, 1.5), (1.2, 0.7)]);
        let sol = optimal_fifo(&p).unwrap();
        let t = Timeline::build(&p, &sol.schedule, PortModel::OnePort);
        assert!(t.verify(&p, &sol.schedule, 1e-7).is_empty());
        assert!((t.makespan() - 1.0).abs() < 1e-7);
    }

    #[test]
    fn z_greater_than_one_uses_mirror() {
        // z = 2: return messages twice the input (e.g. key generation).
        let p = star(2.0, &[(1.0, 1.0), (2.0, 1.0), (0.5, 3.0)]);
        let sol = optimal_fifo(&p).unwrap();
        // Send order must be non-increasing c: P2 (c=2), P1 (c=1), P3 (.5).
        assert_eq!(
            sol.schedule.send_order(),
            &[WorkerId(1), WorkerId(0), WorkerId(2)]
        );
        assert!(sol.schedule.is_fifo());
        // Flipped schedule is feasible on the *original* platform.
        let ms = makespan(&p, &sol.schedule, PortModel::OnePort);
        assert!(ms <= 1.0 + 1e-7, "mirror-flipped schedule overflows: {ms}");
        // Throughput matches directly solving that order.
        let direct = solve_fifo(&p, sol.schedule.send_order(), PortModel::OnePort).unwrap();
        assert!((direct.throughput - sol.throughput).abs() < 1e-7);
    }

    #[test]
    fn mirror_symmetry_of_throughput() {
        // Optimal FIFO throughput is invariant under platform mirroring.
        let p = star(0.4, &[(1.0, 2.0), (3.0, 0.5), (2.0, 2.0)]);
        let a = optimal_fifo(&p).unwrap().throughput;
        let b = optimal_fifo(&p.mirror()).unwrap().throughput;
        assert!((a - b).abs() < 1e-7, "mirror broke optimality: {a} vs {b}");
    }

    #[test]
    fn z_equal_one_order_does_not_matter() {
        let p = star(1.0, &[(1.0, 2.0), (2.0, 1.0), (1.5, 1.5)]);
        let by_c = solve_fifo(&p, &p.order_by_c(), PortModel::OnePort).unwrap();
        let by_c_desc = solve_fifo(&p, &p.order_by_c_desc(), PortModel::OnePort).unwrap();
        assert!((by_c.throughput - by_c_desc.throughput).abs() < 1e-7);
    }

    #[test]
    fn not_z_tied_is_rejected() {
        let p =
            Platform::new(vec![Worker::new(1.0, 1.0, 0.5), Worker::new(1.0, 1.0, 0.9)]).unwrap();
        assert_eq!(optimal_fifo(&p).unwrap_err(), CoreError::NotZTied);
        assert_eq!(theorem1_order(&p).unwrap_err(), CoreError::NotZTied);
    }

    #[test]
    fn resource_selection_can_drop_workers() {
        // A worker with an extremely slow link should not be enrolled: its
        // messages would eat the whole horizon.
        let p = star(0.5, &[(0.1, 1.0), (0.1, 1.0), (100.0, 1.0)]);
        let sol = optimal_fifo(&p).unwrap();
        assert!(
            sol.schedule.load(WorkerId(2)) < 1e-6,
            "slow-link worker was enrolled with load {}",
            sol.schedule.load(WorkerId(2))
        );
        assert!(sol.schedule.load(WorkerId(0)) > 0.0);
        assert_eq!(sol.schedule.participants().len(), 2);
    }

    #[test]
    fn inc_c_beats_or_matches_inc_w() {
        // Theorem 1 says INC_C is the optimal FIFO ordering (z < 1), so it
        // can never lose to INC_W.
        let p = star(
            0.5,
            &[(3.0, 0.5), (1.0, 5.0), (2.0, 1.0), (1.5, 2.0), (2.5, 0.8)],
        );
        let c = inc_c_fifo(&p).unwrap();
        let w = inc_w_fifo(&p).unwrap();
        assert!(c.throughput >= w.throughput - 1e-9);
    }

    #[test]
    fn theorem1_order_directions() {
        let p = star(0.5, &[(2.0, 1.0), (1.0, 1.0)]);
        assert_eq!(theorem1_order(&p).unwrap(), vec![WorkerId(1), WorkerId(0)]);
        let p = star(3.0, &[(2.0, 1.0), (1.0, 1.0)]);
        assert_eq!(theorem1_order(&p).unwrap(), vec![WorkerId(0), WorkerId(1)]);
    }
}
