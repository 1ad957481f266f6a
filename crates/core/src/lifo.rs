//! Optimal one-port LIFO schedules, in closed form.
//!
//! In a LIFO schedule the first-served worker returns its results *last*
//! (`σ2 = σ1` reversed). The companion papers \[7, 8\] characterize the
//! optimal *two-port* LIFO schedule: all workers participate, served by
//! non-decreasing `c_i`, with no idle time. Section 5 of RR-5738 observes
//! that this schedule "is indeed a one-port schedule": in any canonical
//! LIFO execution the first return belongs to the last-served worker, whose
//! computation only starts after every send has completed — so returns can
//! never overlap sends and the one-port constraint (2b) is automatically
//! satisfied. Consequently the two-port LIFO optimum *is* the one-port LIFO
//! optimum.
//!
//! With every deadline tight and no idle time, consecutive deadline rows
//! of the LIFO scenario LP give the load chain
//!
//! ```text
//! α_1 (c_1 + w_1 + d_1) = 1,
//! α_{i+1} (c_{i+1} + w_{i+1} + d_{i+1}) = α_i · w_i,
//! ```
//!
//! so [`optimal_lifo`] answers in `O(p)`, with no LP. The chain is the
//! optimum because `c + d` grows along the `c`-sorted order, which a
//! `z`-tied platform (`d = z·c`) guarantees; elsewhere [`optimal_lifo`]
//! refuses the platform. The LIFO scenario LP ([`crate::lp_model`], returns
//! in reverse send order) stays the oracle: the tests compare the two on
//! random `z`-tied stars and buses, exhaustive search
//! ([`crate::brute_force::best_lifo`]) solves every LIFO order with it, and
//! [`crate::Scheduler::solve_exact`] re-solves the chosen scenario in
//! exact arithmetic.
//!
//! The mirror argument shows the same send order remains optimal for
//! `z > 1`: time-reversing a LIFO schedule yields a LIFO schedule with the
//! *same* send order on the mirrored platform.

use dls_platform::Platform;

use crate::error::CoreError;
use crate::schedule::Schedule;

/// The optimal one-port LIFO schedule and its throughput.
#[derive(Debug, Clone)]
pub struct LifoSolution {
    /// Every worker enrolled, sent to by non-decreasing `c`, returning in
    /// the reverse order.
    pub schedule: Schedule,
    /// Optimal LIFO throughput `ρ = Σ α_i` for `T = 1`.
    pub throughput: f64,
}

/// Computes the optimal one-port LIFO schedule (all workers, served by
/// non-decreasing `c`) from the load chain of the module docs. Each call
/// counts once in the `closed_form.solves` metric.
///
/// Errors with [`CoreError::NotZTied`] when the platform is not `z`-tied:
/// there the chain can fall far below the LIFO scenario's LP optimum.
pub fn optimal_lifo(platform: &Platform) -> Result<LifoSolution, CoreError> {
    platform.common_z().ok_or(CoreError::NotZTied)?;
    let order = platform.order_by_c();
    let mut loads = vec![0.0; platform.num_workers()];
    let mut throughput = 0.0;
    // Right-hand side of the next chain equation: 1, then α_i · w_i.
    let mut rhs = 1.0;
    for &id in &order {
        let w = platform.worker(id);
        let alpha = rhs / (w.c + w.w + w.d);
        loads[id.index()] = alpha;
        throughput += alpha;
        rhs = alpha * w.w;
    }
    dls_obs::counter!("closed_form.solves").incr();
    Ok(LifoSolution {
        schedule: Schedule::lifo(platform, order, loads)?,
        throughput,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lp_model::solve_lifo;
    use crate::schedule::PortModel;
    use crate::testkit::z_tied;
    use crate::timeline::Timeline;
    use dls_platform::{Worker, WorkerId};
    use proptest::prelude::*;

    fn star(z: f64, cw: &[(f64, f64)]) -> Platform {
        Platform::star_with_z(cw, z).unwrap()
    }

    proptest! {
        /// The LIFO scenario LP over the `c`-sorted order is the oracle of
        /// the closed form: same throughput, same loads, and a tight,
        /// feasible, idle-free schedule with every worker enrolled.
        #[test]
        fn closed_form_matches_the_lifo_lp(p in z_tied(12)) {
            let cf = optimal_lifo(&p).unwrap();
            let lp = solve_lifo(&p, &p.order_by_c(), PortModel::OnePort).unwrap();
            prop_assert!(
                (cf.throughput - lp.throughput).abs() <= 1e-9 * lp.throughput,
                "closed form {} vs LP {}", cf.throughput, lp.throughput
            );
            prop_assert_eq!(cf.schedule.send_order(), lp.schedule.send_order());
            prop_assert_eq!(cf.schedule.return_order(), lp.schedule.return_order());
            let largest = cf.schedule.loads().iter().copied().fold(0.0, f64::max);
            for id in p.ids() {
                let (a, b) = (cf.schedule.load(id), lp.schedule.load(id));
                prop_assert!(a > 0.0, "{} gets no load", id);
                prop_assert!((a - b).abs() <= 1e-9 * largest, "{}: {} vs LP {}", id, a, b);
            }
            let t = Timeline::build(&p, &cf.schedule, PortModel::OnePort);
            let violations = t.verify(&p, &cf.schedule, 1e-7);
            prop_assert!(violations.is_empty(), "{:?}", violations);
            prop_assert!((t.makespan() - 1.0).abs() <= 1e-7, "makespan {}", t.makespan());
            for e in t.entries() {
                prop_assert!(e.idle < 1e-7, "{} idles {}", e.worker, e.idle);
            }
        }
    }

    #[test]
    fn optimal_lifo_is_lifo_and_feasible() {
        let p = star(0.5, &[(2.0, 1.0), (1.0, 3.0), (1.5, 2.0)]);
        let sol = optimal_lifo(&p).unwrap();
        assert!(sol.schedule.is_lifo());
        let t = Timeline::build(&p, &sol.schedule, PortModel::OnePort);
        assert!(t.verify(&p, &sol.schedule, 1e-7).is_empty());
        assert!(t.makespan() <= 1.0 + 1e-7);
    }

    #[test]
    fn one_port_equals_two_port_for_lifo() {
        // The (2b) constraint is implied for canonical LIFO schedules, so
        // both models give the same optimum.
        let p = star(0.5, &[(2.0, 1.0), (1.0, 3.0), (1.5, 2.0), (0.7, 4.0)]);
        let order = p.order_by_c();
        let one = solve_lifo(&p, &order, PortModel::OnePort).unwrap();
        let two = solve_lifo(&p, &order, PortModel::TwoPort).unwrap();
        assert!(
            (one.throughput - two.throughput).abs() < 1e-7,
            "LIFO one-port {} != two-port {}",
            one.throughput,
            two.throughput
        );
    }

    #[test]
    fn lifo_enrolls_all_workers() {
        // Companion-paper result: the optimal LIFO uses every worker — even
        // ones with slow links get a (possibly small) share.
        let p = star(0.5, &[(0.1, 1.0), (0.1, 1.0), (20.0, 1.0)]);
        let sol = optimal_lifo(&p).unwrap();
        assert!(
            sol.schedule.load(WorkerId(2)) > 0.0,
            "LIFO dropped a worker; loads = {:?}",
            sol.schedule.loads()
        );
    }

    #[test]
    fn lifo_send_order_is_inc_c_even_for_large_z() {
        let p = star(2.5, &[(2.0, 1.0), (1.0, 3.0)]);
        let sol = optimal_lifo(&p).unwrap();
        assert_eq!(sol.schedule.send_order(), &[WorkerId(1), WorkerId(0)]);
        assert!(sol.schedule.is_lifo());
    }

    #[test]
    fn platforms_that_are_not_z_tied_are_refused() {
        // The chain would report 0.1212 here; the LIFO LP over the same
        // order drops the slow-return worker P1 and reaches 1/2.2 = 0.4545.
        let p = Platform::new(vec![
            Worker::new(1.0, 1.0, 10.0),
            Worker::new(2.0, 0.1, 0.1),
        ])
        .unwrap();
        assert_eq!(optimal_lifo(&p).unwrap_err(), CoreError::NotZTied);
        let lp = solve_lifo(&p, &p.order_by_c(), PortModel::OnePort).unwrap();
        assert!((lp.throughput - 1.0 / 2.2).abs() < 1e-9);
    }

    #[test]
    fn every_closed_form_answer_is_counted() {
        // `closed_form.solves` counts answers that never reach the LP
        // router; other tests may add to it concurrently.
        let p = star(0.5, &[(2.0, 1.0), (1.0, 3.0)]);
        let solves = || dls_obs::counter!("closed_form.solves").value();
        let before = solves();
        optimal_lifo(&p).unwrap();
        optimal_lifo(&p).unwrap();
        assert!(solves() >= before + 2);
    }
}
