//! The installment planners: uniform, geometric, and LP-backed.
//!
//! All three share the same scaffolding: pick the FIFO send order `σ`
//! (Theorem 1's order when the platform is `z`-tied, the `INC_C` order
//! otherwise), then choose the chunk fractions `f[r][i]`:
//!
//! * [`plan_uniform`] — the naive R-installment baseline: each round is
//!   `1/R` of the one-round LP-optimal loads. Exactly `R` rounds; can
//!   *lose* to one round on communication-bound platforms (the honest
//!   latency/throughput trade-off the sweeps plot).
//! * [`plan_geometric`] — chunks grow geometrically (`f[r] ∝ q^r`) so
//!   early rounds are small (workers start computing almost immediately)
//!   and later rounds are large (amortizing the port). `R` is a *budget*:
//!   the planner grid-searches growth ratios `q` and round counts
//!   `1..=R` against the lowered timeline and keeps the best, so its
//!   makespan is monotone non-increasing in `R` by construction and the
//!   `R = 1` plan is exactly the one-round optimum.
//! * [`plan_lp`] — the optimal canonical-shape R-round plan: the scenario
//!   LP (2) on the [expanded platform](crate::plan::expanded_platform)
//!   with the round-major FIFO pattern — one scenario per round pattern,
//!   solved through [`dls_core::lp_model`]. Because a zero round is
//!   feasible, its makespan is also monotone non-increasing
//!   in `R`, and `R = 1` *is* the one-round optimal FIFO LP.

use dls_core::fifo::theorem1_order;
use dls_core::lp_model::{self, solve_fifo};
use dls_core::{CoreError, PortModel};
use dls_platform::{Platform, WorkerId};

use crate::plan::{check_rounds, expanded_platform, physical_to_virtual, RoundPlan};

/// Growth-ratio candidates of the geometric grid search, bracketing 1:
/// `q > 1` grows later rounds (small first chunks start computation
/// early), `q < 1` shrinks them (small last chunks finish the return
/// chain early), and `q = 1` makes the uniform split a candidate, so
/// geometric never loses to uniform.
pub const GEOMETRIC_RATIOS: [f64; 6] = [0.5, 0.7, 1.0, 1.5, 2.0, 3.0];

/// The within-round send order every planner uses: Theorem 1's optimal
/// FIFO order when the platform is `z`-tied, `INC_C` (non-decreasing `c`)
/// otherwise.
pub fn planner_order(platform: &Platform) -> Vec<WorkerId> {
    theorem1_order(platform).unwrap_or_else(|_| platform.order_by_c())
}

/// One-round LP-optimal loads in `σ` order, normalized to fractions of a
/// unit total load (the base the uniform and geometric planners split),
/// plus the base LP's pivot count for provenance.
fn base_fractions(platform: &Platform, order: &[WorkerId]) -> Result<(Vec<f64>, usize), CoreError> {
    let sol = solve_fifo(platform, order, PortModel::OnePort)?;
    let rho = sol.throughput;
    Ok((
        sol.schedule.loads().iter().map(|l| l / rho).collect(),
        sol.iterations,
    ))
}

/// Splits `base` (platform-indexed fractions summing to 1) across `rounds`
/// rounds with per-round weights `w[r]` (any positive vector).
fn split_by_weights(base: &[f64], weights: &[f64]) -> Vec<Vec<f64>> {
    let total: f64 = weights.iter().sum();
    weights
        .iter()
        .map(|w| base.iter().map(|f| f * w / total).collect())
        .collect()
}

/// Exactly `R` equal installments of the one-round optimal loads. The
/// chunking itself is closed-form, but the per-worker totals come from the
/// one-round scenario LP, so the result carries that LP's provenance.
pub fn plan_uniform(platform: &Platform, rounds: usize) -> Result<LpPlan, CoreError> {
    check_rounds(platform, rounds)?;
    let order = planner_order(platform);
    let (base, iterations) = base_fractions(platform, &order)?;
    Ok(LpPlan {
        plan: RoundPlan::new(platform, order, split_by_weights(&base, &vec![1.0; rounds]))?,
        iterations,
    })
}

/// Result of the geometric grid search: the winning plan plus the number
/// of candidate plans evaluated (for `Provenance::Search`).
#[derive(Debug, Clone)]
pub struct GeometricPlan {
    /// The best plan found (at most `rounds` rounds).
    pub plan: RoundPlan,
    /// Candidate `(q, round-count)` plans timed during the search.
    pub evaluated: usize,
}

/// Best geometric plan within a budget of `rounds` rounds: grid search
/// over [`GEOMETRIC_RATIOS`] and round counts `1..=rounds`, scored by the
/// lowered-timeline makespan. Monotone non-increasing in `rounds` because
/// the candidate set only grows.
///
/// On a fully pipelined platform several `(r, q)` candidates tie to float
/// noise, so ties (relative `1e-9`) break toward *more* rounds: equal
/// predicted makespan with smaller installments means smaller per-worker
/// buffers — the multi-installment motivation — and the choice no longer
/// depends on last-ulp arithmetic of the base LP solve.
pub fn plan_geometric(platform: &Platform, rounds: usize) -> Result<GeometricPlan, CoreError> {
    check_rounds(platform, rounds)?;
    let order = planner_order(platform);
    let (base, _) = base_fractions(platform, &order)?;
    let mut best: Option<RoundPlan> = None;
    let mut evaluated = 0;
    for r in 1..=rounds {
        for &q in &GEOMETRIC_RATIOS {
            if r == 1 && q != GEOMETRIC_RATIOS[0] {
                continue; // all ratios coincide at one round
            }
            let weights: Vec<f64> = (0..r).map(|k| q.powi(k as i32)).collect();
            let candidate =
                RoundPlan::new(platform, order.clone(), split_by_weights(&base, &weights))?;
            evaluated += 1;
            let better = best.as_ref().is_none_or(|b| {
                let eps = 1e-9 * b.predicted_makespan().max(1.0);
                candidate.predicted_makespan() < b.predicted_makespan() - eps
                    || (candidate.predicted_makespan() <= b.predicted_makespan() + eps
                        && candidate.rounds() > b.rounds())
            });
            if better {
                best = Some(candidate);
            }
        }
    }
    Ok(GeometricPlan {
        plan: best.expect("at least one candidate evaluated"),
        evaluated,
    })
}

/// An LP-backed plan plus the provenance of the scenario LP behind it:
/// the expanded-platform LP for [`plan_lp`], the one-round base LP for
/// [`plan_uniform`].
#[derive(Debug, Clone)]
pub struct LpPlan {
    /// The planned rounds.
    pub plan: RoundPlan,
    /// Simplex pivots of the scenario LP.
    pub iterations: usize,
}

/// LP-optimal chunk fractions for exactly `rounds` canonical-shape rounds:
/// the scenario LP on the expanded platform with the round-major FIFO
/// pattern, loads normalized to fractions of a unit total.
///
/// Built on the schedule-model IR: [`lp_model::scenario_model`] emits the
/// expanded round-major rows (the exact LP `solve_fifo` used to build
/// internally) and [`lp_model::solve_model`] solves it through the engine
/// router. Holding the model before solving is the extension point for the
/// pipelined-feasible variant sketched in the ROADMAP: per-worker
/// compute-chain rows are one `precedence` combinator call away.
pub fn plan_lp(platform: &Platform, rounds: usize) -> Result<LpPlan, CoreError> {
    let p = platform.num_workers();
    let order = planner_order(platform);
    let vplat = expanded_platform(platform, rounds)?;
    let mut vorder = Vec::with_capacity(p * rounds);
    for r in 0..rounds {
        vorder.extend(order.iter().map(|&id| physical_to_virtual(r, id, p)));
    }
    let (ir, vars) = lp_model::scenario_model(&vplat, &vorder, &vorder, PortModel::OnePort)?;
    let sol = lp_model::solve_model(&ir)?;
    let rho = sol.objective;
    let mut fractions = vec![vec![0.0; p]; rounds];
    for (k, &alpha) in vars.alphas.iter().enumerate() {
        let id = order[k % p];
        fractions[k / p][id.index()] = sol.value(alpha).max(0.0) / rho;
    }
    Ok(LpPlan {
        plan: RoundPlan::new(platform, order, fractions)?,
        iterations: sol.iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dls_core::prelude::optimal_fifo;

    fn star() -> Platform {
        Platform::star_with_z(&[(1.0, 5.0), (2.0, 4.0), (1.5, 6.0), (0.8, 7.0)], 0.5).unwrap()
    }

    #[test]
    fn uniform_splits_the_one_round_optimum_evenly() {
        let p = star();
        let plan = plan_uniform(&p, 4).unwrap().plan;
        assert_eq!(plan.rounds(), 4);
        let one_round = optimal_fifo(&p).unwrap();
        for id in p.ids() {
            let expect = one_round.schedule.load(id) / one_round.throughput / 4.0;
            for r in 0..4 {
                assert!((plan.fraction(r, id) - expect).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn single_round_plans_match_the_one_round_optimum() {
        let p = star();
        let best = 1.0 / optimal_fifo(&p).unwrap().throughput;
        for makespan in [
            plan_uniform(&p, 1).unwrap().plan.predicted_makespan(),
            plan_geometric(&p, 1).unwrap().plan.predicted_makespan(),
            plan_lp(&p, 1).unwrap().plan.predicted_makespan(),
        ] {
            assert!(
                (makespan - best).abs() < 1e-9,
                "R = 1 must reduce to optimal_fifo: {makespan} vs {best}"
            );
        }
    }

    #[test]
    fn geometric_budget_is_monotone_in_rounds() {
        let p = star();
        let mut prev = f64::INFINITY;
        for r in 1..=8 {
            let g = plan_geometric(&p, r).unwrap();
            let m = g.plan.predicted_makespan();
            assert!(
                m <= prev + 1e-12,
                "geometric makespan increased at R = {r}: {m} > {prev}"
            );
            prev = m;
        }
    }

    #[test]
    fn lp_plan_is_monotone_and_dominates_the_other_planners() {
        let p = star();
        let mut prev = f64::INFINITY;
        for r in [1, 2, 4, 8] {
            let lp = plan_lp(&p, r).unwrap().plan.predicted_makespan();
            assert!(lp <= prev + 1e-9, "LP makespan increased at R = {r}");
            prev = lp;
            let uni = plan_uniform(&p, r).unwrap().plan.predicted_makespan();
            let geo = plan_geometric(&p, r).unwrap().plan.predicted_makespan();
            assert!(lp <= uni + 1e-9, "LP lost to uniform at R = {r}");
            assert!(lp <= geo + 1e-9, "LP lost to geometric at R = {r}");
        }
    }

    #[test]
    fn multi_round_strictly_beats_one_round_on_a_compute_bound_star() {
        // Compute-bound: pipelining the sends must pay off.
        let p = star();
        let one = plan_lp(&p, 1).unwrap().plan.predicted_makespan();
        let four = plan_lp(&p, 4).unwrap().plan.predicted_makespan();
        assert!(
            four < one - 1e-9,
            "R = 4 should strictly improve: {four} vs {one}"
        );
    }

    #[test]
    fn planners_verify_clean() {
        let p = star();
        for r in [1, 2, 4] {
            for plan in [
                plan_uniform(&p, r).unwrap().plan,
                plan_geometric(&p, r).unwrap().plan,
                plan_lp(&p, r).unwrap().plan,
            ] {
                assert!(plan.verify(&p, 1e-7).unwrap().is_empty());
                let total: f64 = plan.fractions().iter().flatten().sum();
                assert!((total - 1.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn zero_rounds_rejected() {
        let p = star();
        assert!(plan_uniform(&p, 0).is_err());
        assert!(plan_geometric(&p, 0).is_err());
        assert!(plan_lp(&p, 0).is_err());
    }
}
