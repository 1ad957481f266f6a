//! Analytical "chain" solver for star FIFO schedules.
//!
//! At an optimal vertex of the FIFO LP (2), Lemma 1's counting argument
//! leaves at most one constraint slack among `{(2a)_i} ∪ {(2b)} ∪ {x_i ≥ 0}`
//! for the enrolled workers. Two regimes therefore cover the optimum for a
//! *fixed enrolled set*:
//!
//! * **Compute-bound** — (2b) is the slack one: every deadline `(2a)_i` is
//!   tight with `x_i = 0`. Subtracting consecutive tight constraints gives
//!   the load chain `α_{i+1}(c_{i+1} + w_{i+1}) = α_i (w_i + d_i)`, and
//!   `(2a)_1` pins the scale.
//! * **Comm-bound** — `x_q ≥ 0` is the slack one: `(2a)_i` tight for
//!   `i < q`, (2b) tight. The chain covers `α_1 .. α_{q-1}` and a 2×2
//!   system in `(α_1, α_q)` closes it.
//!
//! This yields an `O(q)` solver per enrolled set — no LP — which this crate
//! uses three ways: as a fast scheduler ([`chain_best_prefix`]), as an
//! exact subset-selection oracle for small `p` ([`chain_best_subset`]),
//! and as an independent cross-check of the LP in tests. The counting
//! argument belongs to Theorem 1's proof, which assumes a `z`-tied platform
//! (`d_i = z·c_i`), so every solver here refuses other platforms with
//! [`CoreError::NotZTied`].
//!
//! **Caveat (documented ablation):** the optimal enrolled set need not be a
//! *prefix* of the `c`-sorted worker list, so [`chain_best_prefix`] is a
//! heuristic; [`chain_best_subset`] enumerates all `2^p − 1` subsets and is
//! exact (it matches Proposition 1's LP on every instance tested).
//! `tests/resource_selection.rs` probes whether the LP ever selects a
//! non-prefix set.

use dls_platform::{Platform, WorkerId};

use crate::error::CoreError;
use crate::schedule::Schedule;

/// Which LP regime produced the chain solution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainRegime {
    /// All deadlines tight, no idle time, (2b) slack.
    ComputeBound,
    /// (2b) tight; only the last worker may idle.
    CommBound,
}

/// Closed-form FIFO solution for a fixed enrolled order.
#[derive(Debug, Clone)]
pub struct ChainSolution {
    /// Loads by platform worker index (non-enrolled workers carry 0).
    pub loads: Vec<f64>,
    /// Throughput `Σ α_i`.
    pub throughput: f64,
    /// Idle time of the last enrolled worker (0 in the compute-bound
    /// regime).
    pub last_idle: f64,
    /// Regime that fired.
    pub regime: ChainRegime,
}

impl ChainSolution {
    /// Packages the solution as a FIFO schedule over `order`.
    pub fn schedule(&self, platform: &Platform, order: &[WorkerId]) -> Schedule {
        Schedule::fifo(platform, order.to_vec(), self.loads.clone()).expect("chain loads are valid")
    }
}

/// Evaluates `(2a)_i`'s left side at `x_i = 0` for the enrolled loads.
fn deadline_lhs(platform: &Platform, order: &[WorkerId], alphas: &[f64], i: usize) -> f64 {
    let sends: f64 = order
        .iter()
        .take(i + 1)
        .zip(alphas)
        .map(|(id, a)| a * platform.worker(*id).c)
        .sum();
    let returns: f64 = order
        .iter()
        .zip(alphas)
        .skip(i)
        .map(|(id, a)| a * platform.worker(*id).d)
        .sum();
    sends + alphas[i] * platform.worker(*order.get(i).expect("index in range")).w + returns
}

fn comm_total(platform: &Platform, order: &[WorkerId], alphas: &[f64]) -> f64 {
    order
        .iter()
        .zip(alphas)
        .map(|(id, a)| {
            let w = platform.worker(*id);
            a * (w.c + w.d)
        })
        .sum()
}

const TOL: f64 = 1e-9;

/// Solves the FIFO chain for the exact enrolled set/order `order`.
///
/// Returns `Ok(None)` when neither regime yields a feasible positive-load
/// solution (meaning this enrolled set cannot be optimal with everyone
/// participating). Errors with [`CoreError::NotZTied`] when the platform is
/// not `z`-tied: Lemma 1's two regimes need `d = z·c`, and without it the
/// chain can land far below the scenario's LP optimum.
pub fn chain_fifo(
    platform: &Platform,
    order: &[WorkerId],
) -> Result<Option<ChainSolution>, CoreError> {
    if order.is_empty() {
        return Err(CoreError::MalformedOrder("empty enrolled order".into()));
    }
    platform.common_z().ok_or(CoreError::NotZTied)?;
    // Validate via the Schedule constructor.
    Schedule::fifo(platform, order.to_vec(), vec![0.0; platform.num_workers()])?;
    let q = order.len();
    let w = |i: usize| platform.worker(order[i]);

    // Chain ratios r_i = alpha_i / alpha_1 for the full chain.
    let mut ratios = vec![1.0; q];
    for i in 0..q - 1 {
        let wi = w(i);
        let wn = w(i + 1);
        ratios[i + 1] = ratios[i] * (wi.w + wi.d) / (wn.c + wn.w);
    }

    let pack = |alphas: Vec<f64>, regime: ChainRegime, last_idle: f64| {
        let mut loads = vec![0.0; platform.num_workers()];
        for (id, a) in order.iter().zip(&alphas) {
            loads[id.index()] = *a;
        }
        ChainSolution {
            throughput: alphas.iter().sum(),
            loads,
            last_idle,
            regime,
        }
    };

    // ---- Regime A (compute-bound): full chain, (2a)_1 pins the scale.
    {
        // (2a)_1: alpha_1 (c_1 + w_1) + sum_j alpha_j d_j = 1.
        let denom = w(0).c + w(0).w + (0..q).map(|j| ratios[j] * w(j).d).sum::<f64>();
        if denom > TOL {
            let a1 = 1.0 / denom;
            let alphas: Vec<f64> = ratios.iter().map(|r| r * a1).collect();
            if comm_total(platform, order, &alphas) <= 1.0 + TOL {
                return Ok(Some(pack(alphas, ChainRegime::ComputeBound, 0.0)));
            }
        }
    }

    // ---- Regime B (comm-bound): chain over alpha_1..alpha_{q-1}, 2x2
    // system closing (alpha_1, alpha_q).
    if q >= 2 {
        // 1-based worker q-1 is 0-based index `last = q - 2`.
        // Eq1 ((2a)_{q-1} tight):
        //   a1 * K1 + aq * d_q = 1,
        //   K1 = sum_{j<=q-1} r_j c_j + r_{q-1} (w_{q-1} + d_{q-1})
        // Eq2 ((2b) tight):
        //   a1 * K2 + aq * (c_q + d_q) = 1,
        //   K2 = sum_{j<=q-1} r_j (c_j + d_j)
        let last = q - 2;
        let k1: f64 = (0..=last).map(|j| ratios[j] * w(j).c).sum::<f64>()
            + ratios[last] * (w(last).w + w(last).d);
        let k2: f64 = (0..=last)
            .map(|j| ratios[j] * (w(j).c + w(j).d))
            .sum::<f64>();
        let dq = w(q - 1).d;
        let cdq = w(q - 1).c + dq;
        // | K1  d_q  | |a1|   |1|
        // | K2  cd_q | |aq| = |1|
        let det = k1 * cdq - dq * k2;
        if det.abs() > TOL {
            let a1 = (cdq - dq) / det;
            let aq = (k1 - k2) / det;
            if a1 > TOL && aq >= -TOL {
                let aq = aq.max(0.0);
                let mut alphas: Vec<f64> = (0..q - 1).map(|j| ratios[j] * a1).collect();
                alphas.push(aq);
                // Feasibility: last deadline with slack x_q >= 0, and all
                // deadlines within 1.
                let xq = 1.0 - deadline_lhs(platform, order, &alphas, q - 1);
                if xq >= -TOL {
                    let feasible =
                        (0..q - 1).all(|i| deadline_lhs(platform, order, &alphas, i) <= 1.0 + 1e-7);
                    if feasible {
                        return Ok(Some(pack(alphas, ChainRegime::CommBound, xq.max(0.0))));
                    }
                }
            }
        }
    }

    Ok(None)
}

/// Best chain solution over all prefixes of the `c`-sorted worker list.
///
/// Fast (`O(p²)`) but heuristic: the optimal enrolled set may skip a middle
/// worker (see module docs). Returns the best feasible prefix solution
/// together with its order.
pub fn chain_best_prefix(platform: &Platform) -> Result<(Vec<WorkerId>, ChainSolution), CoreError> {
    let sorted = platform.order_by_c();
    let mut best: Option<(Vec<WorkerId>, ChainSolution)> = None;
    for q in 1..=sorted.len() {
        let order = &sorted[..q];
        if let Some(sol) = chain_fifo(platform, order)? {
            if best
                .as_ref()
                .map(|(_, b)| sol.throughput > b.throughput + TOL)
                .unwrap_or(true)
            {
                best = Some((order.to_vec(), sol));
            }
        }
    }
    best.ok_or_else(|| CoreError::MalformedOrder("no feasible prefix".into()))
}

/// Exact chain-based optimum: enumerates every nonempty subset of workers
/// (each ordered by non-decreasing `c`, per Theorem 1) and keeps the best.
/// Exponential — guarded to `p ≤ limit`.
pub fn chain_best_subset(
    platform: &Platform,
    limit: usize,
) -> Result<(Vec<WorkerId>, ChainSolution), CoreError> {
    let p = platform.num_workers();
    if p > limit {
        return Err(CoreError::TooManyWorkers { got: p, limit });
    }
    let sorted = platform.order_by_c();
    let mut best: Option<(Vec<WorkerId>, ChainSolution)> = None;
    for mask in 1u32..(1u32 << p) {
        let order: Vec<WorkerId> = sorted
            .iter()
            .enumerate()
            .filter(|(k, _)| mask & (1 << k) != 0)
            .map(|(_, id)| *id)
            .collect();
        if let Some(sol) = chain_fifo(platform, &order)? {
            if best
                .as_ref()
                .map(|(_, b)| sol.throughput > b.throughput + TOL)
                .unwrap_or(true)
            {
                best = Some((order, sol));
            }
        }
    }
    best.ok_or_else(|| CoreError::MalformedOrder("no feasible subset".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closed_form::bus_fifo;
    use crate::fifo::optimal_fifo;
    use crate::lp_model::solve_fifo;
    use crate::schedule::PortModel;
    use crate::timeline::makespan;

    fn star(z: f64, cw: &[(f64, f64)]) -> Platform {
        Platform::star_with_z(cw, z).unwrap()
    }

    #[test]
    fn chain_matches_lp_when_all_enrolled_compute_bound() {
        let p = star(0.5, &[(1.0, 8.0), (1.5, 9.0), (2.0, 10.0)]);
        let order = p.order_by_c();
        let chain = chain_fifo(&p, &order).unwrap().unwrap();
        assert_eq!(chain.regime, ChainRegime::ComputeBound);
        let lp = solve_fifo(&p, &order, PortModel::OnePort).unwrap();
        assert!(
            (chain.throughput - lp.throughput).abs() < 1e-7,
            "chain {} vs lp {}",
            chain.throughput,
            lp.throughput
        );
    }

    #[test]
    fn chain_matches_lp_comm_bound() {
        // Moderately fast workers: (2b) binds but everyone keeps a positive
        // share.
        let p = star(0.5, &[(1.0, 0.3), (1.0, 0.3)]);
        let order = p.order_by_c();
        let chain = chain_fifo(&p, &order).unwrap().unwrap();
        assert_eq!(chain.regime, ChainRegime::CommBound);
        let lp = solve_fifo(&p, &order, PortModel::OnePort).unwrap();
        assert!(
            (chain.throughput - lp.throughput).abs() < 1e-6,
            "chain {} vs lp {}",
            chain.throughput,
            lp.throughput
        );
        assert!(chain.last_idle >= 0.0);
    }

    #[test]
    fn chain_returns_none_when_last_worker_must_be_dropped() {
        // Very fast computers on slow links: enrolling all three in the
        // comm-bound regime would require a negative last load, so the
        // all-enrolled chain has no solution — the LP drops a worker
        // instead. This instance documents why chain_fifo is Option-valued.
        let p = star(0.5, &[(1.0, 0.05), (1.2, 0.1), (1.4, 0.05)]);
        let order = p.order_by_c();
        assert!(chain_fifo(&p, &order).unwrap().is_none());
        // The subset search still matches Proposition 1's LP.
        let (best_order, chain) = chain_best_subset(&p, 16).unwrap();
        let lp = optimal_fifo(&p).unwrap();
        assert!(best_order.len() < 3, "expected a dropped worker");
        assert!(
            (chain.throughput - lp.throughput).abs() < 1e-6,
            "subset chain {} vs LP {}",
            chain.throughput,
            lp.throughput
        );
    }

    #[test]
    fn chain_reduces_to_theorem2_on_bus() {
        let p = Platform::bus(1.0, 0.5, &[5.0, 7.0, 9.0]).unwrap();
        let order = p.order_by_c();
        let chain = chain_fifo(&p, &order).unwrap().unwrap();
        let cf = bus_fifo(&p).unwrap();
        assert!((chain.throughput - cf.throughput).abs() < 1e-9);
        for (a, b) in chain.loads.iter().zip(&cf.loads) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn chain_schedule_is_feasible() {
        let p = star(0.5, &[(1.0, 2.0), (2.0, 1.0), (1.5, 3.0)]);
        let order = p.order_by_c();
        if let Some(sol) = chain_fifo(&p, &order).unwrap() {
            let s = sol.schedule(&p, &order);
            let ms = makespan(&p, &s, PortModel::OnePort);
            assert!(ms <= 1.0 + 1e-7, "chain schedule overflows: {ms}");
        }
    }

    #[test]
    fn best_subset_matches_proposition1_lp() {
        // Random-ish platforms where resource selection matters.
        let cases = [
            star(0.5, &[(0.1, 1.0), (0.1, 1.0), (100.0, 1.0)]),
            star(0.5, &[(1.0, 1.0), (2.0, 0.5), (4.0, 0.25)]),
            star(0.9, &[(0.5, 0.1), (0.6, 0.1), (0.7, 0.1), (10.0, 5.0)]),
        ];
        for p in &cases {
            let (_, chain) = chain_best_subset(p, 16).unwrap();
            let lp = optimal_fifo(p).unwrap();
            assert!(
                (chain.throughput - lp.throughput).abs() < 1e-6,
                "subset chain {} vs Proposition 1 LP {}",
                chain.throughput,
                lp.throughput
            );
        }
    }

    #[test]
    fn prefix_heuristic_is_lower_bound() {
        let p = star(0.5, &[(0.5, 2.0), (1.0, 0.1), (1.5, 4.0), (2.0, 0.2)]);
        let (_, prefix) = chain_best_prefix(&p).unwrap();
        let lp = optimal_fifo(&p).unwrap();
        assert!(prefix.throughput <= lp.throughput + 1e-7);
    }

    #[test]
    fn single_worker_chain() {
        let p = star(0.5, &[(2.0, 3.0)]);
        let sol = chain_fifo(&p, &[WorkerId(0)]).unwrap().unwrap();
        assert!((sol.throughput - 1.0 / 6.0).abs() < 1e-12);
        assert_eq!(sol.regime, ChainRegime::ComputeBound);
    }

    #[test]
    fn single_fast_worker_hits_comm_bound() {
        // One worker, tiny w: compute-bound chain would violate (2b)?
        // alpha (c+w+d) = 1 -> alpha (c+d) = 1 - alpha w < 1, so (2b) never
        // binds with one worker; regime stays ComputeBound.
        let p = star(0.5, &[(1.0, 1e-9)]);
        let sol = chain_fifo(&p, &[WorkerId(0)]).unwrap().unwrap();
        assert_eq!(sol.regime, ChainRegime::ComputeBound);
        assert!((sol.throughput - 1.0 / 1.5).abs() < 1e-6);
    }

    #[test]
    fn too_many_workers_guard() {
        let p = star(0.5, &[(1.0, 1.0); 20]);
        assert!(matches!(
            chain_best_subset(&p, 16),
            Err(CoreError::TooManyWorkers { .. })
        ));
    }

    #[test]
    fn platforms_that_are_not_z_tied_are_refused() {
        // The prefix chain would report 0.1245 here, while the LP over the
        // FIFO scenario it selects reaches 0.4570.
        let p = Platform::new(vec![
            dls_platform::Worker::new(1.0, 1.0, 10.0),
            dls_platform::Worker::new(2.0, 0.1, 0.1),
        ])
        .unwrap();
        assert_eq!(chain_best_prefix(&p).unwrap_err(), CoreError::NotZTied);
        assert_eq!(chain_best_subset(&p, 16).unwrap_err(), CoreError::NotZTied);
    }

    #[test]
    fn empty_order_rejected() {
        let p = star(0.5, &[(1.0, 1.0)]);
        assert!(chain_fifo(&p, &[]).is_err());
    }
}
