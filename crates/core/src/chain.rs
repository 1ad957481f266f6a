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
//! The chain ratios do not depend on where the enrolled prefix ends, so
//! running sums over them close both regimes of a prefix in `O(1)`: one
//! `O(q)` pass solves an enrolled set ([`chain_fifo`]), and one `O(p)` pass
//! solves every prefix of the `c`-sorted list ([`chain_best_prefix`]) — no
//! LP. This crate uses the chain four ways: as a fast scheduler (the
//! `chain` strategy), as the first working set of the optimal FIFO LP
//! ([`crate::fifo::optimal_fifo`]), as an exact subset-selection oracle for
//! small `p` ([`chain_best_subset`]), and as an independent cross-check of
//! the LP in tests. The counting argument belongs to Theorem 1's proof,
//! which assumes a `z`-tied platform (`d_i = z·c_i`), so every solver here
//! refuses other platforms with [`CoreError::NotZTied`].
//!
//! **Caveat (documented ablation):** the optimal enrolled set need not be a
//! *prefix* of the `c`-sorted worker list, so [`chain_best_prefix`] is a
//! heuristic; [`chain_best_subset`] enumerates all `2^p − 1` subsets and is
//! exact (it matches Proposition 1's LP on every instance tested). The
//! optimal FIFO solve does not rely on the prefix: LP duality prices every
//! worker left out of it and enrolls any that would pay.
//! `tests/resource_selection.rs` probes whether the LP ever selects a
//! non-prefix set.

use dls_platform::{Platform, Worker, WorkerId};

use crate::error::CoreError;
use crate::schedule::{check_orders, Schedule};

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

const TOL: f64 = 1e-9;

/// Running sums of the chain ratios `r_j` over a run of workers.
#[derive(Debug, Clone, Copy)]
struct Sums {
    /// `Σ r_j`.
    r: f64,
    /// `Σ r_j·c_j`.
    c: f64,
    /// `Σ r_j·d_j`.
    d: f64,
    /// `Σ r_j·(c_j + d_j)`.
    cd: f64,
    /// `max_i (Σ_{l ≤ i} r_l·c_l + r_i·w_i − Σ_{l < i} r_l·d_l)`: with
    /// loads `r_l·a1`, deadline row `i` is `a1·(g_i + Σ_l r_l·d_l)` plus the
    /// returns after the run, so this bounds every row of the run at once.
    g: f64,
}

impl Sums {
    const EMPTY: Sums = Sums {
        r: 0.0,
        c: 0.0,
        d: 0.0,
        cd: 0.0,
        g: f64::NEG_INFINITY,
    };

    /// The sums with one more worker of ratio `r` appended.
    fn push(self, r: f64, w: &Worker) -> Sums {
        let c = self.c + r * w.c;
        Sums {
            r: self.r + r,
            c,
            d: self.d + r * w.d,
            cd: self.cd + r * (w.c + w.d),
            g: self.g.max(c + r * w.w - self.d),
        }
    }
}

/// Lemma 1's vertex for one enrolled prefix: the chain workers carry
/// `r_j·a1`, and in the comm-bound regime the last worker carries `aq`.
#[derive(Debug, Clone, Copy)]
struct Vertex {
    regime: ChainRegime,
    a1: f64,
    aq: f64,
    throughput: f64,
    last_idle: f64,
}

/// Both regimes of a prefix, in `O(1)` from the chain sums over the
/// prefix (`full`) and over all of it but its `last` worker (`head`, whose
/// own last worker `prev` has ratio `r_prev`). `first` is the prefix's
/// first worker. `None` when neither regime yields a feasible
/// positive-load vertex.
fn vertex(
    first: &Worker,
    prev: Option<(&Worker, f64)>,
    last: &Worker,
    head: &Sums,
    full: &Sums,
) -> Option<Vertex> {
    // ---- Regime A (compute-bound): full chain, (2a)_1 pins the scale:
    // alpha_1 (c_1 + w_1) + sum_j alpha_j d_j = 1; (2b) must hold.
    let denom = first.c + first.w + full.d;
    if denom > TOL {
        let a1 = 1.0 / denom;
        if a1 * full.cd <= 1.0 + TOL {
            return Some(Vertex {
                regime: ChainRegime::ComputeBound,
                a1,
                aq: 0.0,
                throughput: a1 * full.r,
                last_idle: 0.0,
            });
        }
    }

    // ---- Regime B (comm-bound): chain over alpha_1..alpha_{q-1}, 2x2
    // system closing (alpha_1, alpha_q).
    // Eq1 ((2a)_{q-1} tight):
    //   a1 * K1 + aq * d_q = 1,
    //   K1 = sum_{j<=q-1} r_j c_j + r_{q-1} (w_{q-1} + d_{q-1})
    // Eq2 ((2b) tight):
    //   a1 * K2 + aq * (c_q + d_q) = 1,
    //   K2 = sum_{j<=q-1} r_j (c_j + d_j)
    let (prev, r_prev) = prev?;
    let k1 = head.c + r_prev * (prev.w + prev.d);
    let k2 = head.cd;
    let dq = last.d;
    let cdq = last.c + dq;
    // | K1  d_q  | |a1|   |1|
    // | K2  cd_q | |aq| = |1|
    let det = k1 * cdq - dq * k2;
    if det.abs() <= TOL {
        return None;
    }
    let a1 = (cdq - dq) / det;
    let aq = (k1 - k2) / det;
    if !(a1 > TOL && aq >= -TOL) {
        return None;
    }
    let aq = aq.max(0.0);
    // Feasibility: the last deadline with slack x_q >= 0, and every chain
    // deadline within 1 (each equals Eq1 in exact arithmetic; the check
    // rejects an ill-conditioned 2x2 solve).
    let xq = 1.0 - (a1 * head.c + aq * (last.c + last.w + dq));
    let rows_fit = a1 * (head.g + head.d) + aq * dq <= 1.0 + 1e-7;
    (xq >= -TOL && rows_fit).then(|| Vertex {
        regime: ChainRegime::CommBound,
        a1,
        aq,
        throughput: a1 * head.r + aq,
        last_idle: xq.max(0.0),
    })
}

/// Lemma 1's vertex of every prefix of `order` in one pass: calls
/// `visit(q, vertex)` for each prefix `order[..q]` with a feasible regime,
/// and returns the chain ratios. The ratios `r_1 = 1`,
/// `r_{i+1} = r_i·(w_i + d_i) / (c_{i+1} + w_{i+1})` do not depend on where
/// the prefix ends, so running sums over them close both regimes of each
/// prefix in `O(1)`.
fn scan(platform: &Platform, order: &[WorkerId], mut visit: impl FnMut(usize, Vertex)) -> Vec<f64> {
    let mut ratios: Vec<f64> = Vec::with_capacity(order.len());
    let Some(&first) = order.first() else {
        return ratios;
    };
    let first = platform.worker(first);
    let mut head = Sums::EMPTY;
    let mut prev: Option<(&Worker, f64)> = None;
    for (k, &id) in order.iter().enumerate() {
        let w = platform.worker(id);
        let r = prev.map_or(1.0, |(p, r_prev)| r_prev * (p.w + p.d) / (w.c + w.w));
        ratios.push(r);
        let full = head.push(r, w);
        if let Some(v) = vertex(first, prev, w, &head, &full) {
            visit(k + 1, v);
        }
        head = full;
        prev = Some((w, r));
    }
    ratios
}

/// Packages the vertex of the prefix `order` (chain `ratios` from
/// [`scan`]) as loads by platform worker index.
fn solution(platform: &Platform, order: &[WorkerId], ratios: &[f64], v: Vertex) -> ChainSolution {
    let mut alphas: Vec<f64> = ratios[..order.len()].iter().map(|r| r * v.a1).collect();
    if v.regime == ChainRegime::CommBound {
        *alphas
            .last_mut()
            .expect("a comm-bound prefix has two workers") = v.aq;
    }
    let mut loads = vec![0.0; platform.num_workers()];
    for (id, a) in order.iter().zip(&alphas) {
        loads[id.index()] = *a;
    }
    ChainSolution {
        throughput: alphas.iter().sum(),
        loads,
        last_idle: v.last_idle,
        regime: v.regime,
    }
}

/// Solves the FIFO chain for the exact enrolled set/order `order`, in
/// `O(q)`.
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
    check_orders(platform, order, order)?;
    let mut whole = None;
    let ratios = scan(platform, order, |q, v| {
        if q == order.len() {
            whole = Some(v);
        }
    });
    Ok(whole.map(|v| solution(platform, order, &ratios, v)))
}

/// Best chain solution over all prefixes of the `c`-sorted worker list, in
/// one `O(p)` pass (see [`chain_fifo`] for a single prefix).
///
/// Heuristic on its own: the optimal enrolled set may skip a middle worker
/// (see module docs). [`crate::fifo::optimal_fifo`] therefore uses the
/// prefix only as its LP's first working set and certifies the result by
/// duality. Returns the best feasible prefix solution together with its
/// order; a later prefix replaces an earlier one only when it is better
/// by more than `1e-9`.
pub fn chain_best_prefix(platform: &Platform) -> Result<(Vec<WorkerId>, ChainSolution), CoreError> {
    platform.common_z().ok_or(CoreError::NotZTied)?;
    let sorted = platform.order_by_c();
    let (best, ratios) = best_prefix(platform, &sorted);
    let (q, v) = best.ok_or_else(|| CoreError::MalformedOrder("no feasible prefix".into()))?;
    let order = sorted[..q].to_vec();
    let sol = solution(platform, &order, &ratios, v);
    Ok((order, sol))
}

/// The length of [`chain_best_prefix`]'s prefix of `sorted` (the `z`-tied
/// platform's `c`-sorted order, which the caller already holds), without
/// packaging its solution; `None` when no prefix is feasible.
pub(crate) fn best_prefix_len(platform: &Platform, sorted: &[WorkerId]) -> Option<usize> {
    best_prefix(platform, sorted).0.map(|(q, _)| q)
}

/// The vertex of the first prefix of `sorted` that beats every shorter
/// one by more than `TOL`, with its length and the chain ratios.
fn best_prefix(platform: &Platform, sorted: &[WorkerId]) -> (Option<(usize, Vertex)>, Vec<f64>) {
    let mut best: Option<(usize, Vertex)> = None;
    let ratios = scan(platform, sorted, |q, v| {
        if best.is_none_or(|(_, b)| v.throughput > b.throughput + TOL) {
            best = Some((q, v));
        }
    });
    (best, ratios)
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
    use crate::testkit::z_tied;
    use crate::timeline::makespan;
    use proptest::prelude::*;

    fn star(z: f64, cw: &[(f64, f64)]) -> Platform {
        Platform::star_with_z(cw, z).unwrap()
    }

    proptest! {
        /// The one-pass scan picks the prefix that solving every prefix
        /// with `chain_fifo` picks: the first one better than all shorter
        /// ones by more than `TOL`.
        #[test]
        fn best_prefix_scan_matches_every_prefix_solved_alone(p in z_tied(64)) {
            let sorted = p.order_by_c();
            let mut oracle: Option<(usize, ChainSolution)> = None;
            for q in 1..=sorted.len() {
                if let Some(sol) = chain_fifo(&p, &sorted[..q]).unwrap() {
                    if oracle.as_ref().is_none_or(|(_, b)| sol.throughput > b.throughput + TOL) {
                        oracle = Some((q, sol));
                    }
                }
            }
            let (q, oracle) = oracle.expect("a one-worker prefix is always feasible");
            let (order, scan) = chain_best_prefix(&p).unwrap();
            prop_assert_eq!(order.len(), q);
            prop_assert!(
                (scan.throughput - oracle.throughput).abs() <= 1e-12 * oracle.throughput,
                "scan {} vs per-prefix {}", scan.throughput, oracle.throughput
            );
        }
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
