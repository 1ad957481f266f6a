//! Linear-program formulations for fixed scenarios (Section 2.3).
//!
//! Given a set of enrolled workers and a permutation pair `(σ1, σ2)`, the
//! optimal loads solve the LP (2) of the paper, generalized here to any
//! permutation pair and to both port models:
//!
//! ```text
//! maximize   ρ = Σ_i α_i
//! subject to, for every enrolled worker i at send position k and return
//! position m:
//!   Σ_{l ≤ k} α_{σ1(l)}·c_{σ1(l)}  +  α_i·w_i  +  x_i
//!        +  Σ_{l ≥ m} α_{σ2(l)}·d_{σ2(l)}  ≤  1          (2a)
//! one-port only:
//!   Σ_i α_i·(c_i + d_i)  ≤  1                             (2b)
//!   α_i ≥ 0,  x_i ≥ 0
//! ```
//!
//! Constraint (2a) says: the sends up to and including worker i, its
//! computation, its idle gap, and the block of returns from its own through
//! the last one must all fit before the deadline `T = 1`. (2b) forbids any
//! overlap of master communications. This encodes the canonical schedule
//! shape — sends back-to-back from time 0, returns back-to-back ending at
//! `T` — which the paper shows is without loss of generality.
//!
//! The formulation is built on the **schedule-model IR** of `dls-lp`:
//! [`scenario_model`] returns the [`ScheduleModel`], whose
//! [`problem`](ScheduleModel::problem) is the one LP the solver sees.
//! LP variants that keep the canonical shape — the multi-round expanded
//! scenarios, the affine-latency rows — share this single source of the
//! (2a)/(2b) rows, and variants that drop it (the interleaved-master and
//! tree-native families) reuse the same group and combinator vocabulary.
//! Every floating-point LP of the crate goes through one solver call,
//! [`solve_model`], with no engine switch; the exact re-solves
//! ([`solve_scenario_exact`]) hand the same problem to the `Rational`
//! backend.

use dls_lp::{LpError, Scalar, ScheduleModel, Solution, SolverOptions, VarId};
use dls_platform::{Platform, WorkerId};

use crate::error::CoreError;
use crate::schedule::{check_orders, PortModel, Schedule};

/// The pre-solve gate: in debug builds, runs [`dls_lp::analyze`] over
/// `model` and rejects error-severity findings as
/// [`CoreError::InvalidModel`] (the rendered report names each offending
/// row label and `RowKind`). Warnings — redundant-but-legal rows,
/// conditioning hazards — are tolerated. [`solve_model`] calls this before
/// every solve, so every floating-point LP in the workspace passes it:
/// [`solve_scenario`], the affine builder
/// ([`crate::affine::affine_fifo_for_set`]), the bottleneck diagnosis
/// ([`crate::diagnosis::diagnose`]), the interleaved family, and the
/// multi-round and tree-native LPs of `dls-rounds` and `dls-tree`. The
/// whole test suite therefore doubles as analyzer coverage; release builds
/// skip the gate.
pub fn analyze_gate(model: &ScheduleModel) -> Result<(), CoreError> {
    if !cfg!(debug_assertions) {
        return Ok(());
    }
    let _span = dls_obs::trace_span!("core.analyze_gate.seconds", "rows" => model.num_rows());
    let report = dls_lp::analyze(model);
    if report.has_errors() {
        return Err(CoreError::InvalidModel(report.to_string()));
    }
    Ok(())
}

/// Result of solving a scenario LP.
#[derive(Debug, Clone)]
pub struct LpSchedule {
    /// The schedule with LP-optimal loads.
    pub schedule: Schedule,
    /// Optimal throughput `ρ = Σ α_i` for `T = 1`.
    pub throughput: f64,
    /// The LP's idle variables `x_i`, by platform worker index
    /// (non-participants carry 0). Note the LP may distribute slack
    /// differently from the earliest-feasible timeline; use
    /// [`crate::timeline::Timeline`] for physical idle times.
    pub lp_idles: Vec<f64>,
    /// Simplex pivots used, summed over every LP the answer took (a FIFO
    /// working set that grows solves more than one).
    pub iterations: usize,
}

/// Variable handles of a built scenario LP, in enrolled (send-order)
/// indexing.
#[derive(Debug, Clone)]
pub struct LpVars {
    /// `α` variables, one per enrolled worker (send order).
    pub alphas: Vec<VarId>,
    /// `x` (idle) variables, one per enrolled worker (send order).
    pub idles: Vec<VarId>,
}

/// Builds the scenario **schedule-model IR** for `(σ1, σ2)` under `model`
/// — the canonical sends-then-returns shape as [`ScheduleModel`] groups
/// (`alpha` loads, `idle` gaps) and tagged rows (per-worker
/// [deadlines](ScheduleModel::deadline), the
/// [one-port](ScheduleModel::one_port) capacity row).
///
/// This is the single source of the paper's LP (2): the model's
/// [`problem`](ScheduleModel::problem) is the raw LP, [`solve_scenario`]
/// solves it through [`solve_model`], and the multi-round planner
/// (`dls-rounds`) builds its expanded round-major scenario on the same
/// function — an LP variant that keeps the canonical shape only has to
/// append rows to the returned model before solving it with
/// [`solve_model`].
pub fn scenario_model(
    platform: &Platform,
    send_order: &[WorkerId],
    return_order: &[WorkerId],
    model: PortModel,
) -> Result<(ScheduleModel, LpVars), CoreError> {
    let deadline_rhs = vec![1.0; send_order.len()];
    scenario_model_with_rhs(
        platform,
        send_order,
        return_order,
        model,
        &deadline_rhs,
        1.0,
    )
}

/// [`scenario_model`] with caller-supplied right-hand sides: one horizon
/// budget per enrolled worker's deadline row (send order) plus the
/// one-port row's budget. The coefficient matrix is exactly the canonical
/// scenario's — this is the affine family's entry point, where fixed
/// per-message latencies only *shift the right-hand sides* — so the
/// (2a)/(2b) row emission has a single source.
///
/// # Panics
/// Panics when `deadline_rhs` does not have one entry per enrolled worker.
pub fn scenario_model_with_rhs(
    platform: &Platform,
    send_order: &[WorkerId],
    return_order: &[WorkerId],
    model: PortModel,
    deadline_rhs: &[f64],
    one_port_rhs: f64,
) -> Result<(ScheduleModel, LpVars), CoreError> {
    check_orders(platform, send_order, return_order)?;
    let q = send_order.len();
    assert_eq!(
        deadline_rhs.len(),
        q,
        "one deadline budget per enrolled worker"
    );
    let mut ir = ScheduleModel::maximize();

    let alpha_group = ir.group(
        "alpha",
        send_order.iter().map(|id| (format!("alpha_{id}"), 1.0)),
    );
    let idle_group = ir.group("idle", send_order.iter().map(|id| (format!("x_{id}"), 0.0)));

    // Enrolled position maps.
    let mut send_pos = vec![usize::MAX; platform.num_workers()];
    for (k, id) in send_order.iter().enumerate() {
        send_pos[id.index()] = k;
    }
    let mut return_pos = vec![usize::MAX; platform.num_workers()];
    for (m, id) in return_order.iter().enumerate() {
        return_pos[id.index()] = m;
    }

    // (2a) per enrolled worker.
    for (k, &id) in send_order.iter().enumerate() {
        let w_i = platform.worker(id);
        let m = return_pos[id.index()];
        // k + 1 sends, own computation, own idle gap, q − m returns.
        let mut coeffs: Vec<(dls_lp::MVar, f64)> = Vec::with_capacity(k + 3 + (q - m));
        // Sends up to and including position k.
        for (l, &jd) in send_order.iter().enumerate().take(k + 1) {
            coeffs.push((alpha_group.var(l), platform.worker(jd).c));
        }
        // Own computation.
        coeffs.push((alpha_group.var(k), w_i.w));
        // Own idle gap.
        coeffs.push((idle_group.var(k), 1.0));
        // Returns from position m through the end.
        for &jd in return_order.iter().skip(m) {
            let enrolled = send_pos[jd.index()];
            coeffs.push((alpha_group.var(enrolled), platform.worker(jd).d));
        }
        ir.deadline(format!("deadline_{id}"), coeffs, deadline_rhs[k]);
    }

    // (2b) one-port: total master communication time within the budget.
    if model == PortModel::OnePort {
        let coeffs: Vec<(dls_lp::MVar, f64)> = send_order
            .iter()
            .enumerate()
            .map(|(k, &id)| {
                let w = platform.worker(id);
                (alpha_group.var(k), w.c + w.d)
            })
            .collect();
        ir.one_port("one_port", coeffs, one_port_rhs);
    }

    let vars = LpVars {
        alphas: alpha_group.var_ids(),
        idles: idle_group.var_ids(),
    };
    Ok((ir, vars))
}

/// Solves a schedule-model IR: the one LP call every floating-point LP in
/// the workspace goes through. The model first passes the [`analyze_gate`]
/// (debug builds only); then the revised simplex solves the model's
/// [`problem`](ScheduleModel::problem) in place, and the engine's own
/// [`Solution`] comes back: the optimal point (index it with [`VarId`]s or
/// [`dls_lp::MVar::var_id`]), objective, duals and pivot count. Every solve
/// starts cold, so the result depends only on the model, never on earlier
/// solves; a numerical failure of the revised engine retries once on the
/// tableau.
pub fn solve_model(model: &ScheduleModel) -> Result<Solution<f64>, CoreError> {
    analyze_gate(model)?;
    let lp = model.problem();
    let _span = dls_obs::trace_span!("lp_model.solve.seconds");
    let opts = SolverOptions::for_size(lp.num_vars(), lp.num_constraints());
    let sol = match dls_lp::solve_revised_with::<f64>(lp, &opts, None) {
        Ok(r) => r.solution,
        // Infeasible/unbounded are real answers; numerical failures
        // (iteration limit, singular refactorization) get one shot on the
        // tableau before surfacing.
        Err(LpError::IterationLimit { .. }) | Err(LpError::SingularBasis) => {
            dls_obs::counter!("lp_model.tableau_retry").incr();
            dls_obs::trace_event!("lp_model.tableau_retry");
            dls_lp::solve_with::<f64>(lp, &opts)?
        }
        Err(e) => return Err(e.into()),
    };
    // Counts solved LPs. The name predates the cold-only solve path; it is
    // kept because the perfbench per-layer report divides by it.
    dls_obs::counter!("basis_cache.miss").incr();
    Ok(sol)
}

/// Solves the scenario LP through [`solve_model`] and packages the optimal
/// schedule.
pub fn solve_scenario(
    platform: &Platform,
    send_order: &[WorkerId],
    return_order: &[WorkerId],
    model: PortModel,
) -> Result<LpSchedule, CoreError> {
    let _span = dls_obs::trace_span!(
        "core.solve_scenario.seconds",
        "workers" => platform.num_workers(),
        "enrolled" => send_order.len(),
    );
    let (ir, vars) = scenario_model(platform, send_order, return_order, model)?;
    let sol = solve_model(&ir)?;
    package(
        platform,
        (send_order, return_order),
        send_order,
        &vars,
        &sol,
        sol.iterations,
    )
}

/// Packages the optimum `sol` of a scenario model that enrolls `set` (its
/// variables `vars`) as a schedule over `orders`, which may also list
/// workers outside `set`: they get zero load.
fn package(
    platform: &Platform,
    (send_order, return_order): (&[WorkerId], &[WorkerId]),
    set: &[WorkerId],
    vars: &LpVars,
    sol: &Solution<f64>,
    iterations: usize,
) -> Result<LpSchedule, CoreError> {
    let mut loads = vec![0.0; platform.num_workers()];
    let mut lp_idles = vec![0.0; platform.num_workers()];
    for (k, &id) in set.iter().enumerate() {
        loads[id.index()] = sol.value(vars.alphas[k]).max(0.0);
        lp_idles[id.index()] = sol.value(vars.idles[k]).max(0.0);
    }
    let schedule = Schedule::new(platform, send_order.to_vec(), return_order.to_vec(), loads)?;
    Ok(LpSchedule {
        throughput: sol.objective,
        schedule,
        lp_idles,
        iterations,
    })
}

/// Solves the scenario LP with an exact scalar backend; returns
/// `(throughput, loads-by-platform-index)`.
pub fn solve_scenario_exact<S: Scalar>(
    platform: &Platform,
    send_order: &[WorkerId],
    return_order: &[WorkerId],
    model: PortModel,
) -> Result<(S, Vec<S>), CoreError> {
    let (ir, vars) = scenario_model(platform, send_order, return_order, model)?;
    let sol = dls_lp::solve_exact::<S>(ir.problem())?;
    let mut loads = vec![S::zero(); platform.num_workers()];
    for (k, &id) in send_order.iter().enumerate() {
        loads[id.index()] = sol.value(vars.alphas[k]);
    }
    Ok((sol.objective, loads))
}

/// The FIFO scenario (`σ2 = σ1`) LP over all of `order`: the crate's
/// working-set FIFO solve with the whole order as its first set, so one
/// LP and nothing to price.
pub fn solve_fifo(
    platform: &Platform,
    order: &[WorkerId],
    model: PortModel,
) -> Result<LpSchedule, CoreError> {
    solve_fifo_from(platform, order, order.len(), model)
}

/// Solves the FIFO scenario LP over `order` from the working set
/// `order[..first]`, enrolling more workers only where LP duality asks.
///
/// Each round builds the scenario LP over the set's workers alone (in
/// `order`'s relative order) and solves it through [`solve_model`]. Its
/// duals — `y_k` per deadline row, `y_port` for (2b) — then price every
/// worker `j` of `order` left out of the set, in one sweep:
///
/// ```text
/// rc_j = 1 − c_j·Σ_{set, after j} y − d_j·Σ_{set, before j} y − (c_j + d_j)·y_port
/// ```
///
/// Its idle column `x_j` prices at 0 (its row's dual is 0), and the same
/// sweep checks its deadline row at `α_j = 0`. A worker with `rc_j`, or a
/// row overflow, above the engines' relative tolerance (`1e-9` times the
/// full LP's [`coefficient scale`](dls_lp::Problem::coefficient_scale))
/// joins the set, and the round repeats. When no worker does, the set's
/// optimum extended by `α_j = 0` is primal and dual feasible for the full
/// LP, hence optimal for it. The schedule lists every worker of `order`
/// (zero load outside the set), so it is the full LP's scenario;
/// [`LpSchedule::iterations`] sums the pivots of every round. A solve whose
/// first set had to grow is counted in `fifo.working_set.regrown`.
pub(crate) fn solve_fifo_from(
    platform: &Platform,
    order: &[WorkerId],
    first: usize,
    model: PortModel,
) -> Result<LpSchedule, CoreError> {
    let _span = dls_obs::trace_span!(
        "core.solve_scenario.seconds",
        "workers" => platform.num_workers(),
        "enrolled" => first.min(order.len()),
    );
    check_orders(platform, order, order)?;
    let tol = <f64 as Scalar>::tolerance() * fifo_coefficient_scale(platform, order, model);
    let mut in_set: Vec<bool> = (0..order.len()).map(|k| k < first).collect();
    // Interned up front so a summary lists the counter even at 0.
    let regrown_counter = dls_obs::counter!("fifo.working_set.regrown");
    let mut iterations = 0;
    let mut regrown = false;
    loop {
        let set: Vec<WorkerId> = order
            .iter()
            .zip(&in_set)
            .filter_map(|(&id, &enrolled)| enrolled.then_some(id))
            .collect();
        let (ir, vars) = scenario_model(platform, &set, &set, model)?;
        let sol = solve_model(&ir)?;
        iterations += sol.iterations;
        let entering = price_omitted(platform, order, &in_set, &vars, &sol, model, tol);
        if entering.is_empty() {
            return package(platform, (order, order), &set, &vars, &sol, iterations);
        }
        if !regrown {
            regrown = true;
            regrown_counter.incr();
        }
        // Each round enrolls at least one worker, so the loop ends by the
        // time the set is the whole order.
        for k in entering {
            in_set[k] = true;
        }
    }
}

/// Positions of `order` outside the working set (`in_set`) that the
/// set's FIFO optimum `sol` prices in: reduced cost of `α_j` above `tol`,
/// or deadline row at `α_j = 0` above `1 + tol`. The scenario model lists
/// one deadline row per set worker in send order, then the one-port row.
fn price_omitted(
    platform: &Platform,
    order: &[WorkerId],
    in_set: &[bool],
    vars: &LpVars,
    sol: &Solution<f64>,
    model: PortModel,
    tol: f64,
) -> Vec<usize> {
    let q = vars.alphas.len();
    let y_port = match model {
        PortModel::OnePort => sol.duals[q],
        PortModel::TwoPort => 0.0,
    };
    let y_total: f64 = sol.duals[..q].iter().sum();
    let returns_total: f64 = order
        .iter()
        .zip(in_set)
        .filter(|(_, &enrolled)| enrolled)
        .zip(&vars.alphas)
        .map(|((&id, _), &a)| sol.value(a) * platform.worker(id).d)
        .sum();
    // Running sums over the set's workers before position k.
    let (mut y_before, mut sends_before, mut returns_before) = (0.0, 0.0, 0.0);
    let mut s = 0;
    let mut entering = Vec::new();
    for (k, (&id, &enrolled)) in order.iter().zip(in_set).enumerate() {
        let w = platform.worker(id);
        if enrolled {
            let alpha = sol.value(vars.alphas[s]);
            y_before += sol.duals[s];
            sends_before += alpha * w.c;
            returns_before += alpha * w.d;
            s += 1;
            continue;
        }
        let rc = 1.0 - w.c * (y_total - y_before) - w.d * y_before - (w.c + w.d) * y_port;
        let row = sends_before + (returns_total - returns_before);
        if rc > tol || row > 1.0 + tol {
            entering.push(k);
        }
    }
    entering
}

/// [`dls_lp::Problem::coefficient_scale`] of the FIFO scenario LP over all
/// of `order`, without building it: its entries are `c`, `w`, `d`, the
/// idle and objective 1s, and `c + d` in the one-port row.
fn fifo_coefficient_scale(platform: &Platform, order: &[WorkerId], model: PortModel) -> f64 {
    order.iter().fold(1.0, |scale: f64, &id| {
        let w = platform.worker(id);
        let scale = scale.max(w.c).max(w.w).max(w.d);
        match model {
            PortModel::OnePort => scale.max(w.c + w.d),
            PortModel::TwoPort => scale,
        }
    })
}

/// Convenience: LIFO scenario (`σ2 = σ1` reversed).
pub fn solve_lifo(
    platform: &Platform,
    order: &[WorkerId],
    model: PortModel,
) -> Result<LpSchedule, CoreError> {
    let rev: Vec<WorkerId> = order.iter().rev().copied().collect();
    solve_scenario(platform, order, &rev, model)
}

#[cfg(test)]
// Unit tests assert exact outcomes of exact arithmetic.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use crate::timeline::{makespan, Timeline};
    use dls_lp::Problem;
    use dls_platform::Platform;

    fn ids(v: &[usize]) -> Vec<WorkerId> {
        v.iter().map(|&i| WorkerId(i)).collect()
    }

    fn platform() -> Platform {
        Platform::star_with_z(&[(1.0, 2.0), (2.0, 1.0), (1.5, 3.0)], 0.5).unwrap()
    }

    #[test]
    fn single_worker_fifo_closed_form() {
        // One worker: alpha (c + w + d) = 1 exactly.
        let p = Platform::star_with_z(&[(2.0, 3.0)], 0.5).unwrap();
        let s = solve_fifo(&p, &ids(&[0]), PortModel::OnePort).unwrap();
        let expect = 1.0 / (2.0 + 3.0 + 1.0);
        assert!((s.throughput - expect).abs() < 1e-9);
        assert!((s.schedule.load(WorkerId(0)) - expect).abs() < 1e-9);
    }

    #[test]
    fn lp_schedule_fits_in_unit_time() {
        let p = platform();
        for model in [PortModel::OnePort, PortModel::TwoPort] {
            let s = solve_fifo(&p, &ids(&[0, 1, 2]), model).unwrap();
            let ms = makespan(&p, &s.schedule, model);
            assert!(
                ms <= 1.0 + 1e-7,
                "schedule overflows horizon: {ms} under {model:?}"
            );
            let t = Timeline::build(&p, &s.schedule, model);
            assert!(t.verify(&p, &s.schedule, 1e-7).is_empty());
        }
    }

    #[test]
    fn lp_optimum_saturates_horizon() {
        // At the optimum the schedule must use the full horizon (otherwise
        // scale up: contradiction with optimality).
        let p = platform();
        let s = solve_fifo(&p, &ids(&[0, 1, 2]), PortModel::OnePort).unwrap();
        let ms = makespan(&p, &s.schedule, PortModel::OnePort);
        assert!(
            (ms - 1.0).abs() < 1e-7,
            "optimal schedule wastes time: {ms}"
        );
    }

    #[test]
    fn two_port_dominates_one_port() {
        let p = platform();
        let one = solve_fifo(&p, &ids(&[0, 1, 2]), PortModel::OnePort).unwrap();
        let two = solve_fifo(&p, &ids(&[0, 1, 2]), PortModel::TwoPort).unwrap();
        assert!(two.throughput >= one.throughput - 1e-9);
    }

    #[test]
    fn lifo_reverses_return_order() {
        let p = platform();
        let s = solve_lifo(&p, &ids(&[0, 1, 2]), PortModel::OnePort).unwrap();
        assert!(s.schedule.is_lifo());
        let ms = makespan(&p, &s.schedule, PortModel::OnePort);
        assert!(ms <= 1.0 + 1e-7);
    }

    #[test]
    fn general_permutation_pair() {
        let p = platform();
        let s = solve_scenario(&p, &ids(&[0, 1, 2]), &ids(&[1, 0, 2]), PortModel::OnePort).unwrap();
        assert!(s.throughput > 0.0);
        let t = Timeline::build(&p, &s.schedule, PortModel::OnePort);
        assert!(t.verify(&p, &s.schedule, 1e-7).is_empty());
        assert!(t.makespan() <= 1.0 + 1e-7);
    }

    #[test]
    fn throughput_equals_total_load() {
        let p = platform();
        let s = solve_fifo(&p, &ids(&[2, 0, 1]), PortModel::OnePort).unwrap();
        assert!((s.throughput - s.schedule.total_load()).abs() < 1e-9);
    }

    #[test]
    fn exact_backend_agrees_with_float() {
        let p = platform();
        let f = solve_fifo(&p, &ids(&[0, 1, 2]), PortModel::OnePort).unwrap();
        let (rho, _) = solve_scenario_exact::<dls_lp::Rational>(
            &p,
            &ids(&[0, 1, 2]),
            &ids(&[0, 1, 2]),
            PortModel::OnePort,
        )
        .unwrap();
        assert!((f.throughput - rho.to_f64()).abs() < 1e-9);
    }

    /// The revised simplex's and the tableau's optima of `ir`, each engine
    /// called directly on the model's problem.
    fn both_engines(ir: &ScheduleModel) -> [(&'static str, Solution<f64>); 2] {
        [
            ("revised", dls_lp::solve_revised(ir.problem()).unwrap()),
            ("tableau", dls_lp::solve(ir.problem()).unwrap()),
        ]
    }

    #[test]
    fn tableau_and_revised_engines_agree() {
        let p = platform();
        let order = ids(&[0, 1, 2]);
        for model in [PortModel::OnePort, PortModel::TwoPort] {
            let (ir, _) = scenario_model(&p, &order, &order, model).unwrap();
            let [(_, revised), (_, tableau)] = both_engines(&ir);
            let rel =
                (revised.objective - tableau.objective).abs() / tableau.objective.abs().max(1.0);
            assert!(
                rel <= 1e-9,
                "engines disagree under {model:?}: revised {} vs tableau {}",
                revised.objective,
                tableau.objective
            );
        }
    }

    #[test]
    fn router_results_do_not_depend_on_history() {
        // The determinism contract: a solve's answer is a function of its
        // LP alone. Solving other LPs on the same platform in between —
        // LIFO, another order, the two-port model, a raw IR model — must
        // not change a repeat of the first solve by a single bit.
        let p = platform();
        let order = ids(&[0, 1, 2]);
        let first = solve_fifo(&p, &order, PortModel::OnePort).unwrap();
        solve_lifo(&p, &order, PortModel::OnePort).unwrap();
        solve_fifo(&p, &ids(&[2, 0, 1]), PortModel::OnePort).unwrap();
        solve_fifo(&p, &order, PortModel::TwoPort).unwrap();
        let (ir, _) = scenario_model(&p, &order, &ids(&[1, 0, 2]), PortModel::OnePort).unwrap();
        solve_model(&ir).unwrap();
        let again = solve_fifo(&p, &order, PortModel::OnePort).unwrap();

        assert!(first.iterations > 0);
        assert_eq!(again.iterations, first.iterations);
        assert_eq!(again.throughput.to_bits(), first.throughput.to_bits());
        for id in p.ids() {
            assert_eq!(
                again.schedule.load(id).to_bits(),
                first.schedule.load(id).to_bits()
            );
        }
        for (a, b) in again.lp_idles.iter().zip(&first.lp_idles) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn every_router_solve_is_counted() {
        // `basis_cache.miss` counts `solve_model` calls; the per-layer
        // benchmark report divides by it.
        let p = platform();
        let order = ids(&[0, 1, 2]);
        let solves = || dls_obs::counter!("basis_cache.miss").value();
        let before = solves();
        solve_fifo(&p, &order, PortModel::OnePort).unwrap();
        solve_fifo(&p, &order, PortModel::TwoPort).unwrap();
        assert!(solves() >= before + 2);
    }

    /// The pre-IR hand-rolled builder, kept verbatim as a golden: the IR
    /// lowering must reproduce its output *byte for byte* (names, labels,
    /// objective, row order, coefficient order), so the refactor changed
    /// no LP.
    fn golden_build_problem(
        platform: &Platform,
        send_order: &[WorkerId],
        return_order: &[WorkerId],
        model: PortModel,
    ) -> Problem {
        use dls_lp::Relation;
        let q = send_order.len();
        let mut lp = Problem::maximize();
        let alphas: Vec<VarId> = send_order
            .iter()
            .map(|id| lp.add_var(format!("alpha_{id}"), 1.0))
            .collect();
        let idles: Vec<VarId> = send_order
            .iter()
            .map(|id| lp.add_var(format!("x_{id}"), 0.0))
            .collect();
        let mut send_pos = vec![usize::MAX; platform.num_workers()];
        for (k, id) in send_order.iter().enumerate() {
            send_pos[id.index()] = k;
        }
        let mut return_pos = vec![usize::MAX; platform.num_workers()];
        for (m, id) in return_order.iter().enumerate() {
            return_pos[id.index()] = m;
        }
        for (k, &id) in send_order.iter().enumerate() {
            let w_i = platform.worker(id);
            let m = return_pos[id.index()];
            let mut coeffs: Vec<(VarId, f64)> = Vec::with_capacity(q + 2);
            for (l, &jd) in send_order.iter().enumerate().take(k + 1) {
                coeffs.push((alphas[l], platform.worker(jd).c));
            }
            coeffs.push((alphas[k], w_i.w));
            coeffs.push((idles[k], 1.0));
            for &jd in return_order.iter().skip(m) {
                let enrolled = send_pos[jd.index()];
                coeffs.push((alphas[enrolled], platform.worker(jd).d));
            }
            lp.add_constraint(format!("deadline_{id}"), coeffs, Relation::Le, 1.0);
        }
        if model == PortModel::OnePort {
            let coeffs: Vec<(VarId, f64)> = send_order
                .iter()
                .enumerate()
                .map(|(k, &id)| {
                    let w = platform.worker(id);
                    (alphas[k], w.c + w.d)
                })
                .collect();
            lp.add_constraint("one_port", coeffs, Relation::Le, 1.0);
        }
        lp
    }

    #[test]
    fn ir_lowering_is_byte_identical() {
        let p = platform();
        for (send, ret) in [
            (ids(&[0, 1, 2]), ids(&[0, 1, 2])),
            (ids(&[2, 0, 1]), ids(&[1, 0, 2])),
            (ids(&[1]), ids(&[1])),
        ] {
            for model in [PortModel::OnePort, PortModel::TwoPort] {
                let golden = golden_build_problem(&p, &send, &ret, model);
                let (ir, vars) = scenario_model(&p, &send, &ret, model).unwrap();
                let built = ir.problem();
                assert_eq!(built.num_vars(), golden.num_vars());
                assert_eq!(built.num_constraints(), golden.num_constraints());
                assert_eq!(built.objective(), golden.objective());
                for (a, b) in built.constraints().iter().zip(golden.constraints()) {
                    assert_eq!(a.label, b.label);
                    assert_eq!(a.relation, b.relation);
                    assert_eq!(a.rhs, b.rhs);
                    assert_eq!(
                        a.coeffs, b.coeffs,
                        "coefficient lists diverge in {}",
                        a.label
                    );
                }
                // The rendered LP text (the strongest byte-level witness).
                assert_eq!(built.to_lp_format(), golden.to_lp_format());
                // Variable handles line up with the golden declaration order.
                assert_eq!(vars.alphas.len(), send.len());
                assert_eq!(vars.idles[0].index(), send.len());
            }
        }
    }

    #[test]
    fn scenario_model_exposes_structure() {
        let p = platform();
        let (ir, _) =
            scenario_model(&p, &ids(&[0, 1, 2]), &ids(&[0, 1, 2]), PortModel::OnePort).unwrap();
        assert_eq!(ir.num_vars(), 6);
        assert_eq!(ir.num_rows(), 4);
        let kinds: Vec<dls_lp::RowKind> = ir.row_kinds().collect();
        assert_eq!(
            kinds,
            vec![
                dls_lp::RowKind::Deadline,
                dls_lp::RowKind::Deadline,
                dls_lp::RowKind::Deadline,
                dls_lp::RowKind::OnePort,
            ]
        );
        // The two-port model drops the one-port row.
        let (two, _) =
            scenario_model(&p, &ids(&[0, 1, 2]), &ids(&[0, 1, 2]), PortModel::TwoPort).unwrap();
        assert_eq!(two.num_rows(), 3);
    }

    #[test]
    fn solve_model_agrees_with_the_scenario_path() {
        let p = platform();
        let (ir, vars) =
            scenario_model(&p, &ids(&[0, 1, 2]), &ids(&[0, 1, 2]), PortModel::OnePort).unwrap();
        let direct = solve_model(&ir).unwrap();
        let scenario = solve_fifo(&p, &ids(&[0, 1, 2]), PortModel::OnePort).unwrap();
        assert!((direct.objective - scenario.throughput).abs() < 1e-9);
        assert!((direct.value(vars.alphas[0]) - scenario.schedule.load(WorkerId(0))).abs() < 1e-9);
    }

    // The gate runs in debug builds only, which is how tests build.
    #[cfg(debug_assertions)]
    #[test]
    fn analyzer_gate_rejects_corrupt_models_in_debug_builds() {
        let mut ir = ScheduleModel::maximize();
        let alphas = ir.group("alpha", (1..=2).map(|i| (format!("alpha_P{i}"), 1.0)));
        ir.deadline("deadline_P1", [(alphas.var(0), 3.0)], 1.0);
        ir.deadline("deadline_P2", [(alphas.var(1), 4.0)], 1.0);
        // Sign-flipped one-port row: the class of builder bug the gate is
        // for. The error must name the row and its kind.
        ir.one_port(
            "one_port",
            [(alphas.var(0), -1.5), (alphas.var(1), 3.0)],
            1.0,
        );
        match solve_model(&ir) {
            Err(CoreError::InvalidModel(report)) => {
                assert!(report.contains("one_port"), "{report}");
                assert!(report.contains("OnePort"), "{report}");
            }
            other => panic!("expected InvalidModel, got {other:?}"),
        }
    }

    #[test]
    fn every_scenario_shape_passes_the_gate() {
        // The gate is active in debug test runs: these solves double as
        // analyzer acceptance coverage for the canonical builder.
        let p = platform();
        for (send, ret) in [
            (ids(&[0, 1, 2]), ids(&[0, 1, 2])),
            (ids(&[2, 0, 1]), ids(&[1, 0, 2])),
            (ids(&[0, 1, 2]), ids(&[2, 1, 0])),
        ] {
            for model in [PortModel::OnePort, PortModel::TwoPort] {
                solve_scenario(&p, &send, &ret, model).unwrap();
            }
        }
    }

    #[test]
    fn malformed_orders_rejected() {
        let p = platform();
        assert!(matches!(
            solve_scenario(&p, &ids(&[0, 1]), &ids(&[0, 2]), PortModel::OnePort),
            Err(CoreError::MalformedOrder(_))
        ));
    }

    #[test]
    fn one_port_constraint_binds_on_comm_bound_platform() {
        // Tiny compute costs: communication is the bottleneck and
        // rho = 1 / min-sum possible... specifically (2b) must bind:
        // rho * (c + d) == 1 on a homogeneous comm-bound bus.
        let p = Platform::star_with_z(&[(1.0, 1e-6), (1.0, 1e-6)], 0.5).unwrap();
        let s = solve_fifo(&p, &ids(&[0, 1]), PortModel::OnePort).unwrap();
        assert!((s.throughput - 1.0 / 1.5).abs() < 1e-4);
    }

    #[test]
    fn both_engines_price_omitted_workers_with_their_duals() {
        // The optimum enrolls P1 and P2 only: P3's link eats the horizon.
        let p = Platform::star_with_z(&[(0.1, 1.0), (0.1, 1.0), (100.0, 1.0)], 0.5).unwrap();
        let order = p.order_by_c();
        let tol =
            <f64 as Scalar>::tolerance() * fifo_coefficient_scale(&p, &order, PortModel::OnePort);
        // What each engine's duals decide for the working set `order[..first]`.
        let entering = |first: usize| {
            let in_set: Vec<bool> = (0..order.len()).map(|k| k < first).collect();
            let (ir, vars) =
                scenario_model(&p, &order[..first], &order[..first], PortModel::OnePort).unwrap();
            both_engines(&ir).map(|(engine, sol)| {
                let priced =
                    price_omitted(&p, &order, &in_set, &vars, &sol, PortModel::OnePort, tol);
                (engine, priced)
            })
        };
        for (engine, priced) in entering(2) {
            assert_eq!(priced, Vec::<usize>::new(), "{engine}");
        }
        for (engine, priced) in entering(1) {
            assert_eq!(priced, vec![1], "{engine}");
        }
    }

    #[test]
    fn subset_enrollment_allowed() {
        let p = platform();
        let s = solve_fifo(&p, &ids(&[1]), PortModel::OnePort).unwrap();
        assert_eq!(s.schedule.load(WorkerId(0)), 0.0);
        assert!(s.schedule.load(WorkerId(1)) > 0.0);
    }
}
