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
//! The formulation is built on the **schedule-model IR** of `dls-lp`
//! ([`scenario_model`] returns the [`ScheduleModel`]; [`build_problem`]
//! lowers it), so LP variants that keep the canonical shape — the
//! multi-round expanded scenarios, the affine-latency rows — share this
//! single source of the (2a)/(2b) rows, and variants that drop it (the
//! interleaved-master and tree-native families) reuse the same group and
//! combinator vocabulary plus the [`solve_model`] engine router.
//!
//! The builder is exposed ([`build_problem`]) so tests can solve the same
//! LP with the exact rational backend.

use std::cell::Cell;
use std::sync::OnceLock;

use dls_lp::{LpError, Problem, Scalar, ScheduleModel, SolverOptions, VarId};
use dls_platform::{Platform, WorkerId};

use crate::error::CoreError;
use crate::schedule::{PortModel, Schedule};

/// Which LP backend solves the scenario LPs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpEngine {
    /// The dense two-phase tableau ([`dls_lp::solve_with`]).
    Tableau,
    /// The revised simplex with a sparse LU factorization
    /// ([`dls_lp::solve_revised_with`]), solving cold — the default.
    Revised,
}

thread_local! {
    static ENGINE: Cell<LpEngine> = const { Cell::new(LpEngine::Revised) };
}

/// The engine the current thread uses for scenario LPs.
pub fn current_engine() -> LpEngine {
    ENGINE.with(Cell::get)
}

/// Runs `f` with the scenario-LP engine overridden to `engine` on this
/// thread, restoring the previous engine afterwards — also on panic, so a
/// failing assertion inside `f` cannot leak the override into later tests
/// sharing the thread. Used by the cross-validation tests to force the
/// tableau path.
pub fn with_engine<R>(engine: LpEngine, f: impl FnOnce() -> R) -> R {
    struct Restore(LpEngine);
    impl Drop for Restore {
        fn drop(&mut self) {
            ENGINE.with(|e| e.set(self.0));
        }
    }
    let _restore = Restore(ENGINE.with(|e| e.replace(engine)));
    f()
}

/// `true` when the pre-solve static analyzer ([`dls_lp::analyze`]) runs on
/// every schedule model before lowering. Defaults to on in debug builds
/// (so the whole test suite doubles as analyzer coverage) and off in
/// release; the `DLS_ANALYZE` environment variable overrides either way
/// (`1`/`true` forces on — e.g. for a release sweep — and `0`/`false`
/// forces off). Read once per process.
pub fn analysis_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| match std::env::var("DLS_ANALYZE") {
        Ok(v) => {
            let v = v.trim();
            !(v.is_empty() || v == "0" || v.eq_ignore_ascii_case("false"))
        }
        Err(_) => cfg!(debug_assertions),
    })
}

/// The pre-solve gate: when [`analysis_enabled`], runs [`dls_lp::analyze`]
/// over `model` and rejects error-severity findings as
/// [`CoreError::InvalidModel`] (the rendered report names each offending
/// row label and `RowKind`). Warnings — redundant-but-legal rows,
/// conditioning hazards — are tolerated. Every IR entry point in the
/// workspace (`solve_model`, `solve_scenario`, the affine builder's direct
/// tableau path) calls this before lowering.
pub fn analyze_gate(model: &ScheduleModel) -> Result<(), CoreError> {
    if !analysis_enabled() {
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
    /// Simplex pivots used.
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

fn check_orders(
    platform: &Platform,
    send_order: &[WorkerId],
    return_order: &[WorkerId],
) -> Result<(), CoreError> {
    // Schedule::new performs full validation; reuse it with zero loads.
    Schedule::new(
        platform,
        send_order.to_vec(),
        return_order.to_vec(),
        vec![0.0; platform.num_workers()],
    )
    .map(|_| ())
}

/// Builds the scenario **schedule-model IR** for `(σ1, σ2)` under `model`
/// — the canonical sends-then-returns shape as [`ScheduleModel`] groups
/// (`alpha` loads, `idle` gaps) and tagged rows (per-worker
/// [deadlines](ScheduleModel::deadline), the
/// [one-port](ScheduleModel::one_port) capacity row).
///
/// This is the single source of the paper's LP (2): [`build_problem`]
/// lowers it to a raw [`Problem`], [`solve_scenario`] solves it through
/// the engine router, and the multi-round planner (`dls-rounds`) builds
/// its expanded round-major scenario on the same function — an LP variant
/// that keeps the canonical shape only has to append rows to the returned
/// model before solving it with [`solve_model`].
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
        let mut coeffs: Vec<(dls_lp::MVar, f64)> = Vec::with_capacity(q + 2);
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

/// Builds the scenario LP for `(σ1, σ2)` under `model` by lowering
/// [`scenario_model`] — byte-identical columns and rows to the historical
/// hand-rolled builder (pinned by the `ir_lowering_is_byte_identical`
/// test), so external consumers of the raw [`Problem`] see no change.
///
/// Returns the problem plus variable handles (enrolled indexing follows
/// `send_order`).
pub fn build_problem(
    platform: &Platform,
    send_order: &[WorkerId],
    return_order: &[WorkerId],
    model: PortModel,
) -> Result<(Problem, LpVars), CoreError> {
    let (ir, vars) = scenario_model(platform, send_order, return_order, model)?;
    Ok((ir.lower(), vars))
}

/// Result of solving a [`ScheduleModel`] through the engine router.
#[derive(Debug, Clone)]
pub struct ModelSolution {
    /// Optimal value per model variable, in declaration order (index with
    /// [`dls_lp::MVar::index`] or [`VarId::index`]).
    pub values: Vec<f64>,
    /// Optimal objective.
    pub objective: f64,
    /// Simplex pivots used.
    pub iterations: usize,
}

impl ModelSolution {
    /// Value of one lowered variable.
    pub fn value(&self, v: VarId) -> f64 {
        self.values[v.index()]
    }
}

/// Solves a schedule-model IR through the thread's [`current_engine`] —
/// the one engine router every LP in the workspace goes through. Every
/// solve starts cold, so the result depends only on the model and the
/// engine, never on earlier solves; a numerical failure of the revised
/// engine retries once on the tableau. When [`analysis_enabled`] (debug
/// builds, `DLS_ANALYZE=1`), the model first passes the [`analyze_gate`]
/// static checks.
pub fn solve_model(model: &ScheduleModel) -> Result<ModelSolution, CoreError> {
    analyze_gate(model)?;
    let lp = model.lower();
    let engine = current_engine();
    let _span = dls_obs::trace_span!(
        "lp_model.solve.seconds",
        "engine" => match engine {
            LpEngine::Tableau => "tableau",
            LpEngine::Revised => "revised",
        },
    );
    let opts = SolverOptions::for_size(lp.num_vars(), lp.num_constraints());
    let sol = match engine {
        LpEngine::Tableau => dls_lp::solve_with::<f64>(&lp, &opts)?,
        LpEngine::Revised => match dls_lp::solve_revised_with::<f64>(&lp, &opts, None) {
            Ok(r) => r.solution,
            // Infeasible/unbounded are real answers; numerical failures
            // (iteration limit, singular refactorization) get one shot on
            // the tableau before surfacing.
            Err(LpError::IterationLimit { .. }) | Err(LpError::SingularBasis) => {
                dls_obs::counter!("lp_model.tableau_retry").incr();
                dls_obs::trace_event!("lp_model.tableau_retry");
                dls_lp::solve_with::<f64>(&lp, &opts)?
            }
            Err(e) => return Err(e.into()),
        },
    };
    // Counts solved router LPs. The name predates the cold-only router; it
    // is kept because the perfbench per-layer report divides by it.
    dls_obs::counter!("basis_cache.miss").incr();
    Ok(ModelSolution {
        values: sol.x,
        objective: sol.objective,
        iterations: sol.iterations,
    })
}

/// Solves the scenario LP and packages the optimal schedule.
///
/// The LP backend is the thread's [`current_engine`] — by default the
/// revised simplex, solving cold. On the rare numerical failure of the
/// revised path the tableau engine is retried before reporting an error.
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

    let mut loads = vec![0.0; platform.num_workers()];
    let mut lp_idles = vec![0.0; platform.num_workers()];
    for (k, &id) in send_order.iter().enumerate() {
        loads[id.index()] = sol.value(vars.alphas[k]).max(0.0);
        lp_idles[id.index()] = sol.value(vars.idles[k]).max(0.0);
    }
    let schedule = Schedule::new(platform, send_order.to_vec(), return_order.to_vec(), loads)?;
    Ok(LpSchedule {
        throughput: sol.objective,
        schedule,
        lp_idles,
        iterations: sol.iterations,
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
    let (lp, vars) = build_problem(platform, send_order, return_order, model)?;
    let sol = dls_lp::solve_exact::<S>(&lp)?;
    let mut loads = vec![S::zero(); platform.num_workers()];
    for (k, &id) in send_order.iter().enumerate() {
        loads[id.index()] = sol.value(vars.alphas[k]);
    }
    Ok((sol.objective, loads))
}

/// Convenience: FIFO scenario (`σ2 = σ1`).
pub fn solve_fifo(
    platform: &Platform,
    order: &[WorkerId],
    model: PortModel,
) -> Result<LpSchedule, CoreError> {
    solve_scenario(platform, order, order, model)
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

    #[test]
    fn tableau_and_revised_engines_agree() {
        let p = platform();
        let order = ids(&[0, 1, 2]);
        for model in [PortModel::OnePort, PortModel::TwoPort] {
            let revised = solve_fifo(&p, &order, model).unwrap();
            let tableau = with_engine(LpEngine::Tableau, || solve_fifo(&p, &order, model).unwrap());
            let rel =
                (revised.throughput - tableau.throughput).abs() / tableau.throughput.abs().max(1.0);
            assert!(
                rel <= 1e-9,
                "engines disagree under {model:?}: revised {} vs tableau {}",
                revised.throughput,
                tableau.throughput
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
        // `basis_cache.miss` counts router solves (both engines); the
        // per-layer benchmark report divides by it.
        let p = platform();
        let order = ids(&[0, 1, 2]);
        let solves = || dls_obs::counter!("basis_cache.miss").value();
        let before = solves();
        solve_fifo(&p, &order, PortModel::OnePort).unwrap();
        with_engine(LpEngine::Tableau, || {
            solve_fifo(&p, &order, PortModel::OnePort).unwrap()
        });
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
                let (built, vars) = build_problem(&p, &send, &ret, model).unwrap();
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

    #[test]
    fn analyzer_gate_rejects_corrupt_models_in_debug_builds() {
        // Tests run with debug_assertions, so the gate is on by default
        // (unless the environment explicitly disabled it).
        if !analysis_enabled() {
            return;
        }
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
    fn subset_enrollment_allowed() {
        let p = platform();
        let s = solve_fifo(&p, &ids(&[1]), PortModel::OnePort).unwrap();
        assert_eq!(s.schedule.load(WorkerId(0)), 0.0);
        assert!(s.schedule.load(WorkerId(1)) > 0.0);
    }
}
