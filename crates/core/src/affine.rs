//! Affine cost model extension (Section 6 of the paper).
//!
//! The linear model charges `α·c` per message; the *affine* model adds a
//! fixed start-up latency per message (`C_i` forward, `D_i` return). The
//! paper's related-work section explains why this matters — latencies
//! cannot be ignored for multi-round schedules — and cites the
//! NP-hardness of the affine one-round problem on stars
//! (Legrand-Yang-Casanova \[20\]). The hardness comes from *enrollment*:
//! with latencies, a worker costs port time even for an infinitesimal
//! load, so resource selection is no longer free in the LP and must be
//! searched combinatorially.
//!
//! This module provides:
//!
//! * [`affine_fifo_for_set`] — the scenario LP for a fixed enrolled set
//!   (still an LP: latencies only shift the right-hand sides), solved
//!   through [`lp_model::solve_model`] like every other LP;
//! * [`affine_fifo_best_prefix`] — polynomial heuristic over `c`-sorted
//!   prefixes;
//! * [`affine_fifo_best_subset`] — exhaustive subset search (exact, small
//!   `p`), the NP-hard problem's ground truth;
//! * [`affine_makespan`] — analytic earliest-feasible makespan of a FIFO
//!   schedule under affine costs (cross-checked against the simulator's
//!   per-message latency model in the integration tests);
//! * [`AffineScheduler`] / [`install`] — the registry wrap: one
//!   [`SchedulerProvider`] exposing the solvers as `affine_fifo` strategies
//!   with parameterized ids (`affine_fifo@prefix`, `affine_fifo@subset`,
//!   `affine_fifo@prefix:0.05` for an explicit uniform latency).

use std::sync::Arc;

use dls_lp::ScheduleModel;
use dls_platform::{Platform, WorkerId};

use crate::engine::{Execution, Provenance, Scheduler, SchedulerProvider, Solution};
use crate::error::CoreError;
use crate::lp_model::{self, LpVars};
use crate::schedule::{check_orders, PortModel, Schedule, LOAD_EPS};

/// Per-worker fixed message latencies.
#[derive(Debug, Clone, PartialEq)]
pub struct AffineLatencies {
    /// Start-up cost of the forward (data) message of each worker.
    pub send: Vec<f64>,
    /// Start-up cost of the return (result) message of each worker.
    pub ret: Vec<f64>,
}

impl AffineLatencies {
    /// Identical latencies for every worker.
    pub fn uniform(workers: usize, send: f64, ret: f64) -> Self {
        AffineLatencies {
            send: vec![send; workers],
            ret: vec![ret; workers],
        }
    }

    /// The linear model (all latencies zero).
    pub fn zero(workers: usize) -> Self {
        Self::uniform(workers, 0.0, 0.0)
    }

    fn validate(&self, platform: &Platform) -> Result<(), CoreError> {
        if self.send.len() != platform.num_workers() || self.ret.len() != platform.num_workers() {
            return Err(CoreError::MalformedOrder(format!(
                "latency vectors sized {}/{} for {} workers",
                self.send.len(),
                self.ret.len(),
                platform.num_workers()
            )));
        }
        if self
            .send
            .iter()
            .chain(&self.ret)
            .any(|l| !l.is_finite() || *l < 0.0)
        {
            return Err(CoreError::MalformedOrder(
                "latencies must be finite and non-negative".into(),
            ));
        }
        Ok(())
    }
}

/// Result of an affine FIFO optimization.
#[derive(Debug, Clone)]
pub struct AffineSolution {
    /// Schedule over the full platform (non-enrolled workers at load 0).
    pub schedule: Schedule,
    /// Throughput for `T = 1`.
    pub throughput: f64,
    /// The enrolled set, in service order.
    pub enrolled: Vec<WorkerId>,
}

/// Solves the affine FIFO LP for a **fixed** enrolled set/order.
///
/// Returns `Ok(None)` when the latencies alone already exceed the horizon
/// (no feasible positive schedule for this set).
pub fn affine_fifo_for_set(
    platform: &Platform,
    lat: &AffineLatencies,
    order: &[WorkerId],
) -> Result<Option<AffineSolution>, CoreError> {
    let Some((ir, vars)) = affine_model(platform, lat, order)? else {
        return Ok(None);
    };
    let sol = lp_model::solve_model(&ir)?;
    let mut loads = vec![0.0; platform.num_workers()];
    for (k, &id) in order.iter().enumerate() {
        loads[id.index()] = sol.value(vars.alphas[k]).max(0.0);
    }
    let schedule = Schedule::fifo(platform, order.to_vec(), loads)?;
    Ok(Some(AffineSolution {
        throughput: sol.objective,
        enrolled: order.to_vec(),
        schedule,
    }))
}

/// Builds the affine FIFO LP of [`affine_fifo_for_set`], or `None` when
/// the latencies alone exceed the horizon.
fn affine_model(
    platform: &Platform,
    lat: &AffineLatencies,
    order: &[WorkerId],
) -> Result<Option<(ScheduleModel, LpVars)>, CoreError> {
    lat.validate(platform)?;
    check_orders(platform, order, order)?;
    if order.is_empty() {
        return Err(CoreError::MalformedOrder("empty enrolled order".into()));
    }
    let q = order.len();

    // Fixed latency budgets per constraint.
    let send_lat = |i: usize| lat.send[order[i].index()];
    let ret_lat = |i: usize| lat.ret[order[i].index()];
    let total_lat: f64 = (0..q).map(|i| send_lat(i) + ret_lat(i)).sum();

    // Latencies only *shift the right-hand sides*: the coefficient matrix
    // is the canonical scenario's, built once in
    // `lp_model::scenario_model_with_rhs` (the single source of the
    // (2a)/(2b) rows). Per-row budget: all forward latencies up to k plus
    // all return latencies from k onward.
    let mut deadline_rhs = Vec::with_capacity(q);
    for k in 0..q {
        let fixed: f64 = (0..=k).map(send_lat).sum::<f64>() + (k..q).map(ret_lat).sum::<f64>();
        let rhs = 1.0 - fixed;
        if rhs < 0.0 {
            return Ok(None);
        }
        deadline_rhs.push(rhs);
    }
    let one_port_rhs = 1.0 - total_lat;
    if one_port_rhs < 0.0 {
        return Ok(None);
    }
    lp_model::scenario_model_with_rhs(
        platform,
        order,
        order,
        PortModel::OnePort,
        &deadline_rhs,
        one_port_rhs,
    )
    .map(Some)
}

/// Polynomial heuristic: best `c`-sorted prefix (by Theorem 1 intuition;
/// exact in the linear limit, a heuristic once latencies bite — see \[20\]).
pub fn affine_fifo_best_prefix(
    platform: &Platform,
    lat: &AffineLatencies,
) -> Result<AffineSolution, CoreError> {
    let sorted = platform.order_by_c();
    let mut best: Option<AffineSolution> = None;
    for k in 1..=sorted.len() {
        if let Some(sol) = affine_fifo_for_set(platform, lat, &sorted[..k])? {
            if best
                .as_ref()
                .map(|b| sol.throughput > b.throughput + LOAD_EPS)
                .unwrap_or(true)
            {
                best = Some(sol);
            }
        }
    }
    best.ok_or_else(|| {
        CoreError::MalformedOrder("latencies exceed the horizon for every prefix".into())
    })
}

/// Exhaustive subset search (exact for the `c`-sorted order family);
/// guarded to `p ≤ limit` since the affine selection problem is NP-hard.
pub fn affine_fifo_best_subset(
    platform: &Platform,
    lat: &AffineLatencies,
    limit: usize,
) -> Result<AffineSolution, CoreError> {
    let p = platform.num_workers();
    if p > limit {
        return Err(CoreError::TooManyWorkers { got: p, limit });
    }
    let sorted = platform.order_by_c();
    let mut best: Option<AffineSolution> = None;
    for mask in 1u32..(1u32 << p) {
        let order: Vec<WorkerId> = sorted
            .iter()
            .enumerate()
            .filter(|(k, _)| mask & (1 << k) != 0)
            .map(|(_, id)| *id)
            .collect();
        if let Some(sol) = affine_fifo_for_set(platform, lat, &order)? {
            if best
                .as_ref()
                .map(|b| sol.throughput > b.throughput + LOAD_EPS)
                .unwrap_or(true)
            {
                best = Some(sol);
            }
        }
    }
    best.ok_or_else(|| {
        CoreError::MalformedOrder("latencies exceed the horizon for every subset".into())
    })
}

/// Earliest-feasible makespan of a FIFO schedule under affine costs
/// (sends back-to-back with latency, returns in order as soon as the port
/// is free and the worker has computed).
pub fn affine_makespan(platform: &Platform, lat: &AffineLatencies, schedule: &Schedule) -> f64 {
    let participants: Vec<WorkerId> = schedule.participants();
    let mut compute_end = vec![0.0; platform.num_workers()];
    let mut t = 0.0;
    for &id in &participants {
        let w = platform.worker(id);
        let alpha = schedule.load(id);
        t += lat.send[id.index()] + alpha * w.c;
        compute_end[id.index()] = t + alpha * w.w;
    }
    let mut port_free = t;
    let mut makespan: f64 = t;
    for &id in schedule.return_order() {
        let alpha = schedule.load(id);
        if alpha <= LOAD_EPS {
            continue;
        }
        let w = platform.worker(id);
        let start = port_free.max(compute_end[id.index()]);
        port_free = start + lat.ret[id.index()] + alpha * w.d;
        makespan = makespan.max(port_free).max(compute_end[id.index()]);
    }
    for &id in &participants {
        makespan = makespan.max(compute_end[id.index()]);
    }
    makespan
}

// ---------------------------------------------------------------------------
// Registry wrap: the affine solvers as engine strategies.
// ---------------------------------------------------------------------------

/// Uniform per-message latency of the default registry instance, as a
/// fraction of the horizon (`T = 1`). Small enough that every paper-scale
/// platform stays feasible, large enough that latency-driven resource
/// selection is visible in the tables.
pub const DEFAULT_AFFINE_LATENCY: f64 = 0.01;

/// Size guard for the exhaustive subset search (`2^p` LPs) behind
/// `affine_fifo@subset` — the NP-hard selection problem's exact mode.
pub const SUBSET_SEARCH_LIMIT: usize = 12;

/// Which affine enrollment-search mode an [`AffineScheduler`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AffineMode {
    /// Best `c`-sorted prefix ([`affine_fifo_best_prefix`], `p` LPs).
    Prefix,
    /// Exhaustive subset search ([`affine_fifo_best_subset`], `2^p` LPs,
    /// guarded by [`SUBSET_SEARCH_LIMIT`]).
    Subset,
}

impl AffineMode {
    fn id_suffix(self) -> &'static str {
        match self {
            AffineMode::Prefix => "prefix",
            AffineMode::Subset => "subset",
        }
    }
}

/// A constructor-configured affine FIFO strategy: a search mode plus a
/// uniform per-message latency (applied to both the forward and the return
/// message of every worker).
///
/// Reported throughput is the affine LP objective — the achieved value
/// *under affine costs*. The default [`Scheduler::solve_exact`] re-solves
/// the chosen scenario under the *linear* model (latencies dropped), so its
/// exact objective upper-bounds the affine one; with latency `0` the two
/// coincide and `affine_fifo@prefix:0` reproduces `optimal_fifo` exactly.
#[derive(Debug, Clone)]
pub struct AffineScheduler {
    mode: AffineMode,
    latency: f64,
    name: String,
    legend: String,
}

impl AffineScheduler {
    /// A strategy named `affine_fifo@<mode>[:<latency>]`.
    pub fn new(mode: AffineMode, latency: f64) -> Self {
        let (name, legend) = if latency == DEFAULT_AFFINE_LATENCY {
            (
                format!("affine_fifo@{}", mode.id_suffix()),
                format!("AFF_{}", mode.id_suffix().to_uppercase()),
            )
        } else {
            (
                format!("affine_fifo@{}:{latency}", mode.id_suffix()),
                format!("AFF_{}:{latency}", mode.id_suffix().to_uppercase()),
            )
        };
        AffineScheduler {
            mode,
            latency,
            name,
            legend,
        }
    }

    /// The default registry instance: plain `affine_fifo` id, prefix
    /// search, [`DEFAULT_AFFINE_LATENCY`].
    pub fn registry_default() -> Self {
        AffineScheduler {
            mode: AffineMode::Prefix,
            latency: DEFAULT_AFFINE_LATENCY,
            name: "affine_fifo".into(),
            legend: "AFF_FIFO".into(),
        }
    }

    /// The configured search mode.
    pub fn mode(&self) -> AffineMode {
        self.mode
    }

    /// The configured uniform per-message latency.
    pub fn latency(&self) -> f64 {
        self.latency
    }

    /// The latency vectors this strategy charges on `platform`.
    pub fn latencies(&self, platform: &Platform) -> AffineLatencies {
        AffineLatencies::uniform(platform.num_workers(), self.latency, self.latency)
    }
}

impl Scheduler for AffineScheduler {
    fn name(&self) -> &str {
        &self.name
    }

    fn legend(&self) -> &str {
        &self.legend
    }

    fn solve(&self, platform: &Platform) -> Result<Solution, CoreError> {
        let lat = self.latencies(platform);
        let (sol, evaluated) = match self.mode {
            AffineMode::Prefix => (
                affine_fifo_best_prefix(platform, &lat)?,
                platform.num_workers(),
            ),
            AffineMode::Subset => (
                affine_fifo_best_subset(platform, &lat, SUBSET_SEARCH_LIMIT)?,
                (1usize << platform.num_workers()) - 1,
            ),
        };
        Ok(Solution {
            schedule: sol.schedule,
            throughput: sol.throughput,
            provenance: Provenance::Search { evaluated },
            execution: Execution::Direct,
        })
    }
}

/// The provider handing the `affine_fifo` family to the engine registry —
/// the ROADMAP's "one-provider wrap" of the Section 6 solvers. Installed
/// by [`install`].
pub struct AffineProvider;

impl AffineProvider {
    fn parse(name: &str) -> Option<AffineScheduler> {
        let rest = name.strip_prefix("affine_fifo")?;
        if rest.is_empty() {
            return Some(AffineScheduler::registry_default());
        }
        let params = rest.strip_prefix('@')?;
        let (mode_str, latency) = match params.split_once(':') {
            Some((m, l)) => {
                let lat: f64 = l.parse().ok()?;
                if !lat.is_finite() || lat < 0.0 {
                    return None;
                }
                (m, lat)
            }
            None => (params, DEFAULT_AFFINE_LATENCY),
        };
        let mode = match mode_str {
            "prefix" => AffineMode::Prefix,
            "subset" => AffineMode::Subset,
            _ => return None,
        };
        let mut s = AffineScheduler::new(mode, latency);
        // Preserve the exact spelling that was looked up (id == name, like
        // every other provider): `affine_fifo@prefix:0.01` must not
        // collapse into the default-latency name.
        s.name = name.to_string();
        Some(s)
    }
}

impl SchedulerProvider for AffineProvider {
    fn group(&self) -> &'static str {
        "affine"
    }

    fn schedulers(&self) -> Vec<Box<dyn Scheduler>> {
        vec![Box::new(AffineScheduler::registry_default())]
    }

    fn resolve(&self, name: &str) -> Option<Box<dyn Scheduler>> {
        Self::parse(name).map(|s| Box::new(s) as Box<dyn Scheduler>)
    }
}

/// Installs the affine provider into [`crate::registry`] (idempotent).
/// After this, `registry()` lists `affine_fifo` and [`crate::lookup`]
/// resolves parameterized ids such as `affine_fifo@subset` and
/// `affine_fifo@prefix:0.05`.
pub fn install() {
    crate::register_provider(Arc::new(AffineProvider));
}

#[cfg(test)]
// Unit tests assert exact outcomes of exact arithmetic.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use crate::lp_model::solve_fifo;
    use crate::schedule::PortModel;

    fn star(n: usize) -> Platform {
        let cw: Vec<(f64, f64)> = (0..n)
            .map(|i| (1.0 + 0.3 * i as f64, 2.0 + 0.5 * ((i * 7) % 5) as f64))
            .collect();
        Platform::star_with_z(&cw, 0.5).unwrap()
    }

    #[test]
    fn zero_latency_reduces_to_linear_model() {
        let p = star(4);
        let lat = AffineLatencies::zero(4);
        let order = p.order_by_c();
        let affine = affine_fifo_for_set(&p, &lat, &order).unwrap().unwrap();
        let linear = solve_fifo(&p, &order, PortModel::OnePort).unwrap();
        assert!((affine.throughput - linear.throughput).abs() < 1e-7);
    }

    #[test]
    fn latency_strictly_decreases_throughput() {
        let p = star(3);
        let order = p.order_by_c();
        let base = affine_fifo_for_set(&p, &AffineLatencies::zero(3), &order)
            .unwrap()
            .unwrap()
            .throughput;
        let mut last = base;
        for l in [0.01, 0.05, 0.1] {
            let sol = affine_fifo_for_set(&p, &AffineLatencies::uniform(3, l, l), &order)
                .unwrap()
                .unwrap();
            assert!(sol.throughput < last, "latency {l} did not hurt");
            last = sol.throughput;
        }
    }

    #[test]
    fn both_engines_solve_the_latency_shifted_lp_alike() {
        // With nonzero latencies the revised simplex and the tableau, each
        // handed the latency-shifted LP directly, reach the same optimum.
        let p = star(4);
        let lat = AffineLatencies {
            send: vec![0.01, 0.02, 0.015, 0.005],
            ret: vec![0.005, 0.01, 0.02, 0.01],
        };
        let order = p.order_by_c();
        let (ir, _) = affine_model(&p, &lat, &order).unwrap().unwrap();
        let revised = dls_lp::solve_revised(ir.problem()).unwrap().objective;
        let tableau = dls_lp::solve(ir.problem()).unwrap().objective;
        let rel = (revised - tableau).abs() / tableau;
        assert!(
            rel <= 1e-9,
            "engines disagree: revised {revised} vs tableau {tableau}"
        );
    }

    #[test]
    fn huge_latency_makes_set_infeasible() {
        let p = star(3);
        let order = p.order_by_c();
        let sol = affine_fifo_for_set(&p, &AffineLatencies::uniform(3, 0.4, 0.4), &order).unwrap();
        // 3 workers x 0.8 latency = 2.4 > 1: no feasible schedule.
        assert!(sol.is_none());
    }

    #[test]
    fn latency_drives_resource_selection() {
        // With heavy per-message cost, enrolling fewer workers wins even
        // when all links are identical — impossible in the linear model.
        let p = Platform::bus(0.05, 0.025, &[1.0, 1.0, 1.0, 1.0]).unwrap();
        let no_lat = affine_fifo_best_subset(&p, &AffineLatencies::zero(4), 16).unwrap();
        assert_eq!(no_lat.enrolled.len(), 4, "linear model enrolls everyone");
        let heavy =
            affine_fifo_best_subset(&p, &AffineLatencies::uniform(4, 0.12, 0.12), 16).unwrap();
        assert!(
            heavy.enrolled.len() < 4,
            "expected latency-driven drop-out, got {:?}",
            heavy.enrolled
        );
    }

    #[test]
    fn subset_dominates_prefix() {
        let p = star(5);
        let lat = AffineLatencies::uniform(5, 0.05, 0.02);
        let prefix = affine_fifo_best_prefix(&p, &lat).unwrap();
        let subset = affine_fifo_best_subset(&p, &lat, 16).unwrap();
        assert!(subset.throughput >= prefix.throughput - 1e-9);
    }

    #[test]
    fn lp_solution_saturates_affine_horizon() {
        let p = star(3);
        let lat = AffineLatencies::uniform(3, 0.03, 0.01);
        let sol = affine_fifo_best_prefix(&p, &lat).unwrap();
        let ms = affine_makespan(&p, &lat, &sol.schedule);
        assert!(
            (ms - 1.0).abs() < 1e-6,
            "affine optimum should fill the horizon: {ms}"
        );
    }

    #[test]
    fn affine_makespan_reduces_to_timeline_without_latency() {
        let p = star(4);
        let order = p.order_by_c();
        let sol = solve_fifo(&p, &order, PortModel::OnePort).unwrap();
        let lat = AffineLatencies::zero(4);
        let a = affine_makespan(&p, &lat, &sol.schedule);
        let b = crate::timeline::makespan(&p, &sol.schedule, PortModel::OnePort);
        assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn provider_parses_defaults_and_parameterized_ids_only() {
        assert_eq!(
            AffineProvider::parse("affine_fifo").unwrap().name(),
            "affine_fifo"
        );
        let s = AffineProvider::parse("affine_fifo@subset").unwrap();
        assert_eq!(s.mode(), AffineMode::Subset);
        assert_eq!(s.latency(), DEFAULT_AFFINE_LATENCY);
        assert_eq!(s.name(), "affine_fifo@subset");
        let s = AffineProvider::parse("affine_fifo@prefix:0.05").unwrap();
        assert_eq!(s.mode(), AffineMode::Prefix);
        assert!((s.latency() - 0.05).abs() < 1e-12);
        // Explicit spellings of the default latency keep their exact id
        // (id == name round-trip, like every other provider).
        let s = AffineProvider::parse("affine_fifo@prefix:0.01").unwrap();
        assert_eq!(s.name(), "affine_fifo@prefix:0.01");
        assert_eq!(s.latency(), DEFAULT_AFFINE_LATENCY);
        assert!(AffineProvider::parse("affine_fifo@chaos").is_none());
        assert!(AffineProvider::parse("affine_fifo@prefix:-1").is_none());
        assert!(AffineProvider::parse("affine_fifox").is_none());
        assert!(AffineProvider::parse("optimal_fifo").is_none());
    }

    #[test]
    fn scheduler_zero_latency_reproduces_optimal_fifo() {
        let p = star(4);
        let zero = AffineScheduler::new(AffineMode::Prefix, 0.0);
        assert_eq!(zero.name(), "affine_fifo@prefix:0");
        let sol = zero.solve(&p).unwrap();
        let opt = crate::fifo::optimal_fifo(&p).unwrap();
        assert!((sol.throughput - opt.throughput).abs() < 1e-7);
        assert_eq!(sol.execution, Execution::Direct);
    }

    #[test]
    fn scheduler_latency_reduces_throughput_and_subset_dominates() {
        let p = star(5);
        let prefix = AffineScheduler::registry_default().solve(&p).unwrap();
        let subset = AffineScheduler::new(AffineMode::Subset, DEFAULT_AFFINE_LATENCY)
            .solve(&p)
            .unwrap();
        let opt = crate::fifo::optimal_fifo(&p).unwrap();
        assert!(prefix.throughput < opt.throughput);
        assert!(subset.throughput >= prefix.throughput - 1e-9);
        assert!(matches!(
            prefix.provenance,
            Provenance::Search { evaluated: 5 }
        ));
        assert!(matches!(
            subset.provenance,
            Provenance::Search { evaluated: 31 }
        ));
    }

    #[test]
    fn subset_mode_is_guarded_by_the_size_limit() {
        let cw: Vec<(f64, f64)> = (0..SUBSET_SEARCH_LIMIT + 1)
            .map(|i| (1.0 + i as f64, 2.0))
            .collect();
        let p = Platform::star_with_z(&cw, 0.5).unwrap();
        let err = AffineScheduler::new(AffineMode::Subset, 0.001)
            .solve(&p)
            .unwrap_err();
        assert!(matches!(err, CoreError::TooManyWorkers { .. }));
        assert!(err.is_applicability());
    }

    #[test]
    fn mismatched_latency_vectors_rejected() {
        let p = star(3);
        let lat = AffineLatencies::zero(2);
        assert!(affine_fifo_for_set(&p, &lat, &p.order_by_c()).is_err());
        let bad = AffineLatencies {
            send: vec![0.0, -1.0, 0.0],
            ret: vec![0.0; 3],
        };
        assert!(affine_fifo_for_set(&p, &bad, &p.order_by_c()).is_err());
    }
}
