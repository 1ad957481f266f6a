//! Interleaved-master FIFO LPs: dropping the sends-then-returns shape.
//!
//! The paper's canonical schedule posts every `σ1` send before any `σ2`
//! return. `dls-sim` has always been able to *execute* an interleaved
//! master ([`MasterPolicy::Interleaved`]); this module finally lets a
//! solver *optimize* for one. For a FIFO order `σ` and a fixed
//! **merge** of the `2q` port operations (sends in `σ` order, returns in
//! `σ` order, each return after its own send), the optimal loads solve an
//! LP with per-message start variables:
//!
//! ```text
//! maximize  Σ α_i
//!   s_i, r_i ≥ 0                       (send/return start of worker i)
//!   start(op_{k+1}) ≥ start(op_k) + dur(op_k)    (port chain: the
//!       one-port disjunctions resolved by the merge order)
//!   r_i ≥ s_i + α_i (c_i + w_i)       (results exist only after compute)
//!   start(op_last) + dur(op_last) ≤ 1 (horizon; chain order makes the
//!       last operation finish last)
//! ```
//!
//! The merge family swept here is parameterized by a **lead** `L ∈
//! 1..=q`: return `R_j` is slotted immediately after send `S_{j+L-1}`
//! (trailing returns after `S_q`). `L = q` is exactly the canonical
//! sends-then-returns shape — so the best-over-leads schedule is *never
//! worse than `optimal_fifo`* by construction — and `L = 1` is the fully
//! alternating `S_1 R_1 S_2 R_2 …` master.
//!
//! **Design note (negative result, pinned by tests).** The paper's
//! canonical-shape argument is visible empirically here: on every platform
//! family we sweep, the canonical lead `L = q` is optimal within the
//! family — early returns only insert port-busy time before later sends,
//! while the canonical shape already pushes returns as late as the horizon
//! allows. The pinned-lead strategies ([`InterleavedScheduler::with_lead`])
//! quantify how much each interleaving *costs* (the `interleaved_gap`
//! artifact of `repro_all`), closing the ROADMAP item the honest way: the
//! simulator ablation said noise-free interleaving cannot beat the LP
//! optimum, and the LP family over merges now says the same from the
//! optimization side.
//!
//! Every LP here is built on the schedule-model IR ([`ScheduleModel`]:
//! `alpha`/`send_start`/`return_start` groups, `precedence` rows for the
//! resolved one-port disjunctions) and solved through
//! [`lp_model::solve_model`], the same cold solve path as the scenario
//! LPs. Every row but the horizon is a `≥ 0` precedence row, which the
//! engines' standardization turns into a `≤ 0` row at its own slack, so
//! each lead LP starts feasible from the slack basis and runs no phase 1.
//!
//! [`MasterPolicy::Interleaved`]: ../../dls_sim/enum.MasterPolicy.html

use std::sync::Arc;

use dls_lp::{MVar, ScheduleModel};
use dls_platform::{Platform, WorkerId};

use crate::engine::{Execution, Provenance, Scheduler, SchedulerProvider, Solution};
use crate::error::CoreError;
use crate::fifo::theorem1_order;
use crate::lp_model;
use crate::schedule::Schedule;

/// Strict-improvement threshold: a non-canonical lead must beat the
/// canonical optimum by more than this to displace it (ties keep the
/// canonical schedule, whose earliest-feasible timeline achieves the LP
/// value exactly).
const LEAD_EPS: f64 = 1e-9;

/// One port operation of a fixed merge: a send to, or a return from, an
/// enrolled position (index into the FIFO order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortOp {
    /// The initial-data message to enrolled position `k`.
    Send(usize),
    /// The result message from enrolled position `k`.
    Ret(usize),
}

/// The merge with lead `lead` over `q` enrolled workers: sends in order,
/// return `R_j` immediately after send `S_{j + lead - 1}`, trailing
/// returns after the last send. `lead = q` is the canonical
/// sends-then-returns sequence.
///
/// # Panics
/// Panics when `lead` is outside `1..=q` or `q == 0`.
pub fn merge_with_lead(q: usize, lead: usize) -> Vec<PortOp> {
    assert!(q > 0, "empty enrollment has no merges");
    assert!((1..=q).contains(&lead), "lead must be in 1..={q}");
    let mut ops = Vec::with_capacity(2 * q);
    for i in 0..q {
        ops.push(PortOp::Send(i));
        if i + 1 >= lead {
            ops.push(PortOp::Ret(i + 1 - lead));
        }
    }
    for j in (q + 1 - lead)..q {
        ops.push(PortOp::Ret(j));
    }
    ops
}

/// The per-message start-variable LP of one `(order, merge)` pair on the
/// schedule-model IR. Returns the model plus the `alpha` group (loads per
/// enrolled position).
pub fn interleaved_model(
    platform: &Platform,
    order: &[WorkerId],
    merge: &[PortOp],
) -> (ScheduleModel, dls_lp::VarGroup) {
    let q = order.len();
    debug_assert_eq!(merge.len(), 2 * q, "merge must cover all 2q port ops");
    let mut ir = ScheduleModel::maximize();
    let alphas = ir.group("alpha", std::iter::repeat_n(1.0, q));
    let sends = ir.group("send_start", std::iter::repeat_n(0.0, q));
    let rets = ir.group("return_start", std::iter::repeat_n(0.0, q));

    let start_of = |op: PortOp| -> MVar {
        match op {
            PortOp::Send(k) => sends.var(k),
            PortOp::Ret(k) => rets.var(k),
        }
    };
    let duration_of = |op: PortOp| -> (MVar, f64) {
        match op {
            PortOp::Send(k) => (alphas.var(k), platform.worker(order[k]).c),
            PortOp::Ret(k) => (alphas.var(k), platform.worker(order[k]).d),
        }
    };
    // One-port chain: consecutive merge operations in order — the
    // disjunctions, resolved.
    for pair in merge.windows(2) {
        ir.precedence(start_of(pair[1]), start_of(pair[0]), [duration_of(pair[0])]);
    }
    // Results exist only after reception + computation.
    for (k, &id) in order.iter().enumerate() {
        let w = platform.worker(id);
        ir.precedence(rets.var(k), sends.var(k), [(alphas.var(k), w.c + w.w)]);
    }
    // Horizon: the chain orders finishing times, so the last operation's
    // deadline bounds them all.
    let last = *merge.last().expect("merge is non-empty");
    let (dur_var, dur_coeff) = duration_of(last);
    ir.deadline([(start_of(last), 1.0), (dur_var, dur_coeff)], 1.0);
    (ir, alphas)
}

/// Outcome of one lead's LP.
#[derive(Debug, Clone)]
pub struct LeadOutcome {
    /// The lead (merge parameter; `q` = canonical).
    pub lead: usize,
    /// Optimal throughput of this merge's LP.
    pub throughput: f64,
    /// Loads per platform worker index.
    pub loads: Vec<f64>,
    /// Simplex pivots.
    pub iterations: usize,
}

/// The interleaving order every solver entry point uses: Theorem 1's
/// optimal FIFO order when the platform is `z`-tied, `INC_C` otherwise
/// (the same fallback as the multi-round planners).
pub fn interleaved_order(platform: &Platform) -> Vec<WorkerId> {
    theorem1_order(platform).unwrap_or_else(|_| platform.order_by_c())
}

/// Solves every lead's LP for a fixed order, canonical lead (`q`) first:
/// the family [`interleaved_fifo_for_order`] picks the best lead from.
pub fn interleaved_profile(
    platform: &Platform,
    order: &[WorkerId],
) -> Result<Vec<LeadOutcome>, CoreError> {
    if order.is_empty() {
        return Err(CoreError::MalformedOrder("empty enrolled order".into()));
    }
    (1..=order.len())
        .rev()
        .map(|lead| solve_lead(platform, order, lead))
        .collect()
}

/// One lead's LP for a fixed order (`lead` in `1..=order.len()`): the
/// single solve path of the profile and the pinned-lead strategies.
fn solve_lead(
    platform: &Platform,
    order: &[WorkerId],
    lead: usize,
) -> Result<LeadOutcome, CoreError> {
    let merge = merge_with_lead(order.len(), lead);
    let (ir, alphas) = interleaved_model(platform, order, &merge);
    let sol = lp_model::solve_model(&ir)?;
    let mut loads = vec![0.0; platform.num_workers()];
    for (k, &id) in order.iter().enumerate() {
        loads[id.index()] = sol.value(alphas.var(k).var_id()).max(0.0);
    }
    Ok(LeadOutcome {
        lead,
        throughput: sol.objective,
        loads,
        iterations: sol.iterations,
    })
}

/// Result of the interleaved FIFO optimization.
#[derive(Debug, Clone)]
pub struct InterleavedSolution {
    /// The winning schedule (FIFO orders over the interleaving order).
    pub schedule: Schedule,
    /// The winning merge's optimal throughput.
    pub throughput: f64,
    /// The winning lead (`q` = the canonical shape won or tied).
    pub lead: usize,
    /// The canonical (`lead = q`) optimum — equals `optimal_fifo` on
    /// `z`-tied platforms, so `throughput >= canonical_throughput` always.
    pub canonical_throughput: f64,
    /// Merge LPs evaluated.
    pub evaluated: usize,
}

/// Best-over-leads interleaved FIFO schedule for a fixed order. The
/// canonical lead is always evaluated (first), and a non-canonical lead
/// must *strictly* improve on it to win, so the result is never worse
/// than the canonical FIFO optimum for the same order.
///
/// The returned throughput is always **achievable by the returned
/// schedule**: a non-canonical winner is accepted only if its loads also
/// fit the unit horizon under the canonical earliest-feasible timeline
/// (the execution shape [`Schedule`] consumers replay). The
/// canonical-shape argument says this guard is dead code — a strictly
/// better interleaved optimum would contradict the theorem — so in
/// practice it only defends against numerical noise crossing `LEAD_EPS`.
pub fn interleaved_fifo_for_order(
    platform: &Platform,
    order: &[WorkerId],
) -> Result<InterleavedSolution, CoreError> {
    let profile = interleaved_profile(platform, order)?;
    let canonical = &profile[0]; // leads are evaluated q-first
    let mut best = canonical;
    for outcome in &profile[1..] {
        if outcome.throughput <= best.throughput + LEAD_EPS {
            continue;
        }
        // Achievability guard: the loads must replay canonically within
        // the horizon, or the reported throughput would be fiction.
        let candidate = Schedule::fifo(platform, order.to_vec(), outcome.loads.clone())?;
        let makespan =
            crate::timeline::makespan(platform, &candidate, crate::schedule::PortModel::OnePort);
        if makespan <= 1.0 + LEAD_EPS {
            best = outcome;
        }
    }
    let schedule = Schedule::fifo(platform, order.to_vec(), best.loads.clone())?;
    Ok(InterleavedSolution {
        schedule,
        throughput: best.throughput,
        lead: best.lead,
        canonical_throughput: canonical.throughput,
        evaluated: profile.len(),
    })
}

/// Best-over-leads interleaved FIFO schedule in the
/// [`interleaved_order`]: the `interleaved_fifo` registry strategy's
/// implementation. Never worse than `optimal_fifo` on `z`-tied platforms
/// (where both use Theorem 1's order and the canonical lead reproduces the
/// scenario LP exactly).
pub fn interleaved_fifo(platform: &Platform) -> Result<InterleavedSolution, CoreError> {
    interleaved_fifo_for_order(platform, &interleaved_order(platform))
}

// ---------------------------------------------------------------------------
// Registry wrap.
// ---------------------------------------------------------------------------

/// A constructor-configured interleaved-master strategy: either the
/// best-over-leads sweep (the `interleaved_fifo` default) or a single
/// pinned lead (`interleaved_fifo@<lead>`, used by the gap artifact to
/// chart what each interleaving costs; a pinned lead may well be *worse*
/// than `optimal_fifo`).
#[derive(Debug, Clone)]
pub struct InterleavedScheduler {
    lead: Option<usize>,
    name: String,
    legend: String,
}

impl InterleavedScheduler {
    /// The best-over-leads registry default.
    pub fn registry_default() -> Self {
        InterleavedScheduler {
            lead: None,
            name: "interleaved_fifo".into(),
            legend: "INT_FIFO".into(),
        }
    }

    /// A strategy pinned to one lead, named `interleaved_fifo@<lead>`.
    pub fn with_lead(lead: usize) -> Self {
        InterleavedScheduler {
            lead: Some(lead),
            name: format!("interleaved_fifo@{lead}"),
            legend: format!("INT_FIFO@{lead}"),
        }
    }

    /// The pinned lead, if any.
    pub fn lead(&self) -> Option<usize> {
        self.lead
    }
}

impl Scheduler for InterleavedScheduler {
    fn name(&self) -> &str {
        &self.name
    }

    fn legend(&self) -> &str {
        &self.legend
    }

    fn solve(&self, platform: &Platform) -> Result<Solution, CoreError> {
        let order = interleaved_order(platform);
        match self.lead {
            None => {
                let sol = interleaved_fifo_for_order(platform, &order)?;
                Ok(Solution {
                    schedule: sol.schedule,
                    throughput: sol.throughput,
                    provenance: Provenance::Search {
                        evaluated: sol.evaluated,
                    },
                    execution: Execution::Direct,
                })
            }
            Some(lead) => {
                let q = order.len();
                if lead > q {
                    // The merge family only defines leads 1..=q; clamping
                    // would solve the canonical merge under this
                    // strategy's `@<lead>` name and mislabel the result.
                    return Err(CoreError::LeadBeyondEnrollment { lead, enrolled: q });
                }
                let lp = solve_lead(platform, &order, lead)?;
                Ok(Solution {
                    schedule: Schedule::fifo(platform, order, lp.loads)?,
                    throughput: lp.throughput,
                    provenance: Provenance::Lp {
                        iterations: lp.iterations,
                    },
                    execution: Execution::Direct,
                })
            }
        }
    }
}

/// The provider handing the `interleaved_fifo` family to the engine
/// registry; installed by [`install`].
pub struct InterleavedProvider;

impl InterleavedProvider {
    fn parse(name: &str) -> Option<InterleavedScheduler> {
        let rest = name.strip_prefix("interleaved_fifo")?;
        if rest.is_empty() {
            return Some(InterleavedScheduler::registry_default());
        }
        let lead = rest.strip_prefix('@')?.parse::<usize>().ok()?;
        if lead == 0 {
            return None;
        }
        Some(InterleavedScheduler::with_lead(lead))
    }
}

impl SchedulerProvider for InterleavedProvider {
    fn group(&self) -> &'static str {
        "interleaved"
    }

    fn schedulers(&self) -> Vec<Box<dyn Scheduler>> {
        vec![Box::new(InterleavedScheduler::registry_default())]
    }

    fn resolve(&self, name: &str) -> Option<Box<dyn Scheduler>> {
        Self::parse(name).map(|s| Box::new(s) as Box<dyn Scheduler>)
    }
}

/// Installs the interleaved provider into [`crate::registry`]
/// (idempotent). After this, `registry()` lists `interleaved_fifo` and
/// [`crate::lookup`] resolves pinned-lead ids such as
/// `interleaved_fifo@1`.
pub fn install() {
    crate::register_provider(Arc::new(InterleavedProvider));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fifo::optimal_fifo;
    use crate::schedule::PortModel;
    use crate::timeline::{makespan, Timeline};

    fn star(n: usize) -> Platform {
        let cw: Vec<(f64, f64)> = (0..n)
            .map(|i| (1.0 + 0.4 * i as f64, 2.0 + 0.7 * ((i * 5) % 4) as f64))
            .collect();
        Platform::star_with_z(&cw, 0.5).unwrap()
    }

    #[test]
    fn merges_cover_all_ops_and_respect_orders() {
        for q in 1..=6 {
            for lead in 1..=q {
                let merge = merge_with_lead(q, lead);
                assert_eq!(merge.len(), 2 * q);
                let mut next_send = 0;
                let mut next_ret = 0;
                for op in &merge {
                    match *op {
                        PortOp::Send(k) => {
                            assert_eq!(k, next_send, "sends out of order");
                            next_send += 1;
                        }
                        PortOp::Ret(k) => {
                            assert_eq!(k, next_ret, "returns out of order");
                            assert!(k < next_send, "return before its own send");
                            next_ret += 1;
                        }
                    }
                }
            }
        }
        // lead = q is canonical: all sends, then all returns.
        let canon = merge_with_lead(4, 4);
        assert!(matches!(canon[3], PortOp::Send(3)));
        assert!(matches!(canon[4], PortOp::Ret(0)));
        // lead = 1 alternates.
        let alt = merge_with_lead(3, 1);
        assert_eq!(
            alt,
            vec![
                PortOp::Send(0),
                PortOp::Ret(0),
                PortOp::Send(1),
                PortOp::Ret(1),
                PortOp::Send(2),
                PortOp::Ret(2),
            ]
        );
    }

    #[test]
    fn canonical_lead_reproduces_the_scenario_lp() {
        // The lead = q merge LP and the paper's canonical LP (2) describe
        // the same feasible loads: identical optima.
        for n in [1usize, 2, 4, 6] {
            let p = star(n);
            let order = interleaved_order(&p);
            let merge = merge_with_lead(n, n);
            let (ir, _) = interleaved_model(&p, &order, &merge);
            let merged = lp_model::solve_model(&ir).unwrap();
            let canonical = lp_model::solve_fifo(&p, &order, PortModel::OnePort).unwrap();
            assert!(
                (merged.objective - canonical.throughput).abs() < 1e-7,
                "p = {n}: merge {} vs canonical {}",
                merged.objective,
                canonical.throughput
            );
        }
    }

    #[test]
    fn never_worse_than_optimal_fifo() {
        for n in [2usize, 3, 5, 8] {
            let p = star(n);
            let sol = interleaved_fifo(&p).unwrap();
            let opt = optimal_fifo(&p).unwrap();
            assert!(
                sol.throughput >= opt.throughput - 1e-9,
                "p = {n}: interleaved {} below optimal_fifo {}",
                sol.throughput,
                opt.throughput
            );
            assert!((sol.canonical_throughput - opt.throughput).abs() < 1e-7);
            assert_eq!(sol.evaluated, n);
        }
    }

    #[test]
    fn canonical_shape_wins_the_merge_family() {
        // The paper's canonical-shape argument, visible in the LP family:
        // no lead strictly beats lead = q, so the winning schedule is the
        // canonical one and its earliest-feasible timeline verifies clean
        // in the unit horizon.
        let p = star(5);
        let sol = interleaved_fifo(&p).unwrap();
        assert_eq!(sol.lead, 5, "a non-canonical lead claimed a strict win");
        let t = Timeline::build(&p, &sol.schedule, PortModel::OnePort);
        assert!(t.verify(&p, &sol.schedule, 1e-7).is_empty());
        assert!(makespan(&p, &sol.schedule, PortModel::OnePort) <= 1.0 + 1e-7);
    }

    #[test]
    fn profile_charts_what_interleaving_costs() {
        let p = star(4);
        let order = interleaved_order(&p);
        let profile = interleaved_profile(&p, &order).unwrap();
        assert_eq!(profile.len(), 4);
        assert_eq!(profile[0].lead, 4);
        // Canonical is the family's optimum; every interleaving is <= it.
        for o in &profile[1..] {
            assert!(
                o.throughput <= profile[0].throughput + 1e-9,
                "lead {} beat canonical: {} vs {}",
                o.lead,
                o.throughput,
                profile[0].throughput
            );
        }
        // A repeated profile is the same profile, bit for bit.
        let again = interleaved_profile(&p, &order).unwrap();
        for (a, b) in again.iter().zip(&profile) {
            assert_eq!(a.throughput.to_bits(), b.throughput.to_bits());
            assert_eq!(a.iterations, b.iterations);
        }
    }

    #[test]
    fn comm_bound_regime_is_port_limited_for_every_lead() {
        // The comm-bound regime PR 4 flagged: tiny compute, the port is
        // the binding resource. Interleaving shuffles the port sequence
        // but cannot create port time: every lead hits the same 1/(c+d)
        // capacity bound.
        let p = Platform::star_with_z(&[(1.0, 1e-6), (1.0, 1e-6)], 0.5).unwrap();
        let order = interleaved_order(&p);
        let profile = interleaved_profile(&p, &order).unwrap();
        for o in &profile {
            assert!(
                (o.throughput - 1.0 / 1.5).abs() < 1e-4,
                "lead {}: {} vs port bound {}",
                o.lead,
                o.throughput,
                1.0 / 1.5
            );
        }
    }

    #[test]
    fn single_worker_degenerates_cleanly() {
        let p = star(1);
        let sol = interleaved_fifo(&p).unwrap();
        let expect = 1.0 / (1.0 + 2.0 + 0.5);
        assert!((sol.throughput - expect).abs() < 1e-9);
        assert_eq!(sol.lead, 1);
    }

    #[test]
    fn provider_parses_defaults_and_pinned_leads_only() {
        assert_eq!(
            InterleavedProvider::parse("interleaved_fifo")
                .unwrap()
                .name(),
            "interleaved_fifo"
        );
        let s = InterleavedProvider::parse("interleaved_fifo@2").unwrap();
        assert_eq!(s.lead(), Some(2));
        assert_eq!(s.name(), "interleaved_fifo@2");
        assert!(InterleavedProvider::parse("interleaved_fifo@0").is_none());
        assert!(InterleavedProvider::parse("interleaved_fifo@x").is_none());
        assert!(InterleavedProvider::parse("interleaved_fifox").is_none());
        assert!(InterleavedProvider::parse("optimal_fifo").is_none());
    }

    #[test]
    fn scheduler_default_matches_free_function_and_pinned_leads_cost() {
        let p = star(4);
        let default = InterleavedScheduler::registry_default().solve(&p).unwrap();
        let free = interleaved_fifo(&p).unwrap();
        assert!((default.throughput - free.throughput).abs() < 1e-12);
        assert!(matches!(
            default.provenance,
            Provenance::Search { evaluated: 4 }
        ));
        // A pinned alternating lead reports that merge's (worse-or-equal)
        // optimum with LP provenance.
        let pinned = InterleavedScheduler::with_lead(1).solve(&p).unwrap();
        assert!(pinned.throughput <= default.throughput + 1e-9);
        assert!(matches!(pinned.provenance, Provenance::Lp { .. }));
        // Every pinned lead is exactly its profile entry, bit for bit: the
        // gap artifact solves only the leads it reports this way.
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let profile = interleaved_profile(&p, &interleaved_order(&p)).unwrap();
        assert_eq!(profile.len(), 4);
        for lead in &profile {
            let sol = InterleavedScheduler::with_lead(lead.lead)
                .solve(&p)
                .unwrap();
            let got = [&[sol.throughput][..], sol.schedule.loads()].concat();
            let want = [&[lead.throughput][..], &lead.loads].concat();
            assert_eq!(bits(&got), bits(&want), "lead {}", lead.lead);
        }
    }

    #[test]
    fn pinned_lead_beyond_enrollment_is_an_applicability_error() {
        // Clamping would solve the canonical merge under the `@9` name and
        // mislabel the result; the strategy must declare itself
        // inapplicable instead (sweeps record it as a skip).
        let p = star(4);
        let err = InterleavedScheduler::with_lead(9).solve(&p).unwrap_err();
        assert!(matches!(
            err,
            CoreError::LeadBeyondEnrollment {
                lead: 9,
                enrolled: 4
            }
        ));
        assert!(err.is_applicability());
        // The largest valid lead is exactly the enrollment.
        assert!(InterleavedScheduler::with_lead(4).solve(&p).is_ok());
    }

    #[test]
    fn applies_to_non_z_tied_platforms_via_the_inc_c_fallback() {
        let p = Platform::new(vec![
            dls_platform::Worker::new(1.0, 1.0, 0.5),
            dls_platform::Worker::new(1.0, 1.0, 0.9),
        ])
        .unwrap();
        let sol = interleaved_fifo(&p).unwrap();
        assert!(sol.throughput > 0.0);
        // The canonical lead still matches the plain scenario LP there.
        let direct = lp_model::solve_fifo(&p, &p.order_by_c(), PortModel::OnePort).unwrap();
        assert!((sol.canonical_throughput - direct.throughput).abs() < 1e-9);
    }
}
