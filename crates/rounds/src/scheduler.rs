//! Engine integration: constructor-configured [`MultiRound`] schedulers
//! and the [`SchedulerProvider`] that plugs them into
//! [`dls_core::registry`].
//!
//! After [`install`](crate::install) the registry lists the three default
//! instances (`multiround_uniform`, `multiround_geometric`, `multiround_lp`
//! — all at [`DEFAULT_ROUNDS`] rounds), and [`dls_core::lookup`] resolves
//! the parameterized spelling `<id>@<R>` (e.g. `multiround_lp@8`) to a
//! fresh instance with that round budget — the registry's
//! "constructor-configured scheduler" story, exercised by the `bench`
//! R-sweeps.

use dls_core::engine::{Execution, Provenance, Scheduler, SchedulerProvider, Solution};
use dls_core::CoreError;
use dls_platform::Platform;

use crate::planners::{plan_geometric, plan_lp, plan_uniform};
use crate::RoundPlan;

/// Round budget of the default registry instances.
pub const DEFAULT_ROUNDS: usize = 4;

/// Which chunking policy a [`MultiRound`] scheduler plans with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlannerKind {
    /// Equal installments of the one-round optimum ([`plan_uniform`]).
    Uniform,
    /// Budgeted geometric grid search ([`plan_geometric`]).
    Geometric,
    /// LP-optimal canonical-shape rounds ([`plan_lp`]).
    Lp,
}

impl PlannerKind {
    fn id_stem(self) -> &'static str {
        match self {
            PlannerKind::Uniform => "multiround_uniform",
            PlannerKind::Geometric => "multiround_geometric",
            PlannerKind::Lp => "multiround_lp",
        }
    }

    fn legend_stem(self) -> &'static str {
        match self {
            PlannerKind::Uniform => "MR_UNI",
            PlannerKind::Geometric => "MR_GEO",
            PlannerKind::Lp => "MR_LP",
        }
    }
}

/// A constructor-configured multi-round strategy: a [`PlannerKind`] plus a
/// round count/budget, presentable to every registry consumer (sweeps,
/// tables, benches) like any built-in.
#[derive(Debug, Clone)]
pub struct MultiRound {
    kind: PlannerKind,
    rounds: usize,
    name: String,
    legend: String,
}

impl MultiRound {
    /// A strategy named `<stem>@<rounds>` (the parameterized spelling).
    pub fn new(kind: PlannerKind, rounds: usize) -> Self {
        MultiRound {
            kind,
            rounds,
            name: format!("{}@{rounds}", kind.id_stem()),
            legend: format!("{}@{rounds}", kind.legend_stem()),
        }
    }

    /// The default registry instance: plain `multiround_*` name,
    /// [`DEFAULT_ROUNDS`] rounds.
    pub fn registry_default(kind: PlannerKind) -> Self {
        MultiRound {
            kind,
            rounds: DEFAULT_ROUNDS,
            name: kind.id_stem().to_string(),
            legend: kind.legend_stem().to_string(),
        }
    }

    /// Shorthand for [`MultiRound::new`] with [`PlannerKind::Uniform`].
    pub fn uniform(rounds: usize) -> Self {
        Self::new(PlannerKind::Uniform, rounds)
    }

    /// Shorthand for [`MultiRound::new`] with [`PlannerKind::Geometric`].
    pub fn geometric(rounds: usize) -> Self {
        Self::new(PlannerKind::Geometric, rounds)
    }

    /// Shorthand for [`MultiRound::new`] with [`PlannerKind::Lp`].
    pub fn lp(rounds: usize) -> Self {
        Self::new(PlannerKind::Lp, rounds)
    }

    /// The configured round count (exact for uniform/LP, a budget for
    /// geometric).
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// The configured planner kind.
    pub fn kind(&self) -> PlannerKind {
        self.kind
    }

    /// Runs the configured planner, returning the raw [`RoundPlan`]
    /// (callers wanting the engine-shaped result use
    /// [`Scheduler::solve`]).
    pub fn plan(&self, platform: &Platform) -> Result<RoundPlan, CoreError> {
        Ok(match self.kind {
            PlannerKind::Uniform => plan_uniform(platform, self.rounds)?.plan,
            PlannerKind::Geometric => plan_geometric(platform, self.rounds)?.plan,
            PlannerKind::Lp => plan_lp(platform, self.rounds)?.plan,
        })
    }

    fn pack(
        &self,
        platform: &Platform,
        plan: RoundPlan,
        provenance: Provenance,
    ) -> Result<Solution, CoreError> {
        let rounds = plan.rounds();
        let throughput = plan.throughput();
        let (vplat, schedule) = plan.lower(platform)?;
        Ok(Solution {
            schedule,
            throughput,
            provenance,
            execution: Execution::Rounds {
                platform: vplat,
                rounds,
            },
        })
    }
}

impl Scheduler for MultiRound {
    fn name(&self) -> &str {
        &self.name
    }

    fn legend(&self) -> &str {
        &self.legend
    }

    fn solve(&self, platform: &Platform) -> Result<Solution, CoreError> {
        match self.kind {
            PlannerKind::Uniform => {
                // The chunking is closed-form, but the per-worker totals
                // come from the one-round scenario LP: report that LP.
                let lp = plan_uniform(platform, self.rounds)?;
                self.pack(
                    platform,
                    lp.plan,
                    Provenance::Lp {
                        iterations: lp.iterations,
                    },
                )
            }
            PlannerKind::Geometric => {
                let g = plan_geometric(platform, self.rounds)?;
                self.pack(
                    platform,
                    g.plan,
                    Provenance::Search {
                        evaluated: g.evaluated,
                    },
                )
            }
            PlannerKind::Lp => {
                let lp = plan_lp(platform, self.rounds)?;
                self.pack(
                    platform,
                    lp.plan,
                    Provenance::Lp {
                        iterations: lp.iterations,
                    },
                )
            }
        }
    }
}

/// The provider handing the three `multiround_*` families to the engine
/// registry; installed by [`crate::install`].
pub struct MultiRoundProvider;

impl MultiRoundProvider {
    fn parse(name: &str) -> Option<MultiRound> {
        for kind in [
            PlannerKind::Uniform,
            PlannerKind::Geometric,
            PlannerKind::Lp,
        ] {
            let Some(rest) = name.strip_prefix(kind.id_stem()) else {
                continue;
            };
            if rest.is_empty() {
                return Some(MultiRound::registry_default(kind));
            }
            if let Some(r) = rest.strip_prefix('@') {
                return match r.parse::<usize>() {
                    Ok(rounds) if rounds >= 1 => Some(MultiRound::new(kind, rounds)),
                    _ => None,
                };
            }
        }
        None
    }
}

impl SchedulerProvider for MultiRoundProvider {
    fn group(&self) -> &'static str {
        "multiround"
    }

    fn schedulers(&self) -> Vec<Box<dyn Scheduler>> {
        vec![
            Box::new(MultiRound::registry_default(PlannerKind::Uniform)),
            Box::new(MultiRound::registry_default(PlannerKind::Geometric)),
            Box::new(MultiRound::registry_default(PlannerKind::Lp)),
        ]
    }

    fn resolve(&self, name: &str) -> Option<Box<dyn Scheduler>> {
        Self::parse(name).map(|s| Box::new(s) as Box<dyn Scheduler>)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dls_lp::Scalar;

    fn star() -> Platform {
        Platform::star_with_z(&[(1.0, 5.0), (2.0, 4.0), (1.5, 6.0)], 0.5).unwrap()
    }

    #[test]
    fn names_and_legends() {
        assert_eq!(MultiRound::lp(8).name(), "multiround_lp@8");
        assert_eq!(MultiRound::lp(8).legend(), "MR_LP@8");
        let d = MultiRound::registry_default(PlannerKind::Geometric);
        assert_eq!(d.name(), "multiround_geometric");
        assert_eq!(d.legend(), "MR_GEO");
        assert_eq!(d.rounds(), DEFAULT_ROUNDS);
    }

    #[test]
    fn parse_accepts_defaults_and_parameterized_ids_only() {
        assert!(MultiRoundProvider::parse("multiround_lp").is_some());
        let s = MultiRoundProvider::parse("multiround_uniform@2").unwrap();
        assert_eq!(s.rounds(), 2);
        assert_eq!(s.kind(), PlannerKind::Uniform);
        assert!(MultiRoundProvider::parse("multiround_lp@0").is_none());
        assert!(MultiRoundProvider::parse("multiround_lp@x").is_none());
        assert!(MultiRoundProvider::parse("multiround_lpx").is_none());
        assert!(MultiRoundProvider::parse("optimal_fifo").is_none());
    }

    #[test]
    fn solve_produces_rounds_execution_with_matching_throughput() {
        let p = star();
        for sched in [
            MultiRound::uniform(3),
            MultiRound::geometric(3),
            MultiRound::lp(3),
        ] {
            let sol = sched.solve(&p).unwrap();
            match &sol.execution {
                Execution::Rounds { platform, rounds } => {
                    assert_eq!(platform.num_workers(), p.num_workers() * rounds);
                }
                other => panic!("{} produced a non-rounds solution: {other:?}", sched.name()),
            }
            // Total load 1 by the fraction invariant.
            assert!((sol.schedule.total_load() - 1.0).abs() < 1e-9);
            let t = sol.verified_timeline(&p, 1e-7).expect("feasible");
            assert!((1.0 / sol.throughput - t.makespan()).abs() < 1e-9);
        }
    }

    #[test]
    fn provenance_reflects_the_planner_family() {
        let p = star();
        // Uniform chunking is closed-form but its per-worker totals come
        // from the one-round scenario LP — reported as that LP.
        assert!(matches!(
            MultiRound::uniform(2).solve(&p).unwrap().provenance,
            Provenance::Lp { .. }
        ));
        assert!(matches!(
            MultiRound::geometric(2).solve(&p).unwrap().provenance,
            Provenance::Search { evaluated } if evaluated > 1
        ));
        assert!(matches!(
            MultiRound::lp(2).solve(&p).unwrap().provenance,
            Provenance::Lp { iterations, .. } if iterations > 0
        ));
    }

    #[test]
    fn solve_exact_certifies_the_lp_planner() {
        // The default `Scheduler::solve_exact` re-solves the expanded
        // scenario exactly; for the LP planner the float objective is that
        // scenario's optimum, so they must agree.
        let p = star();
        let sched = MultiRound::lp(3);
        let sol = sched.solve(&p).unwrap();
        let exact = sched.solve_exact(&p).unwrap();
        // Solution throughput is for a unit load; the exact scenario LP
        // reports the T = 1 objective rho. They coincide by linearity.
        assert!((exact.throughput.to_f64() - sol.throughput).abs() < 1e-9);
        // Uniform chunking is not scenario-optimal: exact upper-bounds it.
        let uni = MultiRound::uniform(3);
        let uni_sol = uni.solve(&p).unwrap();
        let uni_exact = uni.solve_exact(&p).unwrap();
        assert!(uni_exact.throughput.to_f64() >= uni_sol.throughput - 1e-9);
    }
}
