//! Unified scheduler engine: every solver family behind one trait.
//!
//! The crate grew as a collection of free functions with divergent
//! signatures (`optimal_fifo` returns an [`LpSchedule`], `bus_fifo` a
//! [`BusFifoSolution`], `chain_best_prefix` an order/solution pair, …),
//! which forced every downstream consumer — sweeps, report tables,
//! benchmarks — to hard-code each call site. This module normalizes them:
//!
//! * [`Scheduler`] — `name()` + `solve(&Platform) -> Result<Solution>`,
//!   plus [`Scheduler::solve_exact`] for exact-rational certification;
//! * [`Solution`] — schedule + throughput + [`Provenance`] + [`Execution`]
//!   (where the schedule's worker ids live: the physical platform, or an
//!   expanded multi-round replication of it);
//! * [`registry()`] — every built-in strategy as a trait object, so new
//!   strategies (multi-round, tree platforms, interleaved masters) plug in
//!   as one file instead of a cross-crate surgery;
//! * [`SchedulerProvider`] / [`register_provider`] — the
//!   parameterized-scheduler story: crates *above* `dls-core` (e.g.
//!   `dls-rounds`) contribute constructor-configured strategies to
//!   [`registry()`] and resolve parameterized ids such as
//!   `multiround_lp@8` through [`lookup`].
//!
//! The original free functions remain the implementation; the engine types
//! are thin adapters over them.
//!
//! ```
//! use dls_core::prelude::*;
//! use dls_platform::Platform;
//!
//! let p = Platform::bus(1.0, 0.5, &[3.0, 5.0, 4.0]).unwrap();
//! for s in dls_core::registry() {
//!     let sol = s.solve(&p).unwrap();
//!     assert!(sol.throughput > 0.0, "{} failed", s.name());
//! }
//! ```

use std::sync::{Arc, OnceLock, RwLock};

use dls_lp::Rational;
use dls_platform::{Platform, TreePlatform, WorkerId};

use crate::error::CoreError;
use crate::lp_model::LpSchedule;
use crate::schedule::{PortModel, Schedule};
use crate::timeline::Timeline;

/// How a [`Solution`] was obtained.
#[derive(Debug, Clone, PartialEq)]
pub enum Provenance {
    /// A scenario LP solved with the simplex (`iterations` pivots).
    Lp {
        /// Simplex pivots used.
        iterations: usize,
    },
    /// An analytical closed form or chain solution — no LP involved.
    ClosedForm,
    /// Exhaustive search over `evaluated` candidate scenarios.
    Search {
        /// Scenarios (LPs) evaluated.
        evaluated: usize,
    },
    /// An LP **relaxation** paired with a replay-achieved value: the
    /// solution's reported throughput was achieved by an executable
    /// schedule (simulator replay or expansion), while `bound` is the
    /// relaxation's own optimum — a certified upper bound on what *any*
    /// schedule of the instance can achieve. Used by the tree-native
    /// per-link LP (`tree_lp`), whose formulation relaxes message ordering
    /// but whose store-and-forward replay is exact; `bound - throughput`
    /// is the remaining pipelining gap.
    LpBound {
        /// Simplex pivots of the relaxation solve.
        iterations: usize,
        /// The relaxation's optimal throughput (a valid upper bound).
        bound: f64,
    },
}

/// Where a [`Solution`]'s schedule executes: the worker-id space its
/// `Schedule` refers to.
///
/// One-round strategies schedule the physical platform directly. Multi-round
/// strategies (see the `dls-rounds` crate) lower an installment plan onto an
/// *expanded* virtual platform — `rounds` round-major copies of the physical
/// worker set, virtual id `r·p + j` being round `r`'s installment for
/// physical worker `j` — so the existing timeline/simulator machinery
/// replays the plan unchanged.
#[derive(Debug, Clone, PartialEq)]
pub enum Execution {
    /// Schedule worker ids are physical platform ids (a one-round plan).
    Direct,
    /// The schedule lives on `platform`, a `rounds`-fold round-major
    /// replication of the physical platform.
    Rounds {
        /// The expanded virtual platform the schedule's ids refer to.
        platform: Platform,
        /// Number of installment rounds (`platform` has `rounds · p`
        /// workers for a physical platform of `p`).
        rounds: usize,
    },
    /// The schedule lives on `platform`, the bandwidth-equivalent
    /// *star-collapse* of a multi-level tree topology (see the `dls-tree`
    /// crate): virtual worker `j` stands for tree node `j`, its `c`/`d`
    /// summed along the root-to-node path (serialized store-and-forward
    /// cost). Expanding the collapsed-star timeline back into per-edge hop
    /// timings is always feasible on `tree`, so the reported throughput is
    /// achieved (it is *exact* for depth-1 trees and conservative for
    /// deeper ones, where real relays can pipeline hops in parallel).
    Tree {
        /// The collapsed bandwidth-equivalent star the schedule's ids
        /// refer to.
        platform: Platform,
        /// The tree topology the solution was planned for.
        tree: TreePlatform,
        /// Physical worker id per tree node / collapsed-star worker — the
        /// collapse mapping back to the platform the scheduler was asked
        /// to solve (identity for solves of a native tree).
        nodes: Vec<WorkerId>,
    },
}

/// The unified result every [`Scheduler`] produces.
#[derive(Debug, Clone)]
pub struct Solution {
    /// The schedule (orders + loads) to execute — on the physical platform
    /// for [`Execution::Direct`], on the expanded virtual platform for
    /// [`Execution::Rounds`].
    pub schedule: Schedule,
    /// Normalized throughput: load processed per unit of horizon when this
    /// schedule is executed on the platform it was solved for (`T = 1`
    /// scaling). For baselines that ignore part of the cost model (e.g.
    /// [`no-return`](crate::no_return)) this is the *achieved* throughput
    /// under the full one-port model, not the solver's own optimistic
    /// objective — all registry entries are therefore directly comparable.
    pub throughput: f64,
    /// How the solution was computed.
    pub provenance: Provenance,
    /// The worker-id space the schedule refers to (physical platform or a
    /// multi-round expansion of it).
    pub execution: Execution,
}

impl Solution {
    /// Packages an LP result (throughput is the LP objective, which the
    /// one-port timeline achieves exactly).
    fn from_lp(lp: LpSchedule) -> Solution {
        Solution {
            schedule: lp.schedule,
            throughput: lp.throughput,
            provenance: Provenance::Lp {
                iterations: lp.iterations,
            },
            execution: Execution::Direct,
        }
    }

    /// Packages a closed-form schedule and its throughput.
    fn closed_form(schedule: Schedule, throughput: f64) -> Solution {
        Solution {
            schedule,
            throughput,
            provenance: Provenance::ClosedForm,
            execution: Execution::Direct,
        }
    }

    /// Packages a closed-form schedule, measuring the achieved one-port
    /// throughput off the earliest-feasible timeline.
    fn measured(platform: &Platform, schedule: Schedule) -> Solution {
        let throughput = crate::timeline::throughput(platform, &schedule, PortModel::OnePort);
        Solution::closed_form(schedule, throughput)
    }

    /// The platform this solution's schedule must be timed/simulated on:
    /// `physical` itself for [`Execution::Direct`], the stored expanded
    /// platform for [`Execution::Rounds`].
    pub fn execution_platform<'a>(&'a self, physical: &'a Platform) -> &'a Platform {
        match &self.execution {
            Execution::Direct => physical,
            Execution::Rounds { platform, .. } => platform,
            Execution::Tree { platform, .. } => platform,
        }
    }

    /// Number of installment rounds (1 for one-round solutions; tree
    /// schedules are one-round).
    pub fn rounds(&self) -> usize {
        match &self.execution {
            Execution::Direct => 1,
            Execution::Rounds { rounds, .. } => *rounds,
            Execution::Tree { .. } => 1,
        }
    }

    /// The tree topology this solution was planned for, if it is a
    /// star-collapse solution.
    pub fn tree(&self) -> Option<&TreePlatform> {
        match &self.execution {
            Execution::Tree { tree, .. } => Some(tree),
            _ => None,
        }
    }

    /// Number of *physical* workers that process load: participants of a
    /// direct schedule, distinct `id mod p` of an expanded one.
    pub fn enrolled_workers(&self, physical: &Platform) -> usize {
        let p = physical.num_workers();
        match &self.execution {
            Execution::Direct => self.schedule.participants().len(),
            Execution::Rounds { .. } => {
                let mut seen = vec![false; p];
                for id in self.schedule.participants() {
                    seen[id.index() % p] = true;
                }
                seen.iter().filter(|s| **s).count()
            }
            Execution::Tree { nodes, .. } => {
                let mut seen = vec![false; p];
                for id in self.schedule.participants() {
                    seen[nodes[id.index()].index()] = true;
                }
                seen.iter().filter(|s| **s).count()
            }
        }
    }

    /// Builds and verifies the earliest-feasible one-port timeline of this
    /// solution on its [`execution platform`](Solution::execution_platform);
    /// `Err` carries the violation list.
    pub fn verified_timeline(
        &self,
        platform: &Platform,
        tol: f64,
    ) -> Result<Timeline, Vec<String>> {
        let platform = self.execution_platform(platform);
        let t = Timeline::build(platform, &self.schedule, PortModel::OnePort);
        let violations = t.verify(platform, &self.schedule, tol);
        if violations.is_empty() {
            Ok(t)
        } else {
            Err(violations)
        }
    }
}

/// Exact-rational certificate of a strategy's chosen scenario: the optimal
/// objective and loads of the scenario LP solved with [`Rational`]
/// arithmetic (no floating point anywhere in the pivot path).
#[derive(Debug, Clone)]
pub struct ExactSolution {
    /// Exact optimal throughput of the scenario the strategy selected.
    pub throughput: Rational,
    /// Exact loads, indexed by the execution platform's worker ids.
    pub loads: Vec<Rational>,
}

/// A scheduling strategy: anything that maps a [`Platform`] to a
/// [`Solution`]. `Send + Sync` so registries can be shared across the
/// sweep worker threads.
pub trait Scheduler: Send + Sync {
    /// Stable identifier, unique within [`registry()`] (snake_case).
    fn name(&self) -> &str;

    /// Display name matching the paper's figure legends (defaults to
    /// [`Scheduler::name`]).
    fn legend(&self) -> &str {
        self.name()
    }

    /// Solves the platform. Errors are strategy-specific: e.g.
    /// [`CoreError::NotABus`] from the Theorem 2 closed form on a star, or
    /// [`CoreError::TooManyWorkers`] from exhaustive search.
    fn solve(&self, platform: &Platform) -> Result<Solution, CoreError>;

    /// Certifies the strategy with exact rational arithmetic: re-solves the
    /// scenario (enrollment + `σ1`/`σ2`) the float path selected, as an
    /// exact LP under the one-port model, on the solution's execution
    /// platform.
    ///
    /// For every strategy whose reported throughput *is* its scenario's LP
    /// optimum (the LP solvers, the closed forms, the exhaustive searches,
    /// the multi-round LP planner) the exact objective must match
    /// [`Solution::throughput`] to floating-point accuracy — the CI
    /// certification in `tests/exact_registry.rs` relies on this. A closed
    /// form answers only on platforms where it is that optimum (the LIFO
    /// and FIFO chains refuse non-`z`-tied platforms with
    /// [`CoreError::NotZTied`], Theorem 2 refuses non-buses), so this pass
    /// is what certifies it. The exceptions report *achieved* values below
    /// the scenario optimum: the `no_return` baseline (loads chosen while
    /// ignoring return costs) and the non-LP multi-round planners
    /// (uniform/geometric chunking); for those the exact objective is an
    /// upper bound.
    fn solve_exact(&self, platform: &Platform) -> Result<ExactSolution, CoreError> {
        let sol = self.solve(platform)?;
        let exec = sol.execution_platform(platform);
        let (throughput, loads) = crate::lp_model::solve_scenario_exact::<Rational>(
            exec,
            sol.schedule.send_order(),
            sol.schedule.return_order(),
            PortModel::OnePort,
        )?;
        Ok(ExactSolution { throughput, loads })
    }
}

/// A family of externally contributed, constructor-configured schedulers —
/// the registry's extension point for crates that sit *above* `dls-core`
/// in the dependency graph (multi-round planners today, the affine solvers
/// next).
///
/// Providers are process-global: [`register_provider`] installs one (keyed
/// by [`SchedulerProvider::group`]; re-registering a group replaces it,
/// making installation idempotent), after which [`registry()`] lists the
/// provider's default instances and [`lookup`] resolves its ids — including
/// parameterized spellings such as `multiround_lp@8` that name a
/// constructor configuration rather than a fixed instance.
pub trait SchedulerProvider: Send + Sync {
    /// Stable provider id (e.g. `"multiround"`); re-registering the same
    /// group replaces the previous provider.
    fn group(&self) -> &'static str;

    /// The default instances this provider contributes to [`registry()`].
    /// Names must be unique registry-wide.
    fn schedulers(&self) -> Vec<Box<dyn Scheduler>>;

    /// Resolves a strategy id — the default names from
    /// [`SchedulerProvider::schedulers`] *and* any parameterized forms the
    /// provider supports. `None` for ids this provider does not own.
    fn resolve(&self, name: &str) -> Option<Box<dyn Scheduler>>;
}

fn providers() -> &'static RwLock<Vec<Arc<dyn SchedulerProvider>>> {
    static PROVIDERS: OnceLock<RwLock<Vec<Arc<dyn SchedulerProvider>>>> = OnceLock::new();
    PROVIDERS.get_or_init(|| RwLock::new(Vec::new()))
}

/// Installs (or replaces, by [`SchedulerProvider::group`]) a scheduler
/// provider; its defaults appear in every subsequent [`registry()`] call.
pub fn register_provider(provider: Arc<dyn SchedulerProvider>) {
    let mut ps = providers().write().expect("provider registry poisoned");
    if let Some(slot) = ps.iter_mut().find(|p| p.group() == provider.group()) {
        *slot = provider;
    } else {
        ps.push(provider);
    }
}

macro_rules! define_scheduler {
    ($(#[$doc:meta])* $ty:ident, $name:literal, $legend:literal,
     |$platform:ident| $solve:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, Default)]
        pub struct $ty;

        impl Scheduler for $ty {
            fn name(&self) -> &str {
                $name
            }
            fn legend(&self) -> &str {
                $legend
            }
            fn solve(&self, $platform: &Platform) -> Result<Solution, CoreError> {
                $solve
            }
        }
    };
}

define_scheduler!(
    /// Theorem 1 + Proposition 1: the optimal one-port FIFO schedule with
    /// LP resource selection (requires a `z`-tied platform), solved on
    /// Lemma 1's working set and certified by duality.
    OptimalFifo, "optimal_fifo", "OPT_FIFO",
    |platform| crate::fifo::optimal_fifo(platform).map(Solution::from_lp)
);

define_scheduler!(
    /// The optimal one-port LIFO schedule (all workers, non-decreasing
    /// `c`); the paper's `LIFO` heuristic. Answered by the companion
    /// papers' `O(p)` load chain, with no LP (requires a `z`-tied
    /// platform); the LIFO scenario LP only certifies it.
    OptimalLifo, "optimal_lifo", "LIFO",
    |platform| {
        let sol = crate::lifo::optimal_lifo(platform)?;
        Ok(Solution::closed_form(sol.schedule, sol.throughput))
    }
);

define_scheduler!(
    /// The paper's `INC_C` heuristic: FIFO over all workers by
    /// non-decreasing `c` (optimal FIFO order for `z <= 1`).
    IncC, "inc_c", "INC_C",
    |platform| crate::fifo::inc_c_fifo(platform).map(Solution::from_lp)
);

define_scheduler!(
    /// The paper's `INC_W` heuristic: FIFO over all workers by
    /// non-decreasing `w`.
    IncW, "inc_w", "INC_W",
    |platform| crate::fifo::inc_w_fifo(platform).map(Solution::from_lp)
);

define_scheduler!(
    /// Theorem 2: the closed-form optimal FIFO on a bus platform (errors
    /// with [`CoreError::NotABus`] elsewhere).
    BusFifo, "bus_fifo", "BUS_FIFO",
    |platform| {
        let sol = crate::closed_form::bus_fifo(platform)?;
        Ok(Solution::closed_form(sol.schedule(platform), sol.throughput))
    }
);

define_scheduler!(
    /// The analytical chain solver over prefixes of the `c`-sorted worker
    /// list — a fast LP-free FIFO heuristic (requires a `z`-tied
    /// platform, like the chain itself).
    ChainFifo, "chain", "CHAIN",
    |platform| {
        let (order, sol) = crate::chain::chain_best_prefix(platform)?;
        Ok(Solution::closed_form(sol.schedule(platform, &order), sol.throughput))
    }
);

define_scheduler!(
    /// The classical no-return baseline \[6\]: loads chosen ignoring return
    /// messages, then *executed* under the full one-port model — its
    /// reported throughput is the achieved (degraded) one.
    NoReturn, "no_return", "NO_RETURN",
    |platform| {
        let sol = crate::no_return::optimal_no_return(platform)?;
        Ok(Solution::measured(platform, sol.schedule(platform)))
    }
);

define_scheduler!(
    /// Exhaustive ground truth over every FIFO order (`p!` LPs, `p <= 8`).
    BruteFifo, "brute_fifo", "BRUTE_FIFO",
    |platform| {
        let res = crate::brute_force::best_fifo(platform, PortModel::OnePort)?;
        Ok(Solution {
            schedule: res.best.schedule,
            throughput: res.best.throughput,
            provenance: Provenance::Search {
                evaluated: res.evaluated,
            },
            execution: Execution::Direct,
        })
    }
);

define_scheduler!(
    /// Exhaustive ground truth over every `(σ1, σ2)` permutation pair
    /// (`p!²` LPs, `p <= 5`) — the open general problem, canonical shape.
    BruteScenario, "brute_force", "BRUTE",
    |platform| {
        let res = crate::brute_force::best_scenario(platform, PortModel::OnePort)?;
        Ok(Solution {
            schedule: res.best.schedule,
            throughput: res.best.throughput,
            provenance: Provenance::Search {
                evaluated: res.evaluated,
            },
            execution: Execution::Direct,
        })
    }
);

/// Every built-in strategy, in a stable order (optimal solvers first, then
/// heuristics, then baselines and exhaustive searches), followed by the
/// default instances of every installed [`SchedulerProvider`] in
/// registration order.
pub fn registry() -> Vec<Box<dyn Scheduler>> {
    let mut reg: Vec<Box<dyn Scheduler>> = vec![
        Box::new(OptimalFifo),
        Box::new(OptimalLifo),
        Box::new(IncC),
        Box::new(IncW),
        Box::new(BusFifo),
        Box::new(ChainFifo),
        Box::new(NoReturn),
        Box::new(BruteFifo),
        Box::new(BruteScenario),
    ];
    for provider in providers()
        .read()
        .expect("provider registry poisoned")
        .iter()
    {
        reg.extend(provider.schedulers());
    }
    reg
}

/// Finds a strategy by its [`Scheduler::name`]: built-ins first, then each
/// installed provider's [`SchedulerProvider::resolve`] — which also accepts
/// parameterized ids (e.g. `multiround_lp@8`) that do not appear verbatim
/// in [`registry()`].
pub fn lookup(name: &str) -> Option<Box<dyn Scheduler>> {
    if let Some(s) = registry().into_iter().find(|s| s.name() == name) {
        return Some(s);
    }
    providers()
        .read()
        .expect("provider registry poisoned")
        .iter()
        .find_map(|p| p.resolve(name))
}

// Engine-local invariants only: the registry round-trip on the shared
// 5-worker fixture (verify-clean timelines, optimal-FIFO dominance,
// provenance) lives in the workspace integration suite,
// `tests/engine_registry.rs`.
#[cfg(test)]
mod tests {
    use super::*;
    use dls_lp::Scalar;

    /// A small bus so every registered strategy applies.
    fn fixture() -> Platform {
        Platform::bus(1.0, 0.5, &[2.0, 4.0, 3.0, 6.0, 5.0]).unwrap()
    }

    #[test]
    fn registry_names_are_unique() {
        let reg = registry();
        let mut names: Vec<&str> = reg.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate scheduler names");
    }

    #[test]
    fn lookup_finds_by_name() {
        assert!(lookup("optimal_fifo").is_some());
        assert!(lookup("inc_c").is_some());
        assert!(lookup("nonexistent").is_none());
        assert_eq!(lookup("optimal_lifo").unwrap().legend(), "LIFO");
    }

    #[test]
    fn trait_objects_match_free_functions() {
        let p = fixture();
        let via_trait = lookup("optimal_fifo").unwrap().solve(&p).unwrap();
        let direct = crate::fifo::optimal_fifo(&p).unwrap();
        assert!((via_trait.throughput - direct.throughput).abs() < 1e-12);
        assert_eq!(via_trait.schedule, direct.schedule);
        assert!(matches!(via_trait.provenance, Provenance::Lp { .. }));
    }

    #[test]
    fn bus_closed_form_errors_on_stars_through_the_trait() {
        let star = Platform::star_with_z(&[(1.0, 2.0), (2.0, 1.0)], 0.5).unwrap();
        assert_eq!(
            lookup("bus_fifo").unwrap().solve(&star).unwrap_err(),
            CoreError::NotABus
        );
    }

    #[test]
    fn no_return_reports_achieved_not_optimistic_throughput() {
        let p = fixture();
        let engine = lookup("no_return").unwrap().solve(&p).unwrap();
        let optimistic = crate::no_return::optimal_no_return(&p).unwrap();
        // Ignoring returns overstates what the one-port execution achieves.
        assert!(engine.throughput < optimistic.throughput);
    }

    #[test]
    fn direct_solutions_execute_on_the_physical_platform() {
        let p = fixture();
        let sol = lookup("optimal_fifo").unwrap().solve(&p).unwrap();
        assert_eq!(sol.execution, Execution::Direct);
        assert_eq!(sol.rounds(), 1);
        assert!(std::ptr::eq(sol.execution_platform(&p), &p));
        assert_eq!(sol.enrolled_workers(&p), sol.schedule.participants().len());
    }

    #[test]
    fn rounds_execution_maps_virtual_ids_back_to_physical_workers() {
        // Hand-build a 2-round solution on an expanded copy of a 2-worker
        // platform: virtual ids {0,1,2,3} are rounds-major, so enrolling
        // {0, 2} (both rounds of P1) is a single physical worker.
        let p = Platform::bus(1.0, 0.5, &[2.0, 4.0]).unwrap();
        let expanded = Platform::bus(1.0, 0.5, &[2.0, 4.0, 2.0, 4.0]).unwrap();
        let order: Vec<dls_platform::WorkerId> = expanded.ids().collect();
        let schedule = Schedule::fifo(&expanded, order, vec![0.25, 0.0, 0.75, 0.0]).unwrap();
        let sol = Solution {
            schedule,
            throughput: 0.1,
            provenance: Provenance::ClosedForm,
            execution: Execution::Rounds {
                platform: expanded.clone(),
                rounds: 2,
            },
        };
        assert_eq!(sol.rounds(), 2);
        assert_eq!(sol.execution_platform(&p).num_workers(), 4);
        assert_eq!(sol.enrolled_workers(&p), 1);
        // verified_timeline must time the schedule on the expanded platform.
        assert!(sol.verified_timeline(&p, 1e-9).is_ok());
    }

    #[test]
    fn solve_exact_certifies_lp_strategies_on_the_fixture() {
        let p = fixture();
        for name in ["optimal_fifo", "optimal_lifo", "inc_c", "bus_fifo"] {
            let s = lookup(name).unwrap();
            let float = s.solve(&p).unwrap().throughput;
            let exact = s.solve_exact(&p).unwrap();
            assert!(
                (exact.throughput.to_f64() - float).abs() < 1e-9,
                "{name}: exact {} vs float {float}",
                exact.throughput.to_f64()
            );
            let load_sum: f64 = exact.loads.iter().map(|l| l.to_f64()).sum();
            assert!(
                (load_sum - float).abs() < 1e-9,
                "{name}: loads sum {load_sum}"
            );
        }
    }

    #[test]
    fn solve_exact_upper_bounds_the_no_return_baseline() {
        // no_return reports the *achieved* throughput; the exact re-solve of
        // its scenario re-optimizes the loads and can only do better.
        let p = fixture();
        let s = lookup("no_return").unwrap();
        let float = s.solve(&p).unwrap().throughput;
        let exact = s.solve_exact(&p).unwrap().throughput.to_f64();
        assert!(
            exact >= float - 1e-9,
            "exact {exact} below achieved {float}"
        );
    }

    /// A provider contributing one configurable dummy strategy, for the
    /// registration mechanics (real providers live in `dls-rounds`).
    struct DummyProvider;

    struct DummyScheduler {
        name: String,
    }

    impl Scheduler for DummyScheduler {
        fn name(&self) -> &str {
            &self.name
        }
        fn solve(&self, platform: &Platform) -> Result<Solution, CoreError> {
            crate::fifo::inc_c_fifo(platform).map(Solution::from_lp)
        }
    }

    impl SchedulerProvider for DummyProvider {
        fn group(&self) -> &'static str {
            "engine-test-dummy"
        }
        fn schedulers(&self) -> Vec<Box<dyn Scheduler>> {
            vec![Box::new(DummyScheduler {
                name: "engine_test_dummy".into(),
            })]
        }
        fn resolve(&self, name: &str) -> Option<Box<dyn Scheduler>> {
            let rest = name.strip_prefix("engine_test_dummy")?;
            if rest.is_empty() || rest.starts_with('@') {
                Some(Box::new(DummyScheduler { name: name.into() }))
            } else {
                None
            }
        }
    }

    #[test]
    fn providers_extend_registry_and_resolve_parameterized_ids() {
        register_provider(Arc::new(DummyProvider));
        // Idempotent: a second registration replaces, not duplicates.
        register_provider(Arc::new(DummyProvider));
        let names: Vec<String> = registry().iter().map(|s| s.name().to_string()).collect();
        assert_eq!(
            names.iter().filter(|n| *n == "engine_test_dummy").count(),
            1,
            "provider defaults duplicated: {names:?}"
        );
        // Default and parameterized lookups both resolve and solve.
        let p = fixture();
        for id in ["engine_test_dummy", "engine_test_dummy@7"] {
            let s = lookup(id).expect("provider id resolves");
            assert_eq!(s.name(), id);
            assert!(s.solve(&p).unwrap().throughput > 0.0);
        }
        assert!(lookup("engine_test_dummy_unknown").is_none());
    }
}
