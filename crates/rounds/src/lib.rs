//! # dls-rounds — multi-round (R-installment) scheduling subsystem
//!
//! The paper (RR-5738) distributes the load in a *single* round per
//! worker; this crate opens the multi-installment workload class for the
//! same star/one-port model with return messages (cf. Yang–Casanova
//! multi-round DLS and the multi-installment device of Gallet–Robert–
//! Vivien): the master splits the load into `R` rounds to overlap
//! communication with computation, trading a little scheduling latency for
//! throughput.
//!
//! * [`RoundPlan`] — the IR: per-round, per-worker chunk fractions of a
//!   unit load, with per-chunk send/compute/return intervals, *lowered*
//!   onto an expanded virtual platform (`R` round-major copies of the
//!   worker set) so `dls_core::timeline` and `dls_sim::simulate` replay it
//!   unchanged;
//! * [`plan_uniform`] / [`plan_geometric`] / [`plan_lp`] — the installment
//!   planners (equal rounds; budgeted geometric growth; the scenario LP on
//!   the expanded platform);
//! * [`MultiRound`] + [`install`] — constructor-configured [`Scheduler`]s
//!   (`multiround_uniform`, `multiround_geometric`, `multiround_lp`, plus
//!   parameterized ids like `multiround_lp@8`) registered into
//!   [`dls_core::registry`] through the engine's provider extension point.
//!
//! ```
//! use dls_core::Scheduler;
//! use dls_platform::Platform;
//!
//! dls_rounds::install(); // idempotent; adds multiround_* to the registry
//! let p = Platform::star_with_z(&[(1.0, 5.0), (2.0, 4.0), (1.5, 6.0)], 0.5).unwrap();
//! let one = dls_core::lookup("multiround_lp@1").unwrap().solve(&p).unwrap();
//! let four = dls_core::lookup("multiround_lp@4").unwrap().solve(&p).unwrap();
//! assert!(four.throughput >= one.throughput - 1e-12); // R is never harmful to the LP planner
//! ```
//!
//! [`Scheduler`]: dls_core::Scheduler

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod plan;
mod planners;
mod scheduler;

pub use plan::{
    check_rounds, expanded_platform, physical_to_virtual, virtual_to_physical, ChunkTiming,
    RoundPlan, MAX_VIRTUAL_WORKERS,
};
pub use planners::{
    plan_geometric, plan_lp, plan_uniform, planner_order, GeometricPlan, LpPlan, GEOMETRIC_RATIOS,
};
pub use scheduler::{MultiRound, MultiRoundProvider, PlannerKind, DEFAULT_ROUNDS};

/// Installs the multi-round provider into [`dls_core::registry`]
/// (idempotent: re-installing replaces the provider in place). After this,
/// `registry()` lists the three `multiround_*` defaults and
/// [`dls_core::lookup`] resolves parameterized ids such as
/// `multiround_lp@8`.
pub fn install() {
    dls_core::register_provider(std::sync::Arc::new(MultiRoundProvider));
}
