//! # dls-core — divisible loads with return messages, one-port model
//!
//! Reference implementation of Beaumont, Marchal, Rehn & Robert, *"FIFO
//! scheduling of divisible loads with return messages under the one-port
//! model"* (INRIA RR-5738, 2005 / IPDPS 2006).
//!
//! A divisible load is a perfectly parallel job: any number of load units
//! can be processed by any worker. The master of a star platform sends each
//! enrolled worker its share (`α_i` units, costing `α_i·c_i` time), the
//! worker computes (`α_i·w_i`), and ships results back (`α_i·d_i`). Under
//! the **one-port model** the master handles at most one transfer at a
//! time, which couples all communications and makes the ordering decisions
//! hard — the general problem's complexity is open (conjectured NP-hard).
//!
//! ## What this crate provides
//!
//! | Paper result | API |
//! |---|---|
//! | LP (2) for a fixed scenario, §2.3 | [`lp_model::scenario_model`], [`lp_model::solve_scenario`] |
//! | Theorem 1 + Proposition 1 (optimal FIFO, resource selection) | [`fifo::optimal_fifo`] |
//! | Optimal LIFO (companion papers \[7,8\], `O(p)` closed form) | [`lifo::optimal_lifo`] |
//! | Theorem 2 (bus closed form) | [`closed_form::bus_fifo`] |
//! | `INC_C` / `INC_W` heuristics, §5 | [`fifo::inc_c_fifo`], [`fifo::inc_w_fifo`] |
//! | Integer rounding policy, §5 | [`rounding::round_loads`] |
//! | Mirror reduction for `z > 1`, §3 | [`Schedule::mirror`], handled inside [`fifo::optimal_fifo`] |
//! | Exhaustive ground truth (small `p`) | [`brute_force`] |
//! | Analytical chain solver (no LP) | [`chain`] |
//! | Classical no-return baselines \[5,6,10\] | [`no_return`] |
//! | Unified strategy API over all of the above | [`engine`], [`registry`] |
//!
//! ## Quickstart
//!
//! ```
//! use dls_core::prelude::*;
//! use dls_platform::Platform;
//!
//! // Three workers, return messages half the input size (z = 1/2).
//! let p = Platform::star_with_z(&[(2.0, 5.0), (1.0, 4.0), (3.0, 2.0)], 0.5).unwrap();
//! let sol = optimal_fifo(&p).unwrap();
//! assert!(sol.throughput > 0.0);
//! // The optimal FIFO serves fast-communicating workers first.
//! let t = Timeline::build(&p, &sol.schedule, PortModel::OnePort);
//! assert!(t.verify(&p, &sol.schedule, 1e-7).is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod affine;
pub mod brute_force;
pub mod chain;
pub mod closed_form;
pub mod diagnosis;
pub mod engine;
mod error;
pub mod fifo;
pub mod interleaved;
pub mod lifo;
pub mod lp_model;
pub mod no_return;
pub mod rounding;
mod schedule;
#[cfg(test)]
mod testkit;
pub mod timeline;

pub use engine::{
    lookup, register_provider, registry, ExactSolution, Execution, Provenance, Scheduler,
    SchedulerProvider, Solution,
};
pub use error::CoreError;
pub use schedule::{PortModel, Schedule, LOAD_EPS};

/// Convenient glob-import of the most used items.
pub mod prelude {
    pub use crate::affine::{
        affine_fifo_best_prefix, affine_fifo_best_subset, affine_fifo_for_set, affine_makespan,
        AffineLatencies,
    };
    pub use crate::brute_force::{best_fifo, best_lifo, best_scenario};
    pub use crate::chain::{chain_best_prefix, chain_best_subset, chain_fifo};
    pub use crate::closed_form::{bus_fifo, BusFifoSolution, BusRegime};
    pub use crate::diagnosis::{diagnose, Diagnosis};
    pub use crate::engine::{
        lookup, register_provider, registry, ExactSolution, Execution, Provenance, Scheduler,
        SchedulerProvider, Solution,
    };
    pub use crate::fifo::{inc_c_fifo, inc_w_fifo, optimal_fifo, theorem1_order};
    pub use crate::interleaved::{
        interleaved_fifo, interleaved_fifo_for_order, interleaved_profile, InterleavedSolution,
    };
    pub use crate::lifo::{optimal_lifo, LifoSolution};
    pub use crate::lp_model::{
        scenario_model, solve_fifo, solve_lifo, solve_model, solve_scenario, LpSchedule,
    };
    pub use crate::no_return::{no_return_platform, optimal_no_return};
    pub use crate::rounding::{integer_schedule, round_loads};
    pub use crate::timeline::{makespan, throughput, Timeline};
    pub use crate::{CoreError, PortModel, Schedule};
}
