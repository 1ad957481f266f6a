//! # dls-sim — discrete-event star-network simulator
//!
//! The experimental substrate of this reproduction. The paper (Section 5)
//! validates its theory with MPI runs on the 12-node `gdsdmi` cluster; this
//! crate plays that testbed's role (the `dls-sim` row of the README's crate
//! map): it executes [`dls_core::Schedule`]s on a simulated star
//! network whose master enforces the **one-port** rule, with seeded jitter,
//! per-message latency and cache-degradation models standing in for
//! real-cluster effects.
//!
//! * [`simulate`] — run a schedule under a [`SimConfig`] (master policy ×
//!   realism model × seed) and obtain a [`SimReport`] with a full
//!   activity [`Trace`];
//! * [`simulate_tree`] — store-and-forward replay of tree-platform
//!   schedules with every node (master, relays, workers) one-port, plus
//!   the independent [`verify_tree`] constraint checker;
//! * [`gantt::render`] — Figure 9-style Gantt visualisation;
//! * [`EventQueue`] / [`SimTime`] — deterministic discrete-event plumbing
//!   for extensions (multi-round schedules, tree platforms).
//!
//! The key invariant, enforced by tests here and in the workspace
//! integration suite: under [`RealismModel::ideal`] the simulator
//! reproduces the analytical timeline of `dls-core` *exactly*.
//!
//! ```
//! use dls_core::prelude::*;
//! use dls_platform::Platform;
//! use dls_sim::{simulate, SimConfig};
//!
//! let p = Platform::star_with_z(&[(1.0, 2.0), (2.0, 1.0)], 0.5).unwrap();
//! let sol = optimal_fifo(&p).unwrap();
//! let report = simulate(&p, &sol.schedule, &SimConfig::ideal());
//! assert!((report.makespan - 1.0).abs() < 1e-7); // LP optimum fills T = 1
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod executor;
pub mod gantt;
mod noise;
mod queue;
mod time;
pub mod trace;
mod tree;

pub use executor::{simulate, simulate_reps, MasterPolicy, SimConfig, SimReport};
pub use noise::{Noise, RealismModel};
pub use queue::EventQueue;
pub use time::SimTime;
pub use trace::{Span, SpanKind, Trace, WorkerStats};
pub use tree::{
    ideal_tree_makespan, simulate_tree, verify_tree, TreeSimReport, TreeSpan, TreeSpanKind,
};
