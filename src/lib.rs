//! # dls — facade crate
//!
//! Single-import access to the complete reproduction of Beaumont, Marchal,
//! Rehn & Robert, *"FIFO scheduling of divisible loads with return messages
//! under the one-port model"* (INRIA RR-5738, 2005 / IPDPS 2006).
//!
//! Re-exports the workspace crates:
//!
//! * [`lp`] — two simplex engines over one standard form: the dense
//!   two-phase tableau and the revised simplex on a sparse LU basis
//!   factorization (f64 + exact rational backends), plus the
//!   schedule-model IR and its static analyzer;
//! * [`platform`] — star/bus platforms, random families, the matrix-product
//!   application model;
//! * [`core`] — the paper's algorithms: scenario LPs, optimal FIFO/LIFO,
//!   Theorem 2 closed forms, brute-force ground truth, rounding;
//! * [`rounds`] — the multi-round (R-installment) planners; call
//!   [`rounds::install`] to add the `multiround_*` strategies to
//!   [`core::registry`];
//! * [`tree`] — multi-level tree platforms via the star-collapse
//!   reduction plus the tree-native per-link LP; call [`tree::install`]
//!   to add `tree_fifo`/`tree_lifo`/`tree_lp` to [`core::registry`]
//!   (`core::interleaved::install` likewise adds `interleaved_fifo`);
//! * [`sim`] — the discrete-event star-network simulator (MPI-testbed
//!   substitute);
//! * [`report`] — tables, statistics, series files, parallel map;
//! * [`obs`] — the process-global metrics registry + span timers behind
//!   `DLS_TRACE` (see the README "Observability" section).
//!
//! ```
//! use dls::prelude::*;
//!
//! let p = Platform::star_with_z(&[(2.0, 5.0), (1.0, 4.0)], 0.5).unwrap();
//! let best = optimal_fifo(&p).unwrap();
//! assert!(best.throughput > 0.0);
//!
//! // Or compare every registered strategy through the engine API:
//! for s in dls::core::registry() {
//!     if let Ok(sol) = s.solve(&p) {
//!         println!("{:>12}  rho = {:.4}", s.name(), sol.throughput);
//!     }
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dls_core as core;
pub use dls_lp as lp;
pub use dls_obs as obs;
pub use dls_platform as platform;
pub use dls_report as report;
pub use dls_rounds as rounds;
pub use dls_sim as sim;
pub use dls_tree as tree;

/// One-import access to the items used by almost every program: the whole
/// `dls-core` prelude (solvers, the scheduler engine, timelines) plus the
/// platform, simulator and report entry points.
pub mod prelude {
    pub use dls_core::prelude::*;
    pub use dls_platform::{Platform, PlatformSampler, Worker, WorkerId};
    pub use dls_report::{strategy_table, Table};
    pub use dls_sim::{simulate, SimConfig};
}
