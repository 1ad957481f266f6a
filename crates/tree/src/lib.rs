//! # dls-tree — multi-level tree platforms via star-collapse
//!
//! The paper solves FIFO divisible-load scheduling on single-level stars;
//! this crate opens hierarchical master → relay → worker topologies
//! ([`TreePlatform`], defined in `dls-platform`) for the same one-port
//! model with return messages, in the spirit of the multi-hop platforms of
//! Gallet, Robert & Vivien's daisy-chain papers.
//!
//! * [`collapse`](fn@collapse) — the bandwidth-equivalent **star-collapse reduction**:
//!   every tree node folds into a virtual star worker whose `c`/`d` are
//!   the path-summed link costs (serialized store-and-forward cost) and
//!   whose `w` is its own compute cost. Exact for depth-1 trees (the
//!   collapsed star *is* the star); conservative for depth ≥ 2, where real
//!   relays can pipeline hops the reduction serializes through the
//!   master's port — but always *safe*: expanded plans never violate
//!   one-port at any node;
//! * [`expand`] — the collapsed-star schedule cut back into per-edge
//!   send/compute/return hop spans, recorded as the simulator's
//!   `TreeSimReport` so that `dls_sim::verify_tree`, the checker of every
//!   `dls_sim::simulate_tree` replay, re-checks its feasibility;
//! * [`TreeScheduler`] + [`install`] — constructor-configured
//!   [`Scheduler`]s (`tree_fifo`, `tree_lifo`, plus parameterized ids like
//!   `tree_fifo@1` for chains) registered into [`dls_core::registry`]
//!   through the engine's provider extension point, recording the collapse
//!   in `Execution::Tree`.
//!
//! ```
//! use dls_core::Scheduler;
//! use dls_platform::Platform;
//!
//! dls_tree::install(); // idempotent; adds tree_* to the registry
//! let p = Platform::star_with_z(&[(1.0, 5.0), (2.0, 4.0), (1.5, 6.0)], 0.5).unwrap();
//! let flat = dls_core::lookup("tree_fifo@3").unwrap().solve(&p).unwrap();
//! let chain = dls_core::lookup("tree_fifo@1").unwrap().solve(&p).unwrap();
//! assert!(chain.throughput <= flat.throughput + 1e-12); // depth costs throughput
//! ```
//!
//! [`Scheduler`]: dls_core::Scheduler
//! [`TreePlatform`]: dls_platform::TreePlatform

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod collapse;
pub mod lp;
mod scheduler;

pub use collapse::{collapse, expand};
pub use lp::{solve_tree_lp, tree_lp_model, TreeLpSolution};
pub use scheduler::{TreeLpScheduler, TreeOrder, TreeProvider, TreeScheduler, DEFAULT_FANOUT};

/// Installs the tree provider into [`dls_core::registry`] (idempotent:
/// re-installing replaces the provider in place). After this, `registry()`
/// lists the `tree_fifo`/`tree_lifo` defaults and [`dls_core::lookup`]
/// resolves parameterized ids such as `tree_fifo@4`.
pub fn install() {
    dls_core::register_provider(std::sync::Arc::new(TreeProvider));
}
