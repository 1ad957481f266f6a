//! # dls-report — experiment plumbing
//!
//! Small toolkit shared by the figure harnesses and benchmarks of the
//! RR-5738 reproduction:
//!
//! * [`Table`] — aligned monospace tables (the "rows the paper reports");
//! * [`strategy_table`] — every strategy in [`dls_core::registry`]
//!   compared side by side on one platform;
//! * [`multiround_table`] — the makespan-vs-R installment trade-off table
//!   (requires the `dls-rounds` provider to be installed);
//! * [`tree_table`] — the makespan-vs-depth/fan-out trade-off table for
//!   tree platforms (requires the `dls-tree` provider to be installed);
//! * [`summarize`] / [`linear_fit`] — statistics for averaged sweeps and
//!   the Figure 8 linearity check;
//! * [`write_dat`] — gnuplot-friendly series files for regenerating plots;
//! * [`par_map`] — scoped-thread parallel map for the 50-platform sweeps,
//!   running every item under the caller's trace context and LP engine;
//! * [`explain`](fn@explain) — schedule-explain report from a [`dls_sim::Trace`]:
//!   Gantt plus per-worker idle-cause attribution and port-occupancy
//!   shares (the figure binaries expose it behind `--explain`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod explain;
mod output;
mod par;
mod regression;
mod stats;
mod table;

pub use explain::{explain, ExplainReport, IdleCause, IdleInterval, WorkerExplain};
pub use output::{write_dat, write_text, Series};
pub use par::par_map;
pub use regression::{linear_fit, LinearFit};
pub use stats::{geometric_mean, mean, percentile, summarize, Summary};
pub use table::{multiround_table, num, strategy_table, tree_table, Align, Table};
