//! # dls-obs — workspace-wide metrics and tracing
//!
//! A process-global, thread-sharded metrics registry for the RR-5738
//! reproduction: named [counters](counter!), [gauges](gauge!) and fixed-bucket
//! [histograms](histogram!) with p50/p90/p99 readout, one timing API (the
//! [`trace_span!`] macro) and pluggable sinks — a human-readable summary
//! table, a JSON-lines snapshot writer and two trace exporters — selected
//! by the `DLS_TRACE` environment variable:
//!
//! | `DLS_TRACE` | effect |
//! |---|---|
//! | unset / `0` / `off` | tracing disabled: spans skip the clock entirely |
//! | `summary` | [`emit`] prints an aligned metrics table to stderr |
//! | `jsonl` | [`emit`] writes one JSON object per metric to stderr |
//! | `jsonl:PATH` | same, appended to `PATH` instead of stderr |
//! | `chrome:PATH` | [`emit`] writes collected trace-tree events to `PATH` in Chrome Trace Event Format |
//! | `folded:PATH` | [`emit`] writes collapsed flamegraph stacks to `PATH` |
//! | anything else (an empty `PATH`, `jsonlfoo`, …) | a warning on stderr, then as `off` |
//!
//! When tracing is on, a [`trace_span!`] times a section into the histogram
//! of the same name and records it as a node of a causal **trace tree**: a
//! trace id, a parent id (the innermost active span on the thread) and
//! key=value attributes, kept in bounded lock-free per-thread event
//! buffers. Thread boundaries are crossed explicitly with
//! [`current_context`] / [`TraceContext::attach`].
//!
//! ## Cost model
//!
//! Counter / gauge / histogram *value* recording is always on: the hot path
//! is one thread-local lookup plus a relaxed atomic add into a per-thread
//! shard (no locks, no allocation after first touch), so counters keep
//! working with tracing disabled. *Timing* is gated on [`timing_enabled`]:
//! with `DLS_TRACE` unset a span never calls `Instant::now`, so
//! instrumented hot loops pay a single relaxed atomic load. Sinks only run
//! when a mode is selected.
//!
//! ## Shape
//!
//! Metric names are interned once (capacity-bounded; see
//! [`Snapshot::dropped`]) and call sites cache the handle in a static via
//! the [`counter!`]/[`gauge!`]/[`histogram!`]/[`trace_span!`] macros. Each
//! thread writes to its own shard; [`snapshot`] merges all shards. Handles
//! are `Copy` and remain valid for the life of the process.
//!
//! ```
//! let solves = dls_obs::counter!("doc.solves");
//! solves.incr();
//! {
//!     let _span = dls_obs::trace_span!("doc.solve.seconds"); // records on drop
//! }
//! let snap = dls_obs::snapshot();
//! assert_eq!(snap.counter("doc.solves"), Some(1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod export;
mod hist;
mod macros;
mod registry;
mod sink;
mod trace;

pub use config::{mode, set_mode, timing_enabled, Mode};
pub use export::{render_chrome, render_folded};
pub use hist::HistogramSummary;
pub use registry::{
    counter, gauge, histogram, reset_all, snapshot, Counter, Gauge, Histogram, Snapshot,
};
pub use sink::{emit, render_jsonl, render_summary};
pub use trace::{
    current_context, reset_events, trace_events, trace_instant, ContextGuard, TraceContext,
    TraceEvent, TraceSpan, MAX_EVENTS_PER_THREAD,
};
