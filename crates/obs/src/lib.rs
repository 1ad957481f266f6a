//! # dls-obs — workspace-wide metrics and tracing
//!
//! A process-global metrics registry with per-thread stores for the RR-5738
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
//! key=value attributes, kept in the bounded lock-free event buffer of the
//! recording thread's store. Thread boundaries are crossed explicitly with
//! [`current_context`] / [`TraceContext::attach`].
//!
//! ## Cost model
//!
//! Counter / gauge / histogram *value* recording is always on: the hot path
//! is one thread-local lookup plus relaxed atomics on the thread's store
//! (no locks, no compare-and-swap loops since a store has one writer at a
//! time, and no allocation after first touch), so counters keep working
//! with tracing disabled. Memory grows with the number of threads
//! recording at the same time, not with the number of threads spawned:
//! each holds one store, which passes to the next thread when it exits.
//! *Timing* is gated on [`timing_enabled`]: with `DLS_TRACE` unset a span
//! never calls `Instant::now`, so
//! instrumented hot loops pay a single relaxed atomic load. Sinks only run
//! when a mode is selected. With tracing on, a span costs about as much as
//! a microsecond of work, so spans belong at layer boundaries: an inner
//! loop (the LP engines' pivots) accumulates its time and attaches it to
//! the enclosing span with [`TraceSpan::add_attrs`].
//!
//! ## Shape
//!
//! Metric names are interned once (capacity-bounded; see
//! [`Snapshot::dropped`]) and call sites cache the handle in a static via
//! the [`counter!`]/[`gauge!`]/[`histogram!`]/[`trace_span!`] macros. Each
//! thread records into a store it leases on its first record and returns
//! when it exits, for the next thread to take, so the store count is the
//! peak number of threads recording at once; [`snapshot`] and
//! [`trace_events`] merge all stores. Nothing is ever reset: tests read
//! counts as differences of two snapshots and find their events by name
//! or trace id, and [`with_mode`] scopes a tracing mode to a closure.
//! Handles are `Copy` and remain valid for the life of the process.
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
mod store;
mod trace;

pub use config::{mode, timing_enabled, with_mode, Mode};
pub use export::{render_chrome, render_folded};
pub use hist::HistogramSummary;
pub use registry::{counter, gauge, histogram, snapshot, Counter, Gauge, Histogram, Snapshot};
pub use sink::{emit, render_jsonl, render_summary};
pub use trace::{
    current_context, trace_events, trace_instant, AttrValue, Attrs, ContextGuard, TraceContext,
    TraceEvent, TraceSpan, MAX_EVENTS_PER_STORE,
};
