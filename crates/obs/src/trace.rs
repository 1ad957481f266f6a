//! Causal trace trees: completed spans and instant events with trace id /
//! parent id / key=value attributes, recorded into bounded lock-free
//! per-thread event buffers.
//!
//! Every [`TraceSpan`] *also* records its elapsed seconds into the
//! histogram of the same name, so one `trace_span!` call site feeds both
//! the metric inventory and the trace tree.
//!
//! ## Causality model
//!
//! Each thread keeps a stack of active spans. A span started while another
//! is active becomes its child (same trace id, `parent_id` set); a span
//! started on an empty stack roots a fresh trace (one *trace* per logical
//! request — e.g. one figure sweep). Crossing a thread boundary is always
//! explicit: capture [`current_context`] on the submitting thread, move the
//! returned [`TraceContext`] into the worker, and [`TraceContext::attach`]
//! it there for the duration (RAII guard). `dls_report::par_map` does this
//! for its worker threads, which is how per-item spans nest under the
//! caller's span in a `repro_all` trace.
//!
//! ## Storage
//!
//! Events land in a per-thread buffer of chunked `OnceLock` slots: the
//! owning thread claims a slot with one relaxed `fetch_add` and writes it
//! with `OnceLock::set` — no locks on the record path, and a concurrent
//! reader ([`trace_events`]) simply skips slots that are claimed but not
//! yet written. Buffers are bounded ([`MAX_EVENTS_PER_THREAD`]); overflow
//! increments the `trace.events.dropped` counter instead of growing.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::registry::Histogram;

/// Capacity of one thread's event buffer; events past this are dropped
/// (counted in `trace.events.dropped`).
pub const MAX_EVENTS_PER_THREAD: usize = CHUNK * NUM_CHUNKS;

const CHUNK: usize = 4096;
const NUM_CHUNKS: usize = 16;

/// One completed span (or instant event) in a trace tree.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Span name (also the name of the histogram the duration fed).
    pub name: &'static str,
    /// Trace this event belongs to (one trace per logical request).
    pub trace_id: u64,
    /// Unique id of this span within the process.
    pub span_id: u64,
    /// Enclosing span, or `None` for a trace root.
    pub parent_id: Option<u64>,
    /// Small dense index of the recording OS thread.
    pub thread: u64,
    /// Start time in nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds (0 for instant events).
    pub dur_ns: u64,
    /// `true` for point events recorded via [`trace_instant`].
    pub instant: bool,
    /// Key=value attributes attached at the call site.
    pub attrs: Vec<(&'static str, String)>,
}

/// A handle to a span's identity, for explicit cross-thread propagation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    trace_id: u64,
    span_id: u64,
}

impl TraceContext {
    /// Installs this context as the current parent on *this* thread until
    /// the returned guard drops. Spans started while the guard is live
    /// become children of the captured span.
    pub fn attach(self) -> ContextGuard {
        STACK.with(|s| s.borrow_mut().push((self.trace_id, self.span_id)));
        ContextGuard {
            span_id: self.span_id,
        }
    }
}

/// RAII guard for [`TraceContext::attach`]; detaches on drop.
#[derive(Debug)]
pub struct ContextGuard {
    span_id: u64,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        pop_frame(self.span_id);
    }
}

/// The innermost active span on this thread (from a local `trace_span!` or
/// an attached [`TraceContext`]), if any. Capture this before handing work
/// to another thread, then [`TraceContext::attach`] it there.
pub fn current_context() -> Option<TraceContext> {
    STACK.with(|s| {
        s.borrow()
            .last()
            .map(|&(trace_id, span_id)| TraceContext { trace_id, span_id })
    })
}

thread_local! {
    /// Active span stack: `(trace_id, span_id)` frames, innermost last.
    static STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

fn pop_frame(span_id: u64) {
    STACK.with(|s| {
        let mut stack = s.borrow_mut();
        // Pop through any frames a panicking child failed to unwind; the
        // frame we own is the deepest one carrying our span id.
        if let Some(pos) = stack.iter().rposition(|&(_, id)| id == span_id) {
            stack.truncate(pos);
        }
    });
}

/// Process-wide span/trace id allocators (0 is never issued).
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_INDEX: u64 = NEXT_THREAD.fetch_add(1, Relaxed);
}

fn thread_index() -> u64 {
    THREAD_INDEX.with(|t| *t)
}

/// Monotonic epoch all event timestamps are relative to.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// One lazily allocated chunk of event slots; each slot stores the event
/// alongside the generation it was recorded under.
type EventChunk = Box<[OnceLock<(u64, TraceEvent)>]>;

/// Per-thread event buffer: chunks of `OnceLock` slots allocated lazily by
/// the owning thread; `len` counts claimed slots (may exceed capacity, the
/// excess is the drop count).
struct EventBuffer {
    len: AtomicUsize,
    /// Trace generation this buffer's *reader* filter compares against is
    /// global; each event stores the generation it was recorded under.
    chunks: [OnceLock<EventChunk>; NUM_CHUNKS],
}

impl EventBuffer {
    fn new() -> Self {
        EventBuffer {
            len: AtomicUsize::new(0),
            chunks: [const { OnceLock::new() }; NUM_CHUNKS],
        }
    }

    fn push(&self, generation: u64, ev: TraceEvent) -> bool {
        let idx = self.len.fetch_add(1, Relaxed);
        if idx >= MAX_EVENTS_PER_THREAD {
            return false;
        }
        let chunk = self.chunks[idx / CHUNK].get_or_init(|| {
            std::iter::repeat_with(OnceLock::new)
                .take(CHUNK)
                .collect::<Vec<_>>()
                .into_boxed_slice()
        });
        // The slot index was claimed exclusively by the fetch_add above.
        let _ = chunk[idx % CHUNK].set((generation, ev));
        true
    }

    fn read_into(&self, generation: u64, out: &mut Vec<TraceEvent>) {
        let claimed = self.len.load(Relaxed).min(MAX_EVENTS_PER_THREAD);
        for idx in 0..claimed {
            let Some(chunk) = self.chunks[idx / CHUNK].get() else {
                break;
            };
            // A claimed slot may still be mid-write on its owner thread;
            // skip it rather than block.
            if let Some((gen, ev)) = chunk[idx % CHUNK].get() {
                if *gen == generation {
                    out.push(ev.clone());
                }
            }
        }
    }
}

/// Global list of every thread's buffer (same lifetime rule as metric
/// shards: the `Arc` keeps events of exited worker threads readable).
fn buffers() -> &'static Mutex<Vec<Arc<EventBuffer>>> {
    static BUFFERS: OnceLock<Mutex<Vec<Arc<EventBuffer>>>> = OnceLock::new();
    BUFFERS.get_or_init(|| Mutex::new(Vec::new()))
}

/// Generation counter: bumped by [`reset_events`]; readers only surface
/// events recorded under the current generation.
static GENERATION: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static BUFFER: OnceLock<Arc<EventBuffer>> = const { OnceLock::new() };
}

fn with_buffer<R>(f: impl FnOnce(&EventBuffer) -> R) -> R {
    BUFFER.with(|cell| {
        let buf = cell.get_or_init(|| {
            let buf = Arc::new(EventBuffer::new());
            buffers()
                .lock()
                .expect("obs trace buffers")
                .push(buf.clone());
            buf
        });
        f(buf)
    })
}

fn record_event(ev: TraceEvent) {
    let generation = GENERATION.load(Relaxed);
    if !with_buffer(|b| b.push(generation, ev)) {
        crate::counter!("trace.events.dropped").incr();
    }
}

/// All trace events recorded since the last [`reset_events`], across every
/// thread, sorted by start time (ties broken by span id).
pub fn trace_events() -> Vec<TraceEvent> {
    let generation = GENERATION.load(Relaxed);
    let bufs: Vec<Arc<EventBuffer>> = buffers().lock().expect("obs trace buffers").clone();
    let mut out = Vec::new();
    for b in &bufs {
        b.read_into(generation, &mut out);
    }
    out.sort_by_key(|e| (e.start_ns, e.span_id));
    out
}

/// Discards all buffered trace events (by bumping the generation — slots
/// already written stay allocated but become invisible). Called by
/// [`crate::reset_all`].
pub fn reset_events() {
    GENERATION.fetch_add(1, Relaxed);
}

/// Records a zero-duration instant event under the current span (attribute
/// carrier for things like per-strategy skip marks). Call sites with a
/// literal name should prefer the [`crate::trace_event!`] macro, which
/// short-circuits when tracing is disabled.
pub fn trace_instant(name: &'static str, attrs: Vec<(&'static str, String)>) {
    if !crate::timing_enabled() {
        return;
    }
    let (trace_id, parent_id) = match current_context() {
        Some(ctx) => (ctx.trace_id, Some(ctx.span_id)),
        None => (NEXT_TRACE_ID.fetch_add(1, Relaxed), None),
    };
    record_event(TraceEvent {
        name,
        trace_id,
        span_id: NEXT_SPAN_ID.fetch_add(1, Relaxed),
        parent_id,
        thread: thread_index(),
        start_ns: epoch().elapsed().as_nanos() as u64,
        dur_ns: 0,
        instant: true,
        attrs,
    });
}

/// An in-flight causal span: child of the innermost active span on this
/// thread (or a fresh trace root), recorded as a [`TraceEvent`] *and* into
/// the same-named histogram when dropped. Obtain via [`crate::trace_span!`];
/// inert (no clock, no event) when tracing is disabled.
#[derive(Debug)]
pub struct TraceSpan {
    hist: Histogram,
    state: Option<SpanState>,
}

#[derive(Debug)]
struct SpanState {
    name: &'static str,
    trace_id: u64,
    span_id: u64,
    parent_id: Option<u64>,
    start: Instant,
    attrs: Vec<(&'static str, String)>,
}

impl TraceSpan {
    /// Starts an enabled span: allocates ids, pushes the thread-local
    /// stack frame, reads the clock. Callers must have checked
    /// [`crate::timing_enabled`] (the macro does).
    pub fn start_enabled(
        hist: Histogram,
        name: &'static str,
        attrs: Vec<(&'static str, String)>,
    ) -> TraceSpan {
        let (trace_id, parent_id) = match current_context() {
            Some(ctx) => (ctx.trace_id, Some(ctx.span_id)),
            None => (NEXT_TRACE_ID.fetch_add(1, Relaxed), None),
        };
        let span_id = NEXT_SPAN_ID.fetch_add(1, Relaxed);
        // Touch the epoch before reading the start time so start >= epoch.
        let _ = epoch();
        STACK.with(|s| s.borrow_mut().push((trace_id, span_id)));
        TraceSpan {
            hist,
            state: Some(SpanState {
                name,
                trace_id,
                span_id,
                parent_id,
                start: Instant::now(),
                attrs,
            }),
        }
    }

    /// An inert span (tracing disabled): drop is a no-op.
    pub fn inert(hist: Histogram) -> TraceSpan {
        TraceSpan { hist, state: None }
    }

    /// This span's context, for explicit handoff to other threads.
    pub fn context(&self) -> Option<TraceContext> {
        self.state.as_ref().map(|st| TraceContext {
            trace_id: st.trace_id,
            span_id: st.span_id,
        })
    }

    /// Ends the span now (equivalent to dropping it).
    pub fn finish(self) {}
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        let Some(st) = self.state.take() else {
            return;
        };
        pop_frame(st.span_id);
        let elapsed = st.start.elapsed();
        self.hist.record(elapsed.as_secs_f64());
        record_event(TraceEvent {
            name: st.name,
            trace_id: st.trace_id,
            span_id: st.span_id,
            parent_id: st.parent_id,
            thread: thread_index(),
            start_ns: st.start.duration_since(epoch()).as_nanos() as u64,
            dur_ns: elapsed.as_nanos() as u64,
            instant: false,
            attrs: st.attrs,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mode;
    use std::sync::Mutex;

    /// Serializes the tests below: each one sets the process-global mode
    /// and wipes the process-global event buffers, which would otherwise
    /// race with another test's spans.
    static MODE_LOCK: Mutex<()> = Mutex::new(());

    /// Runs `f` in `mode` with empty event buffers, holding [`MODE_LOCK`],
    /// and restores `Mode::Disabled` afterwards.
    fn with_mode<R>(mode: Mode, f: impl FnOnce() -> R) -> R {
        let _guard = MODE_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        crate::set_mode(Some(mode));
        crate::reset_all();
        let out = f();
        crate::set_mode(Some(Mode::Disabled));
        out
    }

    #[test]
    fn spans_nest_and_share_a_trace() {
        with_mode(Mode::Summary, || {
            {
                let _root = crate::trace_span!("trace.test.root.seconds");
                let _child = crate::trace_span!("trace.test.child.seconds", "k" => 7);
            }
            let events = trace_events();
            let root = events
                .iter()
                .find(|e| e.name == "trace.test.root.seconds")
                .expect("root recorded");
            let child = events
                .iter()
                .find(|e| e.name == "trace.test.child.seconds")
                .expect("child recorded");
            assert_eq!(root.parent_id, None);
            assert_eq!(child.parent_id, Some(root.span_id));
            assert_eq!(child.trace_id, root.trace_id);
            assert_eq!(child.attrs, vec![("k", "7".to_string())]);
            // The histogram feed is intact.
            let snap = crate::snapshot();
            assert!(snap.histogram("trace.test.root.seconds").is_some());
        });
    }

    #[test]
    fn context_propagates_across_threads() {
        with_mode(Mode::Summary, || {
            {
                let root = crate::trace_span!("trace.test.handoff.seconds");
                let handoff = root.context().expect("enabled span has a context");
                std::thread::scope(|scope| {
                    scope.spawn(|| {
                        let _g = handoff.attach();
                        let _leaf = crate::trace_span!("trace.test.remote.seconds");
                    });
                });
            }
            let events = trace_events();
            let root = events
                .iter()
                .find(|e| e.name == "trace.test.handoff.seconds")
                .unwrap();
            let leaf = events
                .iter()
                .find(|e| e.name == "trace.test.remote.seconds")
                .unwrap();
            assert_eq!(leaf.parent_id, Some(root.span_id));
            assert_eq!(leaf.trace_id, root.trace_id);
            assert_ne!(leaf.thread, root.thread);
        });
    }

    #[test]
    fn disabled_mode_records_nothing() {
        with_mode(Mode::Disabled, || {
            {
                let _s = crate::trace_span!("trace.test.disabled.seconds");
            }
            assert!(trace_events().is_empty());
        });
    }

    #[test]
    fn instants_attach_to_the_current_span() {
        with_mode(Mode::Summary, || {
            {
                let _root = crate::trace_span!("trace.test.mark_root.seconds");
                crate::trace_event!("trace.test.mark", "strategy" => "lp");
            }
            let events = trace_events();
            let mark = events
                .iter()
                .find(|e| e.name == "trace.test.mark")
                .expect("instant recorded");
            assert!(mark.instant);
            assert_eq!(mark.dur_ns, 0);
            assert!(mark.parent_id.is_some());
            assert_eq!(mark.attrs[0], ("strategy", "lp".to_string()));
        });
    }

    #[test]
    fn reset_hides_old_events() {
        with_mode(Mode::Summary, || {
            {
                let _s = crate::trace_span!("trace.test.reset.seconds");
            }
            assert!(!trace_events().is_empty());
            reset_events();
            assert!(trace_events().is_empty());
        });
    }
}
