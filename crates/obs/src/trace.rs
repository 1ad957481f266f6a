//! Causal trace trees: completed spans and instant events with trace id /
//! parent id / key=value attributes, recorded into the bounded lock-free
//! event buffer of the recording thread's [store](crate::store).
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
//! Events land in the store's buffer of chunked `OnceLock` slots: the
//! leasing thread claims a slot with one relaxed `fetch_add` and writes it
//! with `OnceLock::set` — no locks on the record path, and a concurrent
//! reader ([`trace_events`]) simply skips slots that are claimed but not
//! yet written. A buffer holds at most [`MAX_EVENTS_PER_STORE`] events,
//! whichever threads leased the store; overflow increments the
//! `trace.events.dropped` counter instead of growing.
//!
//! A buffer grows one chunk of 512 slots at a time, allocated when the
//! first event lands in that chunk, so a store that records a few events
//! holds one small chunk, not a buffer sized for the cap.
//!
//! Attributes are stored as typed [`AttrValue`]s — integers, floats,
//! bools and static strings need no allocation; only dynamic text owns a
//! `String`. They are formatted only by the exporters.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::OnceLock;
use std::time::Instant;

use crate::registry::Histogram;
use crate::store::{every_store, with_store};

/// Capacity of one store's event buffer; events past this are dropped
/// (counted in `trace.events.dropped`).
pub const MAX_EVENTS_PER_STORE: usize = CHUNK * NUM_CHUNKS;

/// Slots per lazily allocated buffer chunk.
const CHUNK: usize = 512;
const NUM_CHUNKS: usize = 128;

/// A span or instant attribute value. Numbers, bools and static strings
/// are stored as they are; only dynamic text owns a `String`. The
/// exporters format a value with its `Display` impl, which prints exactly
/// what `format!("{}", v)` prints for the wrapped value.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// A signed integer.
    Int(i64),
    /// An unsigned integer (counts, sizes, indices).
    UInt(u64),
    /// A float (e.g. seconds).
    Float(f64),
    /// A bool.
    Bool(bool),
    /// A static string (an id or label known at compile time).
    Str(&'static str),
    /// Dynamic text.
    Text(String),
}

impl std::fmt::Display for AttrValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttrValue::Int(v) => v.fmt(f),
            AttrValue::UInt(v) => v.fmt(f),
            AttrValue::Float(v) => v.fmt(f),
            AttrValue::Bool(v) => v.fmt(f),
            AttrValue::Str(v) => v.fmt(f),
            AttrValue::Text(v) => v.fmt(f),
        }
    }
}

macro_rules! attr_from {
    ($variant:ident($wide:ty): $($t:ty),*) => {$(
        impl From<$t> for AttrValue {
            fn from(v: $t) -> Self {
                AttrValue::$variant(<$wide>::from(v))
            }
        }
    )*};
}
attr_from!(Int(i64): i32, i64);
attr_from!(UInt(u64): u64);
attr_from!(Float(f64): f64);
attr_from!(Bool(bool): bool);

impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::UInt(v as u64)
    }
}

impl From<&'static str> for AttrValue {
    fn from(v: &'static str) -> Self {
        AttrValue::Str(v)
    }
}

impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Text(v)
    }
}

/// Key=value attributes of one span or instant.
pub type Attrs = Vec<(&'static str, AttrValue)>;

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
    /// Key=value attributes attached at the call site (and, for spans,
    /// by [`TraceSpan::add_attrs`] before the span ends).
    pub attrs: Attrs,
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

/// One lazily allocated chunk of event slots.
type EventChunk = Box<[OnceLock<TraceEvent>]>;

/// A store's event buffer: chunks of `OnceLock` slots allocated as events
/// arrive; `len` counts claimed slots (may exceed capacity, the excess is
/// the drop count).
pub(crate) struct EventBuffer {
    len: AtomicUsize,
    chunks: [OnceLock<EventChunk>; NUM_CHUNKS],
}

impl EventBuffer {
    pub(crate) fn new() -> Self {
        EventBuffer {
            len: AtomicUsize::new(0),
            chunks: [const { OnceLock::new() }; NUM_CHUNKS],
        }
    }

    fn push(&self, ev: TraceEvent) -> bool {
        let idx = self.len.fetch_add(1, Relaxed);
        if idx >= MAX_EVENTS_PER_STORE {
            return false;
        }
        let chunk = self.chunks[idx / CHUNK].get_or_init(|| {
            std::iter::repeat_with(OnceLock::new)
                .take(CHUNK)
                .collect::<Vec<_>>()
                .into_boxed_slice()
        });
        // The slot index was claimed exclusively by the fetch_add above.
        let _ = chunk[idx % CHUNK].set(ev);
        true
    }

    fn read_into(&self, out: &mut Vec<TraceEvent>) {
        let claimed = self.len.load(Relaxed).min(MAX_EVENTS_PER_STORE);
        for idx in 0..claimed {
            let Some(chunk) = self.chunks[idx / CHUNK].get() else {
                break;
            };
            // A claimed slot may still be mid-write on its owner thread;
            // skip it rather than block.
            if let Some(ev) = chunk[idx % CHUNK].get() {
                out.push(ev.clone());
            }
        }
    }
}

fn record_event(ev: TraceEvent) {
    if !with_store(|s| s.events.push(ev)) {
        crate::counter!("trace.events.dropped").incr();
    }
}

/// Every trace event recorded in this process, across every thread,
/// sorted by start time (ties broken by span id).
pub fn trace_events() -> Vec<TraceEvent> {
    let mut out = Vec::new();
    for s in every_store() {
        s.events.read_into(&mut out);
    }
    out.sort_by_key(|e| (e.start_ns, e.span_id));
    out
}

/// Records a zero-duration instant event under the current span (attribute
/// carrier for things like per-strategy skip marks). Call sites with a
/// literal name should prefer the [`crate::trace_event!`] macro, which
/// short-circuits when tracing is disabled.
pub fn trace_instant(name: &'static str, attrs: Attrs) {
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
    attrs: Attrs,
}

impl TraceSpan {
    /// Starts an enabled span: allocates ids, pushes the thread-local
    /// stack frame, reads the clock. Callers must have checked
    /// [`crate::timing_enabled`] (the macro does).
    pub fn start_enabled(hist: Histogram, name: &'static str, attrs: Attrs) -> TraceSpan {
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

    /// Appends attributes known only once the span's work is done (e.g.
    /// a solve's pivot count and phase times). A no-op on an inert span.
    pub fn add_attrs(&mut self, attrs: impl IntoIterator<Item = (&'static str, AttrValue)>) {
        if let Some(st) = &mut self.state {
            st.attrs.extend(attrs);
        }
    }
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
    use crate::{with_mode, Mode};

    /// Whether any recorded event carries `name`.
    fn recorded(name: &str) -> bool {
        trace_events().iter().any(|e| e.name == name)
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
            assert_eq!(child.attrs, vec![("k", AttrValue::Int(7))]);
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
            assert!(!recorded("trace.test.disabled.seconds"));
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
            assert_eq!(mark.attrs[0], ("strategy", AttrValue::Str("lp")));
        });
    }

    #[test]
    fn attrs_added_at_the_end_land_on_the_span() {
        with_mode(Mode::Summary, || {
            {
                let mut span = crate::trace_span!("trace.test.late.seconds", "rows" => 3usize);
                span.add_attrs([("pivots", AttrValue::from(9usize)), ("s", 0.5.into())]);
            }
            let events = trace_events();
            let span = events
                .iter()
                .find(|e| e.name == "trace.test.late.seconds")
                .expect("span recorded");
            assert_eq!(
                span.attrs,
                vec![
                    ("rows", AttrValue::UInt(3)),
                    ("pivots", AttrValue::UInt(9)),
                    ("s", AttrValue::Float(0.5)),
                ]
            );
        });
        // An inert span takes attributes without recording anything.
        with_mode(Mode::Disabled, || {
            let mut span = crate::trace_span!("trace.test.late_inert.seconds");
            span.add_attrs([("pivots", AttrValue::from(1usize))]);
            drop(span);
            assert!(!recorded("trace.test.late_inert.seconds"));
        });
    }

    #[test]
    fn attr_values_display_like_the_values_they_wrap() {
        let cases: [(AttrValue, String); 8] = [
            (7.into(), format!("{}", 7)),
            ((-3i64).into(), format!("{}", -3i64)),
            (u64::MAX.into(), format!("{}", u64::MAX)),
            (usize::MAX.into(), format!("{}", usize::MAX)),
            (1.5e-7f64.into(), format!("{}", 1.5e-7f64)),
            (false.into(), format!("{}", false)),
            ("fig08".into(), "fig08".to_string()),
            (String::from("a \"b\"").into(), "a \"b\"".to_string()),
        ];
        for (value, text) in cases {
            assert_eq!(value.to_string(), text, "{value:?}");
        }
    }

    #[test]
    fn a_store_allocates_event_chunks_as_events_arrive() {
        let buffer = EventBuffer::new();
        let chunk_lens = || {
            buffer
                .chunks
                .iter()
                .filter_map(OnceLock::get)
                .map(|chunk| chunk.len())
                .collect::<Vec<_>>()
        };
        assert!(chunk_lens().is_empty(), "a new store holds no chunk");
        let event = |span_id| TraceEvent {
            name: "trace.test.chunk",
            trace_id: 1,
            span_id,
            parent_id: None,
            thread: 0,
            start_ns: 0,
            dur_ns: 0,
            instant: true,
            attrs: Vec::new(),
        };
        assert!(buffer.push(event(1)));
        assert_eq!(chunk_lens(), [CHUNK], "the first event allocates one chunk");
        for span_id in 2..=CHUNK as u64 {
            assert!(buffer.push(event(span_id)));
        }
        assert_eq!(chunk_lens(), [CHUNK], "a full chunk allocates no other");
        assert!(buffer.push(event(CHUNK as u64 + 1)));
        assert_eq!(chunk_lens(), [CHUNK, CHUNK]);
        assert_eq!(CHUNK, 512);
        assert_eq!(MAX_EVENTS_PER_STORE, 65_536, "the per-store cap");
    }
}
