//! Handle-caching macros. Each expansion interns the metric name once per
//! call site (in a function-local static) so the steady-state hot path is a
//! static load plus one sharded atomic op.

/// A [`crate::Counter`] handle for a literal name, interned once per call
/// site.
///
/// ```
/// dls_obs::counter!("doc.macro.events").add(2);
/// ```
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<$crate::Counter> = ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::counter($name))
    }};
}

/// A [`crate::Gauge`] handle for a literal name, interned once per call
/// site.
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<$crate::Gauge> = ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::gauge($name))
    }};
}

/// A [`crate::Histogram`] handle for a literal name, interned once per call
/// site.
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<$crate::Histogram> = ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::histogram($name))
    }};
}

/// Starts a [`crate::TraceSpan`]: a causal trace-tree span that *also*
/// records its elapsed seconds into the histogram of the same name (the
/// workspace's one timing API). Optional
/// `"key" => value` attributes are formatted with `Display` — and only
/// when tracing is enabled, so disabled call sites pay one atomic load.
/// Bind it (`let _span = ...`) so it drops at scope exit.
///
/// ```
/// dls_obs::set_mode(Some(dls_obs::Mode::Summary));
/// let _outer = dls_obs::trace_span!("doc.outer.seconds");
/// let _inner = dls_obs::trace_span!("doc.inner.seconds", "n" => 42);
/// ```
#[macro_export]
macro_rules! trace_span {
    ($name:expr $(, $k:expr => $v:expr)* $(,)?) => {{
        let __hist = $crate::histogram!($name);
        if $crate::timing_enabled() {
            $crate::TraceSpan::start_enabled(
                __hist,
                $name,
                ::std::vec![$(($k, ::std::format!("{}", $v))),*],
            )
        } else {
            $crate::TraceSpan::inert(__hist)
        }
    }};
}

/// Records a zero-duration instant event under the current trace span —
/// an attribute carrier (e.g. which strategy was skipped and why). A no-op
/// when tracing is disabled; attributes are only formatted when enabled.
#[macro_export]
macro_rules! trace_event {
    ($name:expr $(, $k:expr => $v:expr)* $(,)?) => {
        if $crate::timing_enabled() {
            $crate::trace_instant(
                $name,
                ::std::vec![$(($k, ::std::format!("{}", $v))),*],
            );
        }
    };
}
