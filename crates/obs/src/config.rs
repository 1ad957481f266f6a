//! Tracing mode selection: `DLS_TRACE` parsing, read once, plus the scoped
//! [`with_mode`] that tests use instead of mutating the environment
//! (environment variables are process-global and racy to mutate from a
//! multi-threaded test harness).

use std::path::PathBuf;
use std::sync::atomic::{AtomicU8, Ordering::Relaxed};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// What the observability layer does with recorded metrics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mode {
    /// No sink and no timing; value recording (counters etc.) stays active.
    Disabled,
    /// [`crate::emit`] prints a human-readable table to stderr.
    Summary,
    /// [`crate::emit`] writes JSON lines to the given path (append) or to
    /// stderr when no path is given.
    Jsonl(Option<PathBuf>),
    /// [`crate::emit`] writes the collected trace-tree events to the given
    /// path in Chrome Trace Event Format (open in `chrome://tracing` or
    /// Perfetto).
    Chrome(PathBuf),
    /// [`crate::emit`] writes the collected trace-tree events to the given
    /// path as collapsed flamegraph stacks (`a;b;c <microseconds>`).
    Folded(PathBuf),
}

/// [`TIMING`] before the first read of the mode.
const UNREAD: u8 = u8::MAX;

/// Whether the active mode reads the clock (0 or 1, or [`UNREAD`]), kept
/// apart from the mode itself so `timing_enabled` is one atomic load.
static TIMING: AtomicU8 = AtomicU8::new(UNREAD);

/// The mode [`with_mode`] installed, while its closure runs.
static SCOPED: Mutex<Option<Mode>> = Mutex::new(None);

/// Serializes [`with_mode`] callers for the whole of their closures.
static MODE_LOCK: Mutex<()> = Mutex::new(());

/// Parses a `DLS_TRACE` value (surrounding whitespace ignored); `None`
/// means the spelling is not recognized. Sink paths must be non-empty, and
/// `jsonl` is a whole word: `jsonl` or `jsonl:<path>`, never a prefix.
fn parse_trace(raw: &str) -> Option<Mode> {
    let v = raw.trim();
    let path = |p: &str| (!p.is_empty()).then(|| PathBuf::from(p));
    if v.is_empty() || v == "0" || v.eq_ignore_ascii_case("off") {
        Some(Mode::Disabled)
    } else if v.eq_ignore_ascii_case("summary") {
        Some(Mode::Summary)
    } else if v == "jsonl" {
        Some(Mode::Jsonl(None))
    } else if let Some(p) = v.strip_prefix("jsonl:") {
        path(p).map(|p| Mode::Jsonl(Some(p)))
    } else if let Some(p) = v.strip_prefix("chrome:") {
        path(p).map(Mode::Chrome)
    } else if let Some(p) = v.strip_prefix("folded:") {
        path(p).map(Mode::Folded)
    } else {
        None
    }
}

/// The mode `DLS_TRACE` selects, parsed on first use.
fn env_mode() -> &'static Mode {
    static ENV_MODE: OnceLock<Mode> = OnceLock::new();
    ENV_MODE.get_or_init(|| {
        let Ok(raw) = std::env::var("DLS_TRACE") else {
            return Mode::Disabled;
        };
        parse_trace(&raw).unwrap_or_else(|| {
            eprintln!(
                "dls-obs: unrecognized DLS_TRACE={:?} \
                 (expected summary|jsonl[:path]|chrome:path|folded:path); disabled",
                raw.trim()
            );
            Mode::Disabled
        })
    })
}

/// [`SCOPED`], whole even after a panic: every update is one assignment.
fn scoped() -> MutexGuard<'static, Option<Mode>> {
    SCOPED.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Makes `mode` (or `DLS_TRACE`'s, for `None`) the active mode.
fn install(mode: Option<Mode>) {
    let timing = mode.as_ref().unwrap_or_else(|| env_mode()) != &Mode::Disabled;
    *scoped() = mode;
    TIMING.store(u8::from(timing), Relaxed);
}

/// The active tracing [`Mode`]: the one [`with_mode`] installed while its
/// closure runs, else `DLS_TRACE`'s.
pub fn mode() -> Mode {
    scoped().clone().unwrap_or_else(|| env_mode().clone())
}

/// Runs `f` with `mode` as the active mode, then restores `DLS_TRACE`'s
/// mode on every exit, a panic in `f` included. Takes effect process-wide,
/// so callers are serialized: a second caller waits until the first
/// returns, and parallel tests never see each other's mode. It does not
/// nest: a call from inside `f` blocks forever or panics.
pub fn with_mode<R>(mode: Mode, f: impl FnOnce() -> R) -> R {
    /// Restores `DLS_TRACE`'s mode when dropped, unwinding included.
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            install(None);
        }
    }
    // A panic in `f` poisons the lock, which guards no data: the next
    // caller takes it as it is.
    let _serial = MODE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let _restore = Restore;
    install(Some(mode));
    f()
}

/// Whether span instrumentation should read the clock. One relaxed
/// atomic load — cheap enough for per-pivot call sites.
pub fn timing_enabled() -> bool {
    match TIMING.load(Relaxed) {
        UNREAD => {
            let timing = u8::from(env_mode() != &Mode::Disabled);
            // Keep a mode `with_mode` installed since the load above.
            let _ = TIMING.compare_exchange(UNREAD, timing, Relaxed, Relaxed);
            TIMING.load(Relaxed) == 1
        }
        timing => timing == 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepted_spellings_parse_to_their_mode() {
        for off in ["", "  ", "0", "off", "OFF", " Off "] {
            assert_eq!(parse_trace(off), Some(Mode::Disabled), "{off:?}");
        }
        for summary in ["summary", "SUMMARY", " summary\n"] {
            assert_eq!(parse_trace(summary), Some(Mode::Summary), "{summary:?}");
        }
        assert_eq!(parse_trace("jsonl"), Some(Mode::Jsonl(None)));
        assert_eq!(parse_trace(" jsonl "), Some(Mode::Jsonl(None)));
        assert_eq!(
            parse_trace("jsonl:target/ci-metrics.jsonl"),
            Some(Mode::Jsonl(Some(PathBuf::from("target/ci-metrics.jsonl"))))
        );
        assert_eq!(
            parse_trace("chrome:target/ci-trace.json"),
            Some(Mode::Chrome(PathBuf::from("target/ci-trace.json")))
        );
        assert_eq!(
            parse_trace("folded:out.folded"),
            Some(Mode::Folded(PathBuf::from("out.folded")))
        );
    }

    #[test]
    fn rejected_spellings_parse_to_none() {
        for bad in [
            "jsonlfoo",
            "jsonl:",
            "jsonl: ",
            "jsonl=path",
            "JSONL",
            "chrome",
            "chrome:",
            "folded",
            "folded:",
            "summaryx",
            "1",
            "on",
            "trace",
        ] {
            assert_eq!(parse_trace(bad), None, "{bad:?} must be rejected");
        }
    }

    #[test]
    fn with_mode_restores_the_previous_mode_after_a_panic() {
        // Read the mode between `with_mode` calls of parallel tests.
        let outside = || {
            let _serial = MODE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
            (mode(), timing_enabled())
        };
        let before = outside();
        let scoped = Mode::Folded(PathBuf::from("with_mode.panic.folded"));
        let caught = std::panic::catch_unwind(|| {
            with_mode(scoped.clone(), || {
                assert_eq!(mode(), scoped);
                assert!(timing_enabled());
                panic!("inside with_mode");
            })
        });
        assert!(caught.is_err(), "the closure's panic propagates");
        assert_eq!(outside(), before);
        // The poisoned lock does not block the next caller.
        assert!(!with_mode(Mode::Disabled, timing_enabled));
    }
}
