//! Tracing mode selection: `DLS_TRACE` parsing plus a programmatic override
//! used by tests and benches (environment variables are process-global and
//! racy to mutate from a multi-threaded test harness).

use std::path::PathBuf;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{OnceLock, RwLock};

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

const CODE_UNSET: u8 = u8::MAX;
const CODE_DISABLED: u8 = 0;
const CODE_SUMMARY: u8 = 1;
const CODE_JSONL: u8 = 2;
const CODE_CHROME: u8 = 3;
const CODE_FOLDED: u8 = 4;

/// Current mode as a small code, so `timing_enabled` is one atomic load.
static MODE_CODE: AtomicU8 = AtomicU8::new(CODE_UNSET);
/// Sink path from the environment (parsed once; shared by the jsonl,
/// chrome and folded modes — only one mode is ever active).
static ENV_SINK_PATH: OnceLock<Option<PathBuf>> = OnceLock::new();
/// Sink path from a programmatic override, if any.
static OVERRIDE_SINK_PATH: RwLock<Option<Option<PathBuf>>> = RwLock::new(None);

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

/// Splits a mode into its code and sink path.
fn encode(mode: Mode) -> (u8, Option<PathBuf>) {
    match mode {
        Mode::Disabled => (CODE_DISABLED, None),
        Mode::Summary => (CODE_SUMMARY, None),
        Mode::Jsonl(path) => (CODE_JSONL, path),
        Mode::Chrome(path) => (CODE_CHROME, Some(path)),
        Mode::Folded(path) => (CODE_FOLDED, Some(path)),
    }
}

fn parse_env() -> (u8, Option<PathBuf>) {
    let Ok(raw) = std::env::var("DLS_TRACE") else {
        return (CODE_DISABLED, None);
    };
    let mode = parse_trace(&raw).unwrap_or_else(|| {
        eprintln!(
            "dls-obs: unrecognized DLS_TRACE={:?} \
             (expected summary|jsonl[:path]|chrome:path|folded:path); disabled",
            raw.trim()
        );
        Mode::Disabled
    });
    encode(mode)
}

fn code() -> u8 {
    let c = MODE_CODE.load(Ordering::Relaxed);
    if c != CODE_UNSET {
        return c;
    }
    // First touch: parse the environment. A concurrent first touch parses
    // the same stable environment, so the race is benign.
    let (parsed, path) = parse_env();
    let _ = ENV_SINK_PATH.set(path);
    // Don't clobber an override installed between the load above and here.
    let _ = MODE_CODE.compare_exchange(CODE_UNSET, parsed, Ordering::Relaxed, Ordering::Relaxed);
    MODE_CODE.load(Ordering::Relaxed)
}

fn env_sink_path() -> Option<PathBuf> {
    ENV_SINK_PATH.get_or_init(|| parse_env().1).clone()
}

fn sink_path() -> Option<PathBuf> {
    let over = OVERRIDE_SINK_PATH.read().expect("obs config lock").clone();
    over.unwrap_or_else(env_sink_path)
}

/// The active tracing [`Mode`] (override if set, else `DLS_TRACE`).
pub fn mode() -> Mode {
    match code() {
        CODE_SUMMARY => Mode::Summary,
        CODE_JSONL => Mode::Jsonl(sink_path()),
        CODE_CHROME => sink_path().map(Mode::Chrome).unwrap_or(Mode::Disabled),
        CODE_FOLDED => sink_path().map(Mode::Folded).unwrap_or(Mode::Disabled),
        _ => Mode::Disabled,
    }
}

/// Overrides the mode (pass `None` to fall back to `DLS_TRACE`). Meant for
/// tests and benches; takes effect process-wide.
pub fn set_mode(mode: Option<Mode>) {
    let (code, path_override) = match mode {
        None => (parse_env().0, None),
        Some(mode) => {
            let (c, path) = encode(mode);
            (c, Some(path))
        }
    };
    *OVERRIDE_SINK_PATH.write().expect("obs config lock") = path_override;
    MODE_CODE.store(code, Ordering::Relaxed);
}

/// Whether span instrumentation should read the clock. One relaxed
/// atomic load — cheap enough for per-pivot call sites.
pub fn timing_enabled() -> bool {
    code() != CODE_DISABLED
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
}
