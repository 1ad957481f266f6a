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

fn parse_env() -> (u8, Option<PathBuf>) {
    let Ok(raw) = std::env::var("DLS_TRACE") else {
        return (CODE_DISABLED, None);
    };
    let v = raw.trim();
    if v.is_empty() || v == "0" || v.eq_ignore_ascii_case("off") {
        (CODE_DISABLED, None)
    } else if v.eq_ignore_ascii_case("summary") {
        (CODE_SUMMARY, None)
    } else if let Some(rest) = v.strip_prefix("jsonl") {
        (CODE_JSONL, rest.strip_prefix(':').map(PathBuf::from))
    } else if let Some(path) = v.strip_prefix("chrome:").filter(|p| !p.is_empty()) {
        (CODE_CHROME, Some(PathBuf::from(path)))
    } else if let Some(path) = v.strip_prefix("folded:").filter(|p| !p.is_empty()) {
        (CODE_FOLDED, Some(PathBuf::from(path)))
    } else {
        eprintln!(
            "dls-obs: unrecognized DLS_TRACE={v:?} \
             (expected summary|jsonl[:path]|chrome:path|folded:path); disabled"
        );
        (CODE_DISABLED, None)
    }
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
        None => {
            let (c, _) = parse_env();
            (c, None)
        }
        Some(Mode::Disabled) => (CODE_DISABLED, None),
        Some(Mode::Summary) => (CODE_SUMMARY, None),
        Some(Mode::Jsonl(path)) => (CODE_JSONL, Some(path)),
        Some(Mode::Chrome(path)) => (CODE_CHROME, Some(Some(path))),
        Some(Mode::Folded(path)) => (CODE_FOLDED, Some(Some(path))),
    };
    *OVERRIDE_SINK_PATH.write().expect("obs config lock") = path_override;
    MODE_CODE.store(code, Ordering::Relaxed);
}

/// Whether span instrumentation should read the clock. One relaxed
/// atomic load — cheap enough for per-pivot call sites.
pub fn timing_enabled() -> bool {
    code() != CODE_DISABLED
}
