//! Concurrency contract of the trace exporters: threads recording spans
//! *while* `emit()` renders must never produce torn or interleaved output.
//! Every chrome export written mid-run must be a complete, parseable JSON
//! document (the reader skips claimed-but-unwritten buffer slots), and
//! every JSONL line must parse on its own.
//!
//! Runs as its own test binary so flipping the process-global mode cannot
//! race the `registry.rs` suite; within the binary, the two tests take
//! turns through [`with_mode`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use dls_obs::{set_mode, Mode};

/// Serializes the tests that set the process-global mode.
static MODE_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` in `mode` with an empty registry, holding [`MODE_LOCK`], and
/// restores `Mode::Disabled` afterwards.
fn with_mode<R>(mode: Mode, f: impl FnOnce() -> R) -> R {
    let _guard = MODE_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    set_mode(Some(mode));
    dls_obs::reset_all();
    let out = f();
    set_mode(Some(Mode::Disabled));
    out
}

/// Minimal recursive-descent JSON parser — validation only (no DOM): it
/// either consumes a well-formed value or reports the byte offset of the
/// first error. Enough to prove the exporters never tear.
mod json {
    pub fn validate(doc: &str) -> Result<(), usize> {
        let b = doc.as_bytes();
        let mut i = skip_ws(b, 0);
        i = value(b, i)?;
        i = skip_ws(b, i);
        if i == b.len() {
            Ok(())
        } else {
            Err(i)
        }
    }

    fn skip_ws(b: &[u8], mut i: usize) -> usize {
        while i < b.len() && b[i].is_ascii_whitespace() {
            i += 1;
        }
        i
    }

    fn value(b: &[u8], i: usize) -> Result<usize, usize> {
        match b.get(i) {
            Some(b'{') => object(b, i),
            Some(b'[') => array(b, i),
            Some(b'"') => string(b, i),
            Some(b't') => literal(b, i, b"true"),
            Some(b'f') => literal(b, i, b"false"),
            Some(b'n') => literal(b, i, b"null"),
            Some(b'-' | b'0'..=b'9') => number(b, i),
            _ => Err(i),
        }
    }

    fn literal(b: &[u8], i: usize, lit: &[u8]) -> Result<usize, usize> {
        if b.len() >= i + lit.len() && &b[i..i + lit.len()] == lit {
            Ok(i + lit.len())
        } else {
            Err(i)
        }
    }

    fn number(b: &[u8], mut i: usize) -> Result<usize, usize> {
        let start = i;
        while i < b.len() && matches!(b[i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
            i += 1;
        }
        if i > start {
            Ok(i)
        } else {
            Err(start)
        }
    }

    fn string(b: &[u8], mut i: usize) -> Result<usize, usize> {
        i += 1; // opening quote
        while i < b.len() {
            match b[i] {
                b'"' => return Ok(i + 1),
                b'\\' => i += 2,
                _ => i += 1,
            }
        }
        Err(i)
    }

    fn object(b: &[u8], mut i: usize) -> Result<usize, usize> {
        i = skip_ws(b, i + 1);
        if b.get(i) == Some(&b'}') {
            return Ok(i + 1);
        }
        loop {
            i = string(b, skip_ws(b, i))?;
            i = skip_ws(b, i);
            if b.get(i) != Some(&b':') {
                return Err(i);
            }
            i = value(b, skip_ws(b, i + 1))?;
            i = skip_ws(b, i);
            match b.get(i) {
                Some(b',') => i = skip_ws(b, i + 1),
                Some(b'}') => return Ok(i + 1),
                _ => return Err(i),
            }
        }
    }

    fn array(b: &[u8], mut i: usize) -> Result<usize, usize> {
        i = skip_ws(b, i + 1);
        if b.get(i) == Some(&b']') {
            return Ok(i + 1);
        }
        loop {
            i = value(b, skip_ws(b, i))?;
            i = skip_ws(b, i);
            match b.get(i) {
                Some(b',') => i = skip_ws(b, i + 1),
                Some(b']') => return Ok(i + 1),
                _ => return Err(i),
            }
        }
    }

    #[test]
    fn parser_accepts_and_rejects() {
        assert!(validate(r#"{"a":[1,2.5e-3,"x\"y"],"b":{"c":null,"d":true}}"#).is_ok());
        assert!(validate("[]").is_ok());
        assert!(validate(r#"{"a":1"#).is_err());
        assert!(validate(r#"{"a":1} trailing"#).is_err());
        assert!(validate(r#"{"truncated":"st"#).is_err());
    }
}

fn assert_valid_json(body: &str, what: &str) {
    if let Err(at) = json::validate(body) {
        let lo = at.saturating_sub(40);
        let hi = (at + 40).min(body.len());
        panic!("{what}: invalid JSON at byte {at}: ...{}...", &body[lo..hi]);
    }
}

/// Two threads emit nested spans and instants in a tight loop while the
/// main thread repeatedly renders the chrome export; every snapshot of
/// the file — including mid-recording ones — must parse whole.
#[test]
fn chrome_export_parses_while_spans_are_recorded() {
    let path = std::env::temp_dir().join(format!("dls-trace-conc-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&path);
    with_mode(Mode::Chrome(path.clone()), || {
        let done = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for t in 0u64..2 {
                let done = &done;
                scope.spawn(move || {
                    for k in 0..1500u64 {
                        let outer = dls_obs::trace_span!(
                            "test.conc.outer.seconds",
                            "thread" => t,
                            "k" => k,
                        );
                        {
                            let _inner = dls_obs::trace_span!("test.conc.inner.seconds");
                            dls_obs::trace_event!("test.conc.instant", "k" => k);
                        }
                        drop(outer);
                    }
                    done.fetch_add(1, Ordering::Release);
                });
            }
            // Render concurrently with the recording threads; each write is
            // a whole-file overwrite of a fully rendered document.
            while done.load(Ordering::Acquire) < 2 {
                dls_obs::emit("concurrency-mid");
                let body = std::fs::read_to_string(&path).expect("export written");
                assert_valid_json(&body, "mid-run chrome export");
            }
        });

        dls_obs::emit("concurrency-final");
        let body = std::fs::read_to_string(&path).expect("final export written");
        assert_valid_json(&body, "final chrome export");
        // The final document carries both threads' spans and the instants.
        assert!(body.contains("test.conc.outer.seconds"));
        assert!(body.contains("test.conc.inner.seconds"));
        assert!(body.contains("test.conc.instant"));

        let events = dls_obs::trace_events();
        let outer = events
            .iter()
            .filter(|e| e.name == "test.conc.outer.seconds")
            .count();
        let cap_note = events.len() >= dls_obs::MAX_EVENTS_PER_THREAD;
        assert!(
            outer >= 1000 || cap_note,
            "both threads' spans recorded (got {outer})"
        );
    });
    let _ = std::fs::remove_file(&path);
}

/// Same contract for the line-oriented sink: every line of the JSONL file
/// must parse as its own JSON object even when snapshots were appended
/// while worker threads were recording.
#[test]
fn jsonl_lines_parse_while_spans_are_recorded() {
    let path = std::env::temp_dir().join(format!("dls-trace-conc-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    with_mode(Mode::Jsonl(Some(path.clone())), || {
        let done = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for t in 0u64..2 {
                let done = &done;
                scope.spawn(move || {
                    for _ in 0..1500u64 {
                        let _span = dls_obs::trace_span!("test.conc.jsonl.seconds", "thread" => t);
                        dls_obs::counter!("test.conc.jsonl.count").incr();
                    }
                    done.fetch_add(1, Ordering::Release);
                });
            }
            while done.load(Ordering::Acquire) < 2 {
                dls_obs::emit("jsonl-mid");
            }
        });
        dls_obs::emit("jsonl-final");
    });

    let body = std::fs::read_to_string(&path).expect("jsonl written");
    let mut lines = 0;
    for (n, line) in body.lines().enumerate() {
        assert_valid_json(line, &format!("jsonl line {}", n + 1));
        lines += 1;
    }
    assert!(lines > 0, "emit appended snapshot lines");
    assert!(body.contains("test.conc.jsonl.count"));
    let _ = std::fs::remove_file(&path);
}
