//! Concurrency contract of the trace exporters: threads recording spans
//! *while* `emit()` renders must never produce torn or interleaved output.
//! Every chrome export written mid-run must be a complete, parseable JSON
//! document (the reader skips claimed-but-unwritten buffer slots), and
//! every JSONL line must parse on its own.
//!
//! The two tests take turns through [`with_mode`], which serializes its
//! callers, and use their own span names.

use std::sync::atomic::{AtomicUsize, Ordering};

use dls_obs::{with_mode, Mode};

fn assert_valid_json(body: &str, what: &str) {
    if let Err(e) = xtask::parse_json(body) {
        panic!("{what}: invalid JSON: {e}");
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

        let outer = dls_obs::trace_events()
            .iter()
            .filter(|e| e.name == "test.conc.outer.seconds")
            .count();
        assert_eq!(outer, 3000, "both threads' spans recorded");
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
