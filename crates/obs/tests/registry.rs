//! Deterministic registry tests: multi-thread merge, percentile edges,
//! disabled-mode no-op, sink rendering.
//!
//! The registry and the tracing mode are process-global: every test that
//! needs a mode runs under [`with_mode`], which serializes its callers, and
//! metric names are unique per test so value assertions never interfere.

use dls_obs::{with_mode, Mode};

#[test]
fn counters_merge_across_threads() {
    let c = dls_obs::counter!("test.merge.counter");
    std::thread::scope(|scope| {
        for _ in 0..8 {
            scope.spawn(|| {
                for _ in 0..1000 {
                    c.incr();
                }
            });
        }
    });
    assert_eq!(c.value(), 8000);
    assert_eq!(
        dls_obs::snapshot().counter("test.merge.counter"),
        Some(8000)
    );
}

#[test]
fn histograms_merge_across_threads() {
    let h = dls_obs::histogram!("test.merge.hist");
    std::thread::scope(|scope| {
        for t in 0..4 {
            scope.spawn(move || {
                for i in 0..250 {
                    h.record((t * 250 + i) as f64 + 1.0);
                }
            });
        }
    });
    let snap = dls_obs::snapshot();
    let s = snap.histogram("test.merge.hist").expect("recorded");
    assert_eq!(s.count, 1000);
    assert!((s.sum - 500_500.0).abs() < 1e-6, "sum was {}", s.sum);
    assert!((s.min - 1.0).abs() < 1e-12);
    assert!((s.max - 1000.0).abs() < 1e-12);
    // Log-bucket estimates are within one bucket width (~19 %).
    assert!(
        (s.p50 / 500.0) > 0.8 && (s.p50 / 500.0) < 1.25,
        "p50 = {}",
        s.p50
    );
    assert!(
        (s.p99 / 990.0) > 0.8 && (s.p99 / 990.0) <= 1.02,
        "p99 = {}",
        s.p99
    );
}

#[test]
fn single_valued_histogram_reports_exact_percentiles() {
    let h = dls_obs::histogram!("test.hist.single");
    for _ in 0..32 {
        h.record(0.125);
    }
    let snap = dls_obs::snapshot();
    let s = snap.histogram("test.hist.single").expect("recorded");
    // min == max == v, and percentile estimates clamp to [min, max].
    assert!((s.p50 - 0.125).abs() < 1e-15);
    assert!((s.p90 - 0.125).abs() < 1e-15);
    assert!((s.p99 - 0.125).abs() < 1e-15);
    assert!((s.mean() - 0.125).abs() < 1e-15);
}

#[test]
fn two_point_histogram_percentile_edges() {
    let h = dls_obs::histogram!("test.hist.twopoint");
    // 90 fast observations and 10 slow outliers: p50/p90 sit on the fast
    // mode, p99 reaches the outliers' bucket.
    for _ in 0..90 {
        h.record(1.0e-3);
    }
    for _ in 0..10 {
        h.record(10.0);
    }
    let snap = dls_obs::snapshot();
    let s = snap.histogram("test.hist.twopoint").expect("recorded");
    assert_eq!(s.count, 100);
    assert!(s.p50 < 1.3e-3, "p50 = {}", s.p50);
    assert!(s.p90 < 1.3e-3, "p90 = {}", s.p90);
    assert!(s.p99 > 5.0, "p99 = {}", s.p99);
    assert!((s.max - 10.0).abs() < 1e-12);
}

#[test]
fn empty_and_nonfinite_observations_are_ignored() {
    let h = dls_obs::histogram!("test.hist.empty");
    h.record(f64::NAN);
    h.record(f64::INFINITY);
    assert!(dls_obs::snapshot().histogram("test.hist.empty").is_none());
}

#[test]
fn gauges_are_last_write_wins() {
    let g = dls_obs::gauge!("test.gauge.basic");
    assert_eq!(g.value(), None);
    g.set(2.5);
    g.set(7.25);
    assert!((g.value().expect("set") - 7.25).abs() < 1e-15);
    let snap = dls_obs::snapshot();
    assert!((snap.gauge("test.gauge.basic").expect("in snapshot") - 7.25).abs() < 1e-15);
}

#[test]
fn disabled_mode_spans_are_noops() {
    with_mode(Mode::Disabled, || {
        assert!(!dls_obs::timing_enabled());
        {
            let span = dls_obs::trace_span!("test.span.disabled", "k" => 1);
            assert!(
                span.context().is_none(),
                "a disabled span has no trace identity"
            );
        }
        assert!(dls_obs::snapshot()
            .histogram("test.span.disabled")
            .is_none());
        assert!(dls_obs::trace_events()
            .iter()
            .all(|e| e.name != "test.span.disabled"));
    });
}

#[test]
fn enabled_spans_feed_their_histogram() {
    with_mode(Mode::Summary, || {
        assert!(dls_obs::timing_enabled());
        for _ in 0..3 {
            let _span = dls_obs::trace_span!("test.span.enabled");
        }
        drop(dls_obs::trace_span!("test.span.enabled"));
        let snap = dls_obs::snapshot();
        let s = snap.histogram("test.span.enabled").expect("spans recorded");
        assert_eq!(s.count, 4);
        assert!(s.min >= 0.0 && s.max < 10.0, "implausible span time");
    });
}

#[test]
fn counters_record_even_when_disabled() {
    // Value recording is deliberately always-on (solve counters and
    // deterministic tests rely on it); only timing and sinks are gated.
    with_mode(Mode::Disabled, || {
        let c = dls_obs::counter!("test.counter.disabled");
        c.add(3);
        assert_eq!(c.value(), 3);
    });
}

#[test]
fn summary_rendering_includes_every_kind() {
    dls_obs::counter!("test.render.counter").add(5);
    dls_obs::gauge!("test.render.gauge").set(1.5);
    dls_obs::histogram!("test.render.hist").record(0.25);
    let text = dls_obs::render_summary(&dls_obs::snapshot(), "unit");
    assert!(text.contains("== dls-obs summary [unit] =="));
    assert!(text.contains("test.render.counter"));
    assert!(text.contains("test.render.gauge"));
    assert!(text.contains("test.render.hist"));
}

#[test]
fn jsonl_rendering_is_one_valid_object_per_line() {
    dls_obs::counter!("test.jsonl.counter").add(2);
    dls_obs::histogram!("test.jsonl.hist").record(3.0);
    let text = dls_obs::render_jsonl(&dls_obs::snapshot(), "unit \"quoted\"", 7);
    assert!(text.lines().count() >= 3);
    for line in text.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "not an object: {line}"
        );
        assert!(line.contains("\"seq\":7"));
        // Quotes in the label must be escaped.
        assert!(!line.contains(": \"unit \"quoted\"\""));
    }
    assert!(text.contains("\"name\":\"test.jsonl.counter\",\"value\":2"));
    assert!(text.contains("\"type\":\"histogram\""));
}

#[test]
fn emit_respects_jsonl_path() {
    let path = std::env::temp_dir().join(format!("dls-obs-test-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    with_mode(Mode::Jsonl(Some(path.clone())), || {
        dls_obs::counter!("test.emit.counter").incr();
        dls_obs::emit("emit-test");
    });
    let body = std::fs::read_to_string(&path).expect("emit wrote the file");
    assert!(body.contains("\"label\":\"emit-test\""));
    assert!(body.contains("test.emit.counter"));
    let _ = std::fs::remove_file(&path);
}
