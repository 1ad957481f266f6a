//! Trace-event exporters: Chrome Trace Event Format JSON (for
//! `chrome://tracing` / Perfetto) and collapsed flamegraph stacks (for
//! `flamegraph.pl` / speedscope).

use std::collections::HashMap;

use crate::sink::{json_num, json_str};
use crate::trace::TraceEvent;

/// Renders events in Chrome Trace Event Format: one complete (`ph:"X"`)
/// event per span with microsecond `ts`/`dur`, `pid` = trace id (one
/// logical request per process track), `tid` = recording OS thread, and
/// the span/parent ids plus call-site attributes under `args`. Instant
/// events render as `ph:"i"` with thread scope.
pub fn render_chrome(events: &[TraceEvent]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let mut push = |line: String, first: &mut bool| {
        if !*first {
            out.push(',');
        }
        out.push('\n');
        out.push_str(&line);
        *first = false;
    };

    // Metadata: name each pid track after its trace id.
    let mut traces: Vec<u64> = events.iter().map(|e| e.trace_id).collect();
    traces.sort_unstable();
    traces.dedup();
    for t in &traces {
        push(
            format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{t},\"tid\":0,\
                 \"args\":{{\"name\":{}}}}}",
                json_str(&format!("trace {t}"))
            ),
            &mut first,
        );
    }

    for e in events {
        let mut args = String::new();
        args.push_str(&format!("\"span_id\":{}", e.span_id));
        if let Some(p) = e.parent_id {
            args.push_str(&format!(",\"parent_id\":{p}"));
        }
        for (k, v) in &e.attrs {
            args.push_str(&format!(",{}:{}", json_str(k), json_str(&v.to_string())));
        }
        let ts = json_num(e.start_ns as f64 / 1e3);
        let line = if e.instant {
            format!(
                "{{\"name\":{},\"cat\":\"dls\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\
                 \"pid\":{},\"tid\":{},\"args\":{{{args}}}}}",
                json_str(e.name),
                e.trace_id,
                e.thread,
            )
        } else {
            format!(
                "{{\"name\":{},\"cat\":\"dls\",\"ph\":\"X\",\"ts\":{ts},\"dur\":{},\
                 \"pid\":{},\"tid\":{},\"args\":{{{args}}}}}",
                json_str(e.name),
                json_num(e.dur_ns as f64 / 1e3),
                e.trace_id,
                e.thread,
            )
        };
        push(line, &mut first);
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

/// Renders events as collapsed flamegraph stacks: one line per distinct
/// root→leaf path, `name;name;... <microseconds>`, where the count is the
/// path's summed *self* time (span duration minus its children's), so the
/// lines feed `flamegraph.pl` directly. Instant events are skipped.
pub fn render_folded(events: &[TraceEvent]) -> String {
    let by_id: HashMap<u64, &TraceEvent> = events
        .iter()
        .filter(|e| !e.instant)
        .map(|e| (e.span_id, e))
        .collect();

    // Children's total time per parent, to derive self time.
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for e in events.iter().filter(|e| !e.instant) {
        if let Some(p) = e.parent_id {
            if by_id.contains_key(&p) {
                *child_ns.entry(p).or_insert(0) += e.dur_ns;
            }
        }
    }

    let mut folded: HashMap<String, u64> = HashMap::new();
    for e in events.iter().filter(|e| !e.instant) {
        let mut path: Vec<&'static str> = vec![e.name];
        let mut cur = e.parent_id;
        // Parent chains are acyclic by construction (ids are allocated in
        // order); the depth cap guards against a corrupted buffer.
        let mut depth = 0;
        while let (Some(p), true) = (cur, depth < 128) {
            let Some(parent) = by_id.get(&p) else {
                break;
            };
            path.push(parent.name);
            cur = parent.parent_id;
            depth += 1;
        }
        path.reverse();
        let self_ns = e
            .dur_ns
            .saturating_sub(child_ns.get(&e.span_id).copied().unwrap_or(0));
        let self_us = self_ns / 1_000;
        if self_us > 0 {
            *folded.entry(path.join(";")).or_insert(0) += self_us;
        }
    }

    let mut lines: Vec<(String, u64)> = folded.into_iter().collect();
    lines.sort();
    let mut out = String::new();
    for (path, us) in lines {
        out.push_str(&format!("{path} {us}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(
        name: &'static str,
        trace_id: u64,
        span_id: u64,
        parent_id: Option<u64>,
        start_ns: u64,
        dur_ns: u64,
    ) -> TraceEvent {
        TraceEvent {
            name,
            trace_id,
            span_id,
            parent_id,
            thread: 0,
            start_ns,
            dur_ns,
            instant: false,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn chrome_has_complete_events_with_parent_args() {
        let events = vec![
            ev("root", 1, 1, None, 0, 5_000_000),
            ev("leaf", 1, 2, Some(1), 1_000_000, 2_000_000),
        ];
        let json = render_chrome(&events);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"parent_id\":1"));
        assert!(json.contains("\"pid\":1"));
        assert!(json.contains("\"dur\":2000"));
    }

    #[test]
    fn typed_attrs_render_like_the_strings_they_replace() {
        use crate::trace::AttrValue;
        let typed: Vec<(&'static str, AttrValue)> = vec![
            ("pivots", 9usize.into()),
            ("delta", (-2i32).into()),
            ("pricing_s", 1.25e-6.into()),
            ("warm", false.into()),
            ("figure", "fig08".into()),
            ("reason", String::from("needs \"z\" = 1").into()),
        ];
        // The reference: each attribute as the string `format!("{}", v)`.
        let strings = typed
            .iter()
            .map(|(k, v)| (*k, AttrValue::Text(format!("{v}"))))
            .collect();
        let with = |attrs| {
            let mut mark = ev("mark", 1, 3, Some(2), 1_500, 0);
            mark.instant = true;
            mark.attrs = vec![("strategy", AttrValue::Text("lp".into()))];
            let mut root = ev("root", 1, 2, None, 0, 5_000_000);
            root.attrs = attrs;
            vec![root, mark]
        };
        let (typed, strings) = (with(typed), with(strings));
        assert_eq!(render_chrome(&typed), render_chrome(&strings));
        assert_eq!(render_folded(&typed), render_folded(&strings));
        let chrome = render_chrome(&typed);
        assert!(
            chrome.contains(
                "\"args\":{\"span_id\":2,\"pivots\":\"9\",\"delta\":\"-2\",\
                 \"pricing_s\":\"0.00000125\",\"warm\":\"false\",\"figure\":\"fig08\",\
                 \"reason\":\"needs \\\"z\\\" = 1\"}"
            ),
            "{chrome}"
        );
    }

    #[test]
    fn folded_sums_self_time_along_paths() {
        let events = vec![
            ev("root", 1, 1, None, 0, 10_000_000),
            ev("leaf", 1, 2, Some(1), 0, 4_000_000),
            ev("leaf", 1, 3, Some(1), 5_000_000, 2_000_000),
        ];
        let folded = render_folded(&events);
        // root self = 10ms - 6ms = 4ms = 4000us; leaf = 4ms + 2ms = 6000us.
        assert!(folded.contains("root 4000\n"), "got: {folded}");
        assert!(folded.contains("root;leaf 6000\n"), "got: {folded}");
    }

    #[test]
    fn folded_skips_instants_and_orphans_become_roots() {
        let mut mark = ev("mark", 1, 5, Some(999), 0, 0);
        mark.instant = true;
        let events = vec![ev("lost-parent-child", 1, 4, Some(999), 0, 3_000_000), mark];
        let folded = render_folded(&events);
        assert_eq!(folded, "lost-parent-child 3000\n");
    }
}
