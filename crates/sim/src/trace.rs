//! Execution traces: per-worker activity spans with summary statistics.

use dls_platform::WorkerId;

/// What a span represents, from the worker's perspective.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// Reception of the initial data from the master (master port busy).
    Recv,
    /// Local computation (master port free).
    Compute,
    /// Transfer of the result message to the master (master port busy).
    Return,
}

impl SpanKind {
    /// `true` when the span occupies the master's communication port.
    pub fn uses_master_port(&self) -> bool {
        matches!(self, SpanKind::Recv | SpanKind::Return)
    }
}

/// One activity interval of one worker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// The worker.
    pub worker: WorkerId,
    /// Activity kind.
    pub kind: SpanKind,
    /// Start time (seconds).
    pub start: f64,
    /// End time (seconds, `>= start`).
    pub end: f64,
}

impl Span {
    /// Span duration.
    pub fn len(&self) -> f64 {
        self.end - self.start
    }

    /// `true` for zero-length spans.
    pub fn is_empty(&self) -> bool {
        self.len() <= 0.0
    }
}

/// A complete execution trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    spans: Vec<Span>,
}

/// Per-worker summary derived from a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerStats {
    /// The worker.
    pub worker: WorkerId,
    /// Total time receiving data.
    pub recv: f64,
    /// Total time computing.
    pub compute: f64,
    /// Total time sending results.
    pub ret: f64,
    /// Idle gap between end of compute and start of the return transfer.
    pub idle: f64,
}

impl Trace {
    /// Empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Appends a span.
    ///
    /// # Panics
    /// Panics if `end < start` or times are non-finite (simulation bug).
    pub fn push(&mut self, span: Span) {
        assert!(
            span.start.is_finite() && span.end.is_finite() && span.end >= span.start,
            "malformed span: {span:?}"
        );
        self.spans.push(span);
    }

    /// All spans in insertion (chronological-dispatch) order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans of one worker.
    pub fn spans_for(&self, worker: WorkerId) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.worker == worker)
    }

    /// Completion time of the whole execution (0 for an empty trace).
    pub fn makespan(&self) -> f64 {
        self.spans.iter().map(|s| s.end).fold(0.0, f64::max)
    }

    /// Total time the master's port is busy (sum of communication spans).
    pub fn master_busy(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.kind.uses_master_port())
            .map(Span::len)
            .sum()
    }

    /// Master port utilization (busy / makespan; 0 for an empty trace).
    pub fn master_utilization(&self) -> f64 {
        let ms = self.makespan();
        if ms <= 0.0 {
            0.0
        } else {
            self.master_busy() / ms
        }
    }

    /// Workers appearing in the trace, in order of first appearance.
    pub fn workers(&self) -> Vec<WorkerId> {
        let mut out: Vec<WorkerId> = Vec::new();
        for s in &self.spans {
            if !out.contains(&s.worker) {
                out.push(s.worker);
            }
        }
        out
    }

    /// Per-worker activity summary.
    pub fn worker_stats(&self, worker: WorkerId) -> Option<WorkerStats> {
        let mut recv = 0.0;
        let mut compute = 0.0;
        let mut ret = 0.0;
        let mut compute_end: Option<f64> = None;
        let mut ret_start: Option<f64> = None;
        let mut seen = false;
        for s in self.spans_for(worker) {
            seen = true;
            match s.kind {
                SpanKind::Recv => recv += s.len(),
                SpanKind::Compute => {
                    compute += s.len();
                    compute_end = Some(compute_end.unwrap_or(0.0).max(s.end));
                }
                SpanKind::Return => {
                    ret += s.len();
                    ret_start = Some(ret_start.map_or(s.start, |r: f64| r.min(s.start)));
                }
            }
        }
        if !seen {
            return None;
        }
        let idle = match (compute_end, ret_start) {
            (Some(ce), Some(rs)) => (rs - ce).max(0.0),
            _ => 0.0,
        };
        Some(WorkerStats {
            worker,
            recv,
            compute,
            ret,
            idle,
        })
    }

    /// Serializes the trace to CSV (`worker,kind,start,end`), suitable for
    /// external plotting.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("worker,kind,start,end\n");
        for s in &self.spans {
            let kind = match s.kind {
                SpanKind::Recv => "recv",
                SpanKind::Compute => "compute",
                SpanKind::Return => "return",
            };
            out.push_str(&format!(
                "{},{},{:.9},{:.9}\n",
                s.worker.index() + 1,
                kind,
                s.start,
                s.end
            ));
        }
        out
    }
}

#[cfg(test)]
// Unit tests assert exact outcomes of exact arithmetic.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let mut t = Trace::new();
        t.push(Span {
            worker: WorkerId(0),
            kind: SpanKind::Recv,
            start: 0.0,
            end: 1.0,
        });
        t.push(Span {
            worker: WorkerId(0),
            kind: SpanKind::Compute,
            start: 1.0,
            end: 3.0,
        });
        t.push(Span {
            worker: WorkerId(1),
            kind: SpanKind::Recv,
            start: 1.0,
            end: 2.0,
        });
        t.push(Span {
            worker: WorkerId(1),
            kind: SpanKind::Compute,
            start: 2.0,
            end: 2.5,
        });
        t.push(Span {
            worker: WorkerId(0),
            kind: SpanKind::Return,
            start: 3.5,
            end: 4.0,
        });
        t.push(Span {
            worker: WorkerId(1),
            kind: SpanKind::Return,
            start: 4.0,
            end: 4.25,
        });
        t
    }

    #[test]
    fn makespan_and_master_busy() {
        let t = sample();
        assert_eq!(t.makespan(), 4.25);
        // Master busy: 1 + 1 + 0.5 + 0.25 = 2.75.
        assert!((t.master_busy() - 2.75).abs() < 1e-12);
        assert!((t.master_utilization() - 2.75 / 4.25).abs() < 1e-12);
    }

    #[test]
    fn worker_stats_computed() {
        let t = sample();
        let s0 = t.worker_stats(WorkerId(0)).unwrap();
        assert_eq!(s0.recv, 1.0);
        assert_eq!(s0.compute, 2.0);
        assert_eq!(s0.ret, 0.5);
        assert!((s0.idle - 0.5).abs() < 1e-12);
        let s1 = t.worker_stats(WorkerId(1)).unwrap();
        assert!((s1.idle - 1.5).abs() < 1e-12);
        assert!(t.worker_stats(WorkerId(9)).is_none());
    }

    #[test]
    fn workers_in_first_appearance_order() {
        let t = sample();
        assert_eq!(t.workers(), vec![WorkerId(0), WorkerId(1)]);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let csv = sample().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "worker,kind,start,end");
        assert_eq!(lines.len(), 7);
        assert!(lines[1].starts_with("1,recv,"));
    }

    #[test]
    #[should_panic(expected = "malformed span")]
    fn backwards_span_rejected() {
        let mut t = Trace::new();
        t.push(Span {
            worker: WorkerId(0),
            kind: SpanKind::Recv,
            start: 2.0,
            end: 1.0,
        });
    }

    #[test]
    fn empty_trace_defaults() {
        let t = Trace::new();
        assert_eq!(t.makespan(), 0.0);
        assert_eq!(t.master_utilization(), 0.0);
        assert!(t.workers().is_empty());
    }
}
