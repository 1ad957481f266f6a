//! Schedule-explain report: *why* a schedule has the makespan it has.
//!
//! Built from a [`dls_sim::Trace`]: renders the per-worker ASCII Gantt
//! (via [`dls_sim::gantt`]), attributes **every** idle interval of every
//! worker to a cause, and summarizes per-worker utilization and
//! master-port occupancy share. The attribution invariant — checked by
//! `debug_assert` here and by tests — is that each worker's attributed
//! idle time sums to `makespan − busy` exactly (the intervals *are* the
//! complement of the busy intervals, so the sums agree to rounding).

use dls_platform::WorkerId;
use dls_sim::gantt::{self, GanttConfig};
use dls_sim::Trace;

/// Why a worker sat idle over one interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdleCause {
    /// The worker was ready for a transfer, but the master's one-port was
    /// busy serving another worker.
    MasterPort,
    /// Nothing occupied the master port, yet the worker's next activity
    /// had not started — its input was still upstream (predecessor hop in
    /// a store-and-forward chain, or an earlier phase of its own timeline).
    PredecessorHop,
    /// After the worker's last activity (its result was returned), it
    /// drains until the whole schedule completes.
    PostReturnDrain,
}

impl IdleCause {
    /// Stable human-readable label.
    pub fn label(&self) -> &'static str {
        match self {
            IdleCause::MasterPort => "waiting-for-master-port",
            IdleCause::PredecessorHop => "waiting-for-predecessor-hop",
            IdleCause::PostReturnDrain => "post-return drain",
        }
    }
}

/// One attributed idle interval of one worker.
#[derive(Debug, Clone, PartialEq)]
pub struct IdleInterval {
    /// The idle worker.
    pub worker: WorkerId,
    /// Interval start (seconds).
    pub start: f64,
    /// Interval end (seconds).
    pub end: f64,
    /// Attributed cause.
    pub cause: IdleCause,
}

impl IdleInterval {
    /// Interval length.
    pub fn len(&self) -> f64 {
        self.end - self.start
    }

    /// `true` for zero-length intervals.
    pub fn is_empty(&self) -> bool {
        self.len() <= 0.0
    }
}

/// Per-worker explanation row.
#[derive(Debug, Clone)]
pub struct WorkerExplain {
    /// The worker.
    pub worker: WorkerId,
    /// Total busy time (recv + compute + return).
    pub busy: f64,
    /// `busy / makespan`.
    pub utilization: f64,
    /// This worker's share of the master port's total busy time
    /// (its communication time / master busy; 0 when the port is never
    /// used).
    pub port_share: f64,
    /// Every idle interval, attributed, in chronological order.
    pub idle: Vec<IdleInterval>,
}

impl WorkerExplain {
    /// Total attributed idle time.
    pub fn idle_total(&self) -> f64 {
        // fold, not sum: the empty f64 sum is -0.0, which renders as
        // "-0.0000" in the report tables.
        self.idle
            .iter()
            .map(IdleInterval::len)
            .fold(0.0, |a, b| a + b)
    }

    /// Total idle time attributed to `cause`.
    pub fn idle_for(&self, cause: IdleCause) -> f64 {
        self.idle
            .iter()
            .filter(|i| i.cause == cause)
            .map(IdleInterval::len)
            .fold(0.0, |a, b| a + b)
    }
}

/// The full schedule-explain report.
#[derive(Debug, Clone)]
pub struct ExplainReport {
    /// Whole-schedule makespan.
    pub makespan: f64,
    /// Total master-port busy time.
    pub master_busy: f64,
    /// `master_busy / makespan`.
    pub master_utilization: f64,
    /// One row per traced worker, in first-appearance order.
    pub workers: Vec<WorkerExplain>,
    gantt: String,
}

/// Merges a worker's spans into disjoint busy intervals (tolerating
/// touching or overlapping spans).
fn busy_intervals(trace: &Trace, worker: WorkerId) -> Vec<(f64, f64)> {
    let mut spans: Vec<(f64, f64)> = trace
        .spans_for(worker)
        .filter(|s| !s.is_empty())
        .map(|s| (s.start, s.end))
        .collect();
    spans.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
    let mut merged: Vec<(f64, f64)> = Vec::new();
    for (start, end) in spans {
        match merged.last_mut() {
            Some((_, last_end)) if start <= *last_end => *last_end = last_end.max(end),
            _ => merged.push((start, end)),
        }
    }
    merged
}

/// `true` when any *other* worker occupies the master port somewhere
/// strictly inside `(a, b)`.
fn port_contended(trace: &Trace, worker: WorkerId, a: f64, b: f64) -> bool {
    trace
        .spans()
        .iter()
        .any(|s| s.worker != worker && s.kind.uses_master_port() && s.start < b && s.end > a)
}

/// Builds the explain report from a trace.
///
/// Idle attribution: for each worker the complement of its merged busy
/// intervals over `[0, makespan]` is enumerated; a gap after the worker's
/// last span is a [`IdleCause::PostReturnDrain`], a gap during which some
/// other worker holds the master port is [`IdleCause::MasterPort`], and
/// the rest are [`IdleCause::PredecessorHop`] (the port was free — the
/// worker's input simply had not reached it yet).
pub fn explain(trace: &Trace) -> ExplainReport {
    let makespan = trace.makespan();
    let master_busy = trace.master_busy();
    let mut workers = Vec::new();
    for worker in trace.workers() {
        let busy_iv = busy_intervals(trace, worker);
        let busy: f64 = busy_iv.iter().map(|(s, e)| e - s).sum();
        let comm: f64 = trace
            .spans_for(worker)
            .filter(|s| s.kind.uses_master_port())
            .map(|s| s.end - s.start)
            .sum();
        let last_end = busy_iv.last().map(|&(_, e)| e).unwrap_or(0.0);

        let mut idle = Vec::new();
        let mut cursor = 0.0;
        let push_gap = |a: f64, b: f64, idle: &mut Vec<IdleInterval>| {
            if b <= a {
                return;
            }
            let cause = if a >= last_end {
                IdleCause::PostReturnDrain
            } else if port_contended(trace, worker, a, b) {
                IdleCause::MasterPort
            } else {
                IdleCause::PredecessorHop
            };
            idle.push(IdleInterval {
                worker,
                start: a,
                end: b,
                cause,
            });
        };
        for &(start, end) in &busy_iv {
            push_gap(cursor, start, &mut idle);
            cursor = cursor.max(end);
        }
        push_gap(cursor, makespan, &mut idle);

        let idle_total: f64 = idle.iter().map(IdleInterval::len).sum();
        debug_assert!(
            (idle_total - (makespan - busy)).abs() <= 1e-9 * makespan.max(1.0),
            "idle attribution must cover makespan - busy exactly \
             (got {idle_total}, want {})",
            makespan - busy
        );

        workers.push(WorkerExplain {
            worker,
            busy,
            utilization: if makespan > 0.0 { busy / makespan } else { 0.0 },
            port_share: if master_busy > 0.0 {
                comm / master_busy
            } else {
                0.0
            },
            idle,
        });
    }
    ExplainReport {
        makespan,
        master_busy,
        master_utilization: trace.master_utilization(),
        workers,
        gantt: gantt::render(trace, &GanttConfig::default()),
    }
}

impl ExplainReport {
    /// Renders the full report: Gantt, per-worker summary table, and the
    /// chronological idle-attribution list.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "schedule explain — makespan {:.4} s, master port busy {:.4} s ({:.1}% occupied)\n\n",
            self.makespan,
            self.master_busy,
            100.0 * self.master_utilization
        ));
        out.push_str(&self.gantt);
        out.push('\n');
        out.push_str(&format!(
            "{:>8} {:>10} {:>7} {:>7} {:>10} {:>11} {:>10} {:>10}\n",
            "worker", "busy_s", "util%", "port%", "idle_s", "port-wait", "pred-hop", "drain"
        ));
        for w in &self.workers {
            out.push_str(&format!(
                "{:>8} {:>10.4} {:>6.1}% {:>6.1}% {:>10.4} {:>11.4} {:>10.4} {:>10.4}\n",
                format!("{}", w.worker),
                w.busy,
                100.0 * w.utilization,
                100.0 * w.port_share,
                w.idle_total(),
                w.idle_for(IdleCause::MasterPort),
                w.idle_for(IdleCause::PredecessorHop),
                w.idle_for(IdleCause::PostReturnDrain),
            ));
        }
        let attributed: Vec<&IdleInterval> = self
            .workers
            .iter()
            .flat_map(|w| w.idle.iter())
            .filter(|i| !i.is_empty())
            .collect();
        if !attributed.is_empty() {
            out.push_str("\nidle attribution:\n");
            for i in attributed {
                out.push_str(&format!(
                    "  {}: {:.4}–{:.4} s ({:.4} s) {}\n",
                    i.worker,
                    i.start,
                    i.end,
                    i.len(),
                    i.cause.label()
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dls_sim::{Span, SpanKind};

    fn sample() -> Trace {
        // P1: recv 0-1, compute 1-3, return 3.5-4  (gap 3-3.5 port free)
        // P2: recv 1-2, compute 2-2.5, return 4-4.25 (gap 2.5-4: 3.5-4 is
        //     P1's return = port contention; 2.5-3.5 port free)
        let mut t = Trace::new();
        for (w, kind, start, end) in [
            (0, SpanKind::Recv, 0.0, 1.0),
            (0, SpanKind::Compute, 1.0, 3.0),
            (0, SpanKind::Return, 3.5, 4.0),
            (1, SpanKind::Recv, 1.0, 2.0),
            (1, SpanKind::Compute, 2.0, 2.5),
            (1, SpanKind::Return, 4.0, 4.25),
        ] {
            t.push(Span {
                worker: WorkerId(w),
                kind,
                start,
                end,
            });
        }
        t
    }

    #[test]
    fn idle_attribution_sums_to_makespan_minus_busy() {
        let t = sample();
        let rep = explain(&t);
        for w in &rep.workers {
            let expect = rep.makespan - w.busy;
            assert!(
                (w.idle_total() - expect).abs() < 1e-9,
                "{}: idle {} vs makespan-busy {}",
                w.worker,
                w.idle_total(),
                expect
            );
        }
    }

    #[test]
    fn causes_are_assigned_sensibly() {
        let t = sample();
        let rep = explain(&t);
        let w0 = &rep.workers[0];
        // P1's only idle: 3.0-3.5 before its return; the port is free
        // (nobody else communicates in that window), so it's a
        // predecessor/input wait, then 4.0-4.25 is post-return drain
        // (P2's return happens after P1 finished).
        assert!(w0.idle_for(IdleCause::PostReturnDrain) > 0.0);
        let w1 = &rep.workers[1];
        // P2 waits 1.0-... no: P2 idle 0-1 while P1 holds the port (recv).
        assert!(
            w1.idle_for(IdleCause::MasterPort) > 0.0,
            "P2 must attribute port contention: {:?}",
            w1.idle
        );
    }

    #[test]
    fn port_shares_sum_to_one_when_port_used() {
        let t = sample();
        let rep = explain(&t);
        let total: f64 = rep.workers.iter().map(|w| w.port_share).sum();
        assert!((total - 1.0).abs() < 1e-9, "shares sum to {total}");
    }

    #[test]
    fn render_contains_gantt_and_attribution() {
        let rep = explain(&sample());
        let s = rep.render();
        assert!(s.contains("schedule explain"));
        assert!(s.contains("master"));
        assert!(s.contains("legend"));
        assert!(s.contains("idle attribution:"));
        assert!(s.contains("waiting-for-master-port"));
        assert!(s.contains("post-return drain"));
    }

    #[test]
    fn cross_checks_against_the_trace_aggregates() {
        let t = sample();
        let rep = explain(&t);
        assert!((t.makespan() - rep.makespan).abs() < 1e-12);
        assert!((t.master_utilization() - rep.master_utilization).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_is_explained_without_panicking() {
        let rep = explain(&Trace::new());
        assert!(rep.makespan.abs() < 1e-12);
        assert!(rep.workers.is_empty());
        assert!(rep.render().contains("empty trace"));
    }
}
