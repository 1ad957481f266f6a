//! One trace span per engine solve.
//!
//! The scheduling LPs are tiny (~10 pivots of about a microsecond each),
//! so a span per pivot, pricing pass or triangular solve costs as much as
//! the work it times. Instead each solve carries a [`SolveTrace`]: the
//! engine's `*.solve.seconds` span, the pivot count, and one seconds
//! accumulator per engine phase (refactorization, pricing, FTRAN, BTRAN;
//! the tableau's pivots). Phase timers read the clock only while the span
//! records, that is while tracing is on. When the trace drops, at the end
//! of the solve on every exit path, it records each phase's total once
//! into the histogram of the same name and attaches `pivots` plus the
//! phase seconds as attributes of the solve span.

use std::time::Instant;

use dls_obs::{AttrValue, Histogram, TraceSpan};

/// One timed engine phase: the solve-span attribute and the histogram its
/// per-solve seconds go to.
pub(crate) struct Phase {
    attr: &'static str,
    hist: Histogram,
    seconds: f64,
}

impl Phase {
    pub(crate) fn new(attr: &'static str, hist: Histogram) -> Phase {
        Phase {
            attr,
            hist,
            seconds: 0.0,
        }
    }
}

/// A solve's span, pivot count and `N` phase clocks; records on drop.
pub(crate) struct SolveTrace<const N: usize> {
    span: TraceSpan,
    /// Whether the span records, so the phases read the clock.
    timed: bool,
    /// Simplex pivots so far: the engine's iteration counter.
    pub(crate) pivots: usize,
    phases: [Phase; N],
}

impl<const N: usize> SolveTrace<N> {
    pub(crate) fn new(span: TraceSpan, phases: [Phase; N]) -> Self {
        SolveTrace {
            timed: span.context().is_some(),
            span,
            pivots: 0,
            phases,
        }
    }

    /// Runs `f`, adding its wall time to phase `phase` when the solve is
    /// traced.
    pub(crate) fn time<R>(&mut self, phase: usize, f: impl FnOnce() -> R) -> R {
        if !self.timed {
            return f();
        }
        let started = Instant::now();
        let out = f();
        self.phases[phase].seconds += started.elapsed().as_secs_f64();
        out
    }
}

impl<const N: usize> Drop for SolveTrace<N> {
    fn drop(&mut self) {
        if !self.timed {
            return;
        }
        for p in &self.phases {
            p.hist.record(p.seconds);
        }
        let phases = self
            .phases
            .iter()
            .map(|p| (p.attr, AttrValue::Float(p.seconds)));
        let pivots = ("pivots", AttrValue::from(self.pivots));
        self.span.add_attrs(std::iter::once(pivots).chain(phases));
    }
}
