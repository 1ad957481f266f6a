//! Minimal scoped-thread parallel map for embarrassingly parallel sweeps.
//!
//! The figure harnesses evaluate 50 random platforms × several heuristics
//! per matrix size; each evaluation is an independent LP solve plus a
//! simulation, so a static block partition over `std::thread::scope` is all
//! the parallelism the workload needs (no rayon dependency: the build is
//! offline, see the README's "Development" section).
//!
//! The caller's trace context lives in a thread-local and would reset on a
//! worker thread; [`par_map`] carries it onto every item, so callers never
//! hand it over themselves.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Applies `f` to every element of `items` in parallel, preserving order.
///
/// Work is distributed dynamically via an atomic cursor so uneven item
/// costs (LPs of different sizes) balance across threads. Runs inline when
/// `items` is small or only one CPU is available. Every item runs under the
/// caller's trace context, whichever thread it lands on.
///
/// # Panics
/// If `f` panics on some item, the *rest of the batch still completes*:
/// the panic is caught, the remaining items are processed, and the first
/// failing item's panic is then re-raised with its index and message (so a
/// single bad platform in a 450-instance sweep is diagnosable instead of
/// aborting the scope with an opaque joined-thread panic and losing all
/// completed work).
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let n = items.len();
    let threads = available_threads().min(n.max(1));
    dls_obs::histogram!("par_map.batch_items").record(n as f64);
    dls_obs::gauge!("par_map.threads").set(threads as f64);
    // Capture the caller's trace context before spawning: worker threads
    // attach it so per-item spans (and the solve trees under them) nest
    // under the span that submitted the batch, not as orphan roots.
    let ctx = dls_obs::current_context();
    let run = |i: usize| -> Result<U, String> {
        let _item_span = dls_obs::trace_span!("par_map.item.seconds", "index" => i);
        catch_unwind(AssertUnwindSafe(|| f(&items[i]))).map_err(|payload| {
            if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "non-string panic payload".to_string()
            }
        })
    };

    let mut results: Vec<Option<Result<U, String>>> = Vec::with_capacity(n);
    if threads <= 1 || n < 2 {
        for i in 0..n {
            results.push(Some(run(i)));
        }
    } else {
        results.resize_with(n, || None);
        let cursor = AtomicUsize::new(0);
        let slots = std::sync::Mutex::new(&mut results);

        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    // Adopt the submitting thread's span as parent for the
                    // lifetime of this worker (explicit TraceContext handoff).
                    let _ctx_guard = ctx.map(dls_obs::TraceContext::attach);
                    // Each worker claims indices off the shared cursor and
                    // buffers its outputs locally to keep the mutex cold.
                    let mut local: Vec<(usize, Result<U, String>)> = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, run(i)));
                    }
                    // Items this worker claimed off the cursor: the spread
                    // across workers is the occupancy/balance signal.
                    dls_obs::histogram!("par_map.worker_items").record(local.len() as f64);
                    let mut guard = slots.lock().expect("no poisoned threads");
                    for (i, v) in local {
                        guard[i] = Some(v);
                    }
                });
            }
        });
    }

    let completed = results.iter().filter(|r| matches!(r, Some(Ok(_)))).count();
    let mut out = Vec::with_capacity(n);
    for (i, slot) in results.into_iter().enumerate() {
        match slot.expect("every index was claimed") {
            Ok(v) => out.push(v),
            Err(msg) => resume_unwind(Box::new(format!(
                "par_map: item {i} of {n} panicked ({completed} items completed): {msg}"
            ))),
        }
    }
    out
}

fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = par_map(&items, |&x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn works_on_empty_and_singleton() {
        let out: Vec<u64> = par_map(&[], |&x: &u64| x);
        assert!(out.is_empty());
        assert_eq!(par_map(&[7], |&x: &i32| x + 1), vec![8]);
    }

    #[test]
    fn uneven_work_is_balanced() {
        // Items with wildly different costs still produce correct results.
        let items: Vec<u64> = (0..64).collect();
        let out = par_map(&items, |&x| {
            let mut acc = 0u64;
            for i in 0..(x % 7) * 10_000 {
                acc = acc.wrapping_add(i);
            }
            (x, acc).0
        });
        assert_eq!(out, items);
    }

    #[test]
    fn closures_can_capture() {
        let offset = 100;
        let out = par_map(&[1, 2, 3], |&x: &i32| x + offset);
        assert_eq!(out, vec![101, 102, 103]);
    }

    #[test]
    fn panicking_item_is_reported_with_its_index() {
        let items: Vec<u64> = (0..64).collect();
        let err = catch_unwind(AssertUnwindSafe(|| {
            par_map(&items, |&x| {
                if x == 13 {
                    panic!("platform 13 is cursed");
                }
                x
            })
        }))
        .unwrap_err();
        let msg = err
            .downcast_ref::<String>()
            .expect("formatted panic message")
            .clone();
        assert!(msg.contains("item 13 of 64"), "message was: {msg}");
        assert!(msg.contains("platform 13 is cursed"), "message was: {msg}");
        assert!(msg.contains("63 items completed"), "message was: {msg}");
    }

    #[test]
    fn inline_path_also_reports_index() {
        // n < 2 forces the inline path; a singleton panic still carries its
        // index and message.
        let err = catch_unwind(AssertUnwindSafe(|| {
            par_map(&[1u64], |_| -> u64 { panic!("bad singleton") })
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap().clone();
        assert!(msg.contains("item 0 of 1"), "message was: {msg}");
        assert!(msg.contains("bad singleton"), "message was: {msg}");
    }

    #[test]
    fn item_spans_nest_under_the_callers_span() {
        let events = dls_obs::with_mode(dls_obs::Mode::Summary, || {
            {
                let _batch = dls_obs::trace_span!("par.test.batch.seconds");
                let items: Vec<u64> = (0..16).collect();
                let out = par_map(&items, |&x| x + 1);
                assert_eq!(out.len(), 16);
            }
            dls_obs::trace_events()
        });
        let batch = events
            .iter()
            .find(|e| e.name == "par.test.batch.seconds")
            .expect("batch span recorded");
        let nested = events
            .iter()
            .filter(|e| e.name == "par_map.item.seconds" && e.parent_id == Some(batch.span_id))
            .count();
        assert_eq!(nested, 16, "every item span is a child of the batch span");
    }

    #[test]
    fn earliest_failing_index_wins() {
        // Multiple failures: the re-raised panic names the smallest index
        // (deterministic regardless of thread interleaving).
        let items: Vec<u64> = (0..32).collect();
        let err = catch_unwind(AssertUnwindSafe(|| {
            par_map(&items, |&x| {
                if x % 10 == 7 {
                    panic!("bad {x}");
                }
                x
            })
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap().clone();
        assert!(msg.contains("item 7 of 32"), "message was: {msg}");
    }
}
