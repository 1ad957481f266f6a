//! The per-thread store every record lands in: the counters, histogram
//! slots and trace events of one recording thread at a time.
//!
//! A thread leases a store on its first record and returns it from its
//! thread-local destructor when it exits; a thread that starts recording
//! takes a returned store before it allocates one. So there are as many
//! stores as threads that recorded at the same time, not as threads that
//! ever recorded, although `dls_report::par_map` spawns fresh workers on
//! every call. A returned store keeps what it holds: values and events
//! keep summing across owners, and the readers ([`crate::snapshot`],
//! [`crate::trace_events`]) merge every store, whoever filled it.
//!
//! Only the leasing thread writes a store, with relaxed atomics and no
//! locks; readers load whatever has landed. The lists' mutex orders one
//! owner's writes before the next owner's.

use std::cell::OnceCell;
use std::sync::atomic::AtomicU64;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

use crate::registry::{HistSlot, MAX_COUNTERS, MAX_HISTS};
use crate::trace::EventBuffer;

/// One recording thread's counters, histogram slots and trace events.
pub(crate) struct Store {
    /// Indexed by counter id.
    pub(crate) counters: Vec<AtomicU64>,
    /// Indexed by histogram id; a slot is allocated on its first record.
    pub(crate) hists: Vec<OnceLock<HistSlot>>,
    pub(crate) events: EventBuffer,
}

impl Store {
    fn new() -> Self {
        Store {
            counters: std::iter::repeat_with(|| AtomicU64::new(0))
                .take(MAX_COUNTERS)
                .collect(),
            hists: std::iter::repeat_with(OnceLock::new)
                .take(MAX_HISTS)
                .collect(),
            events: EventBuffer::new(),
        }
    }
}

struct Stores {
    /// Every store, leased or returned: what the readers merge. Stores
    /// live as long as the process.
    all: Vec<&'static Store>,
    /// Stores returned by threads that exited.
    free: Vec<&'static Store>,
}

static STORES: Mutex<Stores> = Mutex::new(Stores {
    all: Vec::new(),
    free: Vec::new(),
});

/// The store lists, whole even after a panic: every update is one push or
/// pop.
fn stores() -> MutexGuard<'static, Stores> {
    STORES.lock().unwrap_or_else(PoisonError::into_inner)
}

/// This thread's store once leased; dropping it returns the store.
struct Lease(OnceCell<&'static Store>);

impl Drop for Lease {
    fn drop(&mut self) {
        if let Some(store) = self.0.take() {
            stores().free.push(store);
        }
    }
}

thread_local! {
    static LEASE: Lease = const { Lease(OnceCell::new()) };
}

/// Runs `f` on this thread's store, leasing one on the thread's first
/// record.
pub(crate) fn with_store<R>(f: impl FnOnce(&Store) -> R) -> R {
    LEASE.with(|lease| {
        f(lease.0.get_or_init(|| {
            let mut lists = stores();
            lists.free.pop().unwrap_or_else(|| {
                let store: &'static Store = Box::leak(Box::new(Store::new()));
                lists.all.push(store);
                store
            })
        }))
    })
}

/// Every store, for the readers.
pub(crate) fn every_store() -> Vec<&'static Store> {
    stores().all.clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn threads_joined_in_turn_share_one_store_and_every_record_counts() {
        let count = crate::counter!("store.test.reuse.count");
        let hist = crate::histogram!("store.test.reuse.value");
        let before = crate::snapshot();
        let (grown, threads) = crate::with_mode(crate::Mode::Summary, || {
            let stores_before = stores().all.len();
            for _ in 0..200 {
                std::thread::spawn(move || {
                    count.incr();
                    hist.record(1.0);
                    let _span = crate::trace_span!("store.test.reuse.seconds");
                })
                .join()
                .expect("recording thread");
            }
            let threads: Vec<u64> = crate::trace_events()
                .iter()
                .filter(|e| e.name == "store.test.reuse.seconds")
                .map(|e| e.thread)
                .collect();
            (stores().all.len() - stores_before, threads)
        });
        let after = crate::snapshot();

        // One store per thread recording at once: each worker takes the
        // store its predecessor returned. The slack is for tests of this
        // binary that record outside `with_mode` at the same time.
        assert!(
            grown <= 4,
            "200 threads joined in turn leased {grown} new stores"
        );
        let counted = |s: &crate::Snapshot| s.counter("store.test.reuse.count").unwrap_or(0);
        assert_eq!(counted(&after) - counted(&before), 200);
        let observed =
            |s: &crate::Snapshot| s.histogram("store.test.reuse.value").map_or(0, |h| h.count);
        assert_eq!(observed(&after) - observed(&before), 200);
        assert_eq!(threads.len(), 200, "every thread's span is readable");
        assert_eq!(
            threads.iter().collect::<HashSet<_>>().len(),
            200,
            "each span carries its own thread's index"
        );
    }
}
