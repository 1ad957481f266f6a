//! The process-global registry: interned metric names, the per-thread
//! [stores](crate::store) counters and histograms record into, global
//! slots for gauges, and the merged [`Snapshot`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{OnceLock, RwLock};

use crate::hist::{self, HistogramSummary, NUM_BUCKETS};
use crate::store::{every_store, with_store};

/// Interned names per metric kind (counters, gauges and histograms each
/// have an independent id space).
pub(crate) const MAX_COUNTERS: usize = 256;
pub(crate) const MAX_GAUGES: usize = 64;
pub(crate) const MAX_HISTS: usize = 256;

/// Sentinel id for names registered past capacity: all operations no-op.
const DROPPED: u16 = u16::MAX;

/// One histogram's state in one store, allocated on its first record.
pub(crate) struct HistSlot {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// `f64::to_bits` of the running sum.
    sum_bits: AtomicU64,
    /// `f64::to_bits` of the running min (starts at +inf).
    min_bits: AtomicU64,
    /// `f64::to_bits` of the running max (starts at -inf).
    max_bits: AtomicU64,
}

impl HistSlot {
    fn new() -> Self {
        HistSlot {
            buckets: std::iter::repeat_with(|| AtomicU64::new(0))
                .take(NUM_BUCKETS)
                .collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }

    /// Records a finite `v`. Only the store's leasing thread calls this,
    /// so a load followed by a store loses no update.
    fn record(&self, v: f64) {
        self.buckets[hist::bucket_index(v)].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        let update = |bits: &AtomicU64, f: fn(f64, f64) -> f64| {
            bits.store(f(f64::from_bits(bits.load(Relaxed)), v).to_bits(), Relaxed);
        };
        update(&self.sum_bits, |sum, x| sum + x);
        update(&self.min_bits, f64::min);
        update(&self.max_bits, f64::max);
    }
}

#[derive(Default)]
struct Names {
    ids: HashMap<String, u16>,
    list: Vec<String>,
}

struct Registry {
    counters: RwLock<Names>,
    gauges: RwLock<Names>,
    hists: RwLock<Names>,
    /// Global gauge slots (`f64` bits; NaN bits mean "never set").
    gauge_bits: Vec<AtomicU64>,
    /// Registrations refused because a name table was full.
    dropped: AtomicU64,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        counters: RwLock::new(Names::default()),
        gauges: RwLock::new(Names::default()),
        hists: RwLock::new(Names::default()),
        gauge_bits: std::iter::repeat_with(|| AtomicU64::new(f64::NAN.to_bits()))
            .take(MAX_GAUGES)
            .collect(),
        dropped: AtomicU64::new(0),
    })
}

fn intern(table: &RwLock<Names>, max: usize, name: &str) -> u16 {
    if let Some(&id) = table.read().expect("obs name table").ids.get(name) {
        return id;
    }
    let mut names = table.write().expect("obs name table");
    if let Some(&id) = names.ids.get(name) {
        return id;
    }
    if names.list.len() >= max {
        registry().dropped.fetch_add(1, Relaxed);
        return DROPPED;
    }
    let id = names.list.len() as u16;
    names.list.push(name.to_string());
    names.ids.insert(name.to_string(), id);
    id
}

fn names_of(table: &RwLock<Names>) -> Vec<String> {
    table.read().expect("obs name table").list.clone()
}

/// A named monotone counter. `Copy`; obtain via [`counter`] or the
/// [`crate::counter!`] macro (which caches the lookup in a static).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counter(u16);

/// A named last-write-wins gauge holding one `f64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gauge(u16);

/// A named fixed-bucket histogram (see [`HistogramSummary`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Histogram(u16);

/// Interns (or looks up) a counter by name.
pub fn counter(name: &str) -> Counter {
    Counter(intern(&registry().counters, MAX_COUNTERS, name))
}

/// Interns (or looks up) a gauge by name.
pub fn gauge(name: &str) -> Gauge {
    Gauge(intern(&registry().gauges, MAX_GAUGES, name))
}

/// Interns (or looks up) a histogram by name.
pub fn histogram(name: &str) -> Histogram {
    Histogram(intern(&registry().hists, MAX_HISTS, name))
}

impl Counter {
    /// Adds `n` to the counter (relaxed add into this thread's store).
    pub fn add(self, n: u64) {
        if self.0 != DROPPED {
            with_store(|s| s.counters[self.0 as usize].fetch_add(n, Relaxed));
        }
    }

    /// Adds one.
    pub fn incr(self) {
        self.add(1);
    }

    /// Current process-wide value (sum over all stores).
    pub fn value(self) -> u64 {
        if self.0 == DROPPED {
            return 0;
        }
        every_store()
            .iter()
            .map(|s| s.counters[self.0 as usize].load(Relaxed))
            .sum()
    }
}

impl Gauge {
    /// Stores `v` (non-finite values are ignored).
    pub fn set(self, v: f64) {
        if self.0 != DROPPED && v.is_finite() {
            registry().gauge_bits[self.0 as usize].store(v.to_bits(), Relaxed);
        }
    }

    /// Last stored value, or `None` if never set.
    pub fn value(self) -> Option<f64> {
        if self.0 == DROPPED {
            return None;
        }
        let v = f64::from_bits(registry().gauge_bits[self.0 as usize].load(Relaxed));
        v.is_finite().then_some(v)
    }
}

impl Histogram {
    /// Records one observation (non-finite values are ignored).
    pub fn record(self, v: f64) {
        if self.0 != DROPPED && v.is_finite() {
            with_store(|s| {
                s.hists[self.0 as usize]
                    .get_or_init(HistSlot::new)
                    .record(v);
            });
        }
    }
}

/// Point-in-time merged view of every metric, sorted by name.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// `(name, summed value)` for every registered counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge that has been set.
    pub gauges: Vec<(String, f64)>,
    /// `(name, summary)` for every histogram with at least one observation.
    pub histograms: Vec<(String, HistogramSummary)>,
    /// Metric registrations refused because a name table was full.
    pub dropped: u64,
}

impl Snapshot {
    /// Counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Gauge value by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Histogram summary by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }
}

/// Merges every store into a [`Snapshot`].
pub fn snapshot() -> Snapshot {
    let reg = registry();
    let stores = every_store();

    let mut counters: Vec<(String, u64)> = names_of(&reg.counters)
        .into_iter()
        .enumerate()
        .map(|(i, name)| {
            let total = stores.iter().map(|s| s.counters[i].load(Relaxed)).sum();
            (name, total)
        })
        .collect();
    counters.sort_by(|a, b| a.0.cmp(&b.0));

    let mut gauges: Vec<(String, f64)> = names_of(&reg.gauges)
        .into_iter()
        .enumerate()
        .filter_map(|(i, name)| {
            let v = f64::from_bits(reg.gauge_bits[i].load(Relaxed));
            v.is_finite().then_some((name, v))
        })
        .collect();
    gauges.sort_by(|a, b| a.0.cmp(&b.0));

    let mut histograms: Vec<(String, HistogramSummary)> = names_of(&reg.hists)
        .into_iter()
        .enumerate()
        .filter_map(|(i, name)| {
            let mut buckets = vec![0u64; NUM_BUCKETS];
            let mut count = 0u64;
            let mut sum = 0.0f64;
            let mut min = f64::INFINITY;
            let mut max = f64::NEG_INFINITY;
            for s in &stores {
                let Some(slot) = s.hists[i].get() else {
                    continue;
                };
                for (b, src) in buckets.iter_mut().zip(&slot.buckets) {
                    *b += src.load(Relaxed);
                }
                count += slot.count.load(Relaxed);
                sum += f64::from_bits(slot.sum_bits.load(Relaxed));
                min = min.min(f64::from_bits(slot.min_bits.load(Relaxed)));
                max = max.max(f64::from_bits(slot.max_bits.load(Relaxed)));
            }
            (count > 0).then(|| (name, hist::summarize(&buckets, count, sum, min, max)))
        })
        .collect();
    histograms.sort_by(|a, b| a.0.cmp(&b.0));

    Snapshot {
        counters,
        gauges,
        histograms,
        dropped: reg.dropped.load(Relaxed),
    }
}
