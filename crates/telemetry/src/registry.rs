//! Lock-light metrics registry: counters, gauges, and log₂ histograms
//! registered by static name.
//!
//! Metrics are interned process-wide: the first use of a name creates
//! (and leaks — metrics live for the process) the backing atomics; every
//! later lookup of the same name returns the same `&'static` metric. Call
//! sites cache the lookup in a [`LazyCounter`] / [`LazyGauge`] /
//! [`LazyHistogram`], so the steady-state cost of an increment is one
//! relaxed `fetch_add` and zero locks — the registry mutex is touched
//! once per call site per process.
//!
//! [`snapshot`] captures every registered metric at a point in time,
//! sorted by name, for the exporters in [`crate::export`]. Counters are
//! monotone: a region is measured as the difference of two snapshots.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Number of histogram buckets. Bucket 0 counts zero-valued
/// observations; bucket `i ≥ 1` counts values in `[2^(i−1), 2^i − 1]`;
/// the last bucket absorbs everything larger.
pub(crate) const HISTOGRAM_BUCKETS: usize = 33;

/// A monotone event counter (relaxed atomic `u64`).
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A zeroed counter (for direct embedding; registered counters come
    /// from [`counter`] / [`LazyCounter`]).
    pub const fn new() -> Self {
        Counter {
            value: AtomicU64::new(0),
        }
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if n != 0 {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// An instantaneous level (relaxed atomic `i64`): queue depths, live
/// worker counts. Unlike a [`Counter`] it goes both ways.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A zeroed gauge.
    pub const fn new() -> Self {
        Gauge {
            value: AtomicI64::new(0),
        }
    }

    /// Set the level.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Add `n` (may be negative).
    #[inline]
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtract `n`.
    #[inline]
    pub fn sub(&self, n: i64) {
        self.value.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current level.
    #[inline]
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket log₂ histogram of `u64` observations (payload sizes,
/// durations in nanoseconds). Buckets are powers of two, so `observe` is
/// a `leading_zeros` and two `fetch_add`s — no float math, no allocation.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Bucket index for an observed value (see [`HISTOGRAM_BUCKETS`]).
#[inline]
pub(crate) fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((64 - v.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// Inclusive upper bound of bucket `i` (`u64::MAX` for the last).
pub(crate) fn bucket_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= HISTOGRAM_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Histogram {
            buckets: [ZERO; HISTOGRAM_BUCKETS],
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Record one observation.
    #[inline]
    pub fn observe(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Per-bucket counts (not cumulative).
    pub(crate) fn bucket_counts(&self) -> [u64; HISTOGRAM_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }
}

/// One registered metric (name plus a reference to its live atomics).
enum Registered {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

struct Entry {
    name: &'static str,
    metric: Registered,
}

fn registry() -> &'static Mutex<Vec<Entry>> {
    static REGISTRY: OnceLock<Mutex<Vec<Entry>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

fn with_registry<R>(f: impl FnOnce(&mut Vec<Entry>) -> R) -> R {
    let mut guard = registry().lock().unwrap_or_else(|e| e.into_inner());
    f(&mut guard)
}

/// Intern the counter named `name`: the first caller creates it, every
/// caller gets the same `&'static`. Panics if `name` is already
/// registered as a different metric kind (metric names are code-owned
/// constants, so a clash is a programming error).
pub fn counter(name: &'static str) -> &'static Counter {
    with_registry(|entries| {
        for e in entries.iter() {
            if e.name == name {
                match e.metric {
                    Registered::Counter(c) => return c,
                    _ => panic!("metric {name:?} is already registered with a different kind"),
                }
            }
        }
        let c: &'static Counter = Box::leak(Box::new(Counter::new()));
        entries.push(Entry {
            name,
            metric: Registered::Counter(c),
        });
        c
    })
}

/// Intern the gauge named `name` (see [`counter`] for the contract).
pub fn gauge(name: &'static str) -> &'static Gauge {
    with_registry(|entries| {
        for e in entries.iter() {
            if e.name == name {
                match e.metric {
                    Registered::Gauge(g) => return g,
                    _ => panic!("metric {name:?} is already registered with a different kind"),
                }
            }
        }
        let g: &'static Gauge = Box::leak(Box::new(Gauge::new()));
        entries.push(Entry {
            name,
            metric: Registered::Gauge(g),
        });
        g
    })
}

/// Intern the histogram named `name` (see [`counter`] for the contract).
pub fn histogram(name: &'static str) -> &'static Histogram {
    with_registry(|entries| {
        for e in entries.iter() {
            if e.name == name {
                match e.metric {
                    Registered::Histogram(h) => return h,
                    _ => panic!("metric {name:?} is already registered with a different kind"),
                }
            }
        }
        let h: &'static Histogram = Box::leak(Box::new(Histogram::new()));
        entries.push(Entry {
            name,
            metric: Registered::Histogram(h),
        });
        h
    })
}

/// A call-site cache for a registered [`Counter`]: `const`-constructible
/// so it can live in a `static`, resolving the registry lookup once on
/// first use.
pub struct LazyCounter {
    name: &'static str,
    cell: OnceLock<&'static Counter>,
}

impl LazyCounter {
    /// A lazy handle to the counter registered as `name`.
    pub const fn new(name: &'static str) -> Self {
        LazyCounter {
            name,
            cell: OnceLock::new(),
        }
    }

    /// The interned counter (registering it on first call).
    #[inline]
    pub fn get(&self) -> &'static Counter {
        self.cell.get_or_init(|| counter(self.name))
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.get().inc();
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.get().add(n);
    }
}

/// A call-site cache for a registered [`Gauge`] (see [`LazyCounter`]).
pub struct LazyGauge {
    name: &'static str,
    cell: OnceLock<&'static Gauge>,
}

impl LazyGauge {
    /// A lazy handle to the gauge registered as `name`.
    pub const fn new(name: &'static str) -> Self {
        LazyGauge {
            name,
            cell: OnceLock::new(),
        }
    }

    /// The interned gauge (registering it on first call).
    #[inline]
    pub fn get(&self) -> &'static Gauge {
        self.cell.get_or_init(|| gauge(self.name))
    }

    /// Add `n` (may be negative).
    #[inline]
    pub fn add(&self, n: i64) {
        self.get().add(n);
    }

    /// Subtract `n`.
    #[inline]
    pub fn sub(&self, n: i64) {
        self.get().sub(n);
    }
}

/// A call-site cache for a registered [`Histogram`] (see [`LazyCounter`]).
pub struct LazyHistogram {
    name: &'static str,
    cell: OnceLock<&'static Histogram>,
}

impl LazyHistogram {
    /// A lazy handle to the histogram registered as `name`.
    pub const fn new(name: &'static str) -> Self {
        LazyHistogram {
            name,
            cell: OnceLock::new(),
        }
    }

    /// The interned histogram (registering it on first call).
    #[inline]
    pub fn get(&self) -> &'static Histogram {
        self.cell.get_or_init(|| histogram(self.name))
    }

    /// Record one observation.
    #[inline]
    pub fn observe(&self, v: u64) {
        self.get().observe(v);
    }
}

/// The captured value of one metric (see [`MetricsSnapshot`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// A counter's value.
    Counter(u64),
    /// A gauge's level.
    Gauge(i64),
    /// A histogram's observation count, value sum, and per-bucket counts.
    Histogram {
        /// Number of observations.
        count: u64,
        /// Sum of observed values.
        sum: u64,
        /// Per-bucket (non-cumulative) counts: bucket 0 holds zeros,
        /// bucket `i ≥ 1` values in `[2^(i−1), 2^i − 1]`, the last one
        /// everything larger.
        buckets: Vec<u64>,
    },
}

/// A point-in-time capture of every registered metric, sorted by name.
///
/// The capture is not atomic across metrics (each atomic is read
/// independently), but each counter read is itself consistent and
/// monotone relative to earlier snapshots.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` pairs sorted by name.
    pub entries: Vec<(&'static str, MetricValue)>,
}

impl MetricsSnapshot {
    /// The value of counter `name`, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.entries.iter().find_map(|(n, v)| match v {
            MetricValue::Counter(c) if *n == name => Some(*c),
            _ => None,
        })
    }

    /// The level of gauge `name`, if registered.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.entries.iter().find_map(|(n, v)| match v {
            MetricValue::Gauge(g) if *n == name => Some(*g),
            _ => None,
        })
    }

    /// `(count, sum)` of histogram `name`, if registered.
    pub fn histogram(&self, name: &str) -> Option<(u64, u64)> {
        self.entries.iter().find_map(|(n, v)| match v {
            MetricValue::Histogram { count, sum, .. } if *n == name => Some((*count, *sum)),
            _ => None,
        })
    }
}

/// Snapshot every registered metric (sorted by name).
pub fn snapshot() -> MetricsSnapshot {
    let mut entries: Vec<(&'static str, MetricValue)> = with_registry(|es| {
        es.iter()
            .map(|e| {
                let v = match e.metric {
                    Registered::Counter(c) => MetricValue::Counter(c.get()),
                    Registered::Gauge(g) => MetricValue::Gauge(g.get()),
                    Registered::Histogram(h) => MetricValue::Histogram {
                        count: h.count(),
                        sum: h.sum(),
                        buckets: h.bucket_counts().to_vec(),
                    },
                };
                (e.name, v)
            })
            .collect()
    });
    entries.sort_by_key(|&(name, _)| name);
    MetricsSnapshot { entries }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_intern_by_name() {
        let a = counter("test_registry_intern");
        let b = counter("test_registry_intern");
        assert!(std::ptr::eq(a, b));
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let g = gauge("test_registry_gauge");
        g.set(5);
        g.add(3);
        g.sub(10);
        assert_eq!(g.get(), -2);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        // Bounds are inclusive and consistent with the index function.
        for i in 0..HISTOGRAM_BUCKETS - 1 {
            assert_eq!(bucket_index(bucket_bound(i)), i);
            assert_eq!(bucket_index(bucket_bound(i) + 1), i + 1);
        }
    }

    #[test]
    fn histogram_observes() {
        let h = histogram("test_registry_hist");
        for v in [0u64, 1, 5, 5, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1011);
        let b = h.bucket_counts();
        assert_eq!(b[0], 1); // 0
        assert_eq!(b[1], 1); // 1
        assert_eq!(b[3], 2); // 4..7 holds both 5s
        assert_eq!(b[10], 1); // 512..1023 holds 1000
    }

    #[test]
    fn snapshot_contains_registered_metrics_sorted() {
        counter("test_snapshot_b").add(7);
        gauge("test_snapshot_a").set(-1);
        histogram("test_snapshot_c").observe(3);
        let s = snapshot();
        assert_eq!(s.counter("test_snapshot_b"), Some(7));
        assert_eq!(s.gauge("test_snapshot_a"), Some(-1));
        let (count, sum) = s.histogram("test_snapshot_c").unwrap();
        assert!(count >= 1 && sum >= 3);
        let names: Vec<_> = s.entries.iter().map(|(n, _)| *n).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }

    #[test]
    fn lazy_handles_resolve_once() {
        static LAZY: LazyCounter = LazyCounter::new("test_registry_lazy");
        LAZY.inc();
        LAZY.add(4);
        assert_eq!(LAZY.get().get(), 5);
        assert!(std::ptr::eq(LAZY.get(), counter("test_registry_lazy")));
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_clash_panics() {
        counter("test_registry_clash");
        let _ = gauge("test_registry_clash");
    }
}
