//! Lock-light metrics registry: counters, gauges, and log₂ histograms,
//! each a `static` that carries its own name.
//!
//! A metric is declared once, as a `static` built by its `const fn
//! new(name)`. Its first touch — any read or write — lists it on one
//! process-wide list, behind the metric's own [`Once`]; every later
//! touch is that `Once`'s acquire load plus one relaxed atomic op, and
//! no lock. Names are code-owned literals, so two metrics of one name
//! are a programming error: the second one's first touch panics.
//!
//! [`snapshot`] captures every listed metric at a point in time, sorted
//! by name, for the exporters in [`crate::export`]. Counters are
//! monotone: a region is measured as the difference of two snapshots.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Mutex, Once, PoisonError};

/// Number of histogram buckets. Bucket 0 counts zero-valued
/// observations; bucket `i ≥ 1` counts values in `[2^(i−1), 2^i − 1]`;
/// the last bucket absorbs everything larger.
pub(crate) const HISTOGRAM_BUCKETS: usize = 33;

/// What identifies a metric: its name, and whether it is listed yet. It
/// fills a cache line of its own, so the atomic ops a hot metric takes
/// from many threads never evict the `Once` that every touch reads.
#[derive(Debug)]
#[repr(align(64))]
struct Head {
    name: &'static str,
    listed: Once,
}

/// A monotone event counter (relaxed atomic `u64`).
#[derive(Debug)]
pub struct Counter {
    head: Head,
    value: AtomicU64,
}

/// An alias of [`Counter`], kept because `benchmark/src/replay.rs`
/// declares its probe counter as a `LazyCounter`.
pub type LazyCounter = Counter;

impl Counter {
    /// A zeroed counter named `name`, listed on its first touch.
    pub const fn new(name: &'static str) -> Self {
        Counter {
            head: Head {
                name,
                listed: Once::new(),
            },
            value: AtomicU64::new(0),
        }
    }

    /// Add one.
    #[inline]
    pub fn inc(&'static self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&'static self, n: u64) {
        Metric::Counter(self).touch();
        if n != 0 {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    #[inline]
    pub fn get(&'static self) -> u64 {
        Metric::Counter(self).touch();
        self.value.load(Ordering::Relaxed)
    }
}

/// An instantaneous level (relaxed atomic `i64`): queue depths, live
/// worker counts. Unlike a [`Counter`] it goes both ways.
#[derive(Debug)]
pub struct Gauge {
    head: Head,
    value: AtomicI64,
}

impl Gauge {
    /// A zeroed gauge named `name`, listed on its first touch.
    pub const fn new(name: &'static str) -> Self {
        Gauge {
            head: Head {
                name,
                listed: Once::new(),
            },
            value: AtomicI64::new(0),
        }
    }

    /// Add `n` (may be negative).
    #[inline]
    pub fn add(&'static self, n: i64) {
        Metric::Gauge(self).touch();
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtract `n`.
    #[inline]
    pub fn sub(&'static self, n: i64) {
        Metric::Gauge(self).touch();
        self.value.fetch_sub(n, Ordering::Relaxed);
    }
}

/// A fixed-bucket log₂ histogram of `u64` observations (payload sizes,
/// durations in nanoseconds). Buckets are powers of two, so `observe` is
/// a `leading_zeros` and three `fetch_add`s — no float math, no
/// allocation.
#[derive(Debug)]
pub struct Histogram {
    head: Head,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
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
    /// An empty histogram named `name`, listed on its first touch.
    pub const fn new(name: &'static str) -> Self {
        Histogram {
            head: Head {
                name,
                listed: Once::new(),
            },
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Record one observation.
    #[inline]
    pub fn observe(&'static self, v: u64) {
        Metric::Histogram(self).touch();
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }
}

/// One listed metric.
#[derive(Clone, Copy)]
enum Metric {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

impl Metric {
    fn head(self) -> &'static Head {
        match self {
            Metric::Counter(c) => &c.head,
            Metric::Gauge(g) => &g.head,
            Metric::Histogram(h) => &h.head,
        }
    }

    /// List the metric on its first touch. The check is one acquire load;
    /// the listing stays out of line, off every hot path.
    #[inline]
    fn touch(self) {
        if !self.head().listed.is_completed() {
            self.list();
        }
    }

    /// Push the metric onto the process list, once. Panics when another
    /// metric of the same name is listed already.
    #[cold]
    #[inline(never)]
    fn list(self) {
        self.head().listed.call_once(|| {
            let mut all = LISTED.lock().unwrap_or_else(PoisonError::into_inner);
            let name = self.head().name;
            assert!(
                all.iter().all(|m| m.head().name != name),
                "metric {name:?} is declared twice"
            );
            all.push(self);
        });
    }

    /// The metric's value now, read straight off its atomics (it is
    /// listed, so there is nothing to touch).
    fn read(self) -> MetricValue {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        match self {
            Metric::Counter(c) => MetricValue::Counter(load(&c.value)),
            Metric::Gauge(g) => MetricValue::Gauge(g.value.load(Ordering::Relaxed)),
            Metric::Histogram(h) => MetricValue::Histogram {
                count: load(&h.count),
                sum: load(&h.sum),
                buckets: h.buckets.iter().map(load).collect(),
            },
        }
    }
}

/// Every metric touched so far, in order of first touch.
static LISTED: Mutex<Vec<Metric>> = Mutex::new(Vec::new());

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

/// A point-in-time capture of every listed metric, sorted by name.
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
    /// The value of counter `name`, if listed.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.entries.iter().find_map(|(n, v)| match v {
            MetricValue::Counter(c) if *n == name => Some(*c),
            _ => None,
        })
    }

    /// The level of gauge `name`, if listed.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.entries.iter().find_map(|(n, v)| match v {
            MetricValue::Gauge(g) if *n == name => Some(*g),
            _ => None,
        })
    }

    /// `(count, sum)` of histogram `name`, if listed.
    pub fn histogram(&self, name: &str) -> Option<(u64, u64)> {
        self.entries.iter().find_map(|(n, v)| match v {
            MetricValue::Histogram { count, sum, .. } if *n == name => Some((*count, *sum)),
            _ => None,
        })
    }
}

/// Snapshot every listed metric (sorted by name).
pub fn snapshot() -> MetricsSnapshot {
    let listed = LISTED.lock().unwrap_or_else(PoisonError::into_inner);
    let mut entries: Vec<_> = listed.iter().map(|&m| (m.head().name, m.read())).collect();
    drop(listed);
    entries.sort_by_key(|&(name, _)| name);
    MetricsSnapshot { entries }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn value_of(name: &str) -> Option<MetricValue> {
        snapshot()
            .entries
            .into_iter()
            .find_map(|(n, v)| (n == name).then_some(v))
    }

    #[test]
    fn a_metric_is_listed_on_its_first_touch() {
        static READ: Counter = Counter::new("test_registry_first_read");
        static ADDED: Counter = Counter::new("test_registry_first_add");
        assert_eq!(value_of("test_registry_first_read"), None);
        // A read is a touch, and so is adding zero.
        assert_eq!(READ.get(), 0);
        assert_eq!(
            value_of("test_registry_first_read"),
            Some(MetricValue::Counter(0))
        );
        ADDED.add(0);
        assert_eq!(
            value_of("test_registry_first_add"),
            Some(MetricValue::Counter(0))
        );
        ADDED.inc();
        ADDED.add(2);
        assert_eq!(ADDED.get(), 3);
        assert_eq!(snapshot().counter("test_registry_first_add"), Some(3));
    }

    #[test]
    fn gauge_moves_both_ways() {
        static G: Gauge = Gauge::new("test_registry_gauge");
        G.add(3);
        G.sub(5);
        assert_eq!(snapshot().gauge("test_registry_gauge"), Some(-2));
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
        static H: Histogram = Histogram::new("test_registry_hist");
        for v in [0u64, 1, 5, 5, 1000] {
            H.observe(v);
        }
        let Some(MetricValue::Histogram {
            count,
            sum,
            buckets,
        }) = value_of("test_registry_hist")
        else {
            panic!("the histogram is listed");
        };
        assert_eq!((count, sum), (5, 1011));
        assert_eq!(buckets.len(), HISTOGRAM_BUCKETS);
        assert_eq!(buckets[0], 1); // 0
        assert_eq!(buckets[1], 1); // 1
        assert_eq!(buckets[3], 2); // 4..7 holds both 5s
        assert_eq!(buckets[10], 1); // 512..1023 holds 1000
    }

    #[test]
    fn snapshot_contains_registered_metrics_sorted() {
        static B: Counter = Counter::new("test_snapshot_b");
        static A: Gauge = Gauge::new("test_snapshot_a");
        static C: Histogram = Histogram::new("test_snapshot_c");
        B.add(7);
        A.sub(1);
        C.observe(3);
        let s = snapshot();
        assert_eq!(s.counter("test_snapshot_b"), Some(7));
        assert_eq!(s.gauge("test_snapshot_a"), Some(-1));
        assert_eq!(s.histogram("test_snapshot_c"), Some((1, 3)));
        let names: Vec<_> = s.entries.iter().map(|(n, _)| *n).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }

    #[test]
    #[should_panic(expected = "declared twice")]
    fn kind_clash_panics() {
        static FIRST: Counter = Counter::new("test_registry_clash");
        static SECOND: Gauge = Gauge::new("test_registry_clash");
        FIRST.inc();
        SECOND.add(1);
    }
}
