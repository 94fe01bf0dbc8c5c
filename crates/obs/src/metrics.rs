//! The metrics registry: named counters, gauges and log₂ histograms.
//!
//! Handles returned by the registry are cheap `Arc`-clones over atomics:
//! registration takes a write lock once, recording is lock-free and
//! wait-free (`fetch_add`/`fetch_min`/`fetch_max` with relaxed ordering —
//! metrics are statistical, not synchronization).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use crate::snapshot::{HistogramSnapshot, Snapshot};
use crate::timer::StageTimer;

/// Number of histogram buckets: bucket 0 holds the value `0`, bucket
/// `k ≥ 1` holds values in `[2^(k-1), 2^k)`, up to bucket 64 which tops
/// out at `u64::MAX`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A monotonically increasing event count.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A standalone counter (not registered anywhere).
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current count.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins floating-point level (stored as `f64` bits).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Default for Gauge {
    fn default() -> Gauge {
        Gauge(Arc::new(AtomicU64::new(0f64.to_bits())))
    }
}

impl Gauge {
    /// A standalone gauge (not registered anywhere), initialized to 0.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Sets the level.
    #[inline]
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// The current level.
    #[inline]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    /// Raises the gauge to `value` if it is higher (high-water mark).
    pub fn max(&self, value: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            if f64::from_bits(cur) >= value {
                return;
            }
            match self.0.compare_exchange_weak(
                cur,
                value.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }
}

#[derive(Debug)]
struct HistogramCore {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for HistogramCore {
    fn default() -> HistogramCore {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// A log₂-bucketed histogram of `u64` samples (typically nanoseconds or
/// small counts).
///
/// Bucket layout has **exact power-of-two edges**: bucket 0 counts only
/// the value `0`; bucket `k ≥ 1` counts values `v` with
/// `2^(k-1) <= v < 2^k`. A value exactly equal to `2^k` therefore lands
/// in bucket `k + 1`'s lower edge — see [`Histogram::bucket_index`].
#[derive(Debug, Clone, Default)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// A standalone histogram (not registered anywhere).
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// The bucket a value falls into: 0 for `v == 0`, otherwise
    /// `bit_length(v)` (so bucket `k` spans `[2^(k-1), 2^k)`).
    #[inline]
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// The `[lower, upper)` bounds of bucket `index` (bucket 0 is
    /// `[0, 1)`; bucket 64's upper bound saturates at `u64::MAX`).
    ///
    /// # Panics
    ///
    /// Panics if `index >= HISTOGRAM_BUCKETS`.
    pub fn bucket_bounds(index: usize) -> (u64, u64) {
        assert!(index < HISTOGRAM_BUCKETS, "bucket index out of range");
        if index == 0 {
            (0, 1)
        } else {
            let lower = 1u64 << (index - 1);
            let upper = if index == 64 { u64::MAX } else { 1u64 << index };
            (lower, upper)
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        let core = &*self.0;
        core.buckets[Histogram::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        core.count.fetch_add(1, Ordering::Relaxed);
        core.sum.fetch_add(value, Ordering::Relaxed);
        core.min.fetch_min(value, Ordering::Relaxed);
        core.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records a duration in nanoseconds (saturating at `u64::MAX`).
    #[inline]
    pub fn record_duration(&self, duration: std::time::Duration) {
        self.record(duration.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Starts a scoped span that records its elapsed nanoseconds into
    /// this histogram when dropped (or stopped).
    #[inline]
    pub fn time(&self) -> StageTimer {
        StageTimer::start(self.clone())
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Mean sample, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        let count = self.count();
        (count > 0).then(|| self.sum() as f64 / count as f64)
    }

    /// Freezes the histogram into its snapshot form (sparse non-empty
    /// buckets).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let core = &*self.0;
        let count = core.count.load(Ordering::Relaxed);
        let buckets: Vec<(u8, u64)> = core
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then_some((i as u8, n))
            })
            .collect();
        HistogramSnapshot {
            count,
            sum: core.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                core.min.load(Ordering::Relaxed)
            },
            max: core.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
}

/// A named collection of metrics.
///
/// `counter`/`gauge`/`histogram` get-or-create by name and hand back a
/// clonable lock-free handle, so hot paths register once at construction
/// and never touch the registry lock again.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: RwLock<Inner>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Counter {
        if let Some(c) = self
            .inner
            .read()
            .expect("registry poisoned")
            .counters
            .get(name)
        {
            return c.clone();
        }
        let mut inner = self.inner.write().expect("registry poisoned");
        inner.counters.entry(name.to_string()).or_default().clone()
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        if let Some(g) = self
            .inner
            .read()
            .expect("registry poisoned")
            .gauges
            .get(name)
        {
            return g.clone();
        }
        let mut inner = self.inner.write().expect("registry poisoned");
        inner.gauges.entry(name.to_string()).or_default().clone()
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        if let Some(h) = self
            .inner
            .read()
            .expect("registry poisoned")
            .histograms
            .get(name)
        {
            return h.clone();
        }
        let mut inner = self.inner.write().expect("registry poisoned");
        inner
            .histograms
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Number of distinct named metrics registered.
    pub fn metric_count(&self) -> usize {
        let inner = self.inner.read().expect("registry poisoned");
        inner.counters.len() + inner.gauges.len() + inner.histograms.len()
    }

    /// Freezes every metric into a [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.inner.read().expect("registry poisoned");
        Snapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_share() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("cbma.test.events");
        let b = reg.counter("cbma.test.events");
        a.inc();
        b.add(4);
        assert_eq!(a.get(), 5);
        assert_eq!(reg.snapshot().counters["cbma.test.events"], 5);
    }

    #[test]
    fn gauges_set_and_max() {
        let g = Gauge::new();
        g.set(1.5);
        assert_eq!(g.get(), 1.5);
        g.max(0.5);
        assert_eq!(g.get(), 1.5, "max must not lower the gauge");
        g.max(2.25);
        assert_eq!(g.get(), 2.25);
    }

    #[test]
    fn histogram_bucket_indices_have_exact_power_of_two_edges() {
        // Bucket 0 = {0}; bucket k = [2^(k-1), 2^k).
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        for k in 1..=63usize {
            let edge = 1u64 << k;
            // The exact power of two opens bucket k+1 …
            assert_eq!(Histogram::bucket_index(edge), k + 1, "edge 2^{k}");
            // … and the value just below it closes bucket k.
            assert_eq!(Histogram::bucket_index(edge - 1), k, "edge 2^{k} - 1");
        }
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
    }

    #[test]
    fn histogram_bucket_bounds_match_indices() {
        for idx in 0..HISTOGRAM_BUCKETS {
            let (lo, hi) = Histogram::bucket_bounds(idx);
            assert_eq!(Histogram::bucket_index(lo), idx, "lower bound of {idx}");
            if idx < 64 {
                assert_eq!(
                    Histogram::bucket_index(hi),
                    idx + 1,
                    "upper bound of {idx} is exclusive"
                );
            }
            assert_eq!(Histogram::bucket_index(hi - 1), idx, "top of {idx}");
        }
        assert_eq!(Histogram::bucket_bounds(0), (0, 1));
        assert_eq!(Histogram::bucket_bounds(1), (1, 2));
        assert_eq!(Histogram::bucket_bounds(5), (16, 32));
        assert_eq!(Histogram::bucket_bounds(64).1, u64::MAX);
    }

    #[test]
    #[should_panic(expected = "bucket index out of range")]
    fn bucket_bounds_rejects_out_of_range() {
        Histogram::bucket_bounds(HISTOGRAM_BUCKETS);
    }

    #[test]
    fn histogram_statistics() {
        let h = Histogram::new();
        assert_eq!(h.mean(), None);
        for v in [0u64, 1, 2, 3, 4, 1024] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1034);
        let snap = h.snapshot();
        assert_eq!(snap.min, 0);
        assert_eq!(snap.max, 1024);
        // 0 → bucket 0; 1 → 1; 2,3 → 2; 4 → 3; 1024 → 11.
        assert_eq!(snap.buckets, vec![(0, 1), (1, 1), (2, 2), (3, 1), (11, 1)]);
        assert!((h.mean().unwrap() - 1034.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_snapshot_has_zero_min() {
        let snap = Histogram::new().snapshot();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.min, 0);
        assert_eq!(snap.max, 0);
        assert!(snap.buckets.is_empty());
    }

    #[test]
    fn registry_is_shareable_across_threads() {
        let reg = std::sync::Arc::new(MetricsRegistry::new());
        let c = reg.counter("cbma.test.parallel");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let reg = std::sync::Arc::clone(&reg);
                s.spawn(move || {
                    for _ in 0..1000 {
                        reg.counter("cbma.test.parallel").inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
    }

    #[test]
    fn metric_count_counts_distinct_names() {
        let reg = MetricsRegistry::new();
        reg.counter("a");
        reg.counter("a");
        reg.gauge("b");
        reg.histogram("c");
        assert_eq!(reg.metric_count(), 3);
    }
}
