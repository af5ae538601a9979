//! The metrics registry: named counters, gauges, and fixed-bucket
//! histograms.
//!
//! Metrics are declared as `static` items next to the code they observe —
//! [`Counter::new`], [`Gauge::new`], and [`Histogram::new`] are all
//! `const`, so declaration costs nothing at startup:
//!
//! ```
//! use pml_obs::Counter;
//! static CACHE_HIT: Counter = Counter::new("tuner.cache.hit");
//! CACHE_HIT.inc();
//! ```
//!
//! A metric registers itself into the process-wide registry on first
//! touch; untouched metrics never appear in a snapshot. Every operation is
//! a relaxed atomic, so instrumentation is always on, thread-safe under
//! rayon, and cannot perturb any deterministic pipeline output.
//!
//! Naming convention: `<subsystem>.<thing>.<aspect>` in lowercase
//! dot-separated segments (`tuner.cache.hit`, `table.fallback.depth`,
//! `train.tree.nodes`). Snapshots sort by name, so exported JSON is stable
//! for a given set of touched metrics.

use crate::window::{
    WindowCounterSnapshot, WindowHistogramSnapshot, WindowedCounter, WindowedHistogram,
};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Maximum finite bucket bounds per histogram (one extra slot counts
/// overflow). Fixed so histograms stay `const`-constructible. Sized for
/// [`LATENCY_NS_BOUNDS`]'s sub-millisecond resolution (serve-path
/// latencies are single-digit microseconds) with a little headroom.
pub const MAX_BUCKETS: usize = 24;

/// Recover from lock poisoning: metric and span state stays consistent
/// whatever panicked while holding the lock.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

static REGISTRY: Mutex<Vec<MetricRef>> = Mutex::new(Vec::new());

/// A registered metric of any kind: a `'static` reference to the
/// declaring item.
#[derive(Debug, Clone, Copy)]
pub(crate) enum MetricRef {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
    WindowedCounter(&'static WindowedCounter),
    WindowedHistogram(&'static WindowedHistogram),
}

/// Put `metric` in the registry on its first touch, the one that flips
/// `registered`; every later touch is a single load.
pub(crate) fn register(registered: &AtomicBool, metric: MetricRef) {
    if !registered.load(Ordering::Relaxed) && !registered.swap(true, Ordering::Relaxed) {
        lock(&REGISTRY).push(metric);
    }
}

/// The first [`MAX_BUCKETS`] of `bounds`: the ones a histogram uses.
pub(crate) const fn capped(bounds: &'static [u64]) -> &'static [u64] {
    if bounds.len() > MAX_BUCKETS {
        bounds.split_at(MAX_BUCKETS).0
    } else {
        bounds
    }
}

/// The bucket store of every histogram, since-boot or one windowed slot:
/// a count per finite bound, the overflow count past the last, and the sum.
#[derive(Debug)]
pub(crate) struct Buckets {
    counts: [AtomicU64; MAX_BUCKETS + 1],
    sum: AtomicU64,
}

impl Buckets {
    pub(crate) const fn new() -> Self {
        Buckets {
            counts: [const { AtomicU64::new(0) }; MAX_BUCKETS + 1],
            sum: AtomicU64::new(0),
        }
    }

    /// Count `value` in the first bucket whose bound is `>= value`, or in
    /// overflow past the last.
    pub(crate) fn record(&self, bounds: &[u64], value: u64) {
        let idx = bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(bounds.len());
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    pub(crate) fn clear(&self) {
        for c in &self.counts {
            c.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
    }

    /// Add these buckets into `snap`, whose `bounds` they were recorded
    /// against.
    pub(crate) fn add_to(&self, snap: &mut HistogramSnapshot) {
        let load = |i: usize| self.counts[i].load(Ordering::Relaxed);
        for (i, c) in snap.counts.iter_mut().enumerate() {
            *c += load(i);
        }
        snap.overflow += load(snap.bounds.len());
        snap.sum += self.sum.load(Ordering::Relaxed);
        snap.count = snap.counts.iter().sum::<u64>() + snap.overflow;
    }
}

/// Monotonically increasing event count.
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
    registered: AtomicBool,
}

impl Counter {
    pub const fn new(name: &'static str) -> Self {
        Counter {
            name,
            value: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    pub fn name(&self) -> &'static str {
        self.name
    }

    pub fn inc(&'static self) {
        self.add(1);
    }

    pub fn add(&'static self, n: u64) {
        register(&self.registered, MetricRef::Counter(self));
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Last-written value (model feature count, loaded-table count, …).
#[derive(Debug)]
pub struct Gauge {
    name: &'static str,
    value: AtomicU64,
    registered: AtomicBool,
}

impl Gauge {
    pub const fn new(name: &'static str) -> Self {
        Gauge {
            name,
            value: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    pub fn name(&self) -> &'static str {
        self.name
    }

    pub fn set(&'static self, v: u64) {
        register(&self.registered, MetricRef::Gauge(self));
        self.value.store(v, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Fixed-bucket histogram over `u64` observations (latencies in
/// nanoseconds, batch sizes, fallback depths, …).
///
/// `bounds` are inclusive upper bounds in ascending order; an observation
/// lands in the first bucket whose bound is `>= value`, or in the implicit
/// overflow bucket past the last bound. Only the first [`MAX_BUCKETS`]
/// bounds are used.
#[derive(Debug)]
pub struct Histogram {
    name: &'static str,
    bounds: &'static [u64],
    buckets: Buckets,
    registered: AtomicBool,
}

impl Histogram {
    pub const fn new(name: &'static str, bounds: &'static [u64]) -> Self {
        Histogram {
            name,
            bounds: capped(bounds),
            buckets: Buckets::new(),
            registered: AtomicBool::new(false),
        }
    }

    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The finite bucket bounds in use (capped at [`MAX_BUCKETS`]).
    pub fn bounds(&self) -> &'static [u64] {
        self.bounds
    }

    pub fn observe(&'static self, value: u64) {
        register(&self.registered, MetricRef::Histogram(self));
        self.buckets.record(self.bounds, value);
    }

    /// Point-in-time copy of the buckets.
    pub fn snap(&self) -> HistogramSnapshot {
        let mut snap = HistogramSnapshot::empty(self.bounds);
        self.buckets.add_to(&mut snap);
        snap
    }
}

/// Point-in-time copy of one histogram, used in snapshots and exports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Finite upper bounds, ascending.
    pub bounds: Vec<u64>,
    /// Per-bucket counts, index-aligned with `bounds`.
    pub counts: Vec<u64>,
    /// Observations above the last bound.
    pub overflow: u64,
    pub sum: u64,
    pub count: u64,
}

impl HistogramSnapshot {
    pub(crate) fn empty(bounds: &[u64]) -> Self {
        HistogramSnapshot {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len()],
            ..HistogramSnapshot::default()
        }
    }

    /// Bucket-bound quantile: the inclusive upper bound of the bucket
    /// holding the `q`-th observation (`0.0 < q <= 1.0`). Observations in
    /// the overflow bucket report the last finite bound — an admitted
    /// floor, visible as `overflow > 0`. Returns 0 for an empty histogram.
    /// Integer state plus one multiply, so identical buckets give identical
    /// quantiles.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (bound, c) in self.bounds.iter().zip(&self.counts) {
            cum += c;
            if cum >= rank {
                return *bound;
            }
        }
        self.bounds.last().copied().unwrap_or(0)
    }
}

/// A sorted point-in-time copy of every touched metric in the process.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, u64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Windowed counters: totals over the live window.
    pub window_counters: BTreeMap<String, WindowCounterSnapshot>,
    /// Windowed histograms: live-window bucket aggregates.
    pub window_histograms: BTreeMap<String, WindowHistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Number of distinct metrics in the snapshot.
    pub fn total_metrics(&self) -> usize {
        self.counters.len()
            + self.gauges.len()
            + self.histograms.len()
            + self.window_counters.len()
            + self.window_histograms.len()
    }
}

/// Snapshot every metric touched so far, sorted by name within its kind.
/// A name registered twice reports its last-registered metric (the xtask
/// `metric-collision` lint keeps the workspace free of such names).
pub fn snapshot() -> MetricsSnapshot {
    let registry = lock(&REGISTRY).clone();
    let mut snap = MetricsSnapshot::default();
    for metric in registry {
        match metric {
            MetricRef::Counter(m) => {
                snap.counters.insert(m.name.to_string(), m.get());
            }
            MetricRef::Gauge(m) => {
                snap.gauges.insert(m.name.to_string(), m.get());
            }
            MetricRef::Histogram(m) => {
                snap.histograms.insert(m.name.to_string(), m.snap());
            }
            MetricRef::WindowedCounter(m) => {
                snap.window_counters.insert(m.name().to_string(), m.snap());
            }
            MetricRef::WindowedHistogram(m) => {
                snap.window_histograms
                    .insert(m.name().to_string(), m.snap());
            }
        }
    }
    snap
}

/// Nanosecond bounds for latency histograms: 250 ns … 16 s.
///
/// Sub-millisecond values get power-of-two resolution (250 ns, 500 ns,
/// 1 µs, 2 µs, … 500 µs) because that is where serve-path selection
/// latencies live; above 1 ms the spacing widens to the original
/// exponential ladder.
pub const LATENCY_NS_BOUNDS: [u64; 21] = [
    250,
    500,
    1_000,
    2_000,
    4_000,
    8_000,
    16_000,
    32_000,
    64_000,
    125_000,
    250_000,
    500_000,
    1_000_000,
    4_000_000,
    16_000_000,
    64_000_000,
    250_000_000,
    1_000_000_000,
    4_000_000_000,
    8_000_000_000,
    16_000_000_000,
];

/// Power-of-four size bounds for row/element-count histograms: 1 … ~268M.
pub const SIZE_BOUNDS: [u64; 15] = [
    1,
    4,
    16,
    64,
    256,
    1_024,
    4_096,
    16_384,
    65_536,
    262_144,
    1_048_576,
    4_194_304,
    16_777_216,
    67_108_864,
    268_435_456,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        static C: Counter = Counter::new("test.counter.basic");
        assert_eq!(C.get(), 0);
        C.inc();
        C.add(41);
        assert_eq!(C.get(), 42);
        assert!(snapshot().counters.contains_key("test.counter.basic"));
    }

    #[test]
    fn gauge_keeps_last_value() {
        static G: Gauge = Gauge::new("test.gauge.basic");
        G.set(7);
        G.set(3);
        assert_eq!(G.get(), 3);
        assert_eq!(snapshot().gauges.get("test.gauge.basic"), Some(&3));
    }

    #[test]
    fn histogram_bucket_boundaries_are_inclusive_upper_bounds() {
        static H: Histogram = Histogram::new("test.hist.bounds", &[10, 100, 1000]);
        // At, below, and just above each boundary.
        H.observe(0); // bucket 0 (<= 10)
        H.observe(10); // bucket 0 (boundary is inclusive)
        H.observe(11); // bucket 1
        H.observe(100); // bucket 1
        H.observe(101); // bucket 2
        H.observe(1000); // bucket 2
        H.observe(1001); // overflow
        H.observe(u64::MAX); // overflow
        let snap = snapshot();
        let hs = &snap.histograms["test.hist.bounds"];
        assert_eq!(hs.bounds, vec![10, 100, 1000]);
        assert_eq!(hs.counts, vec![2, 2, 2]);
        assert_eq!(hs.overflow, 2);
        assert_eq!(hs.count, 8);
    }

    #[test]
    fn histogram_caps_bounds_at_max_buckets() {
        static BIG: [u64; 30] = [
            1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24,
            25, 26, 27, 28, 29, 30,
        ];
        static H: Histogram = Histogram::new("test.hist.cap", &BIG);
        assert_eq!(H.bounds().len(), MAX_BUCKETS);
        H.observe(MAX_BUCKETS as u64 + 1); // past the usable bounds -> overflow
        H.observe(MAX_BUCKETS as u64); // last usable bucket
        let snap = H.snap();
        assert_eq!(snap.counts.len(), MAX_BUCKETS);
        assert_eq!(snap.counts[MAX_BUCKETS - 1], 1);
        assert_eq!(snap.overflow, 1);
    }

    /// The serve path observes µs-scale latencies: the shared latency
    /// ladder must resolve them into distinct sub-millisecond buckets
    /// instead of lumping everything under one coarse bound.
    #[test]
    fn latency_bounds_resolve_sub_millisecond_values() {
        assert!(LATENCY_NS_BOUNDS.len() <= MAX_BUCKETS);
        let sub_ms = LATENCY_NS_BOUNDS.iter().filter(|&&b| b < 1_000_000).count();
        assert!(sub_ms >= 10, "only {sub_ms} sub-ms bounds");
        assert!(LATENCY_NS_BOUNDS.windows(2).all(|w| w[0] < w[1]));
        // Distinct buckets for 0.4 µs, 3 µs, and 40 µs observations.
        static H: Histogram = Histogram::new("test.hist.subms", &LATENCY_NS_BOUNDS);
        H.observe(400);
        H.observe(3_000);
        H.observe(40_000);
        let counts = H.snap().counts;
        assert_eq!(counts.iter().filter(|&&c| c == 1).count(), 3);
    }

    #[test]
    fn histogram_sum_tracks_observations() {
        static H: Histogram = Histogram::new("test.hist.sum", &[5]);
        H.observe(2);
        H.observe(9);
        assert_eq!(H.snap().sum, 11);
    }

    #[test]
    fn concurrent_counter_increments_under_rayon() {
        use rayon::prelude::*;
        static C: Counter = Counter::new("test.counter.concurrent");
        static H: Histogram = Histogram::new("test.hist.concurrent", &[4, 8, 12]);
        let lanes: Vec<u64> = (0..16).collect();
        lanes.into_par_iter().for_each(|t| {
            for i in 0..10_000u64 {
                C.inc();
                H.observe((t + i) % 16);
            }
        });
        assert_eq!(C.get(), 160_000);
        let snap = H.snap();
        assert_eq!(snap.count, 160_000);
        // 160k observations uniform over 0..16: 5 values per bucket of
        // width 5,4,4 and 3 overflow values (13,14,15).
        assert_eq!(snap.counts, vec![50_000, 40_000, 40_000]);
        assert_eq!(snap.overflow, 30_000);
    }

    /// One rule for every kind: a name registered twice reports its
    /// last-registered metric.
    #[test]
    fn a_duplicate_name_reports_its_last_registration() {
        static FIRST: Counter = Counter::new("test.dup.counter");
        static SECOND: Counter = Counter::new("test.dup.counter");
        static H1: Histogram = Histogram::new("test.dup.hist", &[10]);
        static H2: Histogram = Histogram::new("test.dup.hist", &[10]);
        FIRST.add(3);
        SECOND.add(5);
        H1.observe(1);
        H2.observe(1);
        H2.observe(100);
        let snap = snapshot();
        assert_eq!(snap.counters["test.dup.counter"], 5);
        assert_eq!(snap.histograms["test.dup.hist"].count, 2);
    }

    #[test]
    fn snapshot_is_sorted_by_name() {
        static A: Counter = Counter::new("test.order.a");
        static Z: Counter = Counter::new("test.order.z");
        Z.inc();
        A.inc();
        let snap = snapshot();
        let names: Vec<&String> = snap.counters.keys().collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }
}
