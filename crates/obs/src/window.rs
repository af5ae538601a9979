//! Windowed live metrics: ring-buffered counters and histograms that
//! answer "what happened over the last N seconds" instead of "since
//! boot".
//!
//! A windowed metric owns a ring of [`WINDOW_SLOTS`] slots, each covering
//! `slot_ns` nanoseconds of clock time. An observation carries its own
//! clock reading (`now_nanos`) — the metric never reads a wall clock
//! itself, which keeps this module inside the determinism lint scope and
//! makes every rotation exactly reproducible under a
//! [`FakeClock`](crate::clock::FakeClock). The slot for time `t` is
//! `epoch(t) % WINDOW_SLOTS` where `epoch(t) = t / slot_ns + 1`; writing
//! into a slot whose stored epoch is older resets it first, so the ring
//! always holds at most the last [`WINDOW_SLOTS`] epochs.
//!
//! Snapshots are **clock-free**: the live window is anchored to the
//! newest epoch ever observed (`last_epoch`), not to "now". Two processes
//! that feed a windowed metric identical (value, clock-reading) sequences
//! therefore produce byte-identical snapshots — the property the
//! `obs-determinism` tests lean on. The cost of that anchor is that a
//! metric nobody writes to stops aging; the serve daemon's request
//! stream keeps its windows current in practice.
//!
//! Like the since-boot metrics in [`crate::metrics`], windowed metrics
//! are `const`-constructible `static` items that self-register on first
//! touch and appear in [`crate::metrics::snapshot`] under the
//! `window_counters` / `window_histograms` sections of the `pml-obs/v2`
//! export.

use crate::metrics::MAX_BUCKETS;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Number of ring slots per windowed metric. With the default 1-second
/// slot width this yields a 10-second live window.
pub const WINDOW_SLOTS: usize = 10;

/// Default slot width: 1 second, so the default window spans 10 s.
pub const DEFAULT_SLOT_NS: u64 = 1_000_000_000;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

static WINDOW_REGISTRY: Mutex<Vec<WindowRef>> = Mutex::new(Vec::new());

#[derive(Debug, Clone, Copy)]
enum WindowRef {
    Counter(&'static WindowedCounter),
    Histogram(&'static WindowedHistogram),
}

/// One ring slot of a [`WindowedCounter`]: the epoch it currently covers
/// (`0` = never written) and the count accumulated within that epoch.
#[derive(Debug)]
struct CounterSlot {
    epoch: AtomicU64,
    value: AtomicU64,
}

impl CounterSlot {
    const fn new() -> Self {
        CounterSlot {
            epoch: AtomicU64::new(0),
            value: AtomicU64::new(0),
        }
    }
}

/// One ring slot of a [`WindowedHistogram`].
#[derive(Debug)]
struct HistogramSlot {
    epoch: AtomicU64,
    counts: [AtomicU64; MAX_BUCKETS + 1],
    sum: AtomicU64,
}

impl HistogramSlot {
    const fn new() -> Self {
        HistogramSlot {
            epoch: AtomicU64::new(0),
            counts: [const { AtomicU64::new(0) }; MAX_BUCKETS + 1],
            sum: AtomicU64::new(0),
        }
    }
}

/// Epoch number for a clock reading. `+ 1` keeps `0` free as the
/// "never written" sentinel in slot state.
fn epoch_of(now_nanos: u64, slot_ns: u64) -> u64 {
    now_nanos / slot_ns.max(1) + 1
}

/// Rotate `slot_epoch` forward to `epoch` if it is older, zeroing the
/// slot via `reset`. Returns `false` when the observation is older than
/// the slot's current tenant (a straggler beyond the window): the caller
/// must drop it rather than pollute a newer slot.
///
/// The reset is not atomic with respect to concurrent writers: an
/// observation racing the zeroing thread can be lost. Windowed metrics
/// are load-shedding telemetry, not ledgers, so a lost sample at a
/// rotation edge is acceptable; the deterministic tests drive rotations
/// single-threaded where the race cannot occur.
fn rotate(slot_epoch: &AtomicU64, epoch: u64, reset: impl FnOnce()) -> bool {
    let cur = slot_epoch.load(Ordering::Relaxed);
    if cur == epoch {
        return true;
    }
    if cur > epoch {
        return false;
    }
    if slot_epoch
        .compare_exchange(cur, epoch, Ordering::Relaxed, Ordering::Relaxed)
        .is_ok()
    {
        reset();
    }
    // On CAS failure another thread rotated (or a newer epoch won); fall
    // through and re-check who owns the slot now.
    slot_epoch.load(Ordering::Relaxed) == epoch
}

/// A counter over a sliding window: `total()` sums only the last
/// [`WINDOW_SLOTS`] epochs, anchored at the newest observation.
#[derive(Debug)]
pub struct WindowedCounter {
    name: &'static str,
    slot_ns: u64,
    slots: [CounterSlot; WINDOW_SLOTS],
    last_epoch: AtomicU64,
    registered: AtomicBool,
}

impl WindowedCounter {
    pub const fn new(name: &'static str, slot_ns: u64) -> Self {
        WindowedCounter {
            name,
            slot_ns,
            slots: [const { CounterSlot::new() }; WINDOW_SLOTS],
            last_epoch: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Width of one ring slot in nanoseconds.
    pub fn slot_ns(&self) -> u64 {
        self.slot_ns.max(1)
    }

    /// Total clock time the live window spans.
    pub fn window_ns(&self) -> u64 {
        self.slot_ns().saturating_mul(WINDOW_SLOTS as u64)
    }

    pub fn inc(&'static self, now_nanos: u64) {
        self.add(1, now_nanos);
    }

    /// Record `n` at clock reading `now_nanos` (from an injected
    /// [`Clock`](crate::clock::Clock) — this type never reads time).
    pub fn add(&'static self, n: u64, now_nanos: u64) {
        if !self.registered.swap(true, Ordering::Relaxed) {
            lock(&WINDOW_REGISTRY).push(WindowRef::Counter(self));
        }
        let epoch = epoch_of(now_nanos, self.slot_ns);
        let slot = &self.slots[(epoch % WINDOW_SLOTS as u64) as usize];
        if rotate(&slot.epoch, epoch, || {
            slot.value.store(0, Ordering::Relaxed)
        }) {
            slot.value.fetch_add(n, Ordering::Relaxed);
            self.last_epoch.fetch_max(epoch, Ordering::Relaxed);
        }
    }

    /// Sum over the live window (the [`WINDOW_SLOTS`] epochs ending at
    /// the newest observation). Clock-free and deterministic.
    pub fn total(&self) -> u64 {
        let last = self.last_epoch.load(Ordering::Relaxed);
        if last == 0 {
            return 0;
        }
        let low = last.saturating_sub(WINDOW_SLOTS as u64 - 1).max(1);
        self.slots
            .iter()
            .filter(|s| {
                let e = s.epoch.load(Ordering::Relaxed);
                e >= low && e <= last
            })
            .map(|s| s.value.load(Ordering::Relaxed))
            .sum()
    }

    /// Point-in-time copy for snapshots.
    pub fn snap(&self) -> WindowCounterSnapshot {
        WindowCounterSnapshot {
            slot_ns: self.slot_ns(),
            slots: WINDOW_SLOTS as u64,
            total: self.total(),
        }
    }
}

/// A fixed-bucket histogram over a sliding window. Bucket semantics
/// match [`crate::metrics::Histogram`]: `bounds` are inclusive upper
/// bounds, one implicit overflow bucket past the last.
#[derive(Debug)]
pub struct WindowedHistogram {
    name: &'static str,
    bounds: &'static [u64],
    slot_ns: u64,
    slots: [HistogramSlot; WINDOW_SLOTS],
    last_epoch: AtomicU64,
    registered: AtomicBool,
}

impl WindowedHistogram {
    pub const fn new(name: &'static str, bounds: &'static [u64], slot_ns: u64) -> Self {
        WindowedHistogram {
            name,
            bounds,
            slot_ns,
            slots: [const { HistogramSlot::new() }; WINDOW_SLOTS],
            last_epoch: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The finite bucket bounds in use (capped at [`MAX_BUCKETS`]).
    pub fn bounds(&self) -> &'static [u64] {
        &self.bounds[..self.bounds.len().min(MAX_BUCKETS)]
    }

    /// Width of one ring slot in nanoseconds.
    pub fn slot_ns(&self) -> u64 {
        self.slot_ns.max(1)
    }

    /// Total clock time the live window spans.
    pub fn window_ns(&self) -> u64 {
        self.slot_ns().saturating_mul(WINDOW_SLOTS as u64)
    }

    /// Record `value` at clock reading `now_nanos` (from an injected
    /// [`Clock`](crate::clock::Clock) — this type never reads time).
    pub fn observe(&'static self, value: u64, now_nanos: u64) {
        if !self.registered.swap(true, Ordering::Relaxed) {
            lock(&WINDOW_REGISTRY).push(WindowRef::Histogram(self));
        }
        let epoch = epoch_of(now_nanos, self.slot_ns);
        let slot = &self.slots[(epoch % WINDOW_SLOTS as u64) as usize];
        let fresh = rotate(&slot.epoch, epoch, || {
            for c in &slot.counts {
                c.store(0, Ordering::Relaxed);
            }
            slot.sum.store(0, Ordering::Relaxed);
        });
        if !fresh {
            return; // straggler older than the whole ring
        }
        let bounds = self.bounds();
        let idx = bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(bounds.len());
        slot.counts[idx].fetch_add(1, Ordering::Relaxed);
        slot.sum.fetch_add(value, Ordering::Relaxed);
        self.last_epoch.fetch_max(epoch, Ordering::Relaxed);
    }

    /// Aggregate the live window into a snapshot. Clock-free: the window
    /// is anchored at the newest epoch observed, so identical observation
    /// sequences yield identical snapshots.
    pub fn snap(&self) -> WindowHistogramSnapshot {
        let bounds = self.bounds().to_vec();
        let n = bounds.len();
        let mut counts = vec![0u64; n];
        let mut overflow = 0u64;
        let mut sum = 0u64;
        let last = self.last_epoch.load(Ordering::Relaxed);
        if last > 0 {
            let low = last.saturating_sub(WINDOW_SLOTS as u64 - 1).max(1);
            for slot in &self.slots {
                let e = slot.epoch.load(Ordering::Relaxed);
                if e < low || e > last {
                    continue;
                }
                for (i, c) in counts.iter_mut().enumerate() {
                    *c += slot.counts[i].load(Ordering::Relaxed);
                }
                overflow += slot.counts[n].load(Ordering::Relaxed);
                sum += slot.sum.load(Ordering::Relaxed);
            }
        }
        let count = counts.iter().sum::<u64>() + overflow;
        WindowHistogramSnapshot {
            slot_ns: self.slot_ns(),
            slots: WINDOW_SLOTS as u64,
            bounds,
            counts,
            overflow,
            sum,
            count,
        }
    }
}

/// Point-in-time copy of one windowed counter.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WindowCounterSnapshot {
    /// Width of one ring slot in nanoseconds.
    pub slot_ns: u64,
    /// Number of ring slots (the window spans `slot_ns * slots`).
    pub slots: u64,
    /// Sum over the live window.
    pub total: u64,
}

/// Point-in-time copy of one windowed histogram: the live-window
/// aggregate in the same bucket shape as
/// [`crate::metrics::HistogramSnapshot`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WindowHistogramSnapshot {
    /// Width of one ring slot in nanoseconds.
    pub slot_ns: u64,
    /// Number of ring slots (the window spans `slot_ns * slots`).
    pub slots: u64,
    /// Finite upper bounds, ascending.
    pub bounds: Vec<u64>,
    /// Per-bucket counts over the live window, index-aligned with
    /// `bounds`.
    pub counts: Vec<u64>,
    /// Observations above the last bound.
    pub overflow: u64,
    pub sum: u64,
    pub count: u64,
}

impl WindowHistogramSnapshot {
    /// Bucket-bound quantile: the inclusive upper bound of the bucket
    /// holding the `q`-th observation (`0.0 < q <= 1.0`). Observations in
    /// the overflow bucket report the last finite bound — an admitted
    /// floor, visible as `overflow > 0`. Returns 0 for an empty window.
    pub fn quantile(&self, q: f64) -> u64 {
        quantile_from_buckets(&self.bounds, &self.counts, self.count, q)
    }
}

/// Shared quantile walk over cumulative bucket counts (used by both the
/// windowed and since-boot histogram snapshots). Pure integer state plus
/// one multiply, so the result is identical across runs for identical
/// buckets.
pub(crate) fn quantile_from_buckets(bounds: &[u64], counts: &[u64], count: u64, q: f64) -> u64 {
    if count == 0 {
        return 0;
    }
    let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
    let mut cum = 0u64;
    for (i, c) in counts.iter().enumerate() {
        cum += c;
        if cum >= rank {
            return bounds.get(i).copied().unwrap_or(0);
        }
    }
    // Rank landed in the overflow bucket: report the last finite bound.
    bounds.last().copied().unwrap_or(0)
}

/// Copy every touched windowed metric into the two snapshot maps
/// (called by [`crate::metrics::snapshot`]).
pub(crate) fn collect_into(
    counters: &mut BTreeMap<String, WindowCounterSnapshot>,
    histograms: &mut BTreeMap<String, WindowHistogramSnapshot>,
) {
    let registry = lock(&WINDOW_REGISTRY).clone();
    for m in registry {
        match m {
            WindowRef::Counter(c) => {
                counters.insert(c.name.to_string(), c.snap());
            }
            WindowRef::Histogram(h) => {
                histograms.insert(h.name.to_string(), h.snap());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SLOT: u64 = 1_000; // 1 µs slots -> 10 µs window, easy arithmetic

    #[test]
    fn counter_sums_within_window_and_expires_old_slots() {
        static C: WindowedCounter = WindowedCounter::new("test.window.counter", SLOT);
        C.add(2, 0); // epoch 1
        C.add(3, 999); // still epoch 1
        C.add(5, 1_000); // epoch 2
        assert_eq!(C.total(), 10);
        // Jump exactly one full window ahead of epoch 1: epoch 1 falls out,
        // epoch 2 is the oldest survivor.
        C.add(1, 10 * SLOT); // epoch 11; window = epochs 2..=11
        assert_eq!(C.total(), 6);
        // One more slot ahead: epoch 2 expires too.
        C.add(1, 11 * SLOT); // epoch 12; window = epochs 3..=12
        assert_eq!(C.total(), 2);
    }

    #[test]
    fn histogram_window_rotation_reuses_slots() {
        static H: WindowedHistogram =
            WindowedHistogram::new("test.window.hist.rotate", &[10, 100], SLOT);
        H.observe(5, 0); // epoch 1
        H.observe(50, 500); // epoch 1
        assert_eq!(H.snap().count, 2);
        // Land on the same ring slot one full revolution later: the old
        // epoch-1 contents must be gone, not merged.
        H.observe(7, 10 * SLOT); // epoch 11, slot index 11 % 10 == 1 % 10
        let snap = H.snap();
        assert_eq!(snap.count, 1);
        assert_eq!(snap.counts, vec![1, 0]);
        assert_eq!(snap.sum, 7);
    }

    #[test]
    fn straggler_older_than_ring_is_dropped() {
        static H: WindowedHistogram =
            WindowedHistogram::new("test.window.hist.straggler", &[10], SLOT);
        H.observe(1, 20 * SLOT); // epoch 21
        H.observe(1, 0); // epoch 1: same slot parity, strictly older -> drop
        let snap = H.snap();
        assert_eq!(snap.count, 1);
    }

    #[test]
    fn quantile_reports_bucket_upper_bounds() {
        static H: WindowedHistogram =
            WindowedHistogram::new("test.window.hist.quantile", &[10, 100, 1000], SLOT);
        for _ in 0..98 {
            H.observe(5, 0);
        }
        H.observe(500, 0);
        H.observe(5000, 0); // overflow
        let snap = H.snap();
        assert_eq!(snap.count, 100);
        assert_eq!(snap.quantile(0.5), 10);
        assert_eq!(snap.quantile(0.99), 1000);
        // The top percentile sits in overflow: floor at the last bound.
        assert_eq!(snap.quantile(1.0), 1000);
        assert_eq!(WindowHistogramSnapshot::default().quantile(0.99), 0);
    }

    #[test]
    fn snapshot_collects_touched_windowed_metrics() {
        static C: WindowedCounter = WindowedCounter::new("test.window.registry.c", SLOT);
        static H: WindowedHistogram = WindowedHistogram::new("test.window.registry.h", &[10], SLOT);
        C.inc(0);
        H.observe(3, 0);
        let snap = crate::metrics::snapshot();
        assert!(snap.window_counters.contains_key("test.window.registry.c"));
        let h = &snap.window_histograms["test.window.registry.h"];
        assert_eq!(h.count, 1);
        assert_eq!(h.slots, WINDOW_SLOTS as u64);
        assert_eq!(h.slot_ns, SLOT);
    }

    #[test]
    fn zero_slot_width_is_clamped_not_divided_by() {
        static C: WindowedCounter = WindowedCounter::new("test.window.zeroslot", 0);
        C.add(4, 123);
        assert_eq!(C.slot_ns(), 1);
        assert!(C.total() >= 1);
    }
}
