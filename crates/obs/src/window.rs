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
//! are `const`-constructible `static` items that join the one registry on
//! first touch and appear in [`crate::metrics::snapshot`] under
//! `window_counters` / `window_histograms`. A windowed histogram's slots
//! are the since-boot histogram's bucket store, so both bucket the same
//! way and snapshot into the same [`HistogramSnapshot`] shape.

use crate::metrics::{capped, register, Buckets, HistogramSnapshot, MetricRef};
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Number of ring slots per windowed metric. With the default 1-second
/// slot width this yields a 10-second live window.
pub const WINDOW_SLOTS: usize = 10;

/// Default slot width: 1 second, so the default window spans 10 s.
pub const DEFAULT_SLOT_NS: u64 = 1_000_000_000;

/// The ring both windowed kinds keep: [`WINDOW_SLOTS`] slots of `S`, each
/// stamped with the epoch it covers (`0` = never written), and the newest
/// epoch written.
#[derive(Debug)]
struct Ring<S> {
    slot_ns: u64,
    slots: [(AtomicU64, S); WINDOW_SLOTS],
    last_epoch: AtomicU64,
}

impl<S> Ring<S> {
    const fn new(slot_ns: u64, slots: [(AtomicU64, S); WINDOW_SLOTS]) -> Self {
        Ring {
            slot_ns,
            slots,
            last_epoch: AtomicU64::new(0),
        }
    }

    /// Width of one ring slot in nanoseconds (a zero width counts as 1).
    fn slot_ns(&self) -> u64 {
        self.slot_ns.max(1)
    }

    /// The slot for clock reading `now_nanos`, rotated forward to its epoch
    /// (emptied by `clear`) if it held an older one. `None` for a straggler
    /// older than the slot's current tenant: it is dropped rather than
    /// pollute a newer epoch.
    ///
    /// The rotation is not atomic with respect to concurrent writers: an
    /// observation racing the emptying thread can be lost. Windowed metrics
    /// are load-shedding telemetry, not ledgers, so a lost sample at a
    /// rotation edge is acceptable; the deterministic tests drive rotations
    /// single-threaded where the race cannot occur.
    fn slot(&self, now_nanos: u64, clear: impl FnOnce(&S)) -> Option<&S> {
        // `+ 1` keeps epoch 0 free as the "never written" stamp.
        let epoch = now_nanos / self.slot_ns() + 1;
        let (stamp, data) = &self.slots[(epoch % WINDOW_SLOTS as u64) as usize];
        let cur = stamp.load(Ordering::Relaxed);
        if cur < epoch
            && stamp
                .compare_exchange(cur, epoch, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        {
            clear(data);
        }
        // Whoever rotated, the slot is ours only if it now holds `epoch`.
        if stamp.load(Ordering::Relaxed) != epoch {
            return None;
        }
        if self.last_epoch.load(Ordering::Relaxed) < epoch {
            self.last_epoch.fetch_max(epoch, Ordering::Relaxed);
        }
        Some(data)
    }

    /// The slots of the live window: the [`WINDOW_SLOTS`] epochs ending at
    /// the newest one written. Clock-free, so identical observation
    /// sequences yield identical windows.
    fn live(&self) -> impl Iterator<Item = &S> {
        let last = self.last_epoch.load(Ordering::Relaxed);
        let low = last.saturating_sub(WINDOW_SLOTS as u64 - 1).max(1);
        self.slots
            .iter()
            .filter(move |(stamp, _)| (low..=last).contains(&stamp.load(Ordering::Relaxed)))
            .map(|(_, data)| data)
    }
}

/// A counter over a sliding window: `total()` sums only the last
/// [`WINDOW_SLOTS`] epochs, anchored at the newest observation.
#[derive(Debug)]
pub struct WindowedCounter {
    name: &'static str,
    ring: Ring<AtomicU64>,
    registered: AtomicBool,
}

impl WindowedCounter {
    pub const fn new(name: &'static str, slot_ns: u64) -> Self {
        WindowedCounter {
            name,
            ring: Ring::new(
                slot_ns,
                [const { (AtomicU64::new(0), AtomicU64::new(0)) }; WINDOW_SLOTS],
            ),
            registered: AtomicBool::new(false),
        }
    }

    pub fn name(&self) -> &'static str {
        self.name
    }

    pub fn inc(&'static self, now_nanos: u64) {
        self.add(1, now_nanos);
    }

    /// Record `n` at clock reading `now_nanos` (from an injected
    /// [`Clock`](crate::clock::Clock) — this type never reads time).
    pub fn add(&'static self, n: u64, now_nanos: u64) {
        register(&self.registered, MetricRef::WindowedCounter(self));
        if let Some(value) = self.ring.slot(now_nanos, |v| v.store(0, Ordering::Relaxed)) {
            value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Sum over the live window.
    pub fn total(&self) -> u64 {
        self.ring.live().map(|v| v.load(Ordering::Relaxed)).sum()
    }

    /// Point-in-time copy for snapshots.
    pub fn snap(&self) -> WindowCounterSnapshot {
        WindowCounterSnapshot {
            slot_ns: self.ring.slot_ns(),
            slots: WINDOW_SLOTS as u64,
            total: self.total(),
        }
    }
}

/// A fixed-bucket histogram over a sliding window, bucketing exactly like
/// [`crate::metrics::Histogram`].
#[derive(Debug)]
pub struct WindowedHistogram {
    name: &'static str,
    bounds: &'static [u64],
    ring: Ring<Buckets>,
    registered: AtomicBool,
}

impl WindowedHistogram {
    pub const fn new(name: &'static str, bounds: &'static [u64], slot_ns: u64) -> Self {
        WindowedHistogram {
            name,
            bounds: capped(bounds),
            ring: Ring::new(
                slot_ns,
                [const { (AtomicU64::new(0), Buckets::new()) }; WINDOW_SLOTS],
            ),
            registered: AtomicBool::new(false),
        }
    }

    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The finite bucket bounds in use (capped at
    /// [`MAX_BUCKETS`](crate::metrics::MAX_BUCKETS)).
    pub fn bounds(&self) -> &'static [u64] {
        self.bounds
    }

    /// Total clock time the live window spans.
    pub fn window_ns(&self) -> u64 {
        self.ring.slot_ns().saturating_mul(WINDOW_SLOTS as u64)
    }

    /// Record `value` at clock reading `now_nanos` (from an injected
    /// [`Clock`](crate::clock::Clock) — this type never reads time).
    pub fn observe(&'static self, value: u64, now_nanos: u64) {
        register(&self.registered, MetricRef::WindowedHistogram(self));
        if let Some(buckets) = self.ring.slot(now_nanos, Buckets::clear) {
            buckets.record(self.bounds, value);
        }
    }

    /// Aggregate the live window into a snapshot.
    pub fn snap(&self) -> WindowHistogramSnapshot {
        let mut histogram = HistogramSnapshot::empty(self.bounds);
        for buckets in self.ring.live() {
            buckets.add_to(&mut histogram);
        }
        WindowHistogramSnapshot {
            slot_ns: self.ring.slot_ns(),
            slots: WINDOW_SLOTS as u64,
            histogram,
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

/// Point-in-time copy of one windowed histogram: the ring's shape and the
/// live window's buckets. It derefs to those buckets, so `count`, `sum`
/// and `quantile` read as on a since-boot [`HistogramSnapshot`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WindowHistogramSnapshot {
    /// Width of one ring slot in nanoseconds.
    pub slot_ns: u64,
    /// Number of ring slots (the window spans `slot_ns * slots`).
    pub slots: u64,
    pub histogram: HistogramSnapshot,
}

impl Deref for WindowHistogramSnapshot {
    type Target = HistogramSnapshot;

    fn deref(&self) -> &HistogramSnapshot {
        &self.histogram
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
        assert_eq!(C.snap().slot_ns, 1);
        assert!(C.total() >= 1);
    }
}
