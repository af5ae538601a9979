//! Leveled structured events — the replacement for scattered `eprintln!`
//! warning sites.
//!
//! Library code emits an [`Event`] (usually through the `event!` macro);
//! emission appends to a bounded process-wide sink and bumps per-level
//! counters. An edge — the [`SelectionEngine`] for its `warnings()`
//! compatibility view, or the CLI for `stats` — drains the sink with
//! [`drain`]. Nothing is ever printed from library code.
//!
//! The sink is bounded ([`SINK_CAP`]): if nobody drains, the oldest events
//! drop and `obs.events.dropped` counts them, so an un-drained process
//! cannot grow without limit.
//!
//! [`SelectionEngine`]: ../../pml_core/engine/struct.SelectionEngine.html

use crate::metrics::Counter;
use std::collections::VecDeque;
use std::fmt;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Upper bound on buffered events.
pub const SINK_CAP: usize = 4096;

static EVENTS_INFO: Counter = Counter::new("obs.events.info");
static EVENTS_WARN: Counter = Counter::new("obs.events.warn");
static EVENTS_ERROR: Counter = Counter::new("obs.events.error");
static EVENTS_DROPPED: Counter = Counter::new("obs.events.dropped");

static SINK: Mutex<VecDeque<Event>> = Mutex::new(VecDeque::new());

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Event severity. `Warn` and above surface through
/// `SelectionEngine::warnings()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    Info,
    Warn,
    Error,
}

impl Level {
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One structured event: severity, a static target naming the subsystem
/// (`"cache"`, `"tuner"`, …), and a rendered message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    pub level: Level,
    pub target: &'static str,
    pub message: String,
}

impl Event {
    pub fn new(level: Level, target: &'static str, message: String) -> Self {
        Event {
            level,
            target,
            message,
        }
    }

    pub fn info(target: &'static str, message: impl Into<String>) -> Self {
        Event::new(Level::Info, target, message.into())
    }

    pub fn warn(target: &'static str, message: impl Into<String>) -> Self {
        Event::new(Level::Warn, target, message.into())
    }

    pub fn error(target: &'static str, message: impl Into<String>) -> Self {
        Event::new(Level::Error, target, message.into())
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.level, self.target, self.message)
    }
}

/// Append an event to the global sink (dropping the oldest entry at
/// capacity) and bump its level counter.
pub fn emit(ev: Event) {
    match ev.level {
        Level::Info => EVENTS_INFO.inc(),
        Level::Warn => EVENTS_WARN.inc(),
        Level::Error => EVENTS_ERROR.inc(),
    }
    let mut sink = lock(&SINK);
    if sink.len() >= SINK_CAP {
        sink.pop_front();
        EVENTS_DROPPED.inc();
    }
    sink.push_back(ev);
}

/// Take every buffered event, oldest first.
pub fn drain() -> Vec<Event> {
    lock(&SINK).drain(..).collect()
}

/// Buffered events without draining them.
pub fn buffered() -> usize {
    lock(&SINK).len()
}

/// Events dropped at [`SINK_CAP`] since process start.
pub fn dropped() -> u64 {
    EVENTS_DROPPED.get()
}

/// Sink accounting carried in every [`MetricsSnapshot`]: the per-level
/// emit counters plus buffer depth and drop count. Unlike the
/// self-registering counters (which only appear in a snapshot after
/// their first touch), this struct is *always* exported — a full,
/// never-drained sink is visible as `dropped > 0` the moment it happens,
/// not only if someone also reads the counter.
///
/// [`MetricsSnapshot`]: crate::metrics::MetricsSnapshot
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventsSnapshot {
    /// Events currently buffered (un-drained), `<=` [`SINK_CAP`].
    pub buffered: u64,
    /// Oldest-event drops forced by [`SINK_CAP`].
    pub dropped: u64,
    pub info: u64,
    pub warn: u64,
    pub error: u64,
}

/// Point-in-time copy of the sink accounting.
pub fn events_snapshot() -> EventsSnapshot {
    EventsSnapshot {
        buffered: buffered() as u64,
        dropped: EVENTS_DROPPED.get(),
        info: EVENTS_INFO.get(),
        warn: EVENTS_WARN.get(),
        error: EVENTS_ERROR.get(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The two tests that drain or overfill the process-global sink take
    /// turns: a drain in the middle of the fill left it short of the cap,
    /// and a full sink drops the other test's events.
    static SINK_TURN: std::sync::Mutex<()> = std::sync::Mutex::new(());

    // The sink is process-global and other tests in this binary may emit;
    // assertions therefore check only this test's own events, found by
    // target.
    #[test]
    fn emit_and_drain_roundtrip() {
        let _turn = SINK_TURN.lock().unwrap_or_else(|e| e.into_inner());
        emit(Event::warn("test-sink", "first"));
        emit(Event::error("test-sink", "second"));
        let drained = drain();
        let mine: Vec<&Event> = drained.iter().filter(|e| e.target == "test-sink").collect();
        assert_eq!(mine.len(), 2);
        assert_eq!(mine[0].level, Level::Warn);
        assert_eq!(mine[0].message, "first");
        assert_eq!(mine[1].level, Level::Error);
        assert!(drain().iter().all(|e| e.target != "test-sink"));
    }

    #[test]
    fn display_is_leveled() {
        let e = Event::warn("cache", "corrupt, regenerating");
        assert_eq!(e.to_string(), "[warn] cache: corrupt, regenerating");
    }

    #[test]
    fn level_ordering() {
        assert!(Level::Info < Level::Warn);
        assert!(Level::Warn < Level::Error);
    }

    /// Fill the sink past `SINK_CAP`: the overflow must surface as a
    /// visible drop count in the metrics snapshot, and the buffer must
    /// stay bounded. Deltas, not absolutes — other tests in this binary
    /// share the global sink.
    #[test]
    fn overflow_past_sink_cap_is_counted_and_exported() {
        let _turn = SINK_TURN.lock().unwrap_or_else(|e| e.into_inner());
        let dropped_before = dropped();
        const EXTRA: usize = 37;
        for i in 0..SINK_CAP + EXTRA {
            emit(Event::info("test-overflow", format!("event {i}")));
        }
        assert!(buffered() <= SINK_CAP, "sink grew past SINK_CAP");
        let newly_dropped = dropped() - dropped_before;
        assert!(
            newly_dropped >= EXTRA as u64,
            "expected >= {EXTRA} drops, saw {newly_dropped}"
        );
        // The drop count is visible in the snapshot both as the regular
        // counter and in the always-present events section. (Other tests
        // may emit concurrently, so lower-bound rather than pin.)
        let floor = dropped_before + EXTRA as u64;
        let snap = crate::metrics::snapshot();
        assert!(*snap.counters.get("obs.events.dropped").unwrap_or(&0) >= floor);
        assert!(snap.events.dropped >= floor);
        assert!(snap.events.buffered <= SINK_CAP as u64);
        drain();
    }
}
