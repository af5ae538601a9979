//! Request-level stage attribution: windowed per-stage latency
//! histograms, a slow-request ring, and the trace record each request
//! carries through its lifecycle.
//!
//! Every request the daemon accepts gets a monotonic id and (when request
//! tracing is on) a [`RequestTrace`] that timestamps its way through
//!
//! ```text
//! accept → parse → [select | queue-wait → batch-assembly → predict]
//!        → serialize → reply
//! ```
//!
//! Each stage duration is recorded twice: into the matching
//! [`WindowedHistogram`] (so `watch` can answer "queue-wait p99 over the
//! last 10 s") and into the trace's own stage list. When the request's
//! total latency crosses the configured slow threshold, the whole stage
//! breakdown lands in the bounded [`SlowRing`] for post-hoc inspection —
//! the daemon's flight recorder for tail requests.
//!
//! Everything here is strictly write-only telemetry: nothing feeds back
//! into parsing, selection, or batching, preserving the invariant that
//! observability never perturbs an answer.

use pml_obs::{WindowedCounter, WindowedHistogram, DEFAULT_SLOT_NS, LATENCY_NS_BOUNDS};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Lifecycle stage names, in request order. The `watch` snapshot walks
/// this list so clients see stages in pipeline order, not alphabetical.
pub const STAGE_NAMES: [&str; 8] = [
    "parse",
    "select",
    "queue_wait",
    "batch_assembly",
    "predict",
    "serialize",
    "reply",
    "total",
];

/// Time spent parsing the request frame.
pub static STAGE_PARSE: WindowedHistogram =
    WindowedHistogram::new("serve.stage.parse_ns", &LATENCY_NS_BOUNDS, DEFAULT_SLOT_NS);
/// Memoized tuning-table lookup (the `select` op's entire work).
pub static STAGE_SELECT: WindowedHistogram =
    WindowedHistogram::new("serve.stage.select_ns", &LATENCY_NS_BOUNDS, DEFAULT_SLOT_NS);
/// `predict` only: queued → the batch worker dequeued the item. In a
/// pipelined burst this includes the time the connection spends parsing
/// and queueing the burst's later frames before it waits for any answer, so
/// the stages of such a request add up to more than its share of the burst.
pub static STAGE_QUEUE_WAIT: WindowedHistogram = WindowedHistogram::new(
    "serve.stage.queue_wait_ns",
    &LATENCY_NS_BOUNDS,
    DEFAULT_SLOT_NS,
);
/// `predict` only: dequeue → the batch window closed and flushed.
pub static STAGE_BATCH_ASSEMBLY: WindowedHistogram = WindowedHistogram::new(
    "serve.stage.batch_assembly_ns",
    &LATENCY_NS_BOUNDS,
    DEFAULT_SLOT_NS,
);
/// `predict` only: an equal share of the one batched forest inference that
/// answered the request's (collective, cluster) group.
pub static STAGE_PREDICT: WindowedHistogram = WindowedHistogram::new(
    "serve.stage.predict_ns",
    &LATENCY_NS_BOUNDS,
    DEFAULT_SLOT_NS,
);
/// Rendering the reply frame.
pub static STAGE_SERIALIZE: WindowedHistogram = WindowedHistogram::new(
    "serve.stage.serialize_ns",
    &LATENCY_NS_BOUNDS,
    DEFAULT_SLOT_NS,
);
/// Writing the reply to the socket: an equal share of the one write that
/// carried it.
pub static STAGE_REPLY: WindowedHistogram =
    WindowedHistogram::new("serve.stage.reply_ns", &LATENCY_NS_BOUNDS, DEFAULT_SLOT_NS);
/// End-to-end daemon-side latency: frame taken from the read buffer → the
/// write carrying its reply returned. Its live-window count is the number
/// of requests finished within the window.
pub static REQUEST_TOTAL: WindowedHistogram = WindowedHistogram::new(
    "serve.request.total_ns",
    &LATENCY_NS_BOUNDS,
    DEFAULT_SLOT_NS,
);

/// Error replies within the live window.
pub static WINDOW_ERRORS: WindowedCounter =
    WindowedCounter::new("serve.window.errors", DEFAULT_SLOT_NS);
/// Requests whose total latency exceeded the SLO p50 target.
pub static WINDOW_OVER_P50: WindowedCounter =
    WindowedCounter::new("serve.window.slo_over_p50", DEFAULT_SLOT_NS);
/// Requests whose total latency exceeded the SLO p99 target.
pub static WINDOW_OVER_P99: WindowedCounter =
    WindowedCounter::new("serve.window.slo_over_p99", DEFAULT_SLOT_NS);

/// The windowed histogram for a stage name, for `watch` rendering.
pub fn stage_histogram(name: &str) -> Option<&'static WindowedHistogram> {
    match name {
        "parse" => Some(&STAGE_PARSE),
        "select" => Some(&STAGE_SELECT),
        "queue_wait" => Some(&STAGE_QUEUE_WAIT),
        "batch_assembly" => Some(&STAGE_BATCH_ASSEMBLY),
        "predict" => Some(&STAGE_PREDICT),
        "serialize" => Some(&STAGE_SERIALIZE),
        "reply" => Some(&STAGE_REPLY),
        "total" => Some(&REQUEST_TOTAL),
        _ => None,
    }
}

/// One in-flight request's attribution record: its monotonic id, the
/// clock reading when its frame arrived, and the stage durations
/// collected so far. Only exists when request tracing is enabled. The
/// stages sit inline — no request runs through more than
/// [`STAGE_NAMES`] has entries — so tracing allocates nothing.
#[derive(Debug, Clone)]
pub struct RequestTrace {
    pub id: u64,
    /// Op label, known after parse (`"select"`, `"predict"`, …).
    pub op: &'static str,
    /// Clock reading when the frame was taken from the read buffer.
    pub started_ns: u64,
    stages: [(&'static str, u64); STAGE_NAMES.len()],
    len: usize,
}

impl RequestTrace {
    pub fn new(id: u64, started_ns: u64) -> Self {
        RequestTrace {
            id,
            op: "?",
            started_ns,
            stages: [("", 0); STAGE_NAMES.len()],
            len: 0,
        }
    }

    /// `(stage name, duration)` pairs in the order they completed.
    pub fn stages(&self) -> &[(&'static str, u64)] {
        self.stages.get(..self.len).unwrap_or(&[])
    }

    /// Record one completed stage: into the trace (for the slow ring) and
    /// into the stage's windowed histogram (for `watch`). `now_nanos` is
    /// the clock reading at stage end.
    pub fn stage(&mut self, name: &'static str, dur_ns: u64, now_nanos: u64) {
        if let Some(h) = stage_histogram(name) {
            h.observe(dur_ns, now_nanos);
        }
        self.push(name, dur_ns);
    }

    /// Record a stage into the trace only: one measured elsewhere and
    /// already in its histogram, or the total.
    pub fn push(&mut self, name: &'static str, dur_ns: u64) {
        if let Some(slot) = self.stages.get_mut(self.len) {
            *slot = (name, dur_ns);
            self.len += 1;
        }
    }
}

/// One daemon's request and error-reply counts, for `stats`. The request
/// count doubles as the source of request ids (distinct from client frame
/// ids). Statistics that order nothing, hence `Relaxed`.
#[derive(Debug, Default)]
pub struct RequestCounts {
    requests: AtomicU64,
    errors: AtomicU64,
}

impl RequestCounts {
    /// Count one accepted frame and return its id (1-based).
    pub fn next_id(&self) -> u64 {
        self.requests.fetch_add(1, Ordering::Relaxed) + 1
    }

    pub fn error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// (requests, errors) so far.
    pub fn get(&self) -> (u64, u64) {
        (
            self.requests.load(Ordering::Relaxed),
            self.errors.load(Ordering::Relaxed),
        )
    }
}

/// A slow request captured with its full stage breakdown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowRequest {
    pub id: u64,
    pub op: &'static str,
    pub total_ns: u64,
    pub stages: Vec<(&'static str, u64)>,
}

/// Capacity of the slow-request ring: enough recent tail requests to
/// debug a latency regression, small enough to never matter for memory.
pub const SLOW_RING_CAP: usize = 64;

/// Bounded ring of the most recent slow requests (newest kept, oldest
/// evicted). `captured` counts every capture ever, so eviction is
/// visible as `captured > len`.
#[derive(Debug, Default)]
pub struct SlowRing {
    entries: Mutex<VecDeque<SlowRequest>>,
    captured: AtomicU64,
}

/// Lock `m`, taking the guard back from a thread that panicked holding it.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl SlowRing {
    pub fn push(&self, slow: SlowRequest) {
        self.captured.fetch_add(1, Ordering::Relaxed);
        let mut entries = lock(&self.entries);
        if entries.len() >= SLOW_RING_CAP {
            entries.pop_front();
        }
        entries.push_back(slow);
    }

    /// Slow requests captured since boot (including evicted ones).
    pub fn captured(&self) -> u64 {
        self.captured.load(Ordering::Relaxed)
    }

    /// The `n` most recent captures, newest first.
    pub fn recent(&self, n: usize) -> Vec<SlowRequest> {
        lock(&self.entries).iter().rev().take(n).cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slow(id: u64, total_ns: u64) -> SlowRequest {
        SlowRequest {
            id,
            op: "select",
            total_ns,
            stages: vec![("parse", 10), ("select", total_ns - 10)],
        }
    }

    #[test]
    fn slow_ring_is_bounded_and_newest_first() {
        let ring = SlowRing::default();
        for i in 0..(SLOW_RING_CAP as u64 + 10) {
            ring.push(slow(i, 1_000 + i));
        }
        assert_eq!(ring.captured(), SLOW_RING_CAP as u64 + 10);
        let recent = ring.recent(3);
        assert_eq!(recent.len(), 3);
        assert_eq!(recent[0].id, SLOW_RING_CAP as u64 + 9);
        assert_eq!(recent[1].id, SLOW_RING_CAP as u64 + 8);
        // Full drain never exceeds the cap.
        assert_eq!(ring.recent(usize::MAX).len(), SLOW_RING_CAP);
    }

    #[test]
    fn trace_records_stages_into_windowed_histograms() {
        let mut tr = RequestTrace::new(7, 100);
        tr.op = "select";
        tr.stage("parse", 250, 400);
        tr.stage("select", 1_000, 1_500);
        assert_eq!(tr.stages(), [("parse", 250), ("select", 1_000)]);
        assert!(STAGE_PARSE.snap().count >= 1);
        assert!(STAGE_SELECT.snap().count >= 1);
    }

    #[test]
    fn every_stage_name_has_a_histogram() {
        for name in STAGE_NAMES {
            assert!(stage_histogram(name).is_some(), "no histogram for {name}");
        }
        assert!(stage_histogram("nope").is_none());
    }
}
