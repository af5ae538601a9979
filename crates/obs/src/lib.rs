//! # pml-obs
//!
//! Zero-dependency observability for the selection stack: structured
//! tracing and one metrics registry.
//!
//! The paper's headline claim is an *overhead* argument (constant-time
//! inference vs. core-hours of micro-benchmarking), so the reproduction
//! needs to observe its own costs. This crate is the hook layer every
//! other crate links:
//!
//! * [`clock`] — the injected [`clock::Clock`] trait. Library code never
//!   reads the wall clock directly: timing flows through a clock handed in
//!   at the edge ([`clock::MonotonicClock`] in the CLI, a deterministic
//!   [`clock::FakeClock`] in tests), so artifacts stay byte-identical
//!   whether observability is on or off.
//! * [`trace`] — the span API. `span!("train", collective = c)` opens a
//!   timed span on the global [`trace::Tracer`]; finished spans collect
//!   into a tree rendered with self/total times ([`trace::SpanForest`]).
//!   Tracing is off by default and every disabled span is one atomic load.
//! * [`metrics`] — named counters, gauges, and fixed-bucket histograms as
//!   `static` items ([`metrics::Counter::new`] is `const`), registered
//!   into the one process-wide registry on first touch and exported as a
//!   sorted [`metrics::MetricsSnapshot`].
//! * [`window`] — windowed live metrics ([`window::WindowedCounter`],
//!   [`window::WindowedHistogram`]): a ring of epoch-stamped slots rotated
//!   by caller-supplied clock readings, so the serve daemon can answer
//!   "p99 over the last 10 s" deterministically under a `FakeClock`. They
//!   join the same registry, and a windowed histogram's slots are the
//!   since-boot histogram's bucket store.
//! * [`export`] — hand-rolled JSON rendering of the metrics snapshot and
//!   aggregated span stats (`--metrics-out`, schema `pml-obs/v3`); no
//!   serde, no dependencies.
//!
//! Diagnostics are not metrics: a damaged dataset cache, say, is reported
//! as a warning string on the value that met it (`CacheLoad::warnings` in
//! `pml-clusters`), and the caller prints it.
//!
//! Nothing in this crate feeds back into computation: metrics and spans
//! are strictly write-only from the pipeline's point of view, which is
//! what makes the byte-identical-artifacts guarantee (enforced by the
//! `obs-determinism` CI lane) hold by construction.

pub mod clock;
pub mod export;
pub mod metrics;
pub mod trace;
pub mod window;

pub use clock::{Clock, FakeClock, MonotonicClock, NullClock};
pub use export::metrics_json;
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot, LATENCY_NS_BOUNDS, SIZE_BOUNDS,
};
pub use trace::{tracer, SpanForest, SpanGuard, SpanNode, SpanRecord, Tracer};
pub use window::{
    WindowCounterSnapshot, WindowHistogramSnapshot, WindowedCounter, WindowedHistogram,
    DEFAULT_SLOT_NS, WINDOW_SLOTS,
};

/// Open a timed span on the global tracer. Returns a guard; the span ends
/// when the guard drops, so bind it: `let _span = span!("train");`.
///
/// Fields are `key = value` pairs rendered with `Display`; they are only
/// formatted when tracing is enabled, so a disabled span costs one atomic
/// load and no allocation.
///
/// ```
/// let _span = pml_obs::span!("train", collective = "allgather", rows = 9216);
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr $(, $key:ident = $value:expr)* $(,)?) => {{
        #[allow(unused_mut)]
        let mut __pml_obs_guard = $crate::trace::tracer().span($name);
        $(
            if __pml_obs_guard.is_enabled() {
                __pml_obs_guard.record_field(stringify!($key), format!("{}", $value));
            }
        )*
        __pml_obs_guard
    }};
}
