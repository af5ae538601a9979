//! JSON export of metrics snapshots and span aggregates — the payload
//! behind `--metrics-out`.
//!
//! Rendering is hand-rolled (this crate takes no dependencies): metric
//! names are the only strings that need escaping, and all values are
//! unsigned integers. Maps come from `BTreeMap`s, so key order — and
//! therefore the whole document — is deterministic for a given snapshot.
//!
//! Schema `pml-obs/v3`: the metric count, one object per metric kind
//! keyed by metric name, and the span aggregates when a [`SpanForest`] is
//! supplied (tracing was enabled for the run). Every histogram, since-boot
//! or windowed, carries the same five bucket fields; a windowed one adds
//! its ring shape and bucket-bound `p50`/`p99`:
//!
//! ```json
//! {
//!   "schema": "pml-obs/v3",
//!   "metrics_total": 12,
//!   "counters": {"tuner.cache.hit": 3},
//!   "gauges": {"train.model.features": 5},
//!   "histograms": {
//!     "table.fallback.depth": {
//!       "bounds": [0, 1, 2, 3],
//!       "counts": [10, 2, 0, 1],
//!       "overflow": 0, "sum": 5, "count": 13
//!     }
//!   },
//!   "window_counters": {
//!     "serve.window.errors": {"slot_ns": 1000000000, "slots": 10, "total": 2}
//!   },
//!   "window_histograms": {
//!     "serve.stage.predict_ns": {
//!       "slot_ns": 1000000000, "slots": 10,
//!       "bounds": [250, 500], "counts": [3, 1],
//!       "overflow": 0, "sum": 1350, "count": 4, "p50": 250, "p99": 500
//!     }
//!   },
//!   "spans": [
//!     {"name": "table", "count": 1, "total_ns": 52000, "self_ns": 1000}
//!   ]
//! }
//! ```

use crate::metrics::{HistogramSnapshot, MetricsSnapshot};
use crate::trace::SpanForest;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Escape a string for a JSON string literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).ok();
            }
            c => out.push(c),
        }
    }
    out
}

fn write_u64_list(out: &mut String, values: &[u64]) {
    out.push('[');
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write!(out, "{v}").ok();
    }
    out.push(']');
}

/// One metric kind's object: `,`, then `"<kind>": {` with one
/// `"<name>": <value>` line per metric, rendered by `value`.
fn section<V>(
    out: &mut String,
    kind: &str,
    metrics: &BTreeMap<String, V>,
    value: impl Fn(&mut String, &V),
) {
    write!(out, ",\n  \"{kind}\": {{").ok();
    for (i, (name, v)) in metrics.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        write!(out, "{sep}\n    \"{}\": ", escape(name)).ok();
        value(out, v);
    }
    if !metrics.is_empty() {
        out.push_str("\n  ");
    }
    out.push('}');
}

/// The bucket fields every histogram carries.
fn histogram_body(out: &mut String, h: &HistogramSnapshot) {
    out.push_str("\"bounds\": ");
    write_u64_list(out, &h.bounds);
    out.push_str(", \"counts\": ");
    write_u64_list(out, &h.counts);
    write!(
        out,
        ", \"overflow\": {}, \"sum\": {}, \"count\": {}",
        h.overflow, h.sum, h.count
    )
    .ok();
}

/// Render a metrics snapshot (and optional span aggregates) as the
/// `pml-obs/v3` JSON document.
pub fn metrics_json(snapshot: &MetricsSnapshot, spans: Option<&SpanForest>) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"pml-obs/v3\",\n");
    write!(out, "  \"metrics_total\": {}", snapshot.total_metrics()).ok();
    section(&mut out, "counters", &snapshot.counters, |out, v| {
        write!(out, "{v}").ok();
    });
    section(&mut out, "gauges", &snapshot.gauges, |out, v| {
        write!(out, "{v}").ok();
    });
    section(&mut out, "histograms", &snapshot.histograms, |out, h| {
        out.push('{');
        histogram_body(out, h);
        out.push('}');
    });
    section(
        &mut out,
        "window_counters",
        &snapshot.window_counters,
        |out, w| {
            let (slot_ns, slots, total) = (w.slot_ns, w.slots, w.total);
            write!(
                out,
                "{{\"slot_ns\": {slot_ns}, \"slots\": {slots}, \"total\": {total}}}"
            )
            .ok();
        },
    );
    section(
        &mut out,
        "window_histograms",
        &snapshot.window_histograms,
        |out, w| {
            write!(
                out,
                "{{\"slot_ns\": {}, \"slots\": {}, ",
                w.slot_ns, w.slots
            )
            .ok();
            histogram_body(out, w);
            let (p50, p99) = (w.quantile(0.5), w.quantile(0.99));
            write!(out, ", \"p50\": {p50}, \"p99\": {p99}}}").ok();
        },
    );

    if let Some(forest) = spans {
        out.push_str(",\n  \"spans\": [");
        for (i, (name, stats)) in forest.aggregate().iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            write!(
                out,
                "{sep}\n    {{\"name\": \"{}\", \"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                escape(name),
                stats.count,
                stats.total_nanos,
                stats.self_nanos
            )
            .ok();
        }
        if !forest.is_empty() {
            out.push_str("\n  ");
        }
        out.push(']');
    }

    out.push_str("\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{HistogramSnapshot, MetricsSnapshot};
    use crate::trace::{SpanForest, SpanRecord};
    use crate::window::{WindowCounterSnapshot, WindowHistogramSnapshot};

    fn get<'a>(v: &'a serde_json::JsonValue, key: &str) -> &'a serde_json::JsonValue {
        v.get(key).unwrap_or_else(|| panic!("missing key `{key}`"))
    }

    fn u(v: &serde_json::JsonValue, field: &str) -> u64 {
        get(v, field)
            .as_u64()
            .unwrap_or_else(|| panic!("{field} u64"))
    }

    /// The five bucket fields of an exported histogram, either kind.
    fn histogram(h: &serde_json::JsonValue) -> HistogramSnapshot {
        let nums = |field: &str| -> Vec<u64> {
            get(h, field)
                .as_array()
                .expect("array")
                .iter()
                .map(|x| x.as_u64().expect("u64"))
                .collect()
        };
        HistogramSnapshot {
            bounds: nums("bounds"),
            counts: nums("counts"),
            overflow: u(h, "overflow"),
            sum: u(h, "sum"),
            count: u(h, "count"),
        }
    }

    fn sample_snapshot() -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        snap.counters.insert("tuner.cache.hit".into(), 3);
        snap.counters.insert("tuner.cache.miss".into(), 1);
        snap.gauges.insert("train.model.features".into(), 5);
        snap.histograms.insert(
            "table.fallback.depth".into(),
            HistogramSnapshot {
                bounds: vec![0, 1, 2, 3],
                counts: vec![10, 2, 0, 1],
                overflow: 0,
                sum: 5,
                count: 13,
            },
        );
        snap.window_counters.insert(
            "serve.window.errors".into(),
            WindowCounterSnapshot {
                slot_ns: 1_000_000_000,
                slots: 10,
                total: 412,
            },
        );
        snap.window_histograms.insert(
            "serve.stage.predict_ns".into(),
            WindowHistogramSnapshot {
                slot_ns: 1_000_000_000,
                slots: 10,
                histogram: HistogramSnapshot {
                    bounds: vec![250, 500],
                    counts: vec![3, 1],
                    overflow: 0,
                    sum: 1350,
                    count: 4,
                },
            },
        );
        snap
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("plain.name"), "plain.name");
    }

    /// Schema round-trip: render → parse with serde_json → rebuild the
    /// snapshot → equal. Guards both JSON validity and field fidelity.
    #[test]
    fn metrics_json_roundtrips_through_serde() {
        let snap = sample_snapshot();
        let json = metrics_json(&snap, None);
        let v: serde_json::JsonValue = serde_json::from_str(&json).expect("valid JSON");
        assert_eq!(get(&v, "schema").as_str(), Some("pml-obs/v3"));
        assert_eq!(get(&v, "metrics_total").as_u64(), Some(6));
        assert!(v.get("events").is_none());

        let mut back = MetricsSnapshot::default();
        for (k, val) in get(&v, "counters").as_object().expect("counters object") {
            back.counters
                .insert(k.clone(), val.as_u64().expect("counter u64"));
        }
        for (k, val) in get(&v, "gauges").as_object().expect("gauges object") {
            back.gauges
                .insert(k.clone(), val.as_u64().expect("gauge u64"));
        }
        for (k, h) in get(&v, "histograms")
            .as_object()
            .expect("histograms object")
        {
            back.histograms.insert(k.clone(), histogram(h));
        }
        for (k, w) in get(&v, "window_counters")
            .as_object()
            .expect("window_counters object")
        {
            back.window_counters.insert(
                k.clone(),
                WindowCounterSnapshot {
                    slot_ns: u(w, "slot_ns"),
                    slots: u(w, "slots"),
                    total: u(w, "total"),
                },
            );
        }
        for (k, w) in get(&v, "window_histograms")
            .as_object()
            .expect("window_histograms object")
        {
            // The exported p50/p99 are derived, not state: they must agree
            // with a recomputation from the buckets.
            let rebuilt = WindowHistogramSnapshot {
                slot_ns: u(w, "slot_ns"),
                slots: u(w, "slots"),
                histogram: histogram(w),
            };
            assert_eq!(u(w, "p50"), rebuilt.quantile(0.5));
            assert_eq!(u(w, "p99"), rebuilt.quantile(0.99));
            back.window_histograms.insert(k.clone(), rebuilt);
        }
        assert_eq!(back, snap);
    }

    #[test]
    fn span_section_appears_only_with_a_forest() {
        let snap = sample_snapshot();
        assert!(!metrics_json(&snap, None).contains("\"spans\""));

        let forest = SpanForest::from_records(vec![
            SpanRecord {
                id: 1,
                parent: None,
                name: "table",
                fields: vec![],
                start_nanos: 0,
                end_nanos: 100,
            },
            SpanRecord {
                id: 2,
                parent: Some(1),
                name: "train",
                fields: vec![],
                start_nanos: 10,
                end_nanos: 60,
            },
        ]);
        let json = metrics_json(&snap, Some(&forest));
        let v: serde_json::JsonValue = serde_json::from_str(&json).expect("valid JSON");
        let spans = get(&v, "spans").as_array().expect("spans array");
        assert_eq!(spans.len(), 2);
        let table = spans
            .iter()
            .find(|s| get(s, "name").as_str() == Some("table"))
            .expect("table");
        assert_eq!(get(table, "total_ns").as_u64(), Some(100));
        assert_eq!(get(table, "self_ns").as_u64(), Some(50));
    }

    #[test]
    fn empty_snapshot_is_valid_json() {
        let json = metrics_json(&MetricsSnapshot::default(), None);
        let v: serde_json::JsonValue = serde_json::from_str(&json).expect("valid JSON");
        assert_eq!(get(&v, "metrics_total").as_u64(), Some(0));
        assert!(get(&v, "counters").as_object().expect("obj").is_empty());
    }
}
