//! The `watch` payload, both ends of it. The daemon builds each tick from
//! its live state ([`tick`], and the `stats` reply beside it); a client
//! reads frames off the socket ([`frames`], [`parse_tick`], [`stages`])
//! and renders a tick for a terminal ([`render`]). The payload's field
//! names live here only.

use crate::client::Client;
use crate::protocol::{collective_wire_name, encode_request, Op, Request};
use crate::reqtrace::{
    stage_histogram, REQUEST_TOTAL, SLOW_RING_CAP, STAGE_NAMES, WINDOW_ERRORS, WINDOW_OVER_P50,
    WINDOW_OVER_P99,
};
use crate::server::Shared;
use pml_collectives::Collective;
use serde::Value;
use std::fmt::Write as _;
use std::path::Path;

/// Object fields, in order, from `&'static str` keys.
fn fields(pairs: Vec<(&str, Value)>) -> Vec<(String, Value)> {
    pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
}

fn object(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(fields(pairs))
}

/// The `stats` reply past the envelope: counters and what is loaded.
pub(crate) fn stats(shared: &Shared) -> Vec<(String, Value)> {
    let (requests, errors) = shared.counts.get();
    let names = |cs: &[Collective]| {
        let names = cs
            .iter()
            .map(|c| Value::Str(collective_wire_name(*c).to_string()));
        Value::Array(names.collect())
    };
    fields(vec![
        ("requests", Value::UInt(requests)),
        ("errors", Value::UInt(errors)),
        ("tables", names(&shared.tuner.covered())),
        ("models", names(&shared.model_coverage)),
        ("trace_requests", Value::Bool(shared.trace_requests)),
        ("slow_captured", Value::UInt(shared.slow_ring.captured())),
    ])
}

/// Tick `seq` of a `watch` stream past the envelope: windowed per-stage
/// latency quantiles, SLO burn rate, the quality monitor's per-cell
/// verdicts, and the most recent slow requests.
pub(crate) fn tick(shared: &Shared, seq: u64) -> Vec<(String, Value)> {
    let window = STAGE_NAMES.iter().filter_map(|name| {
        let snap = stage_histogram(name)?.snap();
        let stage = object(vec![
            ("count", Value::UInt(snap.count)),
            ("p50_ns", Value::UInt(snap.quantile(0.5))),
            ("p99_ns", Value::UInt(snap.quantile(0.99))),
        ]);
        Some((name.to_string(), stage))
    });
    let requests = REQUEST_TOTAL.snap().count;
    let slo = shared.slo.as_ref().map_or(Value::Null, |t| {
        let (over_p50, over_p99) = (WINDOW_OVER_P50.total(), WINDOW_OVER_P99.total());
        object(vec![
            ("source", Value::Str(t.source.clone())),
            ("target_p50_ns", Value::UInt(t.p50_ns)),
            ("target_p99_ns", Value::UInt(t.p99_ns)),
            ("error_budget", Value::Float(t.error_budget)),
            ("over_p50", Value::UInt(over_p50)),
            ("over_p99", Value::UInt(over_p99)),
            ("burn_rate", Value::Float(t.burn_rate(over_p99, requests))),
        ])
    });
    let quality = shared.quality.as_ref().map_or(Value::Null, |q| {
        let cells = q.cells().into_iter().map(|((collective, cluster), c)| {
            let fallback = c.fallback.iter().map(|&n| Value::UInt(n)).collect();
            object(vec![
                ("collective", Value::Str(collective)),
                ("cluster", Value::Str(cluster)),
                ("samples", Value::UInt(c.samples)),
                ("scored", Value::UInt(c.scored)),
                ("unscored", Value::UInt(c.unscored)),
                ("agreements", Value::UInt(c.agreements)),
                ("agreement_rate", Value::Float(c.agreement_rate())),
                ("mean_cost_gap", Value::Float(c.mean_cost_gap())),
                ("fallback", Value::Array(fallback)),
            ])
        });
        object(vec![
            ("sample_every", Value::UInt(q.every())),
            ("seen", Value::UInt(q.seen())),
            ("dropped", Value::UInt(q.dropped())),
            ("cells", Value::Array(cells.collect())),
        ])
    });
    let recent = shared.slow_ring.recent(5).into_iter().map(|s| {
        let stages = s
            .stages
            .iter()
            .map(|&(n, d)| (n.to_string(), Value::UInt(d)));
        object(vec![
            ("id", Value::UInt(s.id)),
            ("op", Value::Str(s.op.to_string())),
            ("total_ns", Value::UInt(s.total_ns)),
            ("stages", Value::Object(stages.collect())),
        ])
    });
    fields(vec![
        ("seq", Value::UInt(seq)),
        ("trace_requests", Value::Bool(shared.trace_requests)),
        ("window_ns", Value::UInt(REQUEST_TOTAL.window_ns())),
        ("window_requests", Value::UInt(requests)),
        ("window_errors", Value::UInt(WINDOW_ERRORS.total())),
        ("window", Value::Object(window.collect())),
        ("slo", slo),
        ("quality", quality),
        (
            "slow",
            object(vec![
                ("threshold_ns", Value::UInt(shared.slow_threshold_ns)),
                ("captured", Value::UInt(shared.slow_ring.captured())),
                ("recent", Value::Array(recent.collect())),
            ]),
        ),
    ])
}

/// Watch the daemon at `socket`: `count` frames (`0` = until it closes the
/// connection) `interval_ms` apart, each handed to `each` verbatim, its
/// newline included. The daemon closing the connection ends the stream.
pub fn frames(
    socket: &Path,
    interval_ms: u64,
    count: u64,
    mut each: impl FnMut(&str) -> Result<(), String>,
) -> Result<(), String> {
    let mut client = Client::connect(socket).map_err(|e| e.to_string())?;
    let op = Op::Watch { interval_ms, count };
    let frame = encode_request(&Request { id: Some(1), op });
    client.send(&frame).map_err(|e| e.to_string())?;
    let mut line = String::new();
    for _ in (0..).take_while(|&seen| count == 0 || seen < count) {
        if !client.recv(&mut line).map_err(|e| e.to_string())? {
            return Ok(());
        }
        each(&line)?;
    }
    Ok(())
}

/// One watch frame, parsed: a refused watch or a frame that is not JSON
/// is an error.
pub fn parse_tick(frame: &str) -> Result<Value, String> {
    let tick: Value =
        serde_json::from_str(frame.trim()).map_err(|e| format!("unparseable watch frame: {e}"))?;
    if tick.get("ok").and_then(Value::as_bool) != Some(true) {
        return Err(format!("daemon refused watch: {}", frame.trim()));
    }
    Ok(tick)
}

/// One tick's per-stage section (`window`), fetched at once.
pub fn stages(socket: &Path) -> Result<Value, String> {
    let mut window = None;
    frames(socket, 0, 1, |frame| {
        window = parse_tick(frame)?.get("window").cloned();
        Ok(())
    })?;
    window.ok_or_else(|| "watch frame carries no window section".to_string())
}

/// `123456` → `"123.5µs"`: watch output stays eyeball-friendly.
fn fmt_ns(ns: u64) -> String {
    match ns {
        0..=999 => format!("{ns}ns"),
        1_000..=999_999 => format!("{:.1}µs", ns as f64 / 1e3),
        1_000_000..=999_999_999 => format!("{:.1}ms", ns as f64 / 1e6),
        _ => format!("{:.2}s", ns as f64 / 1e9),
    }
}

fn uint(v: &Value, key: &str) -> u64 {
    v.get(key).and_then(Value::as_u64).unwrap_or(0)
}

fn float(v: &Value, key: &str) -> f64 {
    v.get(key).and_then(Value::as_f64).unwrap_or(0.0)
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key).and_then(Value::as_str).unwrap_or("?")
}

/// One tick as a terminal reads it: the windowed stage ladder, SLO burn,
/// quality-monitor verdicts, and the slow-request ring headline.
pub fn render(tick: &Value) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "tick {}: {} request(s), {} error(s) in the last {}s",
        uint(tick, "seq"),
        uint(tick, "window_requests"),
        uint(tick, "window_errors"),
        uint(tick, "window_ns") / 1_000_000_000,
    )
    .ok();
    if let Some(stages) = tick.get("window").and_then(Value::as_object) {
        let row = |out: &mut String, cells: [&str; 4]| {
            let [name, n, p50, p99] = cells;
            writeln!(out, "  {name:<16} {n:>8} {p50:>10} {p99:>10}").ok();
        };
        row(&mut out, ["stage", "count", "p50", "p99"]);
        for (name, stage) in stages.iter().filter(|(_, s)| uint(s, "count") > 0) {
            let (p50, p99) = (uint(stage, "p50_ns"), uint(stage, "p99_ns"));
            let n = uint(stage, "count").to_string();
            row(&mut out, [name, &n, &fmt_ns(p50), &fmt_ns(p99)]);
        }
    }
    match tick.get("slo") {
        Some(slo @ Value::Object(_)) => writeln!(
            out,
            "  slo: p99 target {} ({} over, burn {:.2}x of budget) [{}]",
            fmt_ns(uint(slo, "target_p99_ns")),
            uint(slo, "over_p99"),
            float(slo, "burn_rate"),
            text(slo, "source"),
        ),
        _ => writeln!(out, "  slo: no targets loaded (serve --slo FILE)"),
    }
    .ok();
    let quality = tick.get("quality");
    if let Some((q, cells)) = quality.and_then(|q| Some((q, q.get("cells")?.as_array()?))) {
        writeln!(
            out,
            "  quality: 1-in-{} sampling, {} decision(s) seen, {} sample(s) dropped",
            uint(q, "sample_every"),
            uint(q, "seen"),
            uint(q, "dropped"),
        )
        .ok();
        for cell in cells {
            writeln!(
                out,
                "    {}/{}: {} scored, agreement {:.1}%, mean cost gap {:.1}% when apart",
                text(cell, "collective"),
                text(cell, "cluster"),
                uint(cell, "scored"),
                float(cell, "agreement_rate") * 100.0,
                float(cell, "mean_cost_gap") * 100.0,
            )
            .ok();
        }
    }
    if let Some(slow) = tick.get("slow") {
        writeln!(
            out,
            "  slow: {} captured over {} (ring keeps the most recent {SLOW_RING_CAP})",
            uint(slow, "captured"),
            fmt_ns(uint(slow, "threshold_ns")),
        )
        .ok();
    }
    out
}
