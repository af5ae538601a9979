//! The benchmark's own span recorder.
//!
//! Spans are opened from the benchmark's side of each call into a layer's
//! public functions; nothing inside the library is instrumented. They stay
//! in memory until the run ends and are then written out with a self-time
//! table (a span's duration minus the part its children cover). The
//! recorder is deliberately not `pml-obs`: the instrument must not move
//! when the layer it measures is changed.

use serde::Value;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

/// Which part of the run a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    Setup,
    Probe,
    Timed,
}

impl Phase {
    fn name(self) -> &'static str {
        match self {
            Phase::Setup => "setup",
            Phase::Probe => "probe",
            Phase::Timed => "timed",
        }
    }
}

/// When the recorder records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Never: the untraced run.
    Off,
    /// Always: set-up and probes of the traced run.
    On,
    /// Outside ops and during even-numbered ops. The traced run's timed
    /// section alternates traced and untraced ops, so that what tracing
    /// costs is read off neighbouring ops, not off two halves of a run
    /// that drift apart for other reasons.
    Alternate,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
    /// The workload op this span served (0 outside ops).
    pub op: u64,
    pub phase: Phase,
    /// Units of work covered, for per-item metrics (rows, selections).
    pub items: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Single-threaded span recorder; disabled it reads no clock and stores
/// nothing, so the untraced run pays one branch per call site.
#[derive(Debug)]
pub struct Recorder {
    mode: Cell<Mode>,
    enabled: Cell<bool>,
    origin: Instant,
    phase: Cell<Phase>,
    op: Cell<u64>,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Recorder {
    pub fn new(mode: Mode) -> Self {
        Recorder {
            mode: Cell::new(mode),
            enabled: Cell::new(mode != Mode::Off),
            origin: Instant::now(),
            phase: Cell::new(Phase::Setup),
            op: Cell::new(0),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled.get()
    }

    pub fn set_mode(&self, mode: Mode) {
        self.mode.set(mode);
        self.set_op(self.op.get());
    }

    pub fn set_phase(&self, phase: Phase) {
        self.phase.set(phase);
    }

    /// Timed ops a section needs at least: the traced run compares a traced
    /// op with an untraced one.
    pub fn min_ops(&self) -> u64 {
        match self.mode.get() {
            Mode::Off => 1,
            Mode::On | Mode::Alternate => 2,
        }
    }

    pub fn span_count(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Enter op `op` (numbered from 1), or leave ops with 0.
    pub fn set_op(&self, op: u64) {
        self.op.set(op);
        self.enabled.set(match self.mode.get() {
            Mode::Off => false,
            Mode::On => true,
            Mode::Alternate => op.is_multiple_of(2),
        });
    }

    /// Time `f` under a span covering one unit of work.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.time_items(name, 1, f)
    }

    /// Time `f` under a span covering `items` units of work.
    pub fn time_items<T>(&self, name: &'static str, items: u64, f: impl FnOnce() -> T) -> T {
        if !self.enabled.get() {
            return f();
        }
        let index = self.begin(name, items);
        let out = f();
        self.end(index);
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn begin(&self, name: &'static str, items: u64) -> usize {
        let mut spans = self.spans.borrow_mut();
        let index = spans.len();
        let parent = self.open.borrow().last().copied();
        self.open.borrow_mut().push(index);
        let start_ns = self.now_ns();
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op: self.op.get(),
            phase: self.phase.get(),
            items,
        });
        index
    }

    fn end(&self, index: usize) {
        let end_ns = self.now_ns();
        self.spans.borrow_mut()[index].end_ns = end_ns;
        self.open.borrow_mut().pop();
    }

    /// Record a span whose endpoints were stamped by the caller (the
    /// client side of a burst, where the clock reads sit between syscalls).
    /// Returns its index, to hang child spans under.
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> Option<usize> {
        if !self.enabled.get() {
            return None;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let mut spans = self.spans.borrow_mut();
        spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            op: self.op.get(),
            phase: self.phase.get(),
            items: 1,
        });
        Some(spans.len() - 1)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// Self time of every span: its duration minus its direct children's.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// One row of the self-time table.
#[derive(Debug, Clone, PartialEq)]
pub struct SelfRow {
    pub phase: Phase,
    pub name: &'static str,
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn self_time_table(spans: &[Span]) -> Vec<SelfRow> {
    let own = self_times_ns(spans);
    let mut rows: BTreeMap<(Phase, &'static str), SelfRow> = BTreeMap::new();
    for (s, own_ns) in spans.iter().zip(own) {
        let row = rows.entry((s.phase, s.name)).or_insert(SelfRow {
            phase: s.phase,
            name: s.name,
            count: 0,
            total_ns: 0,
            self_ns: 0,
        });
        row.count += 1;
        row.total_ns += s.dur_ns();
        row.self_ns += own_ns;
    }
    let mut rows: Vec<SelfRow> = rows.into_values().collect();
    rows.sort_by_key(|r| std::cmp::Reverse((r.phase, r.self_ns)));
    rows
}

/// Share of the timed ops' wall time that the layer spans beneath them
/// account for: 1 − (op spans' own self time ÷ op spans' duration).
pub fn ledger_closure_share(spans: &[Span], op_span: &str) -> f64 {
    let own = self_times_ns(spans);
    let (mut wall, mut unattributed) = (0u64, 0u64);
    for (s, own_ns) in spans.iter().zip(own) {
        if s.name == op_span && s.phase == Phase::Timed {
            wall += s.dur_ns();
            unattributed += own_ns;
        }
    }
    if wall == 0 {
        0.0
    } else {
        1.0 - unattributed as f64 / wall as f64
    }
}

/// The trace document: every span plus the self-time table.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> Value {
    let uint = |v: u64| Value::UInt(v);
    let text = |s: &str| Value::Str(s.to_string());
    let span_rows = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            Value::Object(vec![
                ("id".to_string(), uint(i as u64)),
                ("name".to_string(), text(s.name)),
                ("phase".to_string(), text(s.phase.name())),
                ("op".to_string(), uint(s.op)),
                (
                    "parent".to_string(),
                    s.parent.map_or(Value::Null, |p| uint(p as u64)),
                ),
                ("start_ns".to_string(), uint(s.start_ns)),
                ("end_ns".to_string(), uint(s.end_ns)),
                ("items".to_string(), uint(s.items)),
            ])
        })
        .collect();
    let table = self_time_table(spans)
        .into_iter()
        .map(|r| {
            Value::Object(vec![
                ("phase".to_string(), text(r.phase.name())),
                ("name".to_string(), text(r.name)),
                ("count".to_string(), uint(r.count)),
                ("total_ns".to_string(), uint(r.total_ns)),
                ("self_ns".to_string(), uint(r.self_ns)),
            ])
        })
        .collect();
    Value::Object(vec![
        ("schema".to_string(), text("pml-benchmark-trace/v1")),
        ("workload".to_string(), text(workload)),
        ("seed".to_string(), uint(seed)),
        ("self_time".to_string(), Value::Array(table)),
        ("spans".to_string(), Value::Array(span_rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>, phase: Phase) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 1,
            phase,
            items: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("op", 0, 100, None, Phase::Timed),
            span("datagen", 5, 65, Some(0), Phase::Timed),
            span("sweep", 10, 30, Some(1), Phase::Timed),
            span("train", 65, 95, Some(0), Phase::Timed),
        ];
        assert_eq!(self_times_ns(&spans), vec![10, 40, 20, 30]);
        assert!((ledger_closure_share(&spans, "op") - 0.9).abs() < 1e-12);
        let table = self_time_table(&spans);
        assert_eq!(table[0].name, "datagen");
        assert_eq!((table[0].total_ns, table[0].self_ns), (60, 40));
    }

    #[test]
    fn recorder_nests_and_disabled_records_nothing() {
        let rec = Recorder::new(Mode::On);
        rec.set_phase(Phase::Timed);
        rec.set_op(7);
        let got = rec.time("outer", || rec.time_items("inner", 4, || 42));
        assert_eq!(got, 42);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert_eq!((spans[1].op, spans[1].items), (7, 4));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        rec.set_mode(Mode::Off);
        rec.time("ignored", || ());
        assert_eq!(rec.spans().len(), 2);

        // Alternate: on outside ops and in even ops, off in odd ones.
        rec.set_mode(Mode::Alternate);
        for (op, recorded) in [(0, true), (1, false), (2, true), (3, false)] {
            rec.set_op(op);
            assert_eq!(rec.enabled(), recorded, "op {op}");
        }
    }
}
