//! What every workload hands back from its timed section.

use crate::fixture::{Res, Score};
use crate::probes::Ledger;
use crate::sys;
use crate::trace::Recorder;

/// The names later issues cite workloads by.
pub const WORKLOADS: [&str; 4] = ["pretrain", "deploy_cold", "serve_select", "serve_predict"];

#[derive(Debug, Default)]
pub struct Outcome {
    /// Latency of every timed op, in milliseconds.
    pub op_ms: Vec<f64>,
    /// Whether the recorder was on during each op.
    pub op_traced: Vec<bool>,
    /// Completion time of every op, in seconds since the section began.
    pub done_at_s: Vec<f64>,
    /// Wall time of the whole timed section.
    pub wall_s: f64,
    /// Peak resident set of each slice of the section, in MiB: `VmHWM` is
    /// reset before a slice (an op, or a stretch of bursts) and read after.
    pub rss_mib: Vec<f64>,
    /// Process CPU per op of each of the same slices, in milliseconds.
    pub cpu_ms_per_op: Vec<f64>,
    /// Process CPU seconds and ops done when the last slice closed.
    slice_mark: Option<(f64, usize)>,
    /// Checked outputs: requests for the daemon workloads, ops otherwise.
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the note line.
    pub failures: Vec<String>,
    /// Decisions scored against the noiseless oracle.
    pub score: Score,
    /// FNV digests of the artifacts this section produced.
    pub digests: Vec<u64>,
}

impl Outcome {
    pub fn fail(&mut self, why: impl FnOnce() -> String) {
        self.failed += 1;
        if self.failures.len() < 3 {
            self.failures.push(why());
        }
    }

    /// Open the first slice of the section.
    pub fn open_slice(&mut self) {
        sys::reset_peak_rss();
        self.slice_mark = Some((sys::cpu_seconds(), self.op_ms.len()));
    }

    /// Close a slice of the section: keep its peak resident set and the CPU
    /// its ops took, and start the next slice from here.
    pub fn close_slice(&mut self) {
        self.rss_mib.push(sys::peak_rss_mib());
        let now = (sys::cpu_seconds(), self.op_ms.len());
        if let Some((cpu_s, ops)) = self.slice_mark.filter(|&(_, ops)| ops < now.1) {
            self.cpu_ms_per_op
                .push((now.0 - cpu_s) * 1e3 / (now.1 - ops) as f64);
        }
        self.open_slice();
    }
}

/// A built fixture, ready to run its timed section.
pub trait Workload {
    /// Name of the span that wraps one op in the traced run.
    fn op_span(&self) -> &'static str;
    /// Whether ops run until `seconds` elapse (true) or a fixed number of
    /// ops is derived from `seconds` (false).
    fn time_boxed(&self) -> bool;
    fn run(&mut self, rec: &Recorder, seconds: f64) -> Res<Outcome>;
    /// The per-layer rows of the traced section `traced`: what this
    /// workload's own ops exercised, plus the standalone probes of the
    /// layers on its path. Rows of other workloads' layers stay at zero.
    /// Returns what the probes have to say beyond their rows, as notes.
    fn ledger(&mut self, rec: &Recorder, traced: &Outcome, ledger: &mut Ledger)
        -> Res<Vec<String>>;
}
