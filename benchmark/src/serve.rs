//! `serve_select` and `serve_predict`: the daemon, embedded on a thread.
//!
//! One client thread on one connection drives pipelined bursts in a closed
//! loop: a burst's requests go out in one `write_all`, then its replies are
//! read back and compared byte for byte with what the in-process
//! `Tuner::select` / `PretrainedModel::predict` answer renders to. The
//! process pins itself to one CPU before the daemon boots
//! (`sys::pin_to_one_cpu`), so client, connection thread and batcher hand
//! over to each other by local context switches: spread over the two vCPUs
//! every hand-over wakes a halted guest CPU by interrupt, which cost
//! `serve_select` more than the work itself (1.02 ms of CPU a burst against
//! 0.44 ms pinned) and made `serve_predict` a draw between 7.5 and 9.4 ms a
//! burst. A burst is long enough (≈ 0.45 ms / ≈ 8 ms) that its time is the
//! daemon's work and its batching window rather than the wake-up lottery a
//! one-in-flight ping-pong measures.
//!
//! `serve_select` isolates protocol parse/render, the connection loop and
//! the `Tuner` hit path (the forest and the batcher are idle);
//! `serve_predict` sends every request through the `Batcher` instead, where
//! the batching window, not parsing, sets the pace.
//!
//! The request list is the same in every run; the seed settles which burst
//! the timed section starts from.

use crate::fixture::{off_grid_job, oracle_cell, Res, Rng, Score, TrimmedZoo, FIXED};
use crate::probes::{self, Ledger};
use crate::trace::Recorder;
use crate::workload::{Outcome, Workload};
use pml_mpi::clusters::ClusterEntry;
use pml_mpi::core::{FallbackDepth, JobConfig, PretrainedModel, Tuner, TuningTable};
use pml_mpi::serve::protocol::{collective_wire_name, render_predict, render_select};
use pml_mpi::serve::{BatchConfig, LoadedArtifacts, ObsConfig, Server, PROTOCOL_VERSION};
use pml_mpi::{Collective, TuningRecord};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The held-out cluster the daemon serves (its grid is the trimmed zoo's
/// held-out one: jobs of at most 128 ranks, cheap to score).
pub const SERVED_CLUSTER: &str = "Frontera";
/// A stuck daemon fails the run instead of hanging it.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);
/// Slices of the timed section whose peak resident set and CPU are read.
const SLICES: f64 = 40.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServePath {
    Select,
    Predict,
}

impl ServePath {
    pub fn burst_len(self) -> usize {
        match self {
            ServePath::Select => 64,
            ServePath::Predict => 16,
        }
    }

    /// Requests in the fixed list that the timed section cycles.
    fn requests(self) -> usize {
        match self {
            ServePath::Select => 2048,
            ServePath::Predict => 1024,
        }
    }

    /// Times the warm-up sends the whole list (≈ 0.5 s on either path).
    fn warm_up_rounds(self) -> usize {
        match self {
            ServePath::Select => 16,
            ServePath::Predict => 1,
        }
    }
}

/// Models and tables for the served cluster: everything a daemon loads.
#[derive(Debug)]
pub struct Artifacts {
    pub entry: ClusterEntry,
    pub models: Vec<Arc<PretrainedModel>>,
    pub tables: Vec<TuningTable>,
}

impl Artifacts {
    pub fn build(rec: &Recorder, zoo: &TrimmedZoo, models: Vec<PretrainedModel>) -> Res<Self> {
        let entry = zoo
            .held
            .iter()
            .find(|e| e.name() == SERVED_CLUSTER)
            .ok_or("served cluster missing from the held-out zoo")?
            .clone();
        let tables = rec.time_items("core.table_gen.served", models.len() as u64, || {
            models
                .iter()
                .map(|m| m.generate_tuning_table(&entry))
                .collect::<Result<Vec<_>, _>>()
        })?;
        Ok(Artifacts {
            entry,
            models: models.into_iter().map(Arc::new).collect(),
            tables,
        })
    }

    /// A tuner over the tables, with the analytic tier behind them so that
    /// collectives without a table are ranked, not defaulted.
    pub fn tuner(&self) -> Tuner {
        Tuner::with_analytic(self.tables.clone(), self.entry.spec.node.clone())
    }

    fn loaded(&self) -> LoadedArtifacts {
        LoadedArtifacts {
            tuner: self.tuner(),
            models: self
                .models
                .iter()
                .map(|m| (m.collective, Arc::clone(m)))
                .collect(),
            warnings: Vec::new(),
        }
    }
}

/// One pipelined burst: the bytes to send and the bytes that must come back.
#[derive(Debug)]
struct Burst {
    payload: Vec<u8>,
    expected: Vec<u8>,
}

/// The fixed request list of one path, with expected replies and oracle.
#[derive(Debug)]
pub struct Traffic {
    path: ServePath,
    bursts: Vec<Burst>,
    /// (oracle record, reference decision) per request.
    scored: Vec<(TuningRecord, pml_mpi::Algorithm)>,
    /// Requests answered at each `FallbackDepth` (select path only).
    pub depths: [u64; 5],
}

impl Traffic {
    /// Every burst carries the same mix — three quarters on-grid cells, a
    /// quarter off-grid shapes — so bursts cost the same. Select spends
    /// half of its off-grid share on collectives that have no table.
    pub fn build(rec: &Recorder, art: &Artifacts, path: ServePath, score: bool) -> Res<Self> {
        let mut rng = Rng::new(FIXED, 0x5e + path.burst_len() as u64);
        let reference = art.tuner();
        let per_burst = path.burst_len();
        let mut bursts = Vec::new();
        let mut decisions = Vec::new();
        let mut depths = [0u64; 5];
        for b in 0..path.requests() / per_burst {
            let mut jobs: Vec<(Collective, JobConfig)> = (0..per_burst)
                .map(|i| match (i * 8 / per_burst, path) {
                    (0..=5, _) => {
                        let e = &art.entry;
                        let job = JobConfig::new(
                            rng.pick(&e.node_grid),
                            rng.pick(&e.ppn_grid),
                            rng.pick(&e.msg_grid),
                        );
                        (rng.pick(&Collective::PAPER), job)
                    }
                    (7, ServePath::Select) => (
                        rng.pick(&[Collective::Bcast, Collective::Allreduce]),
                        off_grid_job(&mut rng),
                    ),
                    _ => (rng.pick(&Collective::PAPER), off_grid_job(&mut rng)),
                })
                .collect();
            rng.shuffle(&mut jobs);
            let mut burst = Burst {
                payload: Vec::new(),
                expected: Vec::new(),
            };
            for (i, &(c, job)) in jobs.iter().enumerate() {
                let id = (b * per_burst + i) as u64;
                let shape = format!(
                    "\"collective\":\"{}\",\"nodes\":{},\"ppn\":{},\"msg_size\":{}",
                    collective_wire_name(c),
                    job.nodes,
                    job.ppn,
                    job.msg_size
                );
                let (frame, reply, decision) = match path {
                    ServePath::Select => {
                        let (algo, depth) = reference.select_traced(c, job);
                        depths[depth as usize] += 1;
                        (
                            format!("{{\"v\":\"{PROTOCOL_VERSION}\",\"id\":{id},\"op\":\"select\",{shape}}}\n"),
                            render_select(Some(id), algo, depth),
                            algo,
                        )
                    }
                    ServePath::Predict => {
                        let model = art
                            .models
                            .iter()
                            .find(|m| m.collective == c)
                            .ok_or("no model for a requested collective")?;
                        let algo = model.predict(&art.entry.spec.node, job);
                        (
                            format!(
                                "{{\"v\":\"{PROTOCOL_VERSION}\",\"id\":{id},\"op\":\"predict\",\"cluster\":\"{SERVED_CLUSTER}\",{shape}}}\n"
                            ),
                            render_predict(Some(id), algo),
                            algo,
                        )
                    }
                };
                burst.payload.extend_from_slice(frame.as_bytes());
                burst.expected.extend_from_slice(reply.as_bytes());
                burst.expected.push(b'\n');
                decisions.push((c, job, decision));
            }
            bursts.push(burst);
        }
        // One oracle measurement per distinct cell, all under one span.
        let mut scored = Vec::new();
        if score {
            rec.time("clusters.oracle", || {
                let mut memo: BTreeMap<(Collective, u32, u32, usize), TuningRecord> =
                    BTreeMap::new();
                for &(c, job, decision) in &decisions {
                    let key = (c, job.nodes, job.ppn, job.msg_size);
                    let oracle = match memo.get(&key) {
                        Some(r) => r.clone(),
                        None => {
                            let r = oracle_cell(&art.entry, c, job)?;
                            memo.insert(key, r.clone());
                            r
                        }
                    };
                    scored.push((oracle, decision));
                }
                Res::Ok(())
            })?;
        }
        Ok(Traffic {
            path,
            bursts,
            scored,
            depths,
        })
    }

    pub fn exact_share(&self) -> f64 {
        let total: u64 = self.depths.iter().sum();
        self.depths[FallbackDepth::Exact as usize] as f64 / total.max(1) as f64
    }
}

/// Clock readings around one burst, taken between the syscalls.
#[derive(Debug, Clone, Copy)]
struct Stamps {
    start: Instant,
    written: Instant,
    first_byte: Instant,
    checked: Instant,
}

/// A running embedded daemon and the one client connection to it.
#[derive(Debug)]
pub struct Daemon {
    stream: UnixStream,
    term: Arc<AtomicBool>,
    thread: Option<JoinHandle<Result<(), pml_mpi::serve::ServeError>>>,
    buf: Vec<u8>,
    /// `Server::with_artifacts` → first `pong`, in milliseconds.
    pub boot_ms: f64,
}

impl Daemon {
    pub fn boot(art: &Artifacts, socket: &Path, obs: ObsConfig) -> Res<Self> {
        let t0 = Instant::now();
        let server = Server::with_artifacts(socket, art.loaded(), BatchConfig::default(), obs)?;
        let term = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&term);
        let thread = std::thread::spawn(move || server.run(&flag));
        let stream = UnixStream::connect(socket)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        let mut daemon = Daemon {
            stream,
            term,
            thread: Some(thread),
            buf: Vec::with_capacity(16 << 10),
            boot_ms: 0.0,
        };
        let ping = format!("{{\"v\":\"{PROTOCOL_VERSION}\",\"op\":\"ping\"}}\n");
        daemon.exchange(ping.as_bytes(), 1)?;
        if !daemon.buf.windows(11).any(|w| w == b"\"pong\":true") {
            return Err(format!("no pong: {}", String::from_utf8_lossy(&daemon.buf)).into());
        }
        daemon.boot_ms = t0.elapsed().as_secs_f64() * 1e3;
        Ok(daemon)
    }

    /// Send `payload`, then read until `lines` replies are in `self.buf`.
    fn exchange(&mut self, payload: &[u8], lines: usize) -> Res<Stamps> {
        let start = Instant::now();
        self.stream.write_all(payload)?;
        let written = Instant::now();
        self.buf.clear();
        let mut first_byte = None;
        let mut seen = 0;
        let mut chunk = [0u8; 16 << 10];
        while seen < lines {
            let n = self.stream.read(&mut chunk)?;
            first_byte.get_or_insert_with(Instant::now);
            if n == 0 {
                return Err("daemon closed the connection mid-burst".into());
            }
            seen += chunk[..n].iter().filter(|&&b| b == b'\n').count();
            self.buf.extend_from_slice(&chunk[..n]);
        }
        Ok(Stamps {
            start,
            written,
            first_byte: first_byte.unwrap_or(written),
            checked: Instant::now(),
        })
    }

    /// One burst, checked. Returns the stamps and how many replies were
    /// not byte-identical to the reference (error and `overload` replies
    /// included).
    fn burst(&mut self, burst: &Burst, lines: usize) -> Res<(Stamps, u64)> {
        let mut stamps = self.exchange(&burst.payload, lines)?;
        let wrong = if self.buf == burst.expected {
            0
        } else {
            let got: Vec<&[u8]> = self.buf.split(|&b| b == b'\n').collect();
            let want: Vec<&[u8]> = burst.expected.split(|&b| b == b'\n').collect();
            (0..lines)
                .filter(|&i| got.get(i) != want.get(i))
                .count()
                .max(1) as u64
        };
        stamps.checked = Instant::now();
        Ok((stamps, wrong))
    }

    /// One-in-flight round trips over the burst's requests, in microseconds.
    pub fn pingpong_us(&mut self, traffic: &Traffic, count: usize) -> Res<Vec<f64>> {
        let frames: Vec<&[u8]> = traffic.bursts[0]
            .payload
            .split_inclusive(|&b| b == b'\n')
            .collect();
        let mut out = Vec::with_capacity(count);
        for i in 0..count {
            let s = self.exchange(frames[i % frames.len()], 1)?;
            out.push((s.checked - s.start).as_secs_f64() * 1e6);
        }
        Ok(out)
    }

    /// Stop the daemon and wait for its threads.
    pub fn shutdown(mut self) -> Res<()> {
        self.stop();
        match self.thread.take().map(JoinHandle::join) {
            Some(Ok(Ok(()))) | None => Ok(()),
            Some(Ok(Err(e))) => Err(e.into()),
            Some(Err(_)) => Err("daemon thread panicked".into()),
        }
    }

    fn stop(&mut self) {
        self.term.store(true, Ordering::SeqCst);
        self.stream.shutdown(std::net::Shutdown::Both).ok();
    }
}

impl Drop for Daemon {
    /// An error path must not leave the daemon's threads running.
    fn drop(&mut self) {
        self.stop();
        if let Some(thread) = self.thread.take() {
            thread.join().ok();
        }
    }
}

/// Mean of a daemon-side stage over the live window, in nanoseconds, and
/// how many requests it covers. The daemon's `watch` op renders the same
/// histograms, but as power-of-two bucket bounds (up to 2× off); the mean
/// is exact and, unlike a median, adds up across stages.
pub fn stage_mean_ns(stage: &str) -> (f64, u64) {
    let snap = pml_mpi::serve::reqtrace::stage_histogram(stage).map(|h| h.snap());
    match snap {
        Some(s) if s.count > 0 => (s.sum as f64 / s.count as f64, s.count),
        _ => (0.0, 0),
    }
}

/// (sum, count) of the batcher's rows-per-batch histogram since boot.
pub fn batch_rows_totals() -> (u64, u64) {
    pml_mpi::obs::metrics::snapshot()
        .histograms
        .get("serve.batch.rows")
        .map_or((0, 0), |h| (h.sum, h.count))
}

#[derive(Debug)]
pub struct Serve {
    pub daemon: Daemon,
    pub traffic: Traffic,
    art: Arc<Artifacts>,
    socket: PathBuf,
    next: usize,
    /// Rows and batches the batcher flushed during the last `run`.
    batched: (u64, u64),
    /// Index of the first span the last `run` recorded.
    first_span: usize,
}

impl Serve {
    /// Boot the daemon and send every distinct burst, checked, for half a
    /// second: after the first round the tuner's memo, the schedcost cache
    /// and the connection's buffers are warm, and every timed `select` is a
    /// memo hit.
    pub fn setup(
        art: Arc<Artifacts>,
        traffic: Traffic,
        socket: PathBuf,
        obs: ObsConfig,
        seed: u64,
    ) -> Res<Self> {
        let mut daemon = Daemon::boot(&art, &socket, obs)?;
        let lines = traffic.path.burst_len();
        for _ in 0..traffic.path.warm_up_rounds() {
            for (i, b) in traffic.bursts.iter().enumerate() {
                let (_, wrong) = daemon.burst(b, lines)?;
                if wrong > 0 {
                    let got = String::from_utf8_lossy(&daemon.buf).into_owned();
                    return Err(
                        format!("warm-up burst {i}: {wrong} wrong replies, got {got}").into(),
                    );
                }
            }
        }
        let next = Rng::new(seed, 0x5e).below(traffic.bursts.len());
        Ok(Serve {
            daemon,
            traffic,
            art,
            socket,
            next,
            batched: (0, 0),
            first_span: 0,
        })
    }
}

impl Workload for Serve {
    fn op_span(&self) -> &'static str {
        match self.traffic.path {
            ServePath::Select => "op.serve_select",
            ServePath::Predict => "op.serve_predict",
        }
    }

    fn time_boxed(&self) -> bool {
        true
    }

    fn run(&mut self, rec: &Recorder, seconds: f64) -> Res<Outcome> {
        let lines = self.traffic.path.burst_len();
        let mut out = Outcome::default();
        let (rows_before, batches_before) = batch_rows_totals();
        self.first_span = rec.span_count();
        out.open_slice();
        let section = Instant::now();
        let mut op = 0u64;
        while section.elapsed().as_secs_f64() < seconds || op < rec.min_ops() {
            op += 1;
            rec.set_op(op);
            let burst = &self.traffic.bursts[self.next % self.traffic.bursts.len()];
            self.next += 1;
            let (s, wrong) = self.daemon.burst(burst, lines)?;
            let parent = rec.record(self.op_span(), s.start, s.checked, None);
            rec.record("serve.client_write", s.start, s.written, parent);
            rec.record("serve.client_wait", s.written, s.first_byte, parent);
            rec.record("serve.client_read", s.first_byte, s.checked, parent);
            out.op_ms.push((s.checked - s.start).as_secs_f64() * 1e3);
            out.op_traced.push(rec.enabled());
            let done_at_s = (s.checked - section).as_secs_f64();
            out.done_at_s.push(done_at_s);
            if done_at_s * SLICES >= seconds * (out.rss_mib.len() + 1) as f64 {
                out.close_slice();
            }
            out.attempted += lines as u64;
            if wrong > 0 {
                out.failed += wrong;
                if out.failures.len() < 3 {
                    let got = String::from_utf8_lossy(&self.daemon.buf).into_owned();
                    out.failures
                        .push(format!("burst {op}: {wrong} wrong replies in {got}"));
                }
            }
        }
        out.wall_s = section.elapsed().as_secs_f64();
        rec.set_op(0);
        let (rows, batches) = batch_rows_totals();
        self.batched = (rows - rows_before, batches - batches_before);
        // Replies were compared with the reference decisions byte for
        // byte, so scoring the reference scores what the daemon served.
        let mut score = Score::default();
        for (oracle, decision) in &self.traffic.scored {
            if let Err(e) = score.add(oracle, *decision) {
                out.fail(|| e);
            }
        }
        out.score = score;
        Ok(out)
    }

    /// The daemon's stage windows move on, so its rows are read first;
    /// the standalone probes of the path follow.
    fn ledger(
        &mut self,
        rec: &Recorder,
        traced: &Outcome,
        ledger: &mut Ledger,
    ) -> Res<Vec<String>> {
        let burst = self.traffic.path.burst_len() as f64;
        ledger.insert("serve.boot_ms", self.daemon.boot_ms);
        let stages: &[(&str, &'static str)] = match self.traffic.path {
            ServePath::Select => &[
                ("parse", "serve.server_stage_us.parse"),
                ("select", "serve.server_stage_us.select"),
                ("serialize", "serve.server_stage_us.serialize"),
                ("reply", "serve.server_stage_us.reply"),
            ],
            ServePath::Predict => &[
                ("parse", "serve.server_stage_us.parse"),
                ("queue_wait", "serve.server_stage_us.queue_wait"),
                ("batch_assembly", "serve.server_stage_us.batch_assembly"),
                ("predict", "serve.server_stage_us.predict"),
                ("serialize", "serve.server_stage_us.serialize"),
                ("reply", "serve.server_stage_us.reply"),
            ],
        };
        let mut server_us_per_request = 0.0;
        for &(stage, metric) in stages {
            let (mean_ns, count) = stage_mean_ns(stage);
            if count > 0 {
                ledger.insert(metric, mean_ns / 1e3);
                server_us_per_request += mean_ns / 1e3;
            }
        }
        // The client's side of the bursts of the last run.
        let spans = rec.spans();
        let p50_us = |name: &str| {
            let durs: Vec<f64> = spans[self.first_span..]
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.dur_ns() as f64 / 1e3)
                .collect();
            crate::stats::median(&durs)
        };
        let (write, wait, read) = (
            p50_us("serve.client_write"),
            p50_us("serve.client_wait"),
            p50_us("serve.client_read"),
        );
        ledger.insert("serve.client_write_us", write);
        ledger.insert("serve.client_wait_us", wait);
        ledger.insert("serve.client_read_us", read);
        // What the client's write and the daemon's own stage accounting
        // explain of a burst. The connection thread serves the burst's
        // requests one after another, so their stages add up; the client's
        // read overlaps them (replies trickle in while later requests are
        // still being served) and is left out. The rest is the daemon's
        // reads and loop, the transport and thread wake-ups.
        let burst_p50_us = crate::stats::median(&traced.op_ms) * 1e3;
        if burst_p50_us > 0.0 {
            let attributed = write + burst * server_us_per_request;
            ledger.insert("serve.attributed_share", attributed / burst_p50_us);
        }
        let sorted = crate::stats::sorted(&traced.op_ms);
        ledger.insert(
            "serve.burst_p99_us",
            crate::stats::quantile(&sorted, 0.99) * 1e3,
        );
        ledger.insert(
            "serve.requests_per_s",
            burst * crate::stats::window_median_throughput(&traced.done_at_s, traced.wall_s, 20),
        );
        if self.batched.1 > 0 {
            ledger.insert(
                "serve.batch_rows_mean",
                self.batched.0 as f64 / self.batched.1 as f64,
            );
        }
        if self.traffic.path == ServePath::Select {
            ledger.insert("core.select_exact_share", self.traffic.exact_share());
        }
        let round_trips = self.daemon.pingpong_us(&self.traffic, 1000)?;
        ledger.insert("serve.pingpong_p50_us", crate::stats::median(&round_trips));
        match self.traffic.path {
            ServePath::Select => {
                probes::select_units(ledger, &self.art)?;
                let note =
                    probes::trace_off(rec, ledger, Arc::clone(&self.art), self.socket.clone())?;
                Ok(vec![note])
            }
            ServePath::Predict => {
                probes::predict_units(ledger, &self.art)?;
                Ok(Vec::new())
            }
        }
    }
}
