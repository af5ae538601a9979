//! One daemon connection ([`Conn`]): framing, dispatch, the `predict`
//! settle, the reply flush and the `watch` wait.

use crate::batch::{worker_gone, Answer};
use crate::protocol::{self, Op, ProtoError, Request};
use crate::quality::QualitySample;
use crate::reqtrace::{self, RequestTrace, SlowRequest};
use crate::server::Shared;
use crate::watch;
use pml_collectives::Collective;
use pml_core::JobConfig;
use serde::Value;
use std::io::{self, Read, Write};
use std::ops::Range;
use std::os::unix::net::UnixStream;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// A frame, its newline included, must fit the connection's read buffer.
/// A constant, not an option: the longest legal frame is a few hundred bytes.
pub const MAX_FRAME_BYTES: usize = 64 << 10;

/// Pending replies are written out once they pass this many bytes, so a
/// client that never reads cannot grow them further.
pub(crate) const OUT_FLUSH_BYTES: usize = 64 << 10;

/// One connection. Each wake-up is one `read`; every complete frame in the
/// buffer is answered in order and the partial tail waits for the next
/// read; a `watch` stream reads between its ticks too (see [`Conn::wait`]).
/// A `predict` is queued with the batcher and its answer collected later
/// (see [`Conn::settle`]), so the predicts of a pipelined burst share one
/// batch while a lone one is still answered at once. Replies collect in
/// `out` and leave in one `write_all` right before the thread blocks or the
/// connection ends, so a burst that arrived in one read is answered in one
/// write and nothing is held across a blocking call.
pub(crate) struct Conn<'a> {
    shared: &'a Shared,
    stream: Arc<UnixStream>,
    pub(crate) out: Vec<u8>,
    /// The traced requests whose replies are in `out`, settled by `flush`.
    pub(crate) pending: Vec<(RequestTrace, bool)>,
    /// Queued predicts whose replies are not in `out` yet, in request order.
    in_flight: Vec<InFlight>,
    /// The read buffer; `buf[..tail]` is read (see [`Conn::run`]).
    pub(crate) buf: Vec<u8>,
    pub(crate) tail: usize,
}

/// A `predict` the batcher has queued: what its reply needs once the answer
/// arrives.
struct InFlight {
    id: Option<u64>,
    trace: Option<RequestTrace>,
    cluster: String,
    collective: Collective,
    job: JobConfig,
    answer: mpsc::Receiver<Answer>,
}

impl<'a> Conn<'a> {
    pub(crate) fn new(shared: &'a Shared, stream: Arc<UnixStream>) -> Self {
        Conn {
            shared,
            stream,
            out: Vec::new(),
            pending: Vec::new(),
            in_flight: Vec::new(),
            buf: vec![0u8; MAX_FRAME_BYTES],
            tail: 0,
        }
    }

    /// Serve until EOF or a transport error. Shutdown reaches a blocked
    /// thread as one of those: [`crate::server::Server::run`] shuts the socket down.
    pub(crate) fn run(&mut self) {
        // `buf[head..tail]` is read but unanswered, and holds no newline
        // before `seen`; a `watch` may read more past `tail` while it is
        // answered. `skipping` is set inside an over-long frame, whose bytes
        // are dropped up to its newline.
        let (mut head, mut seen, mut skipping) = (0, 0, false);
        loop {
            while let Some(len) = self
                .buf
                .get(seen..self.tail)
                .and_then(|b| b.iter().position(|&c| c == b'\n'))
            {
                let frame = head..seen + len;
                head = seen + len + 1;
                seen = head;
                if !std::mem::take(&mut skipping) && !self.answer(frame) {
                    return;
                }
            }
            if head > 0 {
                self.buf.copy_within(head..self.tail, 0);
            }
            (head, self.tail) = (0, self.tail - head);
            if self.tail == self.buf.len() {
                if !std::mem::replace(&mut skipping, true) {
                    self.shared.counts.next_id();
                    let msg = format!("frame exceeds {MAX_FRAME_BYTES} bytes");
                    let err = ProtoError::new(protocol::ErrorKind::Parse, msg);
                    self.reject(None, &err, None);
                }
                self.tail = 0;
            }
            seen = self.tail;
            // Nothing is left to answer: settle, flush, and only then block.
            if !self.settle() || !self.flush() {
                return;
            }
            let room = self.buf.get_mut(self.tail..).unwrap_or(&mut []);
            match (&*self.stream).read(room) {
                // EOF. A frame truncated mid-line by the disconnect is still
                // answered (typed error or not) before closing.
                Ok(0) => {
                    if (skipping || self.answer(0..self.tail)) && self.settle() {
                        self.flush();
                    }
                    return;
                }
                Ok(n) => self.tail += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }

    /// Write the pending replies, then close out their traces: the write's
    /// time in equal shares as each one's `reply` stage, totals, SLO
    /// over-counters and the slow ring. Returns whether the write succeeded.
    pub(crate) fn flush(&mut self) -> bool {
        if self.out.is_empty() {
            return true;
        }
        let clock = &self.shared.clock;
        let t0 = if self.pending.is_empty() {
            0
        } else {
            clock.now_nanos()
        };
        let sent = (&*self.stream).write_all(&self.out).is_ok();
        self.out.clear();
        if !self.pending.is_empty() {
            let t1 = clock.now_nanos();
            let share = t1.saturating_sub(t0) / self.pending.len() as u64;
            for (mut trace, is_error) in self.pending.drain(..) {
                trace.stage("reply", share, t1);
                finish_trace(self.shared, trace, is_error, t1);
            }
        }
        sent
    }

    /// End the reply just appended to `out`. Returns whether the connection
    /// stays open.
    fn sent(&mut self, trace: Option<RequestTrace>, is_error: bool) -> bool {
        self.out.push(b'\n');
        self.pending.extend(trace.map(|tr| (tr, is_error)));
        self.out.len() < OUT_FLUSH_BYTES || self.flush()
    }

    /// Append a typed error reply, behind the predicts before it, and count
    /// it.
    fn reject(&mut self, id: Option<u64>, err: &ProtoError, trace: Option<RequestTrace>) -> bool {
        if !self.settle() {
            return false;
        }
        self.shared.counts.error();
        self.out
            .extend_from_slice(protocol::render_error(id, err).as_bytes());
        self.sent(trace, true)
    }

    /// One frame, end to end: assign the daemon-side request id, open the
    /// trace (when tracing is on), dispatch, append the reply — or, for a
    /// `predict`, queue it to be settled later. With tracing off no clock is
    /// read. Returns whether the connection stays open.
    pub(crate) fn answer(&mut self, frame: Range<usize>) -> bool {
        let frame = protocol::trim_frame(self.buf.get(frame).unwrap_or(&[]));
        if frame.is_empty() {
            return true; // blank keep-alive line
        }
        let shared = self.shared;
        let request_id = shared.counts.next_id();
        let mut trace = shared
            .trace_requests
            .then(|| RequestTrace::new(request_id, shared.clock.now_nanos()));
        let parsed = protocol::parse_frame(frame);
        if let Some(tr) = trace.as_mut() {
            let t = shared.clock.now_nanos();
            tr.stage("parse", t.saturating_sub(tr.started_ns), t);
            tr.op = parsed.as_ref().map_or("error", |req| req.op.name());
        }
        let Request { id, op } = match parsed {
            Ok(req) => req,
            Err((id, err)) => return self.reject(id, &err, trace),
        };
        if let Op::Predict {
            cluster,
            collective,
            job,
        } = op
        {
            return self.enqueue(id, trace, cluster, collective, job);
        }
        // Every other reply goes behind the predicts read before it.
        if !self.settle() {
            return false;
        }
        match op {
            Op::Ping => protocol::write_pong(&mut self.out, id),
            Op::Select { collective, job } => {
                let t0 = stamp(shared, &trace);
                let (algo, depth) = shared.tuner.select_traced(collective, job);
                let t1 = stamp(shared, &trace);
                if let Some(tr) = trace.as_mut() {
                    tr.stage("select", t1.saturating_sub(t0), t1);
                }
                protocol::write_select(&mut self.out, id, algo, depth);
                serialized(shared, &mut trace, t1);
                if let Some(q) = shared.quality.as_ref() {
                    q.observe(|| QualitySample {
                        cluster: shared
                            .tuner
                            .table_cluster(collective)
                            .unwrap_or("?")
                            .to_string(),
                        collective,
                        job,
                        algo,
                        depth: Some(depth),
                    });
                }
            }
            // Queued above.
            Op::Predict { .. } => {}
            Op::Stats => self
                .out
                .extend_from_slice(protocol::render_ok(id, watch::stats(shared)).as_bytes()),
            Op::Watch { interval_ms, count } => {
                // The watch handshake itself is one (cheap) traced request;
                // the streamed ticks are not requests.
                let flushed = self.flush();
                if let Some(tr) = trace {
                    finish_trace(shared, tr, false, shared.clock.now_nanos());
                }
                return flushed && self.watch(id, interval_ms, count);
            }
            Op::Shutdown => {
                let stopping = vec![("stopping".to_string(), Value::Bool(true))];
                self.out
                    .extend_from_slice(protocol::render_ok(id, stopping).as_bytes());
                self.sent(trace, false);
                self.flush();
                // Only now: the teardown shuts this socket down too.
                shared.stopping.store(true, Ordering::SeqCst);
                return false;
            }
        }
        self.sent(trace, false)
    }

    /// Queue one `predict` with the batcher without waiting for its answer.
    /// A request the batcher refuses (no model, unknown cluster, a full
    /// queue) is answered at once, in its place. At `max_batch` queued
    /// predicts the connection settles, so one client never holds more of
    /// the shared queue than one flush takes.
    fn enqueue(
        &mut self,
        id: Option<u64>,
        trace: Option<RequestTrace>,
        cluster: String,
        collective: Collective,
        job: JobConfig,
    ) -> bool {
        let shared = self.shared;
        let answer = match shared.batcher.enqueue(&cluster, collective, job) {
            Ok(answer) => answer,
            Err(err) => return self.reject(id, &err, trace),
        };
        self.in_flight.push(InFlight {
            id,
            trace,
            cluster,
            collective,
            job,
            answer,
        });
        self.in_flight.len() < shared.batcher.max_batch() || self.settle()
    }

    /// Wait for the queued predicts' answers, in request order, and append
    /// their replies. `out` is written before the first wait, so no earlier
    /// reply waits on the batcher; the replies appended here leave with the
    /// next flush. Returns whether the connection stays open.
    pub(crate) fn settle(&mut self) -> bool {
        if self.in_flight.is_empty() {
            return true;
        }
        if !self.flush() {
            return false;
        }
        let shared = self.shared;
        let mut in_flight = std::mem::take(&mut self.in_flight);
        for mut p in in_flight.drain(..) {
            let outcome = p.answer.recv().unwrap_or_else(|_| Err(worker_gone()));
            let t1 = stamp(shared, &p.trace);
            let (algo, timing) = match outcome {
                Ok(picked) => picked,
                Err(err) => {
                    if !self.reject(p.id, &err, p.trace) {
                        return false;
                    }
                    continue;
                }
            };
            if let Some(tr) = p.trace.as_mut() {
                // Measured worker-side and already in the windowed
                // histograms; copy into the trace without re-observing.
                tr.push("queue_wait", timing.queue_wait_ns);
                tr.push("batch_assembly", timing.batch_assembly_ns);
                tr.push("predict", timing.predict_ns);
            }
            protocol::write_predict(&mut self.out, p.id, algo);
            serialized(shared, &mut p.trace, t1);
            if let Some(q) = shared.quality.as_ref() {
                q.observe(|| QualitySample {
                    cluster: p.cluster,
                    collective: p.collective,
                    job: p.job,
                    algo,
                    depth: None,
                });
            }
            if !self.sent(p.trace, false) {
                return false;
            }
        }
        // Keep the allocation for the next burst.
        self.in_flight = in_flight;
        true
    }

    /// Stream observability snapshots: one `ok` frame per tick with a `seq`
    /// counter, `count` ticks total (`0` = until the client hangs up or the
    /// daemon stops). Returns whether the connection should stay open.
    fn watch(&mut self, id: Option<u64>, interval_ms: u64, count: u64) -> bool {
        // An endless watch with a (near-)zero interval would spin the daemon;
        // a finite one may use interval 0 (one-shot snapshot fetches).
        let interval = if count == 0 {
            interval_ms.max(100)
        } else {
            interval_ms
        };
        let mut seq: u64 = 0;
        loop {
            seq += 1;
            let tick = watch::tick(self.shared, seq);
            self.out
                .extend_from_slice(protocol::render_ok(id, tick).as_bytes());
            self.out.push(b'\n');
            if !self.flush() {
                return false;
            }
            if count > 0 && seq >= count {
                return self.stream.set_read_timeout(None).is_ok();
            }
            if !self.wait(interval) {
                return false;
            }
        }
    }

    /// Wait `interval_ms` for the next `watch` tick by reading the socket;
    /// what arrives is answered after the watch, in order. Returns `false`
    /// when the connection ends: at EOF (the client hung up, or the
    /// teardown shut the socket down), on a transport error, or with the
    /// read buffer full.
    fn wait(&mut self, interval_ms: u64) -> bool {
        let clock = &self.shared.clock;
        let deadline = clock
            .now_nanos()
            .saturating_add(interval_ms.saturating_mul(1_000_000));
        loop {
            let left = deadline.saturating_sub(clock.now_nanos());
            let room = self.buf.get_mut(self.tail..).unwrap_or(&mut []);
            if left == 0 || room.is_empty() {
                return left == 0;
            }
            let mut stream = &*self.stream;
            let timeout = Some(Duration::from_nanos(left));
            let read = stream
                .set_read_timeout(timeout)
                .and_then(|()| stream.read(room));
            match read.map_err(|e| e.kind()) {
                Ok(0) => return false,
                Ok(n) => self.tail += n,
                // A timeout is the next tick.
                Err(io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted) => {}
                Err(_) => return false,
            }
        }
    }
}

/// A clock reading for a traced request; an untraced one reads no clock.
fn stamp(shared: &Shared, trace: &Option<RequestTrace>) -> u64 {
    trace.as_ref().map_or(0, |_| shared.clock.now_nanos())
}

/// Close out a traced request's `serialize` stage, which runs from the end
/// of the stage before it (`since`) to now.
fn serialized(shared: &Shared, trace: &mut Option<RequestTrace>, since: u64) {
    if let Some(tr) = trace.as_mut() {
        let t = shared.clock.now_nanos();
        tr.stage("serialize", t.saturating_sub(since), t);
    }
}

/// Close out one request's trace at clock reading `now`: end-to-end total
/// into the windowed histogram, SLO over-target counters, and (past the
/// threshold) the slow ring.
fn finish_trace(shared: &Shared, mut tr: RequestTrace, is_error: bool, now: u64) {
    let total = now.saturating_sub(tr.started_ns);
    reqtrace::REQUEST_TOTAL.observe(total, now);
    if is_error {
        reqtrace::WINDOW_ERRORS.inc(now);
    }
    if let Some(slo) = shared.slo.as_ref() {
        if total > slo.p50_ns {
            reqtrace::WINDOW_OVER_P50.inc(now);
        }
        if total > slo.p99_ns {
            reqtrace::WINDOW_OVER_P99.inc(now);
        }
    }
    if total >= shared.slow_threshold_ns {
        tr.push("total", total);
        shared.slow_ring.push(SlowRequest {
            id: tr.id,
            op: tr.op,
            total_ns: total,
            stages: tr.stages().to_vec(),
        });
    }
}
