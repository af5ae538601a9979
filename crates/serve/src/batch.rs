//! The request batcher: many concurrent `predict` lookups, one forest
//! inference.
//!
//! Forest inference amortizes: feature extraction and tree traversal over
//! a batch of rows costs far less than the same rows one at a time (the
//! `infer.batch.rows` histogram in pml-obs exists to show exactly that).
//! So the daemon never calls [`PretrainedModel::predict_batch`] per
//! request — connection threads enqueue work items into a bounded queue
//! and a single worker drains it: it blocks for the first item, takes
//! whatever else is already queued (up to the batch cap), groups the batch
//! by (collective, cluster), and runs one batched inference per group. It
//! never waits for more — the queue fills while the worker predicts, so
//! concurrent submitters coalesce and a lone one is answered at once. One
//! connection's pipelined `predict`s coalesce as well: it enqueues every
//! one it has read before it waits for any answer (see [`crate::conn`]),
//! so a burst that arrived in one read is answered by one flush.
//!
//! Only answerable work is queued: [`Batcher::submit`] and its
//! non-blocking half resolve the model and the cluster first, so either
//! one missing is a typed `unsupported` error at once. A full queue is a
//! typed `overload` error, also at once — the client sees
//! `{"error":{"kind":"overload"}}` and can back off.

use crate::protocol::{collective_wire_name, ErrorKind, ProtoError};
use crate::reqtrace::{STAGE_BATCH_ASSEMBLY, STAGE_PREDICT, STAGE_QUEUE_WAIT};
use pml_clusters::ClusterEntry;
use pml_collectives::{Algorithm, Collective};
use pml_core::{JobConfig, PretrainedModel};
use pml_obs::{Clock, Histogram};
use std::collections::BTreeMap;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Rows per flushed inference batch (how well the queue coalesces).
static BATCH_ROWS: Histogram =
    Histogram::new("serve.batch.rows", &[1, 2, 4, 8, 16, 32, 64, 128, 256]);

/// Queue and batch sizing for the batcher.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Bounded queue depth; a full queue rejects with `overload`.
    pub queue_depth: usize,
    /// At most this many items leave in one flush.
    pub max_batch: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            queue_depth: 4096,
            max_batch: 128,
        }
    }
}

/// Where a `predict` request spent its time inside the batcher, reported
/// back alongside the answer so the connection thread can attribute the
/// request's lifecycle without re-measuring (all zeros when the batcher
/// was built without a trace clock).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchTiming {
    /// Queued → the worker dequeued the item.
    pub queue_wait_ns: u64,
    /// Dequeue → the queue was drained and flushing began.
    pub batch_assembly_ns: u64,
    /// An equal share of the batched forest inference of the item's group.
    pub predict_ns: u64,
}

/// What comes back on an enqueued lookup's channel.
pub(crate) type Answer = Result<(Algorithm, BatchTiming), ProtoError>;

/// One queued lookup plus the channel its answer goes back on.
struct WorkItem {
    model: Arc<PretrainedModel>,
    entry: &'static ClusterEntry,
    collective: Collective,
    job: JobConfig,
    /// Clock reading when it was queued (0 when tracing is off).
    enqueued_ns: u64,
    reply: mpsc::Sender<Answer>,
}

/// The batching front end to a set of pre-trained models (one per
/// collective). `Send + Sync`: connection threads share one batcher.
#[derive(Debug)]
pub struct Batcher {
    models: BTreeMap<Collective, Arc<PretrainedModel>>,
    tx: Option<mpsc::SyncSender<WorkItem>>,
    worker: Option<JoinHandle<()>>,
    /// `BatchConfig::max_batch`, which connections also cap their
    /// in-flight `predict`s at.
    max_batch: usize,
    /// When set, stage timings are measured and recorded into the
    /// windowed stage histograms; `None` keeps the batcher clock-free.
    trace: Option<Arc<dyn Clock>>,
}

impl Batcher {
    /// Spawn the worker thread over `models` (keyed by collective). With a
    /// `trace` clock, every item's queue-wait / batch-assembly / predict
    /// durations are measured and recorded into the windowed stage
    /// histograms (`serve.stage.*`).
    pub fn new(
        models: BTreeMap<Collective, Arc<PretrainedModel>>,
        cfg: BatchConfig,
        trace: Option<Arc<dyn Clock>>,
    ) -> Batcher {
        let (tx, rx) = mpsc::sync_channel(cfg.queue_depth.max(1));
        let clock = trace.clone();
        let max_batch = cfg.max_batch;
        // Block for the first item, take what else is already queued, flush
        // — waiting for more is never worth a lone request's time. It ends
        // when the Batcher drops its sender.
        let worker = std::thread::spawn(move || {
            while let Ok(first) = rx.recv() {
                drain(first, &rx, max_batch, clock.as_deref());
            }
        });
        Batcher {
            models,
            tx: Some(tx),
            worker: Some(worker),
            max_batch,
            trace,
        }
    }

    /// The most items one flush takes, as configured.
    pub(crate) fn max_batch(&self) -> usize {
        self.max_batch
    }

    /// Enqueue one lookup and wait for its batched answer plus the stage
    /// timing breakdown. Fails fast with `unsupported` when no model or no
    /// such cluster is loaded, and with `overload` when the queue is full.
    pub fn submit(
        &self,
        cluster: &str,
        collective: Collective,
        job: JobConfig,
    ) -> Result<(Algorithm, BatchTiming), ProtoError> {
        self.enqueue(cluster, collective, job)?
            .recv()
            .map_err(|_| worker_gone())?
    }

    /// The non-blocking half of [`Batcher::submit`]: validate, queue, and
    /// hand back the channel the answer will arrive on.
    pub(crate) fn enqueue(
        &self,
        cluster: &str,
        collective: Collective,
        job: JobConfig,
    ) -> Result<mpsc::Receiver<Answer>, ProtoError> {
        let unsupported = |msg: String| ProtoError::new(ErrorKind::Unsupported, msg);
        let model = self.models.get(&collective).ok_or_else(|| {
            let (name, has) = (collective_wire_name(collective), loaded_names(&self.models));
            unsupported(format!("no model loaded for {name} (daemon has: {has})"))
        })?;
        let entry = pml_clusters::by_name(cluster).ok_or_else(|| {
            unsupported(format!("unknown cluster {cluster:?} (see `pml-mpi zoo`)"))
        })?;
        let tx = self.tx.as_ref().ok_or_else(worker_gone)?;
        let (reply, answer) = mpsc::channel();
        let item = WorkItem {
            model: Arc::clone(model),
            entry,
            collective,
            job,
            enqueued_ns: self.trace.as_ref().map_or(0, |c| c.now_nanos()),
            reply,
        };
        match tx.try_send(item) {
            Ok(()) => Ok(answer),
            Err(mpsc::TrySendError::Full(_)) => Err(ProtoError::new(
                ErrorKind::Overload,
                "batch queue full; retry after a backoff",
            )),
            Err(mpsc::TrySendError::Disconnected(_)) => Err(worker_gone()),
        }
    }
}

/// The answer to a lookup whose worker exited before answering.
pub(crate) fn worker_gone() -> ProtoError {
    ProtoError::new(ErrorKind::Internal, "batch worker is gone")
}

/// Flush `first` together with what is already queued behind it, up to
/// `max_batch` items.
fn drain(
    first: WorkItem,
    rx: &mpsc::Receiver<WorkItem>,
    max_batch: usize,
    clock: Option<&dyn Clock>,
) {
    // Each item is paired with the clock reading at dequeue time.
    let stamp = |item| (item, clock.map_or(0, |c| c.now_nanos()));
    let mut batch = vec![stamp(first)];
    while batch.len() < max_batch {
        match rx.try_recv() {
            Ok(item) => batch.push(stamp(item)),
            Err(_) => break, // queue empty or senders gone
        }
    }
    flush(batch, clock);
}

impl Drop for Batcher {
    fn drop(&mut self) {
        // Dropping the sender ends the worker's recv loop; join so queued
        // items are answered before the models are torn down.
        self.tx.take();
        if let Some(worker) = self.worker.take() {
            worker.join().ok();
        }
    }
}

/// Answer one collected batch: group by (collective, cluster), one
/// [`PretrainedModel::predict_batch`] call per group. Send failures are
/// ignored — a disconnected client just stops caring about its answer.
/// Each item's `predict` stage is an equal share of its group's inference,
/// so the stage adds up per request however many rows a group carried.
fn flush(batch: Vec<(WorkItem, u64)>, clock: Option<&dyn Clock>) {
    BATCH_ROWS.observe(batch.len() as u64);
    let flush_start = clock.map(|c| c.now_nanos());
    let mut groups: BTreeMap<(Collective, &'static str), Vec<_>> = BTreeMap::new();
    for (item, popped_ns) in batch {
        // Queue wait and assembly are known now; predict fills in per
        // group below. Recorded into the windowed histograms here (once,
        // worker-side) and shipped back for the request's own trace.
        let mut timing = BatchTiming::default();
        if let Some(now) = flush_start {
            timing.queue_wait_ns = popped_ns.saturating_sub(item.enqueued_ns);
            timing.batch_assembly_ns = now.saturating_sub(popped_ns);
            STAGE_QUEUE_WAIT.observe(timing.queue_wait_ns, now);
            STAGE_BATCH_ASSEMBLY.observe(timing.batch_assembly_ns, now);
        }
        groups
            .entry((item.collective, item.entry.name()))
            .or_default()
            .push((item, timing));
    }
    for items in groups.into_values() {
        let Some((first, _)) = items.first() else {
            continue;
        };
        let jobs: Vec<JobConfig> = items.iter().map(|(i, _)| i.job).collect();
        let t0 = clock.map(|c| c.now_nanos());
        let algos = first.model.predict_batch(&first.entry.spec.node, &jobs);
        let t1 = clock.map(|c| c.now_nanos());
        let share = t0
            .zip(t1)
            .map(|(t0, t1)| (t1.saturating_sub(t0) / items.len() as u64, t1));
        for ((item, mut timing), algo) in items.into_iter().zip(algos) {
            if let Some((share, t1)) = share {
                timing.predict_ns = share;
                STAGE_PREDICT.observe(share, t1);
            }
            item.reply.send(Ok((algo, timing))).ok();
        }
    }
}

fn loaded_names(models: &BTreeMap<Collective, Arc<PretrainedModel>>) -> String {
    let names: Vec<&str> = models.keys().map(|c| collective_wire_name(*c)).collect();
    if names.is_empty() {
        return "none".to_string();
    }
    names.join(", ")
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use pml_core::{EngineConfig, SelectionEngine, TrainConfig};
    use pml_mlcore::ForestParams;
    use pml_obs::FakeClock;
    use std::sync::Mutex;

    impl Batcher {
        /// [`Batcher::new`], except that the worker takes nothing off the
        /// queue until `gate` receives a message, and from then on holds
        /// each drain's first item until `gate` receives another — so a
        /// test decides what is queued when each drain happens. Once the
        /// gate's sender is dropped, nothing is held.
        pub(crate) fn gated(
            models: BTreeMap<Collective, Arc<PretrainedModel>>,
            cfg: BatchConfig,
            gate: mpsc::Receiver<()>,
        ) -> Batcher {
            let (tx, rx) = mpsc::sync_channel(cfg.queue_depth.max(1));
            let max_batch = cfg.max_batch;
            let worker = std::thread::spawn(move || {
                gate.recv().ok();
                let mut opened = true;
                while let Ok(first) = rx.recv() {
                    if !std::mem::take(&mut opened) {
                        gate.recv().ok();
                    }
                    drain(first, &rx, max_batch, None);
                }
            });
            Batcher {
                models,
                tx: Some(tx),
                worker: Some(worker),
                max_batch,
                trace: None,
            }
        }
    }

    /// Held by every test in the crate that can flush more than one row at
    /// a time, so a test can count `serve.batch.rows` flushes.
    static FLUSHES: Mutex<()> = Mutex::new(());

    pub(crate) fn serial() -> std::sync::MutexGuard<'static, ()> {
        crate::reqtrace::lock(&FLUSHES)
    }

    /// Run `f` and count the flushes of more than one row it caused, by
    /// `serve.batch.rows` bucket: ≤2, ≤4, ≤8, ≤16, then the rest together.
    /// Single-row tests run beside the caller and land in ≤1, which is left
    /// out; the caller holds [`serial`].
    pub(crate) fn multi_row_flushes<T>(f: impl FnOnce() -> T) -> (T, [u64; 5]) {
        let counts = || {
            let snap = BATCH_ROWS.snap();
            [snap.counts, vec![snap.overflow]].concat()
        };
        let before = counts();
        let out = f();
        let after = counts();
        let mut delta = [0; 5];
        for (i, (a, b)) in after.iter().zip(&before).enumerate().skip(1) {
            delta[(i - 1).min(4)] += a - b;
        }
        (out, delta)
    }

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn batcher_is_send_sync() {
        assert_send_sync::<Batcher>();
    }

    fn mini_model(collective: Collective) -> Arc<PretrainedModel> {
        let clusters: Vec<_> = ["RI", "Haswell"]
            .iter()
            .map(|name| {
                let mut e = pml_clusters::by_name(name).expect("zoo cluster").clone();
                e.node_grid = vec![1, 2, 4];
                e.ppn_grid = vec![2, 8];
                e.msg_grid = vec![16, 1024, 65536];
                e
            })
            .collect();
        let cfg = EngineConfig {
            datagen: pml_clusters::DatagenConfig::noiseless(),
            train: TrainConfig {
                forest: ForestParams {
                    n_estimators: 15,
                    seed: 3,
                    ..Default::default()
                },
                top_k_features: Some(5),
            },
            cache_dir: None,
        };
        SelectionEngine::with_clusters(clusters, cfg)
            .train(collective)
            .expect("mini training succeeds")
    }

    fn alltoall_only(model: &Arc<PretrainedModel>) -> BTreeMap<Collective, Arc<PretrainedModel>> {
        BTreeMap::from([(Collective::Alltoall, Arc::clone(model))])
    }

    fn frontera_jobs(n: u32) -> Vec<JobConfig> {
        (0..n)
            .map(|i| JobConfig::new(1 + i % 5, 1 + (i * 3) % 16, 1usize << (i % 18)))
            .collect()
    }

    fn frontera_direct(model: &PretrainedModel, jobs: &[JobConfig]) -> Vec<Algorithm> {
        let node = &pml_clusters::by_name("Frontera")
            .expect("zoo cluster")
            .spec
            .node;
        model.predict_batch(node, jobs)
    }

    #[test]
    fn batched_answers_match_direct_model_calls() {
        let _serial = serial();
        let model = mini_model(Collective::Alltoall);
        let batcher = Arc::new(Batcher::new(
            alltoall_only(&model),
            BatchConfig::default(),
            None,
        ));
        let jobs = frontera_jobs(32);
        let direct = frontera_direct(&model, &jobs);

        let handles: Vec<_> = jobs
            .iter()
            .map(|&job| {
                let b = Arc::clone(&batcher);
                std::thread::spawn(move || b.submit("Frontera", Collective::Alltoall, job))
            })
            .collect();
        let got: Vec<Algorithm> = handles
            .into_iter()
            .map(|h| {
                let (algo, timing) = h.join().expect("no panic").expect("submit succeeds");
                // No trace clock: the breakdown must stay all-zero.
                assert_eq!(timing, BatchTiming::default());
                algo
            })
            .collect();
        assert_eq!(got, direct, "batched answers must equal direct inference");
    }

    /// Eight requests queued behind a closed gate leave as one flush of 8
    /// (or as 3 + 3 + 2 under `max_batch: 3`), answered like direct calls.
    #[test]
    fn queued_requests_coalesce_up_to_max_batch() {
        let _serial = serial();
        let model = mini_model(Collective::Alltoall);
        let jobs = frontera_jobs(8);
        let direct = frontera_direct(&model, &jobs);
        for (max_batch, gained) in [(128, [0, 0, 1, 0, 0]), (3, [1, 2, 0, 0, 0])] {
            let (open, gate) = mpsc::channel::<()>();
            let cfg = BatchConfig {
                max_batch,
                ..BatchConfig::default()
            };
            let batcher = Batcher::gated(alltoall_only(&model), cfg, gate);
            let (got, flushes) = multi_row_flushes(|| {
                let answers: Vec<_> = jobs
                    .iter()
                    .map(|&job| batcher.enqueue("Frontera", Collective::Alltoall, job))
                    .collect();
                drop(open); // every drain may go now
                answers
                    .into_iter()
                    .map(|a| a.expect("queued").recv().expect("answered").expect("ok").0)
                    .collect::<Vec<Algorithm>>()
            });
            assert_eq!(got, direct, "max_batch {max_batch}");
            assert_eq!(flushes, gained, "max_batch {max_batch}");
        }
    }

    #[test]
    fn a_full_queue_is_a_typed_overload() {
        let _serial = serial();
        let model = mini_model(Collective::Alltoall);
        let (open, gate) = mpsc::channel();
        let cfg = BatchConfig {
            queue_depth: 2,
            ..BatchConfig::default()
        };
        let batcher = Batcher::gated(alltoall_only(&model), cfg, gate);
        let job = JobConfig::new(2, 8, 1024);
        let enqueue = || batcher.enqueue("Frontera", Collective::Alltoall, job);
        let queued = [enqueue().expect("slot 1"), enqueue().expect("slot 2")];
        let err = enqueue().expect_err("queue of 2 is full");
        assert_eq!(err.kind, ErrorKind::Overload);
        assert_eq!(err.message, "batch queue full; retry after a backoff");

        drop(open); // every drain may go now
        for answer in queued {
            answer.recv().expect("answered").expect("ok");
        }
        // Both slots are free again once their answers are out.
        let fourth = enqueue().expect("room again");
        fourth.recv().expect("answered").expect("ok");
    }

    /// A missing model or an unknown cluster is refused at the door: typed
    /// `unsupported` while the worker is still gated, and no queue slot taken.
    #[test]
    fn missing_model_and_unknown_cluster_are_typed_unsupported() {
        let _serial = serial();
        let model = mini_model(Collective::Alltoall);
        let (open, gate) = mpsc::channel();
        let cfg = BatchConfig {
            queue_depth: 2,
            ..BatchConfig::default()
        };
        let batcher = Batcher::gated(alltoall_only(&model), cfg, gate);
        let job = JobConfig::new(2, 8, 1024);
        let err = batcher
            .enqueue("Frontera", Collective::Bcast, job)
            .expect_err("no bcast model");
        assert_eq!(err.kind, ErrorKind::Unsupported);
        assert_eq!(
            err.message,
            "no model loaded for bcast (daemon has: alltoall)"
        );
        let err = batcher
            .enqueue("Atlantis", Collective::Alltoall, job)
            .expect_err("unknown cluster");
        assert_eq!(err.kind, ErrorKind::Unsupported);
        assert_eq!(
            err.message,
            "unknown cluster \"Atlantis\" (see `pml-mpi zoo`)"
        );
        // The whole queue is still free for work that can be answered.
        let enqueue = || batcher.enqueue("Frontera", Collective::Alltoall, job);
        let queued = [enqueue().expect("slot 1"), enqueue().expect("slot 2")];
        open.send(()).expect("worker is waiting on the gate");
        for answer in queued {
            answer.recv().expect("answered").expect("ok");
        }
    }

    /// A group's one inference is split equally over its rows, so the
    /// `predict` stage adds up per request: two groups of 3 and 1 rows,
    /// timed on a clock that advances 1 200 ns a reading.
    #[test]
    fn a_groups_inference_time_is_shared_by_its_rows() {
        let _serial = serial();
        let model = mini_model(Collective::Alltoall);
        let entries = ["Frontera", "Frontera", "RI", "Frontera"]
            .map(|name| pml_clusters::by_name(name).expect("zoo cluster"));
        let (answers, batch): (Vec<_>, Vec<_>) = entries
            .into_iter()
            .zip(frontera_jobs(4))
            .map(|(entry, job)| {
                let (reply, answer) = mpsc::channel();
                let item = WorkItem {
                    model: Arc::clone(&model),
                    entry,
                    collective: Collective::Alltoall,
                    job,
                    enqueued_ns: 0,
                    reply,
                };
                (answer, (item, 0))
            })
            .unzip();
        flush(batch, Some(&FakeClock::with_step(1_200)));
        let predict_ns: Vec<u64> = answers
            .iter()
            .map(|a| a.recv().expect("answered").expect("ok").1.predict_ns)
            .collect();
        assert_eq!(predict_ns, [400, 400, 1_200, 400]);
    }

    #[test]
    fn traced_submits_report_a_stage_breakdown() {
        let model = mini_model(Collective::Alltoall);
        let clock: Arc<dyn Clock> = Arc::new(pml_obs::MonotonicClock::new());
        let batcher = Batcher::new(alltoall_only(&model), BatchConfig::default(), Some(clock));
        let (_, timing) = batcher
            .submit("Frontera", Collective::Alltoall, JobConfig::new(2, 8, 1024))
            .expect("submit succeeds");
        // A real inference takes measurable time on a monotonic clock.
        assert!(timing.predict_ns > 0, "timing: {timing:?}");
        assert!(STAGE_PREDICT.snap().count >= 1);
        assert!(STAGE_QUEUE_WAIT.snap().count >= 1);
        assert!(STAGE_BATCH_ASSEMBLY.snap().count >= 1);
    }
}
