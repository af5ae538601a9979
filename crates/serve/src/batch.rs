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
//! concurrent submitters coalesce and a lone one is answered at once.
//!
//! Only answerable work is queued: [`Batcher::submit`] resolves the model
//! and the cluster first, so either one missing is a typed `unsupported`
//! error at once. A full queue is a typed `overload` error, also at once —
//! the client sees `{"error":{"kind":"overload"}}` and can back off.

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
    /// Submit → the worker dequeued the item.
    pub queue_wait_ns: u64,
    /// Dequeue → the queue was drained and flushing began.
    pub batch_assembly_ns: u64,
    /// The batched forest inference for the item's group.
    pub predict_ns: u64,
}

type Answer = Result<(Algorithm, BatchTiming), ProtoError>;

/// One queued lookup plus the channel its answer goes back on.
struct WorkItem {
    model: Arc<PretrainedModel>,
    entry: &'static ClusterEntry,
    collective: Collective,
    job: JobConfig,
    /// Clock reading at submit (0 when tracing is off).
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
        let worker = std::thread::spawn(move || work(&rx, cfg.max_batch, clock.as_deref()));
        Batcher {
            models,
            tx: Some(tx),
            worker: Some(worker),
            trace,
        }
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
    fn enqueue(
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

fn worker_gone() -> ProtoError {
    ProtoError::new(ErrorKind::Internal, "batch worker is gone")
}

/// The worker loop: block for the first item, take what else is already
/// queued, flush — waiting for more is never worth a lone request's time.
/// Returns when every sender (the Batcher) is gone.
fn work(rx: &mpsc::Receiver<WorkItem>, max_batch: usize, clock: Option<&dyn Clock>) {
    // Each item is paired with the clock reading at dequeue time.
    let stamp = |item| (item, clock.map_or(0, |c| c.now_nanos()));
    while let Ok(first) = rx.recv() {
        let mut batch = vec![stamp(first)];
        while batch.len() < max_batch {
            match rx.try_recv() {
                Ok(item) => batch.push(stamp(item)),
                Err(_) => break, // queue empty or senders gone
            }
        }
        flush(batch, clock);
    }
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
        for ((item, mut timing), algo) in items.into_iter().zip(algos) {
            // The group shares one inference; each item carries the
            // group's duration, mirroring what it actually waited on.
            if let Some((t0, t1)) = t0.zip(t1) {
                timing.predict_ns = t1.saturating_sub(t0);
                STAGE_PREDICT.observe(timing.predict_ns, t1);
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
mod tests {
    use super::*;
    use pml_core::{EngineConfig, SelectionEngine, TrainConfig};
    use pml_mlcore::ForestParams;
    use std::sync::Mutex;

    impl Batcher {
        /// [`Batcher::new`], except that the worker takes nothing off the
        /// queue until `gate` receives a message (or its sender is dropped),
        /// so a test decides what is queued when the first drain happens.
        pub(crate) fn gated(
            models: BTreeMap<Collective, Arc<PretrainedModel>>,
            cfg: BatchConfig,
            gate: mpsc::Receiver<()>,
        ) -> Batcher {
            let (tx, rx) = mpsc::sync_channel(cfg.queue_depth.max(1));
            let worker = std::thread::spawn(move || {
                gate.recv().ok();
                work(&rx, cfg.max_batch, None)
            });
            Batcher {
                models,
                tx: Some(tx),
                worker: Some(worker),
                trace: None,
            }
        }
    }

    /// Held by every test in the crate that can flush more than one row at
    /// a time, so the coalescing test can count `serve.batch.rows` flushes.
    static FLUSHES: Mutex<()> = Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        FLUSHES.lock().unwrap_or_else(|e| e.into_inner())
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
        // Buckets of `serve.batch.rows` past ≤1 (single-request tests run
        // beside this one and land there): ≤2, ≤4, ≤8, then the rest.
        for (max_batch, gained) in [(128, [0, 0, 1]), (3, [1, 2, 0])] {
            let (open, gate) = mpsc::channel();
            let cfg = BatchConfig {
                max_batch,
                ..BatchConfig::default()
            };
            let batcher = Batcher::gated(alltoall_only(&model), cfg, gate);
            let before = BATCH_ROWS.bucket_counts();
            let answers: Vec<_> = jobs
                .iter()
                .map(|&job| batcher.enqueue("Frontera", Collective::Alltoall, job))
                .collect();
            open.send(()).expect("worker is waiting on the gate");
            let got: Vec<Algorithm> = answers
                .into_iter()
                .map(|a| a.expect("queued").recv().expect("answered").expect("ok").0)
                .collect();
            assert_eq!(got, direct, "max_batch {max_batch}");
            let after = BATCH_ROWS.bucket_counts();
            let delta: Vec<u64> = after.iter().zip(&before).map(|(a, b)| a - b).collect();
            assert_eq!(delta[1..4], gained, "max_batch {max_batch}");
            assert_eq!(delta[4..].iter().sum::<u64>(), 0, "max_batch {max_batch}");
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

        open.send(()).expect("worker is waiting on the gate");
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
