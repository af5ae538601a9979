//! The online selection-quality monitor: a 1-in-K sampler that re-scores
//! served decisions against the analytic α-β-γ referee, off the reply
//! critical path.
//!
//! The paper's promise is that pre-trained selection matches (or beats)
//! what exhaustive tuning would pick — but nothing in a black-box daemon
//! says whether that still holds on the traffic actually arriving. The
//! analytic cost model ([`AnalyticSelector`], fitted constants per node
//! type) is a free, independent referee: for every K-th served decision
//! the monitor asks "what would the analytic model have picked for this
//! shape?", and records, per (collective, cluster):
//!
//! * **agreement rate** — how often the served pick equals the analytic
//!   pick;
//! * **cost gap when disagreeing** — the mean relative analytic-cost
//!   penalty of the served pick over the analytic optimum (a large gap on
//!   some region of the grid is the first online drift signal);
//! * **fallback-depth mix** — which tier (`exact` … `default-rules`)
//!   actually answered, for `select`-path samples.
//!
//! Sampling must never perturb serving: the connection thread pays one
//! sequence increment per request, and only every K-th request clones its
//! job shape into a bounded channel (full channel → sample dropped and
//! counted, never blocked). The scoring thread does the analytic work.

use crate::reqtrace::lock;
use pml_collectives::{schedcost, Algorithm, Collective};
use pml_core::{AnalyticSelector, FallbackDepth, JobConfig};
use pml_simnet::JobLayout;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};

/// Bound on samples in flight to the scoring thread.
const SAMPLE_QUEUE_DEPTH: usize = 1024;

/// One sampled decision, as served.
#[derive(Debug, Clone)]
pub struct QualitySample {
    /// Cluster label: the request's cluster for `predict`, the backing
    /// table's cluster for `select`.
    pub cluster: String,
    pub collective: Collective,
    pub job: JobConfig,
    /// What the daemon answered.
    pub algo: Algorithm,
    /// How the decision was reached (`select` path only).
    pub depth: Option<FallbackDepth>,
}

/// Accumulated per-(collective, cluster) scoring state.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QualityCell {
    /// Samples attributed to this cell.
    pub samples: u64,
    /// Samples the referee could score (cluster resolved, shape ranked).
    pub scored: u64,
    pub agreements: u64,
    pub disagreements: u64,
    /// Sum of relative cost gaps over disagreements
    /// (`(cost_served - cost_best) / cost_best`).
    pub gap_sum: f64,
    /// Samples with no referee (unknown cluster or unrankable shape).
    pub unscored: u64,
    /// Fallback-depth mix, indexed by [`FallbackDepth::as_u64`]
    /// (exact, nearest-bucket, substituted, analytic, default-rules).
    pub fallback: [u64; 5],
}

impl QualityCell {
    /// Agreement rate over scored samples (0 when nothing scored yet).
    pub fn agreement_rate(&self) -> f64 {
        if self.scored == 0 {
            0.0
        } else {
            self.agreements as f64 / self.scored as f64
        }
    }

    /// Mean relative cost gap over disagreements.
    pub fn mean_cost_gap(&self) -> f64 {
        if self.disagreements == 0 {
            0.0
        } else {
            self.gap_sum / self.disagreements as f64
        }
    }
}

type QualityState = BTreeMap<(String, String), QualityCell>;

/// The sampling monitor. Owned by the server's shared state. Dropping it
/// discards the scoring backlog, which nothing reads once the monitor is
/// gone: the scoring thread ends at its next sample, so a shutdown never
/// waits for up to a queue's worth of scoring.
#[derive(Debug)]
pub struct QualityMonitor {
    every: u64,
    seq: AtomicU64,
    dropped: AtomicU64,
    tx: mpsc::SyncSender<QualitySample>,
    state: Arc<Mutex<QualityState>>,
}

impl QualityMonitor {
    /// Sample one request in `every` (clamped to >= 1). When
    /// `referee_cluster` is set, all samples are scored against that zoo
    /// cluster's node spec instead of resolving the sample's own cluster
    /// label — for deployments whose table cluster is not in the zoo.
    pub fn new(every: u64, referee_cluster: Option<String>) -> QualityMonitor {
        let (tx, rx) = mpsc::sync_channel::<QualitySample>(SAMPLE_QUEUE_DEPTH);
        let state: Arc<Mutex<QualityState>> = Arc::new(Mutex::new(BTreeMap::new()));
        let scoring_state = Arc::downgrade(&state);
        // Detached: it ends at the first sample after the monitor is gone.
        std::thread::spawn(move || {
            while let (Ok(sample), Some(state)) = (rx.recv(), scoring_state.upgrade()) {
                score(&state, sample, referee_cluster.as_deref());
            }
        });
        QualityMonitor {
            every: every.max(1),
            seq: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            tx,
            state,
        }
    }

    /// The configured K of 1-in-K.
    pub fn every(&self) -> u64 {
        self.every
    }

    /// Decisions seen (sampled or not).
    pub fn seen(&self) -> u64 {
        self.seq.load(Ordering::SeqCst)
    }

    /// Samples dropped because the scoring queue was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::SeqCst)
    }

    /// Called on every served decision. Cheap path: one increment; only
    /// every K-th call materializes a sample (the closure defers the
    /// clones) and hands it to the scoring thread without blocking.
    pub fn observe(&self, sample: impl FnOnce() -> QualitySample) {
        let n = self.seq.fetch_add(1, Ordering::SeqCst) + 1;
        if !n.is_multiple_of(self.every) {
            return;
        }
        if self.tx.try_send(sample()).is_err() {
            self.dropped.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Copy of the per-(collective, cluster) scoring state, sorted.
    pub fn cells(&self) -> Vec<((String, String), QualityCell)> {
        lock(&self.state)
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }
}

/// Score one sample into the shared state (runs on the scoring thread).
fn score(state: &Mutex<QualityState>, sample: QualitySample, referee_cluster: Option<&str>) {
    let referee = referee_cluster
        .unwrap_or(sample.cluster.as_str())
        .to_string();
    let analytic =
        pml_clusters::by_name(&referee).map(|entry| AnalyticSelector::new(entry.spec.node.clone()));
    let verdict = analytic.as_ref().and_then(|selector| {
        let best = selector.try_select(sample.collective, sample.job)?;
        let gap = if best == sample.algo {
            0.0
        } else {
            relative_cost_gap(selector, &sample, best)
        };
        Some((best, gap))
    });

    let key = (
        crate::protocol::collective_wire_name(sample.collective).to_string(),
        sample.cluster.clone(),
    );
    let mut state = lock(state);
    let cell = state.entry(key).or_default();
    cell.samples += 1;
    if let Some(depth) = sample.depth {
        let idx = depth.as_u64() as usize;
        if idx < cell.fallback.len() {
            cell.fallback[idx] += 1;
        }
    }
    match verdict {
        Some((best, gap)) => {
            cell.scored += 1;
            if best == sample.algo {
                cell.agreements += 1;
            } else {
                cell.disagreements += 1;
                cell.gap_sum += gap;
            }
        }
        None => cell.unscored += 1,
    }
}

/// Relative analytic-cost penalty of the served pick over the referee's
/// optimum; 0 when either cost is unavailable or degenerate.
fn relative_cost_gap(selector: &AnalyticSelector, sample: &QualitySample, best: Algorithm) -> f64 {
    let layout = JobLayout::new(sample.job.nodes, sample.job.ppn);
    let node = selector.node();
    let served = schedcost::cost_for(sample.algo, node, layout, sample.job.msg_size);
    let optimum = schedcost::cost_for(best, node, layout, sample.job.msg_size);
    match (served, optimum) {
        (Some(s), Some(b)) if b > 0.0 && s.is_finite() && b.is_finite() => ((s - b) / b).max(0.0),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pml_collectives::AlltoallAlgo;

    fn wait_for<F: Fn() -> bool>(cond: F) {
        for _ in 0..200 {
            if cond() {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        panic!("condition never became true");
    }

    fn sample(job: JobConfig, algo: Algorithm) -> QualitySample {
        QualitySample {
            cluster: "RI".to_string(),
            collective: Collective::Alltoall,
            job,
            algo,
            depth: Some(FallbackDepth::Exact),
        }
    }

    #[test]
    fn one_in_k_sampling_scores_against_the_analytic_referee() {
        let monitor = QualityMonitor::new(2, None);
        let node = pml_clusters::by_name("RI").expect("zoo").spec.node.clone();
        let referee = AnalyticSelector::new(node);
        let job = JobConfig::new(4, 8, 65536);
        let analytic_pick = referee
            .try_select(Collective::Alltoall, job)
            .expect("rankable shape");
        // 8 decisions at K=2 -> 4 samples, all served the analytic pick.
        for _ in 0..8 {
            monitor.observe(|| sample(job, analytic_pick));
        }
        assert_eq!(monitor.seen(), 8);
        wait_for(|| monitor.cells().iter().map(|(_, c)| c.samples).sum::<u64>() == 4);
        let cells = monitor.cells();
        assert_eq!(cells.len(), 1);
        let ((coll, cluster), cell) = &cells[0];
        assert_eq!((coll.as_str(), cluster.as_str()), ("alltoall", "RI"));
        assert_eq!(cell.scored, 4);
        assert_eq!(cell.agreements, 4);
        assert_eq!(cell.agreement_rate(), 1.0);
        assert_eq!(cell.fallback[0], 4);
    }

    #[test]
    fn disagreement_records_a_positive_cost_gap() {
        let monitor = QualityMonitor::new(1, None);
        let node = pml_clusters::by_name("RI").expect("zoo").spec.node.clone();
        let referee = AnalyticSelector::new(node);
        let job = JobConfig::new(4, 8, 65536);
        let analytic_pick = referee
            .try_select(Collective::Alltoall, job)
            .expect("rankable shape");
        // Serve the *other* algorithm, whichever that is.
        let wrong = [
            Algorithm::Alltoall(AlltoallAlgo::Bruck),
            Algorithm::Alltoall(AlltoallAlgo::Pairwise),
        ]
        .into_iter()
        .find(|a| *a != analytic_pick)
        .expect("two candidates");
        monitor.observe(|| sample(job, wrong));
        wait_for(|| monitor.cells().iter().map(|(_, c)| c.samples).sum::<u64>() == 1);
        let cell = monitor.cells()[0].1.clone();
        assert_eq!(cell.disagreements, 1);
        assert!(cell.mean_cost_gap() >= 0.0);
        assert_eq!(cell.agreement_rate(), 0.0);
    }

    #[test]
    fn unknown_cluster_counts_as_unscored_not_a_crash() {
        let monitor = QualityMonitor::new(1, None);
        monitor.observe(|| QualitySample {
            cluster: "Atlantis".to_string(),
            collective: Collective::Alltoall,
            job: JobConfig::new(2, 2, 64),
            algo: Algorithm::Alltoall(AlltoallAlgo::Bruck),
            depth: None,
        });
        wait_for(|| monitor.cells().iter().map(|(_, c)| c.samples).sum::<u64>() == 1);
        let cell = monitor.cells()[0].1.clone();
        assert_eq!(cell.unscored, 1);
        assert_eq!(cell.scored, 0);
    }

    #[test]
    fn referee_override_redirects_scoring() {
        // Cluster label unknown to the zoo, but the override referee is
        // real: the sample must be scored, keyed under its own label.
        let monitor = QualityMonitor::new(1, Some("RI".to_string()));
        monitor.observe(|| QualitySample {
            cluster: "smoke".to_string(),
            collective: Collective::Alltoall,
            job: JobConfig::new(4, 8, 65536),
            algo: Algorithm::Alltoall(AlltoallAlgo::Pairwise),
            depth: Some(FallbackDepth::Exact),
        });
        wait_for(|| monitor.cells().iter().map(|(_, c)| c.samples).sum::<u64>() == 1);
        let ((_, cluster), cell) = monitor.cells()[0].clone();
        assert_eq!(cluster, "smoke");
        assert_eq!(cell.scored, 1);
    }
}
