//! Algorithm-selection strategies — the contenders of §VII.
//!
//! * [`MlSelector`] — the proposed pre-trained-model selector;
//! * [`MvapichDefault`] — a static size-threshold heuristic in the style of
//!   MVAPICH2 2.3.7's shipped tuning tables (hardware-blind, which is
//!   precisely the weakness the paper attacks);
//! * [`OpenMpiDefault`] — Open MPI's empirical decision rules, with
//!   different thresholds and algorithm preferences;
//! * [`RandomSelector`] — uniform over applicable algorithms (Fig. 8's
//!   strawman);
//! * [`OracleSelector`] — exhaustive offline micro-benchmarking (the upper
//!   bound every other strategy is measured against);
//! * [`AnalyticSelector`] — static α-β-γ cost polynomials fitted per node
//!   type (hardware-aware, model-free; the tuner's graded fallback tier).

#![cfg_attr(not(test), deny(clippy::wildcard_enum_match_arm))]
#![cfg_attr(not(test), deny(clippy::match_wildcard_for_single_variants))]

use crate::tuning_table::{TableEntry, TableIndex};
use pml_clusters::TuningRecord;
use pml_collectives::{
    Algorithm, AllgatherAlgo, AllreduceAlgo, AlltoallAlgo, BcastAlgo, Collective,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// A job configuration to select an algorithm for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JobConfig {
    pub nodes: u32,
    pub ppn: u32,
    pub msg_size: usize,
}

impl JobConfig {
    pub fn new(nodes: u32, ppn: u32, msg_size: usize) -> Self {
        JobConfig {
            nodes,
            ppn,
            msg_size,
        }
    }

    /// The job shape a request or a command line names, each field checked
    /// as `field` reads it: `nodes`, `ppn` (each a `u32` ≥ 1), `msg_size` (a
    /// `usize`); then a world of at most `u32::MAX` ranks, so `world_size`
    /// cannot wrap. `wrap` makes a message naming the field the caller's
    /// error. The one check the daemon's `field` errors and CLI flags share.
    pub fn read<E>(
        mut field: impl FnMut(&str) -> Result<u64, E>,
        wrap: impl Fn(String) -> E,
    ) -> Result<Self, E> {
        let mut ranks = |key: &str| match u32::try_from(field(key)?) {
            Ok(0) => Err(wrap(format!("{key:?} must be >= 1"))),
            Ok(v) => Ok(v),
            Err(_) => Err(wrap(format!("{key:?} out of range"))),
        };
        let (nodes, ppn) = (ranks("nodes")?, ranks("ppn")?);
        let msg_size = usize::try_from(field("msg_size")?)
            .map_err(|_| wrap("\"msg_size\" out of range".to_string()))?;
        if nodes.checked_mul(ppn).is_none() {
            return Err(wrap(format!(
                "\"nodes\" x \"ppn\" = {} ranks, above {}",
                u64::from(nodes) * u64::from(ppn),
                u32::MAX
            )));
        }
        Ok(JobConfig::new(nodes, ppn, msg_size))
    }

    pub fn world_size(&self) -> u32 {
        self.nodes * self.ppn
    }
}

/// An algorithm-selection strategy.
pub trait AlgorithmSelector {
    /// Human-readable strategy name (used in benchmark reports).
    fn name(&self) -> &str;

    /// Choose an algorithm for this collective and job. Implementations
    /// must return an algorithm that supports the job's world size.
    fn select(&self, collective: Collective, job: JobConfig) -> Algorithm;

    /// Choose algorithms for a whole batch of jobs. The default loops over
    /// [`AlgorithmSelector::select`]; selectors with a cheaper bulk path
    /// (the ML selector runs one batched forest inference) override it.
    fn select_batch(&self, collective: Collective, jobs: &[JobConfig]) -> Vec<Algorithm> {
        jobs.iter().map(|&j| self.select(collective, j)).collect()
    }
}

/// If `preferred` is undefined at this world size, fall back to the best
/// always-applicable relative its registry row names (every MPI library
/// does a variant of this).
pub fn applicable_or_fallback(preferred: Algorithm, world: u32) -> Algorithm {
    if preferred.supports(world) {
        preferred
    } else {
        preferred.fallback()
    }
}

// ---------------------------------------------------------------------------

/// MVAPICH2-style static default tuning: pure message-size (and world-size)
/// thresholds, identical on every machine.
#[derive(Debug, Clone, Default)]
pub struct MvapichDefault;

impl AlgorithmSelector for MvapichDefault {
    fn name(&self) -> &str {
        "MVAPICH2-2.3.7-default"
    }

    fn select(&self, collective: Collective, job: JobConfig) -> Algorithm {
        let p = job.world_size();
        let m = job.msg_size;
        let preferred = match collective {
            Collective::Allgather => {
                // The MPICH/MVAPICH rule keys on the *total* gathered data
                // p·m: short vectors use recursive doubling (power-of-two)
                // or Bruck (otherwise), long vectors use the ring.
                let total = m * (p as usize);
                if total < 80 * 1024 && p.is_power_of_two() {
                    Algorithm::Allgather(AllgatherAlgo::RecursiveDoubling)
                } else if total < 80 * 1024 {
                    Algorithm::Allgather(AllgatherAlgo::Bruck)
                } else {
                    Algorithm::Allgather(AllgatherAlgo::Ring)
                }
            }
            Collective::Alltoall => {
                if m <= 256 {
                    Algorithm::Alltoall(AlltoallAlgo::Bruck)
                } else if m <= 32 * 1024 {
                    Algorithm::Alltoall(AlltoallAlgo::ScatterDest)
                } else {
                    Algorithm::Alltoall(AlltoallAlgo::Pairwise)
                }
            }
            Collective::Bcast => {
                // MPICH: binomial short, scatter+allgather long.
                if m < 12 * 1024 || p < 8 {
                    Algorithm::Bcast(BcastAlgo::Binomial)
                } else if m < 512 * 1024 {
                    Algorithm::Bcast(BcastAlgo::ScatterAllgather)
                } else {
                    Algorithm::Bcast(BcastAlgo::PipelinedRing)
                }
            }
            Collective::Allreduce => {
                // MPICH: recursive doubling short, Rabenseifner-style long.
                if m <= 2048 {
                    Algorithm::Allreduce(AllreduceAlgo::RecursiveDoubling)
                } else {
                    Algorithm::Allreduce(AllreduceAlgo::RingReduceScatter)
                }
            }
        };
        applicable_or_fallback(preferred, p)
    }
}

/// Open MPI-style decision rules (the empirical decision trees of Open MPI
/// 4.x/5.x `tuned`): different thresholds, neighbour-exchange preference
/// for mid-size allgathers, linear/scatter for mid-size alltoall.
#[derive(Debug, Clone, Default)]
pub struct OpenMpiDefault;

impl AlgorithmSelector for OpenMpiDefault {
    fn name(&self) -> &str {
        "OpenMPI-5.1.0a-default"
    }

    fn select(&self, collective: Collective, job: JobConfig) -> Algorithm {
        let p = job.world_size();
        let m = job.msg_size;
        let preferred = match collective {
            Collective::Allgather => {
                if m <= 1024 && p.is_power_of_two() {
                    Algorithm::Allgather(AllgatherAlgo::RecursiveDoubling)
                } else if m <= 1024 {
                    Algorithm::Allgather(AllgatherAlgo::Bruck)
                } else if m <= 64 * 1024 {
                    Algorithm::Allgather(AllgatherAlgo::NeighborExchange)
                } else {
                    Algorithm::Allgather(AllgatherAlgo::Ring)
                }
            }
            Collective::Alltoall => {
                if m <= 64 {
                    Algorithm::Alltoall(AlltoallAlgo::Bruck)
                } else if m <= 8 * 1024 {
                    Algorithm::Alltoall(AlltoallAlgo::ScatterDest)
                } else if p <= 64 {
                    Algorithm::Alltoall(AlltoallAlgo::Inplace)
                } else {
                    Algorithm::Alltoall(AlltoallAlgo::Pairwise)
                }
            }
            Collective::Bcast => {
                if m <= 2048 {
                    Algorithm::Bcast(BcastAlgo::Binomial)
                } else if m <= 128 * 1024 {
                    Algorithm::Bcast(BcastAlgo::ScatterAllgather)
                } else {
                    Algorithm::Bcast(BcastAlgo::PipelinedRing)
                }
            }
            Collective::Allreduce => {
                if m <= 8 * 1024 && p.is_power_of_two() {
                    Algorithm::Allreduce(AllreduceAlgo::RecursiveDoubling)
                } else if m <= 1024 {
                    Algorithm::Allreduce(AllreduceAlgo::ReduceBroadcast)
                } else {
                    Algorithm::Allreduce(AllreduceAlgo::RingReduceScatter)
                }
            }
        };
        applicable_or_fallback(preferred, p)
    }
}

// ---------------------------------------------------------------------------

/// Uniform random choice among applicable algorithms, deterministic per
/// (seed, collective, job).
#[derive(Debug, Clone)]
pub struct RandomSelector {
    pub seed: u64,
}

impl RandomSelector {
    pub fn new(seed: u64) -> Self {
        RandomSelector { seed }
    }
}

impl AlgorithmSelector for RandomSelector {
    fn name(&self) -> &str {
        "random-selection"
    }

    fn select(&self, collective: Collective, job: JobConfig) -> Algorithm {
        let p = job.world_size();
        let candidates = Algorithm::applicable_for(collective, p);
        let mix = self
            .seed
            .wrapping_mul(0x9e3779b97f4a7c15)
            .wrapping_add((job.nodes as u64) << 40)
            .wrapping_add((job.ppn as u64) << 24)
            .wrapping_add(job.msg_size as u64)
            .wrapping_add(collective as u64);
        let mut rng = StdRng::seed_from_u64(mix);
        match candidates.choose(&mut rng) {
            Some(a) => *a,
            // applicable_for never returns an empty set, but stay total.
            None => MvapichDefault.select(collective, job),
        }
    }
}

// ---------------------------------------------------------------------------

/// Exhaustive offline micro-benchmarking: looks the winner up in measured
/// records (nearest grid bucket for off-grid queries). This is the paper's
/// "optimal" reference — unbeatable on-grid by construction, but obtained
/// at the core-hour cost Figs. 1/7 quantify.
#[derive(Debug, Clone)]
pub struct OracleSelector {
    name: String,
    /// Per measured collective: (nodes, ppn, msg) -> best algorithm.
    tables: BTreeMap<Collective, TableIndex>,
}

impl OracleSelector {
    /// Build from measured tuning records (usually
    /// [`pml_clusters::generate_cluster`] output for one cluster).
    pub fn from_records(cluster: &str, records: &[TuningRecord]) -> Self {
        let mut cells: BTreeMap<Collective, Vec<TableEntry>> = BTreeMap::new();
        // Latest first: of two records for one cell the index keeps the
        // first, and the later measurement is the one that counts.
        for r in records.iter().rev().filter(|r| r.cluster == cluster) {
            cells.entry(r.collective).or_default().push(TableEntry {
                nodes: r.nodes,
                ppn: r.ppn,
                msg_size: r.msg_size as u64,
                algorithm: r.best,
            });
        }
        OracleSelector {
            name: format!("oracle-microbenchmark[{cluster}]"),
            tables: cells
                .iter()
                .map(|(&c, entries)| (c, TableIndex::new(entries)))
                .collect(),
        }
    }

    pub fn len(&self) -> usize {
        self.tables.values().map(TableIndex::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }
}

impl AlgorithmSelector for OracleSelector {
    fn name(&self) -> &str {
        &self.name
    }

    fn select(&self, collective: Collective, job: JobConfig) -> Algorithm {
        let (nodes, ppn, msg, world) = (job.nodes, job.ppn, job.msg_size as u64, job.world_size());
        let measured = self.tables.get(&collective).and_then(|t| {
            let nearest = || Some(applicable_or_fallback(t.nearest(nodes, ppn, msg)?, world));
            t.get(nodes, ppn, msg).or_else(nearest)
        });
        // No measurements for this collective at all: behave like the
        // library default rather than dying mid-benchmark.
        measured.unwrap_or_else(|| MvapichDefault.select(collective, job))
    }
}

// ---------------------------------------------------------------------------

/// The analytic α-β-γ tier: ranks applicable algorithms by statically
/// extracted cost polynomials evaluated against constants fitted for one
/// node type (`pml_collectives::schedcost`). Hardware-aware but
/// model-free — the graded middle ground between a pre-trained tuning
/// table and the hardware-blind library default rules, and what
/// [`crate::Tuner::with_analytic`] consults at
/// [`crate::FallbackDepth::Analytic`].
#[derive(Debug, Clone)]
pub struct AnalyticSelector {
    node: pml_simnet::NodeSpec,
}

impl AnalyticSelector {
    pub fn new(node: pml_simnet::NodeSpec) -> Self {
        AnalyticSelector { node }
    }

    /// The node type the cost constants are fitted for.
    pub fn node(&self) -> &pml_simnet::NodeSpec {
        &self.node
    }

    /// The analytically cheapest applicable algorithm, or `None` when the
    /// shape admits no ranking (degenerate layouts, no applicable
    /// algorithms). Deterministic: polynomials and fitted constants are
    /// pure functions of (node, shape), with ties broken by registry
    /// index.
    pub fn try_select(&self, collective: Collective, job: JobConfig) -> Option<Algorithm> {
        if job.nodes == 0 || job.ppn == 0 {
            return None;
        }
        let layout = pml_simnet::JobLayout::new(job.nodes, job.ppn);
        pml_collectives::schedcost::best_static(collective, &self.node, layout, job.msg_size)
    }
}

impl AlgorithmSelector for AnalyticSelector {
    fn name(&self) -> &str {
        "analytic-cost-model"
    }

    fn select(&self, collective: Collective, job: JobConfig) -> Algorithm {
        self.try_select(collective, job)
            .unwrap_or_else(|| MvapichDefault.select(collective, job))
    }
}

// ---------------------------------------------------------------------------

/// The proposed selector: a pre-trained model's tuning-table output.
/// Defined in [`crate::pipeline`]; re-exported here for discoverability.
pub use crate::pipeline::MlSelector;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_respect_applicability() {
        for selector in [&MvapichDefault as &dyn AlgorithmSelector, &OpenMpiDefault] {
            for coll in Collective::ALL {
                for (n, ppn, m) in [(3, 2, 64), (2, 3, 1 << 20), (5, 7, 8192), (1, 2, 1)] {
                    let a = selector.select(coll, JobConfig::new(n, ppn, m));
                    assert!(
                        a.supports(n * ppn),
                        "{} chose {a} for p={}",
                        selector.name(),
                        n * ppn
                    );
                    assert_eq!(a.collective(), coll);
                }
            }
        }
    }

    #[test]
    fn mvapich_thresholds() {
        let s = MvapichDefault;
        let small = s.select(Collective::Alltoall, JobConfig::new(2, 8, 64));
        let large = s.select(Collective::Alltoall, JobConfig::new(2, 8, 1 << 20));
        assert_eq!(small, Algorithm::Alltoall(AlltoallAlgo::Bruck));
        assert_eq!(large, Algorithm::Alltoall(AlltoallAlgo::Pairwise));
    }

    #[test]
    fn defaults_disagree_somewhere() {
        // The two libraries must be distinguishable baselines.
        let a = MvapichDefault;
        let b = OpenMpiDefault;
        let mut differ = false;
        for logm in 0..=20 {
            let job = JobConfig::new(4, 8, 1 << logm);
            for coll in Collective::ALL {
                if a.select(coll, job) != b.select(coll, job) {
                    differ = true;
                }
            }
        }
        assert!(differ);
    }

    #[test]
    fn random_is_deterministic_per_config_but_varies() {
        let s = RandomSelector::new(7);
        let job = JobConfig::new(2, 8, 1024);
        let a1 = s.select(Collective::Alltoall, job);
        let a2 = s.select(Collective::Alltoall, job);
        assert_eq!(a1, a2);
        let mut seen = std::collections::BTreeSet::new();
        for logm in 0..=20 {
            seen.insert(s.select(Collective::Alltoall, JobConfig::new(2, 8, 1 << logm)));
        }
        assert!(seen.len() >= 3, "random selection barely varies: {seen:?}");
    }

    #[test]
    fn oracle_matches_records_and_interpolates() {
        use pml_clusters::{measure_cell, DatagenConfig};
        let e = pml_clusters::by_name("RI").unwrap();
        let recs = vec![
            measure_cell(
                e,
                Collective::Alltoall,
                2,
                4,
                64,
                &DatagenConfig::noiseless(),
            )
            .unwrap(),
            measure_cell(
                e,
                Collective::Alltoall,
                2,
                4,
                65536,
                &DatagenConfig::noiseless(),
            )
            .unwrap(),
        ];
        let o = OracleSelector::from_records("RI", &recs);
        assert_eq!(o.len(), 2);
        assert_eq!(
            o.select(Collective::Alltoall, JobConfig::new(2, 4, 64)),
            recs[0].best
        );
        // Off-grid: nearest bucket.
        assert_eq!(
            o.select(Collective::Alltoall, JobConfig::new(2, 4, 100)),
            recs[0].best
        );
    }

    #[test]
    fn oracle_without_records_falls_back_to_default_rules() {
        let o = OracleSelector::from_records("nowhere", &[]);
        assert!(o.is_empty());
        let job = JobConfig::new(2, 4, 4096);
        for coll in Collective::ALL {
            assert_eq!(o.select(coll, job), MvapichDefault.select(coll, job));
        }
    }

    #[test]
    fn select_batch_matches_per_job_selection() {
        let jobs: Vec<JobConfig> = (0..=16)
            .map(|logm| JobConfig::new(4, 8, 1 << logm))
            .collect();
        for selector in [&MvapichDefault as &dyn AlgorithmSelector, &OpenMpiDefault] {
            let batch = selector.select_batch(Collective::Allgather, &jobs);
            for (a, &j) in batch.iter().zip(&jobs) {
                assert_eq!(*a, selector.select(Collective::Allgather, j));
            }
        }
    }

    #[test]
    fn fallback_rules() {
        // The index, in its collective, of what each algorithm runs at
        // p = 1..=64, as recorded when every rule was its own match arm.
        #[rustfmt::skip]
        const RUNS: [(&str, &str); 15] = [
            ("MPI_Allgather:recursive_doubling",  "0020222022222220222222222222222022222222222222222222222222222220"),
            ("MPI_Allgather:ring",                "1111111111111111111111111111111111111111111111111111111111111111"),
            ("MPI_Allgather:bruck",               "2222222222222222222222222222222222222222222222222222222222222222"),
            ("MPI_Allgather:rd_communication",    "3313131313131313131313131313131313131313131313131313131313131313"),
            ("MPI_Alltoall:bruck",                "0000000000000000000000000000000000000000000000000000000000000000"),
            ("MPI_Alltoall:scatter_dest",         "1111111111111111111111111111111111111111111111111111111111111111"),
            ("MPI_Alltoall:pairwise",             "2222222222222222222222222222222222222222222222222222222222222222"),
            ("MPI_Alltoall:recursive_doubling",   "3303000300000003000000000000000300000000000000000000000000000003"),
            ("MPI_Alltoall:inplace",              "4444444444444444444444444444444444444444444444444444444444444444"),
            ("MPI_Bcast:binomial",                "0000000000000000000000000000000000000000000000000000000000000000"),
            ("MPI_Bcast:scatter_allgather",       "1111111111111111111111111111111111111111111111111111111111111111"),
            ("MPI_Bcast:pipelined_ring",          "2222222222222222222222222222222222222222222222222222222222222222"),
            ("MPI_Allreduce:recursive_doubling",  "0010111011111110111111111111111011111111111111111111111111111110"),
            ("MPI_Allreduce:ring_reduce_scatter", "1111111111111111111111111111111111111111111111111111111111111111"),
            ("MPI_Allreduce:reduce_broadcast",    "2222222222222222222222222222222222222222222222222222222222222222"),
        ];
        let all = Collective::ALL.into_iter().flat_map(Algorithm::all_for);
        assert_eq!(all.clone().count(), RUNS.len());
        for (&preferred, (label, runs)) in all.zip(RUNS) {
            assert_eq!(preferred.to_string(), label);
            let got: String = (1..=64)
                .map(|p| applicable_or_fallback(preferred, p).index().to_string())
                .collect();
            assert_eq!(got, runs, "{preferred}");
        }
        assert_eq!(
            applicable_or_fallback(Algorithm::Allgather(AllgatherAlgo::RecursiveDoubling), 6),
            Algorithm::Allgather(AllgatherAlgo::Bruck)
        );
        assert_eq!(
            applicable_or_fallback(Algorithm::Allgather(AllgatherAlgo::NeighborExchange), 7),
            Algorithm::Allgather(AllgatherAlgo::Ring)
        );
        assert_eq!(
            applicable_or_fallback(Algorithm::Alltoall(AlltoallAlgo::RecursiveDoubling), 12),
            Algorithm::Alltoall(AlltoallAlgo::Bruck)
        );
    }
}
