//! Inputs every workload shares: the trimmed zoo, one offline pass over it,
//! the noiseless oracle that decisions are scored against, and the
//! generator behind shapes, layouts and request lists.
//!
//! What is trained on and what is scored never depends on `--seed`: the
//! quality metrics are gated at half a per cent, and the training noise a
//! datagen seed selects alone moves `top1_acc` by up to four. The seed
//! orders the work instead (which cluster is deployed when, which burst is
//! sent when); [`FIXED`] draws everything else.

use crate::trace::Recorder;
use pml_mpi::clusters::{generate_cluster, measure_cell, zoo, ClusterEntry, DatagenConfig};
use pml_mpi::core::{JobConfig, PretrainedModel, TrainConfig};
use pml_mpi::{Algorithm, Collective, TuningRecord};

pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// Clusters never trained on, as in §VII-C of the paper.
pub const HELD_OUT: [&str; 2] = ["Frontera", "MRI"];
/// The trimmed zoo keeps node counts and PPNs up to these.
pub const TRIM_NODES: u32 = 4;
pub const TRIM_PPN: u32 = 16;
/// The held-out clusters are judged on jobs twice as wide as any trained
/// on (up to 128 ranks): decisions there are the ones that can go wrong.
pub const HELD_NODES: u32 = 8;

/// The seed behind every input that must be the same on every run.
pub const FIXED: u64 = 12;

/// xorshift64*: the benchmark's only source of randomness, so its inputs
/// do not move when the repo's vendored `rand` does.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        // SplitMix64 of (seed, stream): adjacent seeds give unrelated states.
        let mut z = seed
            .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        Rng((z ^ (z >> 31)) | 1)
    }

    pub fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// FNV-1a over artifact bytes: printed per run so two runs of one seed can
/// be compared without keeping the artifacts.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The 18 Table I clusters cut down to small jobs, split into the 16
/// trained on and the 2 held out.
#[derive(Debug, Clone)]
pub struct TrimmedZoo {
    pub train: Vec<ClusterEntry>,
    pub held: Vec<ClusterEntry>,
}

pub fn trimmed_zoo() -> TrimmedZoo {
    let (mut train, mut held) = (Vec::new(), Vec::new());
    for entry in zoo() {
        let mut e = entry.clone();
        e.ppn_grid.retain(|&p| p <= TRIM_PPN);
        if HELD_OUT.contains(&e.name()) {
            e.node_grid.retain(|&n| n <= HELD_NODES);
            held.push(e);
        } else {
            e.node_grid.retain(|&n| n <= TRIM_NODES);
            train.push(e);
        }
    }
    TrimmedZoo { train, held }
}

impl TrimmedZoo {
    pub fn train_cells(&self) -> usize {
        Collective::PAPER.len()
            * self
                .train
                .iter()
                .map(ClusterEntry::grid_size)
                .sum::<usize>()
    }
}

/// What one offline pass leaves behind.
#[derive(Debug)]
pub struct Pass {
    pub records: Vec<TuningRecord>,
    /// One model per paper collective, in [`Collective::PAPER`] order.
    pub models: Vec<PretrainedModel>,
    pub json: Vec<String>,
}

/// One offline pass: simulated micro-benchmarks over the trimmed training
/// zoo for both collectives (the library's default noise and datagen seed),
/// a forest per collective, and the shipped JSON.
pub fn offline_pass(rec: &Recorder, zoo: &TrimmedZoo) -> Res<Pass> {
    let cfg = DatagenConfig::default();
    let records = rec.time_items("clusters.datagen", zoo.train_cells() as u64, || {
        let mut records = Vec::new();
        for collective in Collective::PAPER {
            for entry in &zoo.train {
                records.extend(generate_cluster(entry, collective, &cfg)?);
            }
        }
        Ok::<_, pml_mpi::clusters::ClustersError>(records)
    })?;
    let models = rec.time("core.train", || {
        Collective::PAPER
            .iter()
            .map(|&c| PretrainedModel::train(&records, c, &TrainConfig::default()))
            .collect::<Result<Vec<_>, _>>()
    })?;
    let json = rec.time("core.model_to_json", || {
        models
            .iter()
            .map(PretrainedModel::to_json)
            .collect::<Result<Vec<_>, _>>()
    })?;
    Ok(Pass {
        records,
        models,
        json,
    })
}

/// Running tally of decisions scored against the noiseless oracle.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Score {
    pub cells: u64,
    top1: u64,
    slowdown: f64,
}

impl Score {
    /// Score `chosen` for the cell `oracle` measured. A pick whose
    /// noiseless runtime ties the best counts as the best. Degenerate
    /// cells (one rank, nothing to rank) are skipped; a pick the oracle
    /// never measured was inapplicable and is reported as an `Err`.
    pub fn add(&mut self, oracle: &TuningRecord, chosen: Algorithm) -> Result<(), String> {
        let best = oracle.best_runtime();
        if best <= 0.0 {
            return Ok(());
        }
        let runtime = oracle.runtime_of(chosen).ok_or_else(|| {
            format!(
                "{chosen} is not applicable at {}x{} ({})",
                oracle.nodes, oracle.ppn, oracle.cluster
            )
        })?;
        self.cells += 1;
        self.top1 += u64::from(runtime <= best);
        self.slowdown += runtime / best;
        Ok(())
    }

    pub fn top1_acc(&self) -> f64 {
        self.top1 as f64 / self.cells.max(1) as f64
    }

    pub fn mean_slowdown(&self) -> f64 {
        self.slowdown / self.cells.max(1) as f64
    }
}

/// The noiseless record of one cell — what an exhaustive micro-benchmark
/// sweep on a quiet machine would have measured.
pub fn oracle_cell(
    entry: &ClusterEntry,
    collective: Collective,
    job: JobConfig,
) -> Res<TuningRecord> {
    Ok(measure_cell(
        entry,
        collective,
        job.nodes,
        job.ppn,
        job.msg_size,
        &DatagenConfig::noiseless(),
    )?)
}

/// Noiseless records for a cluster's whole grid, in grid order.
pub fn oracle_grid(entry: &ClusterEntry, collective: Collective) -> Res<Vec<TuningRecord>> {
    Ok(generate_cluster(
        entry,
        collective,
        &DatagenConfig::noiseless(),
    )?)
}

/// A job shape off the grids the benchmark builds tables for: node counts
/// and PPNs that are no power of two and an odd-sized message, all small
/// enough (at most 63 ranks) for a cheap oracle.
pub fn off_grid_job(rng: &mut Rng) -> JobConfig {
    let nodes = rng.pick(&[3u32, 5, 6, 7]);
    let ppn = rng.pick(&[3u32, 5, 6, 7, 9]);
    let msg = (1usize << rng.below(20)) + 1 + rng.below(1 << 10);
    JobConfig::new(nodes, ppn, msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pml_mpi::collectives::AlltoallAlgo;

    #[test]
    fn rng_is_a_pure_function_of_seed_and_stream() {
        let draw = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            (0..4).map(|_| r.next()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 1), draw(7, 1));
        assert_ne!(draw(7, 1), draw(8, 1));
        assert_ne!(draw(7, 1), draw(7, 2));
        let mut r = Rng::new(0, 0);
        assert!((0..1000).all(|_| r.below(7) < 7));
    }

    #[test]
    fn a_seed_reorders_without_adding_or_dropping() {
        let order = |seed| {
            let mut items: Vec<u32> = (0..41).collect();
            Rng::new(seed, 0xc1).shuffle(&mut items);
            items
        };
        assert_eq!(order(3), order(3));
        assert_ne!(order(3), order(4));
        let mut sorted = order(3);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..41).collect::<Vec<u32>>());
    }

    #[test]
    fn trimmed_zoo_holds_out_the_paper_pair() {
        let z = trimmed_zoo();
        assert_eq!(z.train.len() + z.held.len(), 18);
        assert_eq!(z.held.len(), HELD_OUT.len());
        for (entries, nodes_max) in [(&z.train, TRIM_NODES), (&z.held, HELD_NODES)] {
            for e in entries {
                assert!(e.node_grid.iter().all(|&n| n <= nodes_max));
                assert!(e.ppn_grid.iter().all(|&p| p <= TRIM_PPN));
                assert!(e.grid_size() > 0, "{} trimmed to nothing", e.name());
            }
        }
    }

    #[test]
    fn score_counts_ties_and_rejects_inapplicable_picks() {
        let bruck = Algorithm::Alltoall(AlltoallAlgo::Bruck);
        let pairwise = Algorithm::Alltoall(AlltoallAlgo::Pairwise);
        let scattered = Algorithm::Alltoall(AlltoallAlgo::ScatterDest);
        let oracle = TuningRecord {
            cluster: "X".into(),
            collective: Collective::Alltoall,
            nodes: 2,
            ppn: 3,
            msg_size: 64,
            best: bruck,
            runtimes: vec![(bruck, 1e-6), (pairwise, 1e-6), (scattered, 3e-6)],
        };
        let mut s = Score::default();
        s.add(&oracle, bruck).unwrap();
        s.add(&oracle, pairwise).unwrap();
        s.add(&oracle, scattered).unwrap();
        assert_eq!(s.cells, 3);
        assert!((s.top1_acc() - 2.0 / 3.0).abs() < 1e-12);
        assert!((s.mean_slowdown() - 5.0 / 3.0).abs() < 1e-12);
        let rd = Algorithm::Alltoall(AlltoallAlgo::RecursiveDoubling);
        assert!(s.add(&oracle, rd).is_err());
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
