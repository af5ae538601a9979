//! Tuning-dataset generation: the simulated counterpart of running the
//! OSU micro-benchmarks over every grid cell of every cluster (Table I).
//!
//! Every (cluster, collective, #nodes, PPN, message size) cell is measured
//! by executing each applicable algorithm's schedule in virtual time,
//! perturbed by the noise model and averaged over `iters` iterations —
//! exactly the paper's protocol for absorbing dynamic network conditions.
//! Cells are independent, so generation fans out over rayon.

use crate::error::ClustersError;
use crate::record::TuningRecord;
use crate::zoo::ClusterEntry;
use pml_collectives::{measure_sweep, Algorithm, Collective};
use pml_obs::{span, Counter};
use pml_simnet::{JobLayout, NoiseModel};

/// Grid cells measured by dataset generation (one tuning record each).
static DATAGEN_CELLS: Counter = Counter::new("datagen.cells");
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Dataset-generation settings.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DatagenConfig {
    pub noise: NoiseModel,
    /// Benchmark iterations averaged per measurement.
    pub iters: u32,
    /// Master seed; every cell derives its own RNG from it, so results are
    /// reproducible and order-independent.
    pub seed: u64,
}

impl Default for DatagenConfig {
    fn default() -> Self {
        DatagenConfig {
            noise: NoiseModel::typical(),
            iters: 3,
            seed: 0x9e3779b97f4a7c15,
        }
    }
}

impl DatagenConfig {
    /// Noise-free, single-iteration generation (for oracle tables and fast
    /// tests).
    pub fn noiseless() -> Self {
        DatagenConfig {
            noise: NoiseModel::disabled(),
            iters: 1,
            seed: 0,
        }
    }

    /// Reject configs that cannot produce measurements (e.g. zero
    /// iterations, whose average would divide by zero).
    pub fn validate(&self) -> Result<(), ClustersError> {
        if self.iters == 0 {
            return Err(ClustersError::InvalidParam {
                param: "iters",
                why: "need at least one benchmark iteration".into(),
            });
        }
        Ok(())
    }
}

/// FNV-1a, used to give every grid cell an independent deterministic seed.
fn cell_seed(master: u64, cluster: &str, collective: Collective, n: u32, p: u32, m: usize) -> u64 {
    let mut h = 0xcbf29ce484222325u64 ^ master;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    eat(cluster.as_bytes());
    eat(&[collective as u8]);
    eat(&n.to_le_bytes());
    eat(&p.to_le_bytes());
    eat(&m.to_le_bytes());
    h
}

/// Measure one grid cell: every applicable algorithm, averaged noisy
/// runtimes, sorted fastest first — a one-column [`generate_cluster`].
pub fn measure_cell(
    entry: &ClusterEntry,
    collective: Collective,
    nodes: u32,
    ppn: u32,
    msg_size: usize,
    cfg: &DatagenConfig,
) -> Result<TuningRecord, ClustersError> {
    cfg.validate()?;
    let layout = JobLayout::new(nodes, ppn);
    let base = measure_sweep(collective, &entry.spec.node, layout, &[msg_size])
        .pop()
        .unwrap_or_default();
    Ok(finish_cell(
        entry, collective, nodes, ppn, msg_size, base, cfg,
    ))
}

/// All grid cells of one cluster for one collective, in deterministic grid
/// order (nodes-major), measured in parallel.
///
/// Job shapes fan out over rayon; within a shape, every algorithm's
/// schedule is generated once and re-simulated across the message-size
/// sweep (`measure_sweep`), then per-cell noise is applied — the records
/// [`measure_cell`] produces one at a time, which the tests assert.
pub fn generate_cluster(
    entry: &ClusterEntry,
    collective: Collective,
    cfg: &DatagenConfig,
) -> Result<Vec<TuningRecord>, ClustersError> {
    cfg.validate()?;
    let _span = span!("datagen.cluster", cluster = entry.name());
    let shapes: Vec<(u32, u32)> = entry
        .node_grid
        .iter()
        .flat_map(|&n| entry.ppn_grid.iter().map(move |&p| (n, p)))
        .collect();
    let records: Vec<TuningRecord> = shapes
        .into_par_iter()
        .flat_map_iter(|(n, p)| {
            let bases = measure_sweep(
                collective,
                &entry.spec.node,
                JobLayout::new(n, p),
                &entry.msg_grid,
            );
            bases
                .into_iter()
                .zip(entry.msg_grid.clone())
                .map(move |(base, m)| finish_cell(entry, collective, n, p, m, base, cfg))
        })
        .collect();
    DATAGEN_CELLS.add(records.len() as u64);
    Ok(records)
}

/// Apply the per-cell noise protocol to noise-free base runtimes (in
/// registry order: each algorithm draws its `iters` samples in turn from
/// the cell's own generator) and build the record.
fn finish_cell(
    entry: &ClusterEntry,
    collective: Collective,
    nodes: u32,
    ppn: u32,
    msg_size: usize,
    base: Vec<(Algorithm, f64)>,
    cfg: &DatagenConfig,
) -> TuningRecord {
    let mut rng = StdRng::seed_from_u64(cell_seed(
        cfg.seed,
        entry.name(),
        collective,
        nodes,
        ppn,
        msg_size,
    ));
    let mut runtimes: Vec<(Algorithm, f64)> = base
        .into_iter()
        .map(|(a, t)| {
            let avg = if cfg.noise.is_disabled() && cfg.iters == 1 {
                t
            } else {
                let mut acc = 0.0;
                for _ in 0..cfg.iters {
                    acc += t * cfg.noise.sample(&mut rng);
                }
                acc / cfg.iters as f64
            };
            (a, avg)
        })
        .collect();
    runtimes.sort_by(|a, b| a.1.total_cmp(&b.1));
    TuningRecord {
        cluster: entry.name().to_string(),
        collective,
        nodes,
        ppn,
        msg_size,
        best: runtimes[0].0,
        runtimes,
    }
}

/// The full Table I dataset for one collective: every cluster's grid.
pub fn generate_full(
    clusters: &[ClusterEntry],
    collective: Collective,
    cfg: &DatagenConfig,
) -> Result<Vec<TuningRecord>, ClustersError> {
    let mut out = Vec::new();
    for c in clusters {
        out.extend(generate_cluster(c, collective, cfg)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;

    fn small_entry() -> ClusterEntry {
        let mut e = zoo::by_name("RI2").unwrap().clone();
        e.node_grid = vec![1, 2];
        e.ppn_grid = vec![2, 4];
        e.msg_grid = vec![64, 4096];
        e
    }

    #[test]
    fn cell_measures_all_applicable_algorithms() {
        let e = small_entry();
        let r = measure_cell(
            &e,
            Collective::Alltoall,
            2,
            4,
            64,
            &DatagenConfig::noiseless(),
        )
        .unwrap();
        assert_eq!(r.runtimes.len(), 5); // 8 ranks: power of two, all apply
        assert_eq!(r.best, r.runtimes[0].0);
        for w in r.runtimes.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let e = small_entry();
        let cfg = DatagenConfig::default();
        let a = generate_cluster(&e, Collective::Allgather, &cfg).unwrap();
        let b = generate_cluster(&e, Collective::Allgather, &cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn grid_order_and_count() {
        let e = small_entry();
        let recs =
            generate_cluster(&e, Collective::Allgather, &DatagenConfig::noiseless()).unwrap();
        assert_eq!(recs.len(), e.grid_size());
        assert_eq!((recs[0].nodes, recs[0].ppn, recs[0].msg_size), (1, 2, 64));
        assert_eq!((recs[3].nodes, recs[3].ppn, recs[3].msg_size), (1, 4, 4096));
    }

    #[test]
    fn sweep_path_matches_cell_path() {
        let e = small_entry();
        let cfg = DatagenConfig::default();
        for cfg in [cfg, DatagenConfig::noiseless()] {
            for coll in Collective::ALL {
                for r in generate_cluster(&e, coll, &cfg).unwrap() {
                    let cell = measure_cell(&e, coll, r.nodes, r.ppn, r.msg_size, &cfg);
                    assert_eq!(cell.unwrap(), r);
                }
            }
        }
    }

    #[test]
    fn noisy_average_converges_to_base() {
        let e = small_entry();
        let many = DatagenConfig {
            iters: 400,
            ..DatagenConfig::default()
        };
        let noisy = measure_cell(&e, Collective::Allgather, 2, 4, 512, &many).unwrap();
        let clean = DatagenConfig::noiseless();
        let base = measure_cell(&e, Collective::Allgather, 2, 4, 512, &clean).unwrap();
        for &(a, t) in &base.runtimes {
            let avg = noisy.runtime_of(a).unwrap();
            assert!((avg / t - 1.0).abs() < 0.05, "{a}: {avg} vs {t}");
        }
    }

    #[test]
    fn zero_iterations_rejected() {
        let e = small_entry();
        let cfg = DatagenConfig {
            iters: 0,
            ..DatagenConfig::default()
        };
        assert!(measure_cell(&e, Collective::Alltoall, 2, 4, 64, &cfg).is_err());
        assert!(generate_cluster(&e, Collective::Allgather, &cfg).is_err());
    }

    #[test]
    fn noise_changes_measurements_but_not_determinism() {
        let e = small_entry();
        let noisy = DatagenConfig {
            noise: pml_simnet::NoiseModel::new(0.2),
            iters: 2,
            seed: 1,
        };
        let clean = DatagenConfig::noiseless();
        let rn = measure_cell(&e, Collective::Alltoall, 2, 4, 4096, &noisy).unwrap();
        let rc = measure_cell(&e, Collective::Alltoall, 2, 4, 4096, &clean).unwrap();
        let tn = rn.runtime_of(rc.best).unwrap();
        let tc = rc.best_runtime();
        assert_ne!(tn, tc);
        // Same seed, same result.
        let rn2 = measure_cell(&e, Collective::Alltoall, 2, 4, 4096, &noisy).unwrap();
        assert_eq!(rn, rn2);
    }
}
