//! Tuning-dataset generation: the simulated counterpart of running the
//! OSU micro-benchmarks over every grid cell of every cluster (Table I).
//!
//! Every (cluster, collective, #nodes, PPN, message size) cell is measured
//! by executing each applicable algorithm's schedule in virtual time,
//! perturbed by the noise model and averaged over `iters` iterations —
//! exactly the paper's protocol for absorbing dynamic network conditions.
//!
//! The work item is one (job shape, applicable algorithm) pair: one
//! algorithm's column over the message-size sweep ([`measure_algo`]). A
//! shape's cost grows with its world size, and a cluster's largest shape
//! holds more than half of its ring/pairwise work. Handed out a whole
//! shape at a time in grid order, that shape started last and ran alone
//! on one worker; handed out an algorithm at a time, largest world first,
//! it is split across the workers and the small items fill in behind.
//! Columns are then put back in grid and registry order and the per-cell
//! noise applied from a generator seeded by the cell's key alone, so the
//! records depend on neither the item order nor the worker count.

use crate::error::ClustersError;
use crate::record::TuningRecord;
use crate::zoo::ClusterEntry;
use pml_collectives::{measure_algo, measure_sweep, shape_setup, Algorithm, Collective};
use pml_obs::{span, Counter};
use pml_simnet::{CostModel, JobLayout, NoiseModel};

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
/// One rayon item per (job shape, applicable algorithm), largest world
/// first (a stable sort, so grid order and then registry order break
/// ties): each item generates its algorithm's schedule once and
/// re-simulates it across the message-size sweep ([`measure_algo`]). The
/// columns are then regrouped per shape and per-cell noise applied in grid
/// order — the records [`measure_cell`] produces one at a time, which the
/// tests assert.
pub fn generate_cluster(
    entry: &ClusterEntry,
    collective: Collective,
    cfg: &DatagenConfig,
) -> Result<Vec<TuningRecord>, ClustersError> {
    cfg.validate()?;
    let _span = span!("datagen.cluster", cluster = entry.name());
    let shapes: Vec<(JobLayout, CostModel, Vec<Algorithm>)> = entry
        .node_grid
        .iter()
        .flat_map(|&n| entry.ppn_grid.iter().map(move |&p| JobLayout::new(n, p)))
        .map(|layout| {
            let (cost, algos) = shape_setup(collective, &entry.spec.node, layout);
            (layout, cost, algos)
        })
        .collect();
    // (shape index, algorithm index): the items, largest world first.
    let mut items: Vec<(usize, usize)> = shapes
        .iter()
        .enumerate()
        .flat_map(|(s, (_, _, algos))| (0..algos.len()).map(move |a| (s, a)))
        .collect();
    items.sort_by_key(|&(s, _)| std::cmp::Reverse(shapes[s].0.world_size()));
    let columns: Vec<Vec<f64>> = items
        .par_iter()
        .map(|&(s, a)| {
            let (layout, cost, algos) = &shapes[s];
            measure_algo(algos[a], cost, *layout, &entry.msg_grid)
        })
        .collect();
    let mut by_shape: Vec<Vec<Vec<f64>>> = shapes
        .iter()
        .map(|(_, _, algos)| vec![Vec::new(); algos.len()])
        .collect();
    for (&(s, a), column) in items.iter().zip(columns) {
        by_shape[s][a] = column;
    }
    let mut records = Vec::with_capacity(entry.grid_size());
    for ((layout, _, algos), columns) in shapes.iter().zip(&by_shape) {
        for (i, &m) in entry.msg_grid.iter().enumerate() {
            let base = algos.iter().zip(columns).map(|(&a, c)| (a, c[i])).collect();
            let (n, p) = (layout.nodes, layout.ppn);
            records.push(finish_cell(entry, collective, n, p, m, base, cfg));
        }
    }
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
