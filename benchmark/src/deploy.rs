//! `deploy_cold`: bootstrapping a cluster the model has never seen — the
//! paper's Fig. 7 number.
//!
//! Op = `PretrainedModel::from_json` for both shipped artifacts →
//! `generate_tuning_table` for both collectives → `to_json` +
//! `verify_table_json` + write → `Tuner::from_dir` → one `select` sweep
//! over the grid plus seeded off-grid shapes. Single-threaded and
//! dominated by cold `schedcost` extraction inside `core::features`, which
//! no other workload touches; fitting and the daemon do nothing here.
//!
//! Cold extraction is memoised process-wide per `(nodes, ppn)` and costs
//! roughly world³·⁵, so every op gets a synthetic cluster whose one big
//! layout comes, without replacement, from a pool of near-equal worlds:
//! every op is cold, and every op costs the same within ±10 %. Every seed
//! times the same clusters (the layouts nearest the middle of the pool's
//! world range, each with the hardware and shapes [`FIXED`] draws for it);
//! the seed settles the order they are deployed in.

use crate::fixture::{fnv1a, off_grid_job, oracle_cell, oracle_grid, Res, Rng, FIXED};
use crate::probes::{self, Ledger};
use crate::trace::Recorder;
use crate::workload::{Outcome, Workload};
use pml_mpi::clusters::{zoo, ClusterEntry};
use pml_mpi::core::{verify_table_json, FallbackDepth, JobConfig, PretrainedModel, Tuner};
use pml_mpi::{Collective, TuningRecord};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// World sizes of the big layout: narrow enough that cold extraction costs
/// the same within ±10 %, wide enough for the pool below.
pub const BIG_WORLD_MIN: u32 = 244;
pub const BIG_WORLD_MAX: u32 = 256;
/// PPNs of the big layout stay within the trimmed zoo's, so the small
/// layouts beside it (1, 2 and 4 nodes) cost nothing to extract.
pub const BIG_PPN_MAX: u32 = 16;
/// Timed ops per second of `--seconds`. An op takes ≈ 0.26 s here; the pool
/// runs out at 41 ops, which 12 s ask for.
const OPS_PER_SECOND: f64 = 3.4;
/// Fresh clusters the traced run's cold probes use.
const COLD_PROBES: usize = 3;
/// Clusters kept back from the timed ops: the warm-up's and the probes'.
const RESERVED_CLUSTERS: usize = 1 + COLD_PROBES;
/// Off-grid shapes swept per op, per kind.
const OFF_GRID_TABLED: usize = 12;
const OFF_GRID_UNTABLED: usize = 4;

/// Every `(nodes, ppn)` whose world lies in the big-world range, those
/// nearest the middle of the range first. No pair has
/// `nodes <= TRIM_NODES`, so none is a layout the trimmed zoo (and with it
/// the set-up pass) has already extracted.
pub fn big_layout_pool() -> Vec<(u32, u32)> {
    let mut pool = Vec::new();
    for ppn in 1..=BIG_PPN_MAX {
        for nodes in BIG_WORLD_MIN.div_ceil(ppn)..=BIG_WORLD_MAX / ppn {
            pool.push((nodes, ppn));
        }
    }
    let middle = (BIG_WORLD_MIN + BIG_WORLD_MAX) / 2;
    pool.sort_by_key(|&(nodes, ppn)| ((nodes * ppn).abs_diff(middle), ppn, nodes));
    pool
}

/// Hands out never-seen clusters: zoo hardware under a new name, on a grid
/// of 1, 2 and 4 nodes plus one big layout this process has not used yet.
/// The sequence is the same in every run.
#[derive(Debug)]
pub struct ClusterSource {
    /// Big layouts not handed out yet; the next one is the last.
    pool: Vec<(u32, u32)>,
    rng: Rng,
    issued: usize,
}

impl ClusterSource {
    pub fn new() -> Self {
        let mut pool = big_layout_pool();
        pool.reverse();
        ClusterSource {
            pool,
            rng: Rng::new(FIXED, 0xc1),
            issued: 0,
        }
    }

    /// The next cluster, or `None` once every big layout has been used.
    pub fn next_cluster(&mut self) -> Option<ClusterEntry> {
        let (nodes, ppn) = self.pool.pop()?;
        let hardware = &zoo()[self.rng.below(zoo().len())];
        let mut entry = hardware.clone();
        self.issued += 1;
        entry.spec.name = format!("synth-{:02}-{nodes}x{ppn}", self.issued);
        entry.node_grid = vec![1, 2, 4, nodes];
        entry.ppn_grid = vec![ppn];
        entry.msg_grid = (0..21).map(|i| 1usize << i).collect();
        Some(entry)
    }
}

/// Timed ops that `seconds` stands for, given a pool of `pool` layouts.
fn timed_ops(seconds: f64, pool: usize) -> usize {
    let want = ((seconds * OPS_PER_SECOND).round() as usize).max(1);
    want.min(pool.saturating_sub(RESERVED_CLUSTERS))
}

/// The big layout of a synthetic cluster.
pub fn big_layout(entry: &ClusterEntry) -> (u32, u32) {
    (
        entry.node_grid.iter().copied().max().unwrap_or(1),
        entry.ppn_grid[0],
    )
}

/// One op's inputs, fixed at set-up.
#[derive(Debug)]
pub struct DeployOp {
    pub entry: ClusterEntry,
    /// Off-grid shapes of tabled collectives (nearest bucket, substituted).
    off_grid: Vec<(Collective, JobConfig)>,
    /// Shapes of collectives no table covers (static default rules).
    untabled: Vec<(Collective, JobConfig)>,
    /// The cells whose decisions are scored, with their oracle records.
    scored: Vec<TuningRecord>,
}

impl DeployOp {
    /// Draw the op's shapes and, when `score`, measure the oracle for every
    /// small-layout cell, one seeded big-layout cell and every off-grid
    /// shape (a big cell costs ≈ 50 ms of simulation; the rest ≈ 1 ms).
    pub fn new(rec: &Recorder, entry: ClusterEntry, rng: &mut Rng, score: bool) -> Res<Self> {
        let off_grid: Vec<_> = (0..OFF_GRID_TABLED)
            .map(|_| (rng.pick(&Collective::PAPER), off_grid_job(rng)))
            .collect();
        let untabled = (0..OFF_GRID_UNTABLED)
            .map(|_| {
                let c = rng.pick(&[Collective::Bcast, Collective::Allreduce]);
                (c, off_grid_job(rng))
            })
            .collect();
        let mut scored = Vec::new();
        if score {
            let (big_nodes, ppn) = big_layout(&entry);
            let big_collective = rng.pick(&Collective::PAPER);
            let big_msg = rng.pick(&entry.msg_grid);
            rec.time("clusters.oracle", || {
                let mut small = entry.clone();
                small.node_grid.retain(|&n| n != big_nodes);
                for c in Collective::PAPER {
                    scored.extend(oracle_grid(&small, c)?);
                }
                let big = JobConfig::new(big_nodes, ppn, big_msg);
                scored.push(oracle_cell(&entry, big_collective, big)?);
                for &(c, job) in &off_grid {
                    scored.push(oracle_cell(&entry, c, job)?);
                }
                Res::Ok(())
            })?;
        }
        Ok(DeployOp {
            entry,
            off_grid,
            untabled,
            scored,
        })
    }
}

/// What the checks after an op need from it.
#[derive(Debug)]
pub struct Deployed {
    pub tuner: Tuner,
    table_json: Vec<String>,
    /// Sweep selections that did not support their world size.
    unsupported: u64,
    /// On-grid selections that were not answered at depth 0.
    inexact_on_grid: u64,
    warnings: Vec<String>,
}

/// The op itself: everything between "the artifacts arrive" and "every
/// collective call has its decision".
pub fn deploy(rec: &Recorder, op: &DeployOp, model_json: &[String], dir: &Path) -> Res<Deployed> {
    let models = rec.time_items("core.model_from_json", model_json.len() as u64, || {
        model_json
            .iter()
            .map(|j| PretrainedModel::from_json(j))
            .collect::<Result<Vec<_>, _>>()
    })?;
    let tables = rec.time_items("core.table_gen.cold", models.len() as u64, || {
        models
            .iter()
            .map(|m| m.generate_tuning_table(&op.entry))
            .collect::<Result<Vec<_>, _>>()
    })?;
    let table_json = rec.time_items("core.table_json", tables.len() as u64, || {
        tables
            .iter()
            .map(|t| {
                let json = t.to_json()?;
                verify_table_json(&json).map_err(|e| format!("table fails verification: {e}"))?;
                Res::Ok(json)
            })
            .collect::<Res<Vec<_>>>()
    })?;
    rec.time("bench.write_tables", || {
        std::fs::create_dir_all(dir)?;
        for (table, json) in tables.iter().zip(&table_json) {
            std::fs::write(dir.join(format!("{}.json", table.collective.name())), json)?;
        }
        std::io::Result::Ok(())
    })?;
    let (tuner, warnings) = rec.time("core.tuner_load", || Tuner::from_dir(dir))?;

    let (mut unsupported, mut inexact_on_grid) = (0, 0);
    let on_grid: u64 = tables.iter().map(|t| t.len() as u64).sum();
    rec.time_items("core.select_sweep.on_grid", on_grid, || {
        for table in &tables {
            for e in table.entries() {
                let job = JobConfig::new(e.nodes, e.ppn, e.msg_size as usize);
                let (algo, depth) = tuner.select_traced(table.collective, job);
                unsupported += u64::from(!algo.supports(job.world_size()));
                inexact_on_grid += u64::from(depth != FallbackDepth::Exact);
            }
        }
    });
    let off_grid = (op.off_grid.len() + op.untabled.len()) as u64;
    rec.time_items("core.select_sweep.off_grid", off_grid, || {
        for &(c, job) in op.off_grid.iter().chain(&op.untabled) {
            let (algo, _depth) = tuner.select_traced(c, job);
            unsupported += u64::from(!algo.supports(job.world_size()));
        }
    });
    Ok(Deployed {
        tuner,
        table_json,
        unsupported,
        inexact_on_grid,
        warnings,
    })
}

#[derive(Debug)]
pub struct DeployCold {
    model_json: Vec<String>,
    ops: Vec<DeployOp>,
    /// What is left of the pool, for the traced run's cold probes.
    source: ClusterSource,
    dir: PathBuf,
}

impl DeployCold {
    /// Prepare the ops `seconds` stand for, put them in the seed's order,
    /// and spend one more cluster on a discarded warm-up op.
    pub fn setup(
        rec: &Recorder,
        model_json: Vec<String>,
        seed: u64,
        seconds: f64,
        dir: PathBuf,
    ) -> Res<Self> {
        let mut source = ClusterSource::new();
        let mut rng = Rng::new(FIXED, 0xd2);
        let count = timed_ops(seconds, big_layout_pool().len()).max(rec.min_ops() as usize);
        let mut ops = Vec::with_capacity(count);
        for _ in 0..count {
            let entry = source.next_cluster().ok_or("layout pool exhausted")?;
            ops.push(DeployOp::new(rec, entry, &mut rng, true)?);
        }
        Rng::new(seed, 0xc1).shuffle(&mut ops);
        let warm_entry = source.next_cluster().ok_or("layout pool exhausted")?;
        let warm = DeployOp::new(rec, warm_entry, &mut rng, false)?;
        deploy(rec, &warm, &model_json, &dir.join("warmup"))?;
        Ok(DeployCold {
            model_json,
            ops,
            source,
            dir,
        })
    }
}

impl Workload for DeployCold {
    fn op_span(&self) -> &'static str {
        "op.deploy_cold"
    }

    fn time_boxed(&self) -> bool {
        false
    }

    /// Runs the ops set-up prepared; how many was settled there, from the
    /// same `seconds`, because each needed its cluster and its oracle.
    fn run(&mut self, rec: &Recorder, _seconds: f64) -> Res<Outcome> {
        let mut out = Outcome::default();
        out.open_slice();
        let section = Instant::now();
        for (i, op) in self.ops.iter().enumerate() {
            rec.set_op(i as u64 + 1);
            let dir = self.dir.join(format!("op{i:02}"));
            let t0 = Instant::now();
            let deployed = rec.time(self.op_span(), || deploy(rec, op, &self.model_json, &dir))?;
            out.op_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            out.op_traced.push(rec.enabled());
            out.done_at_s.push(section.elapsed().as_secs_f64());
            out.close_slice();
            out.attempted += 1;

            // Checks sit between ops: memo hits, ≈ 0.1 % of an op.
            let before = out.failed;
            if deployed.unsupported > 0 {
                out.fail(|| {
                    format!(
                        "{}: {} unsupported selections",
                        op.entry.name(),
                        deployed.unsupported
                    )
                });
            }
            if deployed.inexact_on_grid > 0 {
                out.fail(|| {
                    format!(
                        "{}: {} on-grid cells missed depth 0",
                        op.entry.name(),
                        deployed.inexact_on_grid
                    )
                });
            }
            if !deployed.warnings.is_empty() {
                out.fail(|| format!("{}: {}", op.entry.name(), deployed.warnings.join("; ")));
            }
            for oracle in &op.scored {
                let job = JobConfig::new(oracle.nodes, oracle.ppn, oracle.msg_size);
                let pick = deployed.tuner.select(oracle.collective, job);
                if let Err(e) = out.score.add(oracle, pick) {
                    out.fail(|| e);
                }
            }
            // An op with several failed checks is one failed op.
            out.failed = out.failed.min(before + 1);
            out.digests
                .extend(deployed.table_json.iter().map(|j| fnv1a(j.as_bytes())));
        }
        out.wall_s = section.elapsed().as_secs_f64();
        rec.set_op(0);
        // One digest over all tables, whatever order the seed put them in.
        out.digests.sort_unstable();
        let all: Vec<u8> = out.digests.iter().flat_map(|d| d.to_le_bytes()).collect();
        out.digests = vec![fnv1a(&all)];
        Ok(out)
    }

    /// The ops' own spans give the rows of the deployment itself; fresh
    /// clusters the pool kept back give cold feature extraction and, once
    /// their layouts are extracted, warm table generation.
    fn ledger(
        &mut self,
        rec: &Recorder,
        _traced: &Outcome,
        ledger: &mut Ledger,
    ) -> Res<Vec<String>> {
        let models: Vec<PretrainedModel> = self
            .model_json
            .iter()
            .map(|j| PretrainedModel::from_json(j))
            .collect::<Result<_, _>>()?;
        for _ in 0..COLD_PROBES {
            let entry = self
                .source
                .next_cluster()
                .ok_or("layout pool exhausted before the probes")?;
            probes::cold_features(rec, &entry, &models)?;
        }
        probes::schedcost(ledger, &self.ops[0].entry)?;
        Ok(Vec::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::TRIM_NODES;
    use std::collections::BTreeSet;

    #[test]
    fn pool_layouts_are_big_equal_and_outside_the_trimmed_zoo() {
        let pool = big_layout_pool();
        assert!(pool.len() >= 40, "pool too small: {}", pool.len());
        let distinct: BTreeSet<_> = pool.iter().copied().collect();
        assert_eq!(distinct.len(), pool.len());
        for &(n, p) in &pool {
            assert!(
                (BIG_WORLD_MIN..=BIG_WORLD_MAX).contains(&(n * p)),
                "{n}x{p}"
            );
            assert!(n > TRIM_NODES, "{n}x{p} may be a trimmed-zoo layout");
        }
    }

    #[test]
    fn big_layouts_never_repeat_within_a_process() {
        let trimmed = crate::fixture::trimmed_zoo();
        let mut source = ClusterSource::new();
        let mut seen = BTreeSet::new();
        let mut names = BTreeSet::new();
        while let Some(entry) = source.next_cluster() {
            let big = big_layout(&entry);
            assert!(seen.insert(big), "{big:?} repeated");
            assert!(names.insert(entry.name().to_string()));
            assert!(pml_mpi::by_name(entry.name()).is_none());
            for z in trimmed.train.iter().chain(&trimmed.held) {
                assert!(!(z.node_grid.contains(&big.0) && z.ppn_grid.contains(&big.1)));
            }
        }
        assert_eq!(seen.len(), big_layout_pool().len());
    }

    #[test]
    fn every_run_is_handed_the_same_clusters_most_central_first() {
        let clusters = || -> Vec<(String, u64)> {
            let mut source = ClusterSource::new();
            std::iter::from_fn(|| source.next_cluster())
                .map(|e| {
                    (
                        e.name().to_string(),
                        fnv1a(format!("{:?}", e.spec.node).as_bytes()),
                    )
                })
                .collect()
        };
        assert_eq!(clusters(), clusters());
        // The twenty most central layouts span at most five world sizes.
        let mut source = ClusterSource::new();
        let worlds: BTreeSet<u32> = (0..20)
            .map(|_| big_layout(&source.next_cluster().unwrap()))
            .map(|(n, p)| n * p)
            .collect();
        assert!(worlds.len() <= 5, "{worlds:?}");
    }

    #[test]
    fn long_runs_leave_the_reserve_alone() {
        let pool = big_layout_pool().len();
        assert_eq!(timed_ops(10.0, pool), 34);
        assert_eq!(timed_ops(12.0, pool), pool - RESERVED_CLUSTERS);
        assert_eq!(timed_ops(0.25, pool), 1);
        assert_eq!(timed_ops(60.0, pool), pool - RESERVED_CLUSTERS);
    }
}
