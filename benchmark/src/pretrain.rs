//! `pretrain`: the offline stage end to end.
//!
//! Op = one pass on the trimmed zoo: `generate_cluster` for both
//! collectives → `PretrainedModel::train` → `to_json` → `predict_batch` on
//! the held-out cells. The only workload where `simnet`, schedule
//! execution, `clusters::datagen` and `mlcore` fitting do the work. The
//! warm-up passes fill the process-wide schedcost cache, so cold analytic
//! extraction does not show here (`deploy_cold` is where it does). Every
//! pass has the same inputs whatever `--seed` says: see `fixture`.

use crate::fixture::{fnv1a, offline_pass, oracle_grid, Pass, Res, Score, TrimmedZoo};
use crate::probes::{self, Ledger};
use crate::trace::Recorder;
use crate::workload::{Outcome, Workload};
use pml_mpi::clusters::ClusterEntry;
use pml_mpi::core::{verify_model_json, JobConfig};
use pml_mpi::{Algorithm, Collective, TuningRecord};
use std::time::Instant;

/// Timed passes per second of `--seconds` (a pass takes ≈ 1.3 s here).
const PASSES_PER_SECOND: f64 = 0.8;
/// Discarded passes before the timed ones: the first fills the schedcost
/// cache, the second brings the allocator to the size the timed passes
/// find it at (and set-up past three seconds).
const WARM_UP_PASSES: usize = 2;

/// The held-out cells of one (cluster, collective), with their oracle.
#[derive(Debug)]
struct HeldOut {
    entry: ClusterEntry,
    jobs: Vec<JobConfig>,
    oracle: Vec<TuningRecord>,
}

#[derive(Debug)]
pub struct Pretrain {
    zoo: TrimmedZoo,
    /// Indexed like [`Collective::PAPER`], one entry per held-out cluster.
    held: Vec<Vec<HeldOut>>,
    /// Digests of the warm-up passes' models; every timed pass must
    /// reproduce them.
    warm_digests: Vec<u64>,
    /// The last timed pass, kept for the traced run's probes.
    last: Option<Pass>,
}

impl Pretrain {
    /// Measure the oracle, then run the discarded passes.
    pub fn setup(rec: &Recorder, zoo: TrimmedZoo) -> Res<Self> {
        let held = rec.time("clusters.oracle", || {
            Collective::PAPER
                .iter()
                .map(|&c| {
                    zoo.held
                        .iter()
                        .map(|entry| {
                            let oracle = oracle_grid(entry, c)?;
                            let jobs = oracle
                                .iter()
                                .map(|r| JobConfig::new(r.nodes, r.ppn, r.msg_size))
                                .collect();
                            Ok(HeldOut {
                                entry: entry.clone(),
                                jobs,
                                oracle,
                            })
                        })
                        .collect::<Res<Vec<_>>>()
                })
                .collect::<Res<Vec<_>>>()
        })?;
        let mut this = Pretrain {
            zoo,
            held,
            warm_digests: Vec::new(),
            last: None,
        };
        for _ in 0..WARM_UP_PASSES {
            let (pass, _picks) = this.op(rec)?;
            this.warm_digests = pass.json.iter().map(|j| fnv1a(j.as_bytes())).collect();
        }
        Ok(this)
    }

    fn held_cells(&self) -> u64 {
        self.held
            .iter()
            .flatten()
            .map(|h| h.jobs.len() as u64)
            .sum()
    }

    /// One op; returns the pass and the held-out picks in `held` order.
    fn op(&self, rec: &Recorder) -> Res<(Pass, Vec<Vec<Algorithm>>)> {
        let pass = offline_pass(rec, &self.zoo)?;
        let picks = rec.time_items("core.predict_held_out", self.held_cells(), || {
            self.held
                .iter()
                .zip(&pass.models)
                .flat_map(|(clusters, model)| {
                    clusters
                        .iter()
                        .map(|h| model.predict_batch(&h.entry.spec.node, &h.jobs))
                })
                .collect::<Vec<_>>()
        });
        Ok((pass, picks))
    }
}

impl Workload for Pretrain {
    fn op_span(&self) -> &'static str {
        "op.pretrain"
    }

    fn time_boxed(&self) -> bool {
        false
    }

    fn run(&mut self, rec: &Recorder, seconds: f64) -> Res<Outcome> {
        // A traced run needs a traced and an untraced op to compare.
        let passes = ((seconds * PASSES_PER_SECOND).round() as u64).max(rec.min_ops());
        let mut out = Outcome::default();
        let mut last = None;
        out.open_slice();
        let section = Instant::now();
        for i in 0..passes {
            rec.set_op(i + 1);
            let t0 = Instant::now();
            let (pass, picks) = rec.time(self.op_span(), || self.op(rec))?;
            out.op_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            out.op_traced.push(rec.enabled());
            out.done_at_s.push(section.elapsed().as_secs_f64());
            out.close_slice();
            out.attempted += 1;
            let digests: Vec<u64> = pass.json.iter().map(|j| fnv1a(j.as_bytes())).collect();
            if digests != self.warm_digests {
                out.fail(|| {
                    format!("pass {i}: model digests {digests:x?} differ from the warm-up's")
                });
            }
            out.digests = digests;
            last = Some((pass, picks));
        }
        out.wall_s = section.elapsed().as_secs_f64();
        rec.set_op(0);

        // Every pass reproduced the warm-up's bytes, so checking the last
        // one checks them all.
        let (pass, picks) = last.ok_or("no pass ran")?;
        for json in &pass.json {
            if let Err(e) = verify_model_json(json) {
                out.fail(|| format!("model fails verification: {e}"));
            }
        }
        let mut score = Score::default();
        for (h, picks) in self.held.iter().flatten().zip(&picks) {
            for (oracle, &pick) in h.oracle.iter().zip(picks) {
                if let Err(e) = score.add(oracle, pick) {
                    out.fail(|| e);
                }
            }
        }
        out.score = score;
        self.last = Some(pass);
        Ok(out)
    }

    fn ledger(
        &mut self,
        _rec: &Recorder,
        _traced: &Outcome,
        ledger: &mut Ledger,
    ) -> Res<Vec<String>> {
        let pass = self.last.as_ref().ok_or("the ledger needs a timed pass")?;
        probes::offline(ledger, &self.held[0][0].entry, pass)?;
        Ok(Vec::new())
    }
}
