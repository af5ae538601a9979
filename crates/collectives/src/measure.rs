//! The micro-benchmark sweep: "run every applicable algorithm on this
//! cluster at this job shape over these message sizes, tell me how long
//! each takes".
//!
//! This is the in-house micro-benchmark the paper's Table I dataset was
//! gathered with, in simulated form: schedules are generated on demand,
//! matched once and executed in virtual time, planned and scaled by
//! [`Pricer`]'s rule, which datagen, the app proxies and the selector
//! comparisons share. The unit of work is one algorithm's column,
//! [`measure_algo`]: dataset generation fans those out one (job shape,
//! algorithm) pair at a time, and [`measure_sweep`] is every applicable
//! algorithm's column at one shape. Noise and the averaging over
//! iterations (§III: "performance results by averaging multiple iterations
//! of experiments") are applied per cell by `pml-clusters`' datagen; one
//! algorithm at one point, planned afresh, is
//! [`crate::schedcost::sim_time`].

#![cfg_attr(not(test), deny(clippy::wildcard_enum_match_arm))]
#![cfg_attr(not(test), deny(clippy::match_wildcard_for_single_variants))]

use crate::algo::{Algorithm, Collective};
use crate::exec::sim;
use pml_simnet::{CostModel, JobLayout, NodeSpec};

/// Noise-free runtimes of algorithms at one layout on one cost model, by
/// the one plan-and-scale rule: a scale-invariant algorithm's schedule is
/// generated and planned **once**, at unit block size, and run at
/// `scale = msg`; any other is generated and planned at each message size,
/// because its chunk boundaries depend on it. A schedule that does not
/// generate or plan never finishes: its runtime is infinite.
#[derive(Debug)]
pub struct Pricer<'a> {
    cost: &'a CostModel,
    layout: JobLayout,
    /// (algorithm, block, plan): every scale-invariant algorithm's unit
    /// plan priced so far, and at most one per-size plan, the latest.
    plans: Vec<(Algorithm, usize, Option<sim::Plan>)>,
}

impl<'a> Pricer<'a> {
    pub fn new(cost: &'a CostModel, layout: JobLayout) -> Pricer<'a> {
        let plans = Vec::new();
        Pricer {
            cost,
            layout,
            plans,
        }
    }

    /// Runtime of `algo` at `msg` bytes a block.
    pub fn time(&mut self, algo: Algorithm, msg: usize) -> f64 {
        let invariant = algo.scale_invariant();
        let (block, scale) = if invariant { (1, msg) } else { (msg, 1) };
        let at = match self.plans.iter().position(|p| (p.0, p.1) == (algo, block)) {
            Some(at) => at,
            None => {
                self.plans.retain(|p| p.0.scale_invariant());
                let schedule = algo.schedule(self.layout.world_size(), block);
                let plan = schedule.ok().and_then(|s| sim::Plan::new(&s).ok());
                self.plans.push((algo, block, plan));
                self.plans.len() - 1
            }
        };
        let plan = self.plans[at].2.as_ref();
        plan.map_or(f64::INFINITY, |plan| {
            plan.run(self.layout, self.cost, scale).time_s
        })
    }
}

/// Noise-free runtimes of one algorithm across a message-size sweep at one
/// layout, in `msg_sizes` order, priced by [`Pricer`].
pub fn measure_algo(
    algo: Algorithm,
    cost: &CostModel,
    layout: JobLayout,
    msg_sizes: &[usize],
) -> Vec<f64> {
    let mut pricer = Pricer::new(cost, layout);
    msg_sizes
        .iter()
        .map(|&msg| pricer.time(algo, msg))
        .collect()
}

/// What measuring one job shape needs: the cost model at its PPN and the
/// algorithms applicable at its world size, in registry order.
pub fn shape_setup(
    collective: Collective,
    node: &NodeSpec,
    layout: JobLayout,
) -> (CostModel, Vec<Algorithm>) {
    let algos = Algorithm::applicable_for(collective, layout.world_size());
    (CostModel::new(node.clone(), layout.ppn), algos)
}

/// Noise-free runtimes for every applicable algorithm across a message-size
/// sweep at one job shape: [`measure_algo`]'s columns, transposed. Returns,
/// per message size, the (algorithm, runtime) pairs in registry order
/// (unsorted).
pub fn measure_sweep(
    collective: Collective,
    node: &NodeSpec,
    layout: JobLayout,
    msg_sizes: &[usize],
) -> Vec<Vec<(Algorithm, f64)>> {
    let (cost, algos) = shape_setup(collective, node, layout);
    let mut out = vec![Vec::with_capacity(algos.len()); msg_sizes.len()];
    for algo in algos {
        let column = measure_algo(algo, &cost, layout, msg_sizes);
        for (at, t) in out.iter_mut().zip(column) {
            at.push((algo, t));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedcost::sim_time;
    use pml_simnet::{CpuFamily, CpuSpec, HcaGeneration, InterconnectSpec, PcieVersion};

    fn frontera_like() -> NodeSpec {
        NodeSpec {
            cpu: CpuSpec {
                model: "Intel Xeon Platinum 8280".into(),
                family: CpuFamily::IntelXeon,
                max_clock_ghz: 2.7,
                l3_cache_mib: 38.5,
                mem_bw_gbs: 140.0,
                cores: 56,
                threads: 56,
                sockets: 2,
                numa_nodes: 2,
            },
            nic: InterconnectSpec::new(HcaGeneration::Edr, PcieVersion::Gen3),
        }
    }

    #[test]
    fn all_algorithms_measurable_at_pow2() {
        let node = frontera_like();
        let layout = JobLayout::new(2, 8);
        for coll in Collective::PAPER {
            let column = &measure_sweep(coll, &node, layout, &[1024])[0];
            assert_eq!(column.len(), coll.algo_count());
            for &(a, t) in column {
                assert!(t > 0.0 && t.is_finite(), "{a}: {t}");
            }
        }
    }

    #[test]
    fn sweep_matches_individual_measurements() {
        // The sweep, each algorithm's column and a fresh one-shot plan per
        // point agree bit for bit, with sizes out of order; the 12-rank
        // world drops the doubling algorithms from the list.
        let node = frontera_like();
        let sizes = [65536usize, 1, 1024];
        for layout in [JobLayout::new(2, 6), JobLayout::new(2, 8)] {
            for coll in Collective::ALL {
                let sweep = measure_sweep(coll, &node, layout, &sizes);
                let (cost, algos) = shape_setup(coll, &node, layout);
                for (k, &a) in algos.iter().enumerate() {
                    let column = measure_algo(a, &cost, layout, &sizes);
                    for ((at, t), &msg) in sweep.iter().zip(column).zip(&sizes) {
                        let direct = sim_time(a, &node, layout, msg).unwrap().to_bits();
                        assert_eq!(at.len(), algos.len());
                        assert_eq!(
                            (at[k].0, at[k].1.to_bits(), t.to_bits()),
                            (a, direct, direct),
                            "{a} {layout:?} msg {msg}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn pricer_repeats_and_interleavings_match_one_shots() {
        // A repeated call reuses the kept per-size plan; another size or
        // algorithm replaces it. Every answer is the one-shot's.
        let node = frontera_like();
        let layout = JobLayout::new(2, 6);
        let cost = CostModel::new(node.clone(), layout.ppn);
        let mut pricer = Pricer::new(&cost, layout);
        for coll in [
            Collective::Bcast,
            Collective::Allreduce,
            Collective::Allgather,
        ] {
            for a in Algorithm::applicable_for(coll, layout.world_size()) {
                for msg in [4096usize, 4096, 7, 4096] {
                    let direct = sim_time(a, &node, layout, msg).unwrap();
                    assert_eq!(pricer.time(a, msg).to_bits(), direct.to_bits(), "{a} {msg}");
                }
            }
        }
    }

    #[test]
    fn different_algorithms_get_different_times() {
        let node = frontera_like();
        let layout = JobLayout::new(4, 8);
        let column = &measure_sweep(Collective::Alltoall, &node, layout, &[65536])[0];
        let times = column.iter().map(|&(_, t)| t);
        assert!(times.clone().fold(f64::INFINITY, f64::min) < times.fold(0.0, f64::max));
    }
}
