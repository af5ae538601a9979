//! The micro-benchmark sweep: "run every applicable algorithm on this
//! cluster at this job shape over these message sizes, tell me how long
//! each takes".
//!
//! This is the in-house micro-benchmark the paper's Table I dataset was
//! gathered with, in simulated form: schedules are generated on demand,
//! matched once and executed in virtual time. The unit of work is one
//! algorithm's column, [`measure_algo`]: dataset generation fans those out
//! one (job shape, algorithm) pair at a time, and [`measure_sweep`] is
//! every applicable algorithm's column at one shape. Noise and the
//! averaging over iterations (§III: "performance results by averaging
//! multiple iterations of experiments") are applied per cell by
//! `pml-clusters`' datagen; one algorithm at one point is
//! [`crate::schedcost::sim_time`].

#![cfg_attr(not(test), deny(clippy::wildcard_enum_match_arm))]
#![cfg_attr(not(test), deny(clippy::match_wildcard_for_single_variants))]

use crate::algo::{Algorithm, Collective};
use crate::exec::sim;
use pml_simnet::{CostModel, JobLayout, NodeSpec};

/// Noise-free runtimes of one algorithm across a message-size sweep at one
/// layout, in `msg_sizes` order. A scale-invariant algorithm's schedule is
/// generated and planned **once**, at unit block size, and re-simulated
/// scaled. A schedule that does not generate or plan never finishes: its
/// runtime is infinite.
pub fn measure_algo(
    algo: Algorithm,
    cost: &CostModel,
    layout: JobLayout,
    msg_sizes: &[usize],
) -> Vec<f64> {
    let p = layout.world_size();
    let plan = |block: usize| {
        let schedule = algo.schedule(p, block).ok()?;
        sim::Plan::new(&schedule).ok()
    };
    let time = |plan: Option<&sim::Plan>, scale: usize| {
        plan.map_or(f64::INFINITY, |plan| plan.run(layout, cost, scale).time_s)
    };
    if algo.scale_invariant() {
        let unit = plan(1);
        msg_sizes
            .iter()
            .map(|&msg| time(unit.as_ref(), msg))
            .collect()
    } else {
        // Chunk boundaries depend on the message size: no shortcut,
        // generate and plan per size.
        msg_sizes
            .iter()
            .map(|&msg| time(plan(msg).as_ref(), 1))
            .collect()
    }
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
    use crate::algo::{AllgatherAlgo, AlltoallAlgo};
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
        for (coll, registered) in [
            (Collective::Allgather, AllgatherAlgo::ALL.len()),
            (Collective::Alltoall, AlltoallAlgo::ALL.len()),
        ] {
            let column = &measure_sweep(coll, &node, layout, &[1024])[0];
            assert_eq!(column.len(), registered);
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
    fn different_algorithms_get_different_times() {
        let node = frontera_like();
        let layout = JobLayout::new(4, 8);
        let column = &measure_sweep(Collective::Alltoall, &node, layout, &[65536])[0];
        let times = column.iter().map(|&(_, t)| t);
        assert!(times.clone().fold(f64::INFINITY, f64::min) < times.fold(0.0, f64::max));
    }
}
