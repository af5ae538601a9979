//! The micro-benchmark sweep: "run every applicable algorithm on this
//! cluster at this job shape over these message sizes, tell me how long
//! each takes".
//!
//! This is the in-house micro-benchmark the paper's Table I dataset was
//! gathered with, in simulated form: schedules are generated on demand,
//! matched once and executed in virtual time. Noise and the averaging over
//! iterations (§III: "performance results by averaging multiple iterations
//! of experiments") are applied per cell by `pml-clusters`' datagen; one
//! algorithm at one point is [`crate::schedcost::sim_time`].

#![cfg_attr(not(test), deny(clippy::wildcard_enum_match_arm))]
#![cfg_attr(not(test), deny(clippy::match_wildcard_for_single_variants))]

use crate::algo::{Algorithm, Collective};
use crate::exec::sim;
use pml_obs::Counter;
use pml_simnet::{CostModel, JobLayout, NodeSpec};

/// Message-size sweeps simulated (one per (shape, collective) pair).
static MEASURE_SWEEPS: Counter = Counter::new("measure.sweeps");
/// Individual (algorithm, message size) points simulated.
static MEASURE_POINTS: Counter = Counter::new("measure.points");

/// Noise-free runtimes for every applicable algorithm across a message-size
/// sweep at one job shape. Each algorithm's schedule is generated and
/// planned **once** (at unit block size) and re-simulated scaled — the fast
/// path dataset generation runs on. Returns, per message size, the
/// (algorithm, runtime) pairs in registry order (unsorted). A schedule that
/// does not generate or plan never finishes: its runtime is infinite.
pub fn measure_sweep(
    collective: Collective,
    node: &NodeSpec,
    layout: JobLayout,
    msg_sizes: &[usize],
) -> Vec<Vec<(Algorithm, f64)>> {
    let p = layout.world_size();
    let cost = CostModel::new(node.clone(), layout.ppn);
    let algos = Algorithm::applicable_for(collective, p);
    MEASURE_SWEEPS.inc();
    MEASURE_POINTS.add((algos.len() * msg_sizes.len()) as u64);
    let mut out = vec![Vec::with_capacity(algos.len()); msg_sizes.len()];
    for algo in algos {
        // One plan of the unit schedule prices the whole sweep. Where chunk
        // boundaries depend on the message size there is no such shortcut:
        // generate and plan per size.
        let plan = |block: usize| {
            let schedule = algo.schedule(p, block).ok()?;
            sim::Plan::new(&schedule).ok()
        };
        let unit = if algo.scale_invariant() {
            plan(1)
        } else {
            None
        };
        for (slot, &msg) in out.iter_mut().zip(msg_sizes) {
            let run = if algo.scale_invariant() {
                unit.as_ref().map(|unit| unit.run(layout, &cost, msg))
            } else {
                plan(msg).map(|exact| exact.run(layout, &cost, 1))
            };
            slot.push((algo, run.map_or(f64::INFINITY, |r| r.time_s)));
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
        let node = frontera_like();
        let layout = JobLayout::new(2, 6);
        let sizes = [1usize, 1024, 65536];
        for coll in Collective::ALL {
            let sweep = measure_sweep(coll, &node, layout, &sizes);
            for (col, &msg) in sweep.iter().zip(&sizes) {
                for &(a, t) in col {
                    let direct = sim_time(a, &node, layout, msg).unwrap();
                    assert_eq!(
                        t.to_bits(),
                        direct.to_bits(),
                        "{a} msg {msg}: sweep {t} vs direct {direct}"
                    );
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
