//! Application runner: executes a workload's phase trace under an
//! algorithm-selection strategy and accounts time.
//!
//! A workload (MiniFE or the Gromacs proxy) is a sequence of [`Phase`]s —
//! local compute or a collective call. For every collective call the
//! selector picks an algorithm, the virtual-time executor prices it on the
//! target hardware by the micro-benchmark's rule ([`Pricer`]), and the
//! runner accumulates communication vs compute time.

use pml_collectives::{Algorithm, Collective, Pricer};
use pml_core::{applicable_or_fallback, AlgorithmSelector, JobConfig, MvapichDefault};
use pml_simnet::{CostModel, JobLayout, NodeSpec};

/// One step of an application's execution trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Phase {
    /// Purely local work, seconds per rank (already hardware-scaled by the
    /// workload model).
    Compute(f64),
    /// A collective call at a per-rank block size.
    Collective(Collective, usize),
}

/// A proxy application: produces its phase trace for a job shape.
pub trait Workload {
    fn name(&self) -> &str;

    /// The full execution trace for this job shape on this node type.
    fn phases(&self, node: &NodeSpec, layout: JobLayout) -> Vec<Phase>;
}

/// Time accounting for one application run.
#[derive(Debug, Clone, PartialEq)]
pub struct AppReport {
    pub app: String,
    pub selector: String,
    pub total_s: f64,
    pub compute_s: f64,
    pub comm_s: f64,
    pub collective_calls: u64,
    /// Per-collective algorithm picks (for reporting).
    pub picks: Vec<(Collective, usize, Algorithm)>,
}

/// Run `workload` at `layout` on `node`, selecting collective algorithms
/// with `selector`.
pub fn run_app(
    workload: &dyn Workload,
    node: &NodeSpec,
    layout: JobLayout,
    selector: &dyn AlgorithmSelector,
) -> AppReport {
    let cost = CostModel::new(node.clone(), layout.ppn);
    let mut pricer = Pricer::new(&cost, layout);
    let mut report = AppReport {
        app: workload.name().to_string(),
        selector: selector.name().to_string(),
        total_s: 0.0,
        compute_s: 0.0,
        comm_s: 0.0,
        collective_calls: 0,
        picks: Vec::new(),
    };
    let world = layout.world_size();
    for phase in workload.phases(node, layout) {
        match phase {
            Phase::Compute(s) => {
                report.compute_s += s;
                report.total_s += s;
            }
            Phase::Collective(coll, msg) => {
                let job = JobConfig::new(layout.nodes, layout.ppn, msg);
                // A selector can hand back an algorithm undefined at this
                // world size (e.g. recursive doubling on non-power-of-two
                // ranks); degrade to its always-applicable relative, then
                // to the library default, instead of aborting the run.
                let mut algo = applicable_or_fallback(selector.select(coll, job), world);
                if !algo.supports(world) {
                    algo = MvapichDefault.select(coll, job);
                }
                // Supported at this world (checked above), so neither
                // generation nor planning can fail; skip the phase rather
                // than count a run that never finishes if one ever does.
                let t = pricer.time(algo, msg.max(1));
                if t.is_infinite() {
                    continue;
                }
                report.comm_s += t;
                report.total_s += t;
                report.collective_calls += 1;
                report.picks.push((coll, msg, algo));
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use pml_collectives::{measure_algo, AllgatherAlgo, AllreduceAlgo};
    use pml_core::MvapichDefault;

    struct TwoPhase;

    impl Workload for TwoPhase {
        fn name(&self) -> &str {
            "two-phase"
        }

        fn phases(&self, _node: &NodeSpec, _layout: JobLayout) -> Vec<Phase> {
            vec![
                Phase::Compute(1.0e-3),
                Phase::Collective(Collective::Allgather, 1024),
                Phase::Collective(Collective::Alltoall, 256),
            ]
        }
    }

    #[test]
    fn accounting_adds_up() {
        let node = pml_clusters_node();
        let r = run_app(&TwoPhase, &node, JobLayout::new(2, 4), &MvapichDefault);
        assert_eq!(r.collective_calls, 2);
        assert!((r.total_s - r.compute_s - r.comm_s).abs() < 1e-15);
        assert!(r.compute_s >= 1.0e-3);
        assert!(r.comm_s > 0.0);
        assert_eq!(r.picks.len(), 2);
    }

    #[test]
    fn picks_are_recorded_in_call_order() {
        let node = pml_clusters_node();
        let r = run_app(&TwoPhase, &node, JobLayout::new(1, 4), &MvapichDefault);
        assert_eq!(r.picks[0].0, Collective::Allgather);
        assert_eq!(r.picks[1].0, Collective::Alltoall);
        assert_eq!(r.picks[0].1, 1024);
        for (coll, _, algo) in &r.picks {
            assert_eq!(algo.collective(), *coll);
        }
    }

    #[test]
    fn single_rank_app_has_no_comm_cost_messages() {
        let node = pml_clusters_node();
        let r = run_app(&TwoPhase, &node, JobLayout::new(1, 1), &MvapichDefault);
        // world = 1: collectives degenerate to local copies but still count.
        assert_eq!(r.collective_calls, 2);
        assert!(r.total_s >= r.compute_s);
    }

    #[test]
    fn prices_like_the_micro_benchmark() {
        // Ring reduce-scatter's segments depend on the message size, so its
        // unit plan scaled up is the wrong price.
        struct Fixed(Algorithm);
        impl AlgorithmSelector for Fixed {
            fn name(&self) -> &str {
                "fixed"
            }
            fn select(&self, _: Collective, _: JobConfig) -> Algorithm {
                self.0
            }
        }
        struct OneCall(Collective, usize);
        impl Workload for OneCall {
            fn name(&self) -> &str {
                "one-call"
            }
            fn phases(&self, _node: &NodeSpec, _layout: JobLayout) -> Vec<Phase> {
                vec![Phase::Collective(self.0, self.1)]
            }
        }
        let node = pml_clusters_node();
        let (layout, msg) = (JobLayout::new(2, 4), 65536);
        let cost = CostModel::new(node.clone(), layout.ppn);
        for algo in [
            Algorithm::Allreduce(AllreduceAlgo::RingReduceScatter),
            Algorithm::Allgather(AllgatherAlgo::Ring),
        ] {
            let r = run_app(
                &OneCall(algo.collective(), msg),
                &node,
                layout,
                &Fixed(algo),
            );
            assert_eq!(r.picks, [(algo.collective(), msg, algo)]);
            assert_eq!(
                r.comm_s.to_bits(),
                measure_algo(algo, &cost, layout, &[msg])[0].to_bits(),
                "{algo}"
            );
        }
    }

    fn pml_clusters_node() -> NodeSpec {
        use pml_simnet::*;
        NodeSpec {
            cpu: CpuSpec {
                model: "t".into(),
                family: CpuFamily::IntelXeon,
                max_clock_ghz: 3.0,
                l3_cache_mib: 38.0,
                mem_bw_gbs: 150.0,
                cores: 24,
                threads: 48,
                sockets: 2,
                numa_nodes: 2,
            },
            nic: InterconnectSpec::new(HcaGeneration::Edr, PcieVersion::Gen3),
        }
    }
}
