//! Polynomial extraction: a componentwise longest-path walk over the
//! schedcheck Post/Complete graph.
//!
//! Every metric (rounds, bytes, reduction bytes, …) is maximized
//! *independently* along paths, so the result is an upper bound on any
//! single execution path — exact for the symmetric algorithms the
//! registry ships, where one rank's chain is the critical path for every
//! metric at once. Costs are charged receiver-side, mirroring the
//! virtual-time executor's accounting: a phase that completes receives
//! pays one latency term per traffic class (net or shm by the layout)
//! plus its payload bytes, every message beyond the first in a phase is
//! a marginal per-message term, and a posted `Copy`/`Combine` is
//! pack/reduction bytes. Matched ping and fan-in probes then fit α and
//! the marginal cost to exactly those terms end to end (see
//! [`super::fit_params`]), which is what makes the polynomial's units
//! line up with the simulator's.
//!
//! Cost: linear in the schedule — three passes over its ops (structural
//! checks, the matcher's scan, the weights) plus the matcher's counting
//! sort and the sweep — and at a few hundred ranks decided by memory
//! latency and fresh pages, not arithmetic (DESIGN.md §6.9 has numbers).

use super::{CostError, CostPoly};
use crate::schedcheck::{self, Phase, SchedError, ScheduleDoc, SCHED_DOC_VERSION};
use crate::schedule::{CommSchedule, Op};
use pml_obs::Counter;
use pml_simnet::JobLayout;
use std::collections::VecDeque;

/// Polynomials extracted (cache misses included, cache hits not).
static POLYS_EXTRACTED: Counter = Counter::new("schedcost.polys");

/// Metric indices inside the DP vector.
const NET_ROUNDS: usize = 0;
const SHM_ROUNDS: usize = 1;
const NET_BYTES: usize = 2;
const SHM_BYTES: usize = 3;
const REDUCE_BYTES: usize = 4;
const COPY_BYTES: usize = 5;
const NET_MSGS: usize = 6;
const SHM_MSGS: usize = 7;
const METRICS: usize = 8;

/// What one step adds to a path through it: at its Post node the local-op
/// bytes and the sends beyond the first, at its Complete node the received
/// bytes, a round per traffic class and the receives beyond the first.
#[derive(Debug, Clone, Copy, Default)]
struct StepWeight {
    copy_bytes: u64,
    reduce_bytes: u64,
    net_bytes: u64,
    shm_bytes: u64,
    net_sends: u32,
    shm_sends: u32,
    net_recvs: u32,
    shm_recvs: u32,
}

/// Extract the symbolic cost polynomial of `schedule` on `layout`
/// without executing it.
///
/// The schedule is structurally verified first (typed errors, never
/// panics on corrupted input) and its messages FIFO-matched — the same
/// machinery schedcheck's dataflow verifier runs on. The longest path is
/// computed *inside* the topological sweep: a node's value is the max over
/// its predecessors plus its own weight. The program-order predecessor is
/// always the last node its rank visited, so one running vector per rank
/// carries the chains; only Post values are read across ranks, and those
/// wait in a queue in visit order until their last receive has read them.
pub fn extract_poly(schedule: &CommSchedule, layout: JobLayout) -> Result<CostPoly, CostError> {
    schedcheck::structural(schedule)?;
    if schedule.world != layout.world_size() {
        return Err(CostError::LayoutMismatch {
            schedule_world: schedule.world,
            layout_world: layout.world_size(),
        });
    }
    let msgs = schedcheck::match_messages(schedule)?;

    // What each step adds, read off the ops in program order (the sweep
    // runs across ranks, where every op would be a cache miss).
    // `structural` has bounded every peer, so the lookups cannot miss.
    let node_of: Vec<u32> = (0..schedule.world).map(|r| layout.node_of(r)).collect();
    let mut nic_tx = vec![0u64; layout.nodes as usize];
    let mut nic_rx = vec![0u64; layout.nodes as usize];
    let mut weights = Vec::with_capacity(msgs.steps());
    for (prog, &me) in schedule.ranks.iter().zip(&node_of) {
        for step in prog {
            let mut w = StepWeight::default();
            for op in &step.ops {
                match op {
                    Op::Copy { src, .. } => w.copy_bytes += src.len as u64,
                    Op::Combine { src, .. } => w.reduce_bytes += src.len as u64,
                    Op::Send { to, .. } if node_of[*to as usize] == me => w.shm_sends += 1,
                    Op::Send { region, .. } => {
                        w.net_sends += 1;
                        nic_tx[me as usize] += region.len as u64;
                    }
                    Op::Recv { from, region, .. } if node_of[*from as usize] == me => {
                        w.shm_recvs += 1;
                        w.shm_bytes += region.len as u64;
                    }
                    Op::Recv { region, .. } => {
                        w.net_recvs += 1;
                        w.net_bytes += region.len as u64;
                        nic_rx[me as usize] += region.len as u64;
                    }
                }
            }
            weights.push(w);
        }
    }

    let mut chain = vec![[0u64; METRICS]; schedule.ranks.len()];
    // Post values some receive still waits for, in visit order, each with
    // its receives left; `slot` numbers them, `retired` left the front.
    let mut posted: VecDeque<([u64; METRICS], u32)> = VecDeque::new();
    let mut retired = 0u32;
    let mut slot = vec![0u32; msgs.steps()];
    msgs.sweep(schedule, |at, id, feeds| {
        let acc = &mut chain[at.rank as usize];
        let w = &weights[id / 2];
        // A completing phase pays one full latency term per traffic
        // class; every message beyond the first in a phase (posted or
        // completed) is marginal per-message handling, not a fresh round
        // trip — that is what makes single-step fan-in/fan-out schedules
        // cheaper than one round per peer.
        if at.phase == Phase::Post {
            acc[COPY_BYTES] += w.copy_bytes;
            acc[REDUCE_BYTES] += w.reduce_bytes;
            acc[NET_MSGS] += w.net_sends.saturating_sub(1) as u64;
            acc[SHM_MSGS] += w.shm_sends.saturating_sub(1) as u64;
            slot[id / 2] = retired + posted.len() as u32;
            posted.push_back((*acc, w.net_sends + w.shm_sends));
            return;
        }
        for &feed in feeds {
            let (sender, waiting) = &mut posted[(slot[feed as usize / 2] - retired) as usize];
            *waiting -= 1;
            for (a, v) in acc.iter_mut().zip(sender) {
                *a = (*a).max(*v);
            }
        }
        while posted.front().is_some_and(|&(_, waiting)| waiting == 0) {
            posted.pop_front();
            retired += 1;
        }
        acc[NET_BYTES] += w.net_bytes;
        acc[SHM_BYTES] += w.shm_bytes;
        acc[NET_ROUNDS] += (w.net_recvs > 0) as u64;
        acc[SHM_ROUNDS] += (w.shm_recvs > 0) as u64;
        acc[NET_MSGS] += w.net_recvs.saturating_sub(1) as u64;
        acc[SHM_MSGS] += w.shm_recvs.saturating_sub(1) as u64;
    })?;

    // Weights are non-negative, so a rank's last node dominates its chain.
    let mut max = [0u64; METRICS];
    for v in &chain {
        for (m, x) in max.iter_mut().zip(v) {
            *m = (*m).max(*x);
        }
    }
    let nic_bytes = nic_tx.iter().chain(&nic_rx).copied().max().unwrap_or(0);
    POLYS_EXTRACTED.inc();
    Ok(CostPoly {
        net_rounds: max[NET_ROUNDS],
        shm_rounds: max[SHM_ROUNDS],
        net_bytes: max[NET_BYTES],
        shm_bytes: max[SHM_BYTES],
        reduce_bytes: max[REDUCE_BYTES],
        copy_bytes: max[COPY_BYTES],
        nic_bytes,
        net_msgs: max[NET_MSGS],
        shm_msgs: max[SHM_MSGS],
    })
}

/// Extract the cost polynomial of an on-disk schedule document,
/// rejecting unknown versions and world/layout disagreements before
/// touching the schedule body — a corrupted `pml-sched/v1` file yields a
/// typed [`CostError`], never a panic.
pub fn doc_cost(doc: &ScheduleDoc, layout: JobLayout) -> Result<CostPoly, CostError> {
    if doc.v != SCHED_DOC_VERSION {
        return Err(CostError::Sched(SchedError::BadDocVersion {
            got: doc.v.clone(),
        }));
    }
    extract_poly(&doc.schedule, layout)
}

#[cfg(test)]
#[path = "oracle.rs"] // the pre-rewrite walk and the equivalence tests against it
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::{Algorithm, AllgatherAlgo, AllreduceAlgo};
    use crate::schedule::{Region, ScheduleBuilder};

    fn ring(p: u32, b: usize) -> CommSchedule {
        Algorithm::Allgather(AllgatherAlgo::Ring)
            .schedule(p, b)
            .unwrap()
    }

    #[test]
    fn ring_allgather_has_p_minus_1_rounds_and_bytes() {
        let p = 6u32;
        let b = 16usize;
        // All ranks on one node: pure shm.
        let poly = extract_poly(&ring(p, b), JobLayout::new(1, p)).unwrap();
        assert_eq!(poly.net_rounds, 0);
        assert_eq!(poly.shm_rounds, (p - 1) as u64);
        assert_eq!(poly.shm_bytes, ((p - 1) as usize * b) as u64);
        assert_eq!(poly.nic_bytes, 0);
        // One rank per node: pure net, same shape.
        let poly = extract_poly(&ring(p, b), JobLayout::new(p, 1)).unwrap();
        assert_eq!(poly.net_rounds, (p - 1) as u64);
        assert_eq!(poly.shm_rounds, 0);
        assert_eq!(poly.net_bytes, ((p - 1) as usize * b) as u64);
        // Each node sends and receives one block per round.
        assert_eq!(poly.nic_bytes, ((p - 1) as usize * b) as u64);
    }

    #[test]
    fn mixed_layout_splits_net_and_shm() {
        // Metrics are maximized independently: on a (3, 2) layout the
        // ring has a rank whose every receive crosses nodes (p−1 net
        // rounds) and a rank whose every receive stays local (p−1 shm
        // rounds). Each bound is tight for its own metric.
        let p = 6u32;
        let poly = extract_poly(&ring(p, 8), JobLayout::new(3, 2)).unwrap();
        assert_eq!(poly.net_rounds, (p - 1) as u64);
        assert_eq!(poly.shm_rounds, (p - 1) as u64);
    }

    #[test]
    fn recursive_doubling_has_log_p_rounds() {
        let p = 8u32;
        let sch = Algorithm::Allgather(AllgatherAlgo::RecursiveDoubling)
            .schedule(p, 4)
            .unwrap();
        let poly = extract_poly(&sch, JobLayout::new(p, 1)).unwrap();
        assert_eq!(poly.net_rounds, 3); // log2(8)
        assert_eq!(poly.net_bytes, (7 * 4) as u64); // (p-1)·b received in total
    }

    #[test]
    fn allreduce_paths_carry_reduction_bytes() {
        let sch = Algorithm::Allreduce(AllreduceAlgo::RecursiveDoubling)
            .schedule(8, 64)
            .unwrap();
        let poly = extract_poly(&sch, JobLayout::new(2, 4)).unwrap();
        assert!(poly.reduce_bytes > 0, "{poly}");
    }

    #[test]
    fn unit_block_polynomial_scales_linearly() {
        // Scale invariance: the coefficients at block b are exactly b
        // times the coefficients at block 1 (rounds unchanged).
        let layout = JobLayout::new(3, 2);
        let unit = extract_poly(&ring(6, 1), layout).unwrap();
        let big = extract_poly(&ring(6, 512), layout).unwrap();
        assert_eq!(big.net_rounds, unit.net_rounds);
        assert_eq!(big.shm_rounds, unit.shm_rounds);
        assert_eq!(big.net_bytes, 512 * unit.net_bytes);
        assert_eq!(big.shm_bytes, 512 * unit.shm_bytes);
        assert_eq!(big.nic_bytes, 512 * unit.nic_bytes);
        assert_eq!(big.net_msgs, unit.net_msgs);
        assert_eq!(big.shm_msgs, unit.shm_msgs);
    }

    #[test]
    fn layout_mismatch_is_typed() {
        let err = extract_poly(&ring(6, 8), JobLayout::new(2, 2)).unwrap_err();
        assert!(
            matches!(
                err,
                CostError::LayoutMismatch {
                    schedule_world: 6,
                    layout_world: 4
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn corrupt_world_is_typed_not_a_panic() {
        let mut sch = ring(4, 8);
        sch.world = 9;
        let err = extract_poly(&sch, JobLayout::new(9, 1)).unwrap_err();
        assert!(
            matches!(err, CostError::Sched(SchedError::WorldMismatch { .. })),
            "{err:?}"
        );
    }

    #[test]
    fn fan_in_contention_exceeds_path_bytes() {
        // p−1 ranks each send one block to rank 0 — the path sees p−1
        // blocks at the receiver, and so does its NIC; but the senders'
        // NICs see one block each. Compare with a ring where every NIC
        // carries the full p−1 blocks.
        let p = 8u32;
        let b = 32usize;
        let mut sb = ScheduleBuilder::new(p, b, b, (p - 1) as usize * b, 0);
        for r in 1..p {
            sb.step(r, |s| s.send(0, Region::input(0, b)));
        }
        sb.step(0, |s| {
            for r in 1..p {
                s.recv(r, Region::work((r - 1) as usize * b, b));
            }
        });
        let poly = extract_poly(&sb.finish(), JobLayout::new(p, 1)).unwrap();
        // One completing phase → one latency round, the other p−2
        // receives are marginal messages.
        assert_eq!(poly.net_rounds, 1);
        assert_eq!(poly.net_msgs, (p - 2) as u64);
        assert_eq!(poly.nic_bytes, ((p - 1) as usize * b) as u64);
        assert_eq!(poly.net_bytes, poly.nic_bytes);
    }

    #[test]
    fn doc_cost_rejects_bad_version() {
        let sch = ring(4, 8);
        let mut doc = ScheduleDoc::new(crate::Collective::Allgather, 8, sch);
        doc.v = "pml-sched/v0".into();
        let err = doc_cost(&doc, JobLayout::new(4, 1)).unwrap_err();
        assert!(
            matches!(err, CostError::Sched(SchedError::BadDocVersion { .. })),
            "{err:?}"
        );
    }
}
