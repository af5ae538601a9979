//! The extraction this module replaced, kept as a test oracle: the
//! two-pass walk (standalone topological order, then a rank-major DP
//! table over every node) exactly as it stood before ISSUE 13, on top
//! of schedcheck's old matcher — and the equivalence test: on the
//! shared corpus (registry grid, random well-formed schedules, every
//! mutant) and several layouts per schedule, the rebuilt
//! [`extract_poly`] returns the identical polynomial or the identical
//! typed error.

use super::*;
use crate::schedcheck::oracle;

pub(crate) fn old_extract_poly(
    schedule: &CommSchedule,
    layout: JobLayout,
) -> Result<CostPoly, CostError> {
    schedcheck::structural(schedule)?;
    if schedule.world != layout.world_size() {
        return Err(CostError::LayoutMismatch {
            schedule_world: schedule.world,
            layout_world: layout.world_size(),
        });
    }
    let msgs = oracle::old_match_messages(schedule)?;
    let order = oracle::old_topo_order(schedule, &msgs)?;

    // Dense node ids, same scheme as the topo sort: 2·(steps before
    // rank + step) + phase.
    let mut base = vec![0usize; schedule.ranks.len() + 1];
    for (r, prog) in schedule.ranks.iter().enumerate() {
        base[r + 1] = base[r] + prog.len();
    }
    let n = 2 * base[schedule.ranks.len()];
    let node_id = |rank: u32, step: usize, phase: Phase| -> usize {
        2 * (base[rank as usize] + step) + matches!(phase, Phase::Complete) as usize
    };

    // Cross-rank dependency edges (sender Post → receiver Complete),
    // bucketed per Complete node in compressed form (count, prefix-sum,
    // fill), plus the NIC tx/rx byte ledgers for the contention term.
    let mut cursor = vec![0u32; n + 1];
    for (_, rcv) in &msgs.pairs {
        cursor[node_id(rcv.at.rank, rcv.at.step, Phase::Complete) + 1] += 1;
    }
    for i in 0..n {
        cursor[i + 1] += cursor[i];
    }
    let off = cursor.clone();
    let mut preds = vec![0u32; off[n] as usize];
    let mut nic_tx = vec![0u64; layout.nodes as usize];
    let mut nic_rx = vec![0u64; layout.nodes as usize];
    for (snd, rcv) in &msgs.pairs {
        let id = node_id(rcv.at.rank, rcv.at.step, Phase::Complete);
        preds[cursor[id] as usize] = node_id(snd.at.rank, snd.at.step, Phase::Post) as u32;
        cursor[id] += 1;
        if !layout.same_node(snd.at.rank, rcv.at.rank) {
            nic_tx[layout.node_of(snd.at.rank) as usize] += snd.region.len as u64;
            nic_rx[layout.node_of(rcv.at.rank) as usize] += rcv.region.len as u64;
        }
    }

    // Componentwise longest path in topological order. A node's value is
    // the max over its predecessors plus its own weight; receiver-side
    // weights live on Complete nodes, local-op weights on Post nodes.
    let mut dp = vec![[0u64; METRICS]; n];
    for sr in &order {
        let ops = &schedule.ranks[sr.rank as usize][sr.step].ops;
        let mut acc = match sr.phase {
            Phase::Post if sr.step > 0 => dp[node_id(sr.rank, sr.step - 1, Phase::Complete)],
            Phase::Post => [0u64; METRICS],
            Phase::Complete => dp[node_id(sr.rank, sr.step, Phase::Post)],
        };
        let id = node_id(sr.rank, sr.step, sr.phase);
        if sr.phase == Phase::Complete {
            for &p in &preds[off[id] as usize..off[id + 1] as usize] {
                for (a, v) in acc.iter_mut().zip(dp[p as usize]) {
                    *a = (*a).max(v);
                }
            }
        }
        let (mut net_recvs, mut shm_recvs) = (0u64, 0u64);
        let (mut net_sends, mut shm_sends) = (0u64, 0u64);
        for op in ops {
            match (sr.phase, op) {
                (Phase::Post, Op::Copy { src, .. }) => acc[COPY_BYTES] += src.len as u64,
                (Phase::Post, Op::Combine { src, .. }) => acc[REDUCE_BYTES] += src.len as u64,
                (Phase::Post, Op::Send { to, .. }) => {
                    if layout.same_node(*to, sr.rank) {
                        shm_sends += 1;
                    } else {
                        net_sends += 1;
                    }
                }
                (Phase::Complete, Op::Recv { from, region, .. }) => {
                    if layout.same_node(*from, sr.rank) {
                        shm_recvs += 1;
                        acc[SHM_BYTES] += region.len as u64;
                    } else {
                        net_recvs += 1;
                        acc[NET_BYTES] += region.len as u64;
                    }
                }
                _ => {}
            }
        }
        // A completing phase pays one full latency term per traffic
        // class; every message beyond the first in a phase (posted or
        // completed) is marginal per-message handling, not a fresh round
        // trip — that is what makes single-step fan-in/fan-out schedules
        // cheaper than one round per peer.
        acc[NET_ROUNDS] += (net_recvs > 0) as u64;
        acc[SHM_ROUNDS] += (shm_recvs > 0) as u64;
        acc[NET_MSGS] += net_recvs.saturating_sub(1) + net_sends.saturating_sub(1);
        acc[SHM_MSGS] += shm_recvs.saturating_sub(1) + shm_sends.saturating_sub(1);
        dp[id] = acc;
    }

    let mut max = [0u64; METRICS];
    for v in &dp {
        for (m, x) in max.iter_mut().zip(v) {
            *m = (*m).max(*x);
        }
    }
    let nic_bytes = nic_tx
        .iter()
        .chain(nic_rx.iter())
        .copied()
        .max()
        .unwrap_or(0);
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

/// Layouts to cost a `world`-rank schedule on: one rank per node, one
/// node, every balanced split in between — and one that does not fit.
fn layouts(world: u32) -> Vec<JobLayout> {
    let mut out: Vec<JobLayout> = (1..=world)
        .filter(|&ppn| world.is_multiple_of(ppn))
        .map(|ppn| JobLayout::new(world / ppn, ppn))
        .collect();
    out.push(JobLayout::new(world + 1, 1));
    out
}

#[test]
fn extraction_agrees_with_the_walk_it_replaced() {
    let (mut polys, mut errors) = (0usize, 0usize);
    for s in oracle::corpus::all() {
        for layout in layouts(s.world.max(1)) {
            let want = old_extract_poly(&s, layout);
            assert_eq!(extract_poly(&s, layout), want, "{layout:?} {s:?}");
            match want {
                Ok(_) => polys += 1,
                Err(_) => errors += 1,
            }
        }
    }
    assert!(
        polys > 1500 && errors > 1500,
        "{polys} polys, {errors} errors"
    );
}

#[test]
fn deployment_sized_layouts_agree_too() {
    // One fan-out and one ring-shaped schedule at the size a cluster
    // bootstrap extracts (the golden fixture pins the rest).
    for (algo, layout) in [
        (
            crate::Algorithm::Alltoall(crate::AlltoallAlgo::ScatterDest).schedule(250, 1),
            JobLayout::new(25, 10),
        ),
        (
            crate::Algorithm::Allgather(crate::AllgatherAlgo::Ring).schedule(248, 1),
            JobLayout::new(31, 8),
        ),
    ] {
        let s = algo.unwrap();
        assert_eq!(extract_poly(&s, layout), old_extract_poly(&s, layout));
    }
}
