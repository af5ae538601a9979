//! Virtual-time executor.
//!
//! Walks a [`CommSchedule`] against a [`CostModel`], producing the modelled
//! runtime of the collective on the described hardware. The execution model:
//!
//! * each rank has a local clock advancing through its steps;
//! * a step's copies run first (memory-system cost), then its sends are
//!   posted (per-message CPU cost each; eager sends detach, rendezvous-sized
//!   sends hold the rank until the payload clears its NIC), then its
//!   receives complete in arrival order (per-message CPU cost each);
//! * inter-node messages serialize through the sender's NIC TX engine and
//!   the receiver's NIC RX engine (cut-through, one wire-time end to end
//!   when uncontended) with the fabric latency in between — this is where
//!   algorithms that flood the NIC (Scatter-Dest at scale) pay, and where
//!   high PPN causes injection contention;
//! * intra-node messages go through the memory system at the L3/DRAM-share
//!   bandwidth from the cost model.
//!
//! Which receive a send meets is not discovered here: [`Plan::new`] takes
//! the matched graph [`crate::schedcheck`] and [`crate::schedcost`] read
//! and proves it free of wait cycles, once; [`Plan::run`] then prices it on
//! any layout of its world at any block scale. Steps are processed in
//! start-time order from a priority queue, so results are deterministic,
//! and every step of a planned schedule completes. A rank runs its steps
//! in order and a step completes only once all its receives have arrived,
//! so a run keeps one counter and one in-flight step per rank; the only
//! schedule-sized state is one arrival time per receive.

#![cfg_attr(not(test), deny(clippy::wildcard_enum_match_arm))]
#![cfg_attr(not(test), deny(clippy::match_wildcard_for_single_variants))]

use crate::schedcheck::{self, Messages, SchedError};
use crate::schedule::{CommSchedule, Op};
use pml_simnet::{CostModel, JobLayout};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;

/// Outcome of one simulated collective execution.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Completion time of the slowest rank, seconds.
    pub time_s: f64,
    /// Per-rank completion times.
    pub per_rank_end: Vec<f64>,
    /// Total bytes that crossed the fabric (inter-node only).
    pub wire_bytes: u64,
    /// Total messages (inter- plus intra-node).
    pub messages: u64,
}

impl SimResult {
    /// "Never finishes": the answer for a schedule that does not plan and
    /// for a layout of another world size.
    fn never(world: usize) -> SimResult {
        SimResult {
            time_s: f64::INFINITY,
            per_rank_end: vec![f64::INFINITY; world],
            wire_bytes: 0,
            messages: 0,
        }
    }
}

/// Heap key ordered by (time, global step): deterministic pops. Global
/// steps number the ranks' programs back to back, so this is (time, rank,
/// step).
#[derive(PartialEq)]
struct StartEvent {
    time: f64,
    step: u32,
}

impl Eq for StartEvent {}

impl PartialOrd for StartEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for StartEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .total_cmp(&other.time)
            .then(self.step.cmp(&other.step))
    }
}

/// A rank's one in-flight step: a rank runs its steps in order and a step
/// completes only once all its receives have arrived, so no other step of
/// the rank needs state.
#[derive(Default, Clone)]
struct InFlight {
    /// Completion floor from posting (copies + send CPU) and from
    /// rendezvous-send wire drain.
    local_floor: f64,
    post_end: f64,
    /// Receives whose send had not been posted when the step started.
    missing_recvs: usize,
    /// (arrival time, completion CPU cost) of matched receives, in the
    /// order they became known; drained when the step completes.
    arrivals: Vec<(f64, f64)>,
}

/// A schedule ready to be priced: its matched message graph, proven free
/// of wait cycles, and what each step charges, flattened in program order
/// so the schedule itself need not outlive the plan.
///
/// For a [scale-invariant](crate::Algorithm::scale_invariant) algorithm,
/// whose offsets and lengths are all multiples of the block size, the plan
/// at `block = 1` run at `scale = msg` is exactly `schedule(p, msg)`;
/// [`crate::measure::Pricer`] decides which plan prices which size.
#[derive(Debug)]
pub struct Plan {
    msgs: Messages,
    /// Where each global step's copies and reductions start in `local`,
    /// plus the total.
    local_off: Vec<u32>,
    /// Per copy or reduction: its bytes and whether it reduces.
    local: Vec<(usize, bool)>,
    /// Per send: its bytes (the graph knows where it goes).
    send_len: Vec<usize>,
}

/// A global step's slice of an array laid out by `off`.
fn span(off: &[u32], step: usize) -> Range<usize> {
    off[step] as usize..off[step + 1] as usize
}

impl Plan {
    /// Check `schedule` op by op, match every send to its receive and look
    /// for a wait cycle: whatever [`Plan::run`] could trip over is the
    /// typed error here.
    pub fn new(schedule: &CommSchedule) -> Result<Plan, SchedError> {
        schedcheck::structural(schedule)?;
        let msgs = schedcheck::match_messages(schedule)?;
        msgs.sweep(schedule, |_, _, _| {})?;
        let mut plan = Plan {
            local_off: Vec::with_capacity(msgs.steps() + 1),
            local: Vec::new(),
            send_len: Vec::with_capacity(msgs.meets.len()),
            msgs,
        };
        for step in schedule.ranks.iter().flatten() {
            plan.local_off.push(plan.local.len() as u32);
            for op in &step.ops {
                match op {
                    Op::Copy { src, .. } => plan.local.push((src.len, false)),
                    Op::Combine { src, .. } => plan.local.push((src.len, true)),
                    Op::Send { region, .. } => plan.send_len.push(region.len),
                    Op::Recv { .. } => {}
                }
            }
        }
        plan.local_off.push(plan.local.len() as u32);
        Ok(plan)
    }

    /// Simulate one execution on `layout` with every region length
    /// multiplied by `scale`. A layout of another world size than the
    /// schedule's never finishes.
    pub fn run(&self, layout: JobLayout, cost: &CostModel, scale: usize) -> SimResult {
        let m = &self.msgs;
        let world = m.base.len() - 1;
        if layout.world_size() as usize != world {
            return SimResult::never(world);
        }
        let node_of: Vec<usize> = (0..world as u32)
            .map(|r| layout.node_of(r) as usize)
            .collect();
        // The per-message constants, read once per run.
        let (net_cpu, shm_cpu) = (cost.per_msg_net_s(), cost.per_msg_shm_s());
        let per_msg_s = |a: usize, b: usize| if a != b { net_cpu } else { shm_cpu };
        let occupancy = cost.nic_msg_occupancy_s();
        let rendezvous = cost.rendezvous_threshold();

        // Arrival time per receive, known once its send's step has posted.
        let mut arrival = vec![0.0f64; m.pred.len()];
        // Per rank: its next step to start, so global step `w` has started
        // iff `w < posted[rank_of[w]]`; and that rank's step in flight.
        let mut posted: Vec<u32> = m.base[..world].to_vec();
        let mut in_flight = vec![InFlight::default(); world];
        let mut rank_end = vec![0.0f64; world];

        let mut nic_tx = vec![0.0f64; layout.nodes as usize];
        let mut nic_rx = vec![0.0f64; layout.nodes as usize];

        let mut wire_bytes: u64 = 0;

        let mut heap: BinaryHeap<Reverse<StartEvent>> = m
            .base
            .windows(2)
            .filter(|w| w[0] < w[1])
            .map(|w| {
                Reverse(StartEvent {
                    time: 0.0,
                    step: w[0],
                })
            })
            .collect();

        // Steps whose last arrival just landed and that may now complete.
        let mut completable: Vec<u32> = Vec::new();

        while let Some(Reverse(ev)) = heap.pop() {
            let g = ev.step as usize;
            let my_rank = m.rank_of[g] as usize;
            let my_node = node_of[my_rank];

            let mut t = ev.time;
            // Phase 1: copies and reductions.
            for &(len, reduces) in &self.local[span(&self.local_off, g)] {
                t += if reduces {
                    cost.combine_s(len * scale)
                } else {
                    cost.copy_s(len * scale)
                };
            }
            // Phase 2: sends.
            let mut local_floor = t;
            for i in span(&m.send_off, g) {
                let (recv, waiter) = m.meets[i];
                let dst_rank = m.rank_of[waiter as usize] as usize;
                let dst_node = node_of[dst_rank];
                let len = self.send_len[i] * scale;
                let cpu = per_msg_s(my_node, dst_node);
                t += cpu;
                let ready = t;
                let (arr, sender_hold) = if dst_node != my_node {
                    wire_bytes += len as u64;
                    let wire = cost.net_serialize_s(len) + occupancy;
                    let tx_start = ready.max(nic_tx[my_node]);
                    nic_tx[my_node] = tx_start + wire;
                    let rx_start = (tx_start + cost.net_alpha_s(len)).max(nic_rx[dst_node]);
                    nic_rx[dst_node] = rx_start + wire;
                    let arr = rx_start + wire;
                    let hold = if len >= rendezvous {
                        tx_start + wire
                    } else {
                        ready
                    };
                    (arr, hold)
                } else {
                    (ready + cost.intra_node_msg_s(len), ready)
                };
                local_floor = local_floor.max(sender_hold);
                arrival[recv as usize] = arr;
                // A receiver that started first has been waiting on this;
                // it is its rank's step in flight.
                if waiter < posted[dst_rank] {
                    let st = &mut in_flight[dst_rank];
                    st.arrivals.push((arr, cpu));
                    st.missing_recvs -= 1;
                    if st.missing_recvs == 0 {
                        completable.push(waiter);
                    }
                }
            }
            let post_end = t;

            // Phase 3: register receives — those whose sender has posted
            // have arrived (in virtual time, possibly later than now).
            let st = &mut in_flight[my_rank];
            st.missing_recvs = 0;
            for r in span(&m.recv_off, g) {
                let sender = m.pred[r] / 2;
                let src_rank = m.rank_of[sender as usize] as usize;
                if sender < posted[src_rank] {
                    st.arrivals
                        .push((arrival[r], per_msg_s(node_of[src_rank], my_node)));
                } else {
                    st.missing_recvs += 1;
                }
            }
            st.local_floor = local_floor.max(post_end);
            st.post_end = post_end;
            posted[my_rank] = ev.step + 1;
            if st.missing_recvs == 0 {
                completable.push(ev.step);
            }

            // Finalize every step that became completable: its receives
            // complete in arrival order (ties in the order they became
            // known), each charging its CPU cost.
            while let Some(done) = completable.pop() {
                let rank = m.rank_of[done as usize] as usize;
                let st = &mut in_flight[rank];
                st.arrivals.sort_by(|x, y| x.0.total_cmp(&y.0));
                let mut end = st.post_end;
                for (a, cpu) in st.arrivals.drain(..) {
                    end = end.max(a) + cpu;
                }
                let end = end.max(st.local_floor);
                rank_end[rank] = rank_end[rank].max(end);
                if done + 1 < m.base[rank + 1] {
                    heap.push(Reverse(StartEvent {
                        time: end,
                        step: done + 1,
                    }));
                }
            }
        }

        SimResult {
            time_s: rank_end.iter().copied().fold(0.0, f64::max),
            per_rank_end: rank_end,
            wire_bytes,
            messages: self.send_len.len() as u64,
        }
    }
}

/// Plan `schedule` and simulate it once, as generated. A schedule that does
/// not plan never finishes: `time_s` is infinite.
pub fn run(schedule: &CommSchedule, layout: JobLayout, cost: &CostModel) -> SimResult {
    match Plan::new(schedule) {
        Ok(plan) => plan.run(layout, cost, 1),
        Err(_) => SimResult::never(schedule.ranks.len()),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::algo::{Algorithm, Collective};
    use crate::schedcheck::oracle::corpus;
    use crate::schedule::{Region, ScheduleBuilder};
    use pml_simnet::{CpuFamily, CpuSpec, HcaGeneration, InterconnectSpec, NodeSpec, PcieVersion};

    /// The node the crate's unit tests price schedules on.
    pub(crate) fn test_node() -> NodeSpec {
        NodeSpec {
            cpu: CpuSpec {
                model: "t".into(),
                family: CpuFamily::IntelXeon,
                max_clock_ghz: 2.7,
                l3_cache_mib: 38.5,
                mem_bw_gbs: 140.0,
                cores: 28,
                threads: 56,
                sockets: 2,
                numa_nodes: 2,
            },
            nic: InterconnectSpec::new(HcaGeneration::Edr, PcieVersion::Gen3),
        }
    }

    /// Two ranks exchanging one message each.
    fn exchange(bytes: usize) -> CommSchedule {
        let mut sb = ScheduleBuilder::new(2, bytes, bytes, bytes, 0);
        for r in 0..2u32 {
            let peer = 1 - r;
            sb.step(r, |s| {
                s.send(peer, Region::input(0, bytes));
                s.recv(peer, Region::work(0, bytes));
            });
        }
        sb.finish()
    }

    #[test]
    fn inter_node_costs_more_than_intra_node() {
        let sch = exchange(4096);
        let cost = CostModel::new(test_node(), 2);
        let intra = run(&sch, JobLayout::new(1, 2), &cost);
        let cost1 = CostModel::new(test_node(), 1);
        let inter = run(&sch, JobLayout::new(2, 1), &cost1);
        assert!(
            inter.time_s > intra.time_s,
            "{} vs {}",
            inter.time_s,
            intra.time_s
        );
        assert_eq!(intra.wire_bytes, 0);
        assert_eq!(inter.wire_bytes, 2 * 4096);
    }

    #[test]
    fn time_monotone_in_message_size() {
        let cost = CostModel::new(test_node(), 1);
        let mut prev = 0.0;
        for log in [4usize, 8, 12, 16, 20] {
            let sch = exchange(1usize << log);
            let t = run(&sch, JobLayout::new(2, 1), &cost).time_s;
            assert!(t > prev, "size 2^{log}: {t} !> {prev}");
            prev = t;
        }
    }

    #[test]
    fn deterministic() {
        let sch = exchange(1 << 14);
        let cost = CostModel::new(test_node(), 1);
        let a = run(&sch, JobLayout::new(2, 1), &cost);
        let b = run(&sch, JobLayout::new(2, 1), &cost);
        assert_eq!(a, b);
    }

    #[test]
    fn nic_contention_serializes_concurrent_senders() {
        // Two ranks on node 0 each send a large message to ranks on node 1.
        let bytes = 1 << 20;
        let mut sb = ScheduleBuilder::new(4, bytes, bytes, bytes, 0);
        sb.step(0, |s| s.send(2, Region::input(0, bytes)));
        sb.step(1, |s| s.send(3, Region::input(0, bytes)));
        sb.step(2, |s| s.recv(0, Region::work(0, bytes)));
        sb.step(3, |s| s.recv(1, Region::work(0, bytes)));
        let sch = sb.finish();
        sch.validate().unwrap();
        let cost = CostModel::new(test_node(), 2);
        let contended = run(&sch, JobLayout::new(2, 2), &cost);

        // Same transfer but only one sender on the node.
        let mut sb1 = ScheduleBuilder::new(2, bytes, bytes, bytes, 0);
        sb1.step(0, |s| s.send(1, Region::input(0, bytes)));
        sb1.step(1, |s| s.recv(0, Region::work(0, bytes)));
        let sch1 = sb1.finish();
        let cost1 = CostModel::new(test_node(), 1);
        let solo = run(&sch1, JobLayout::new(2, 1), &cost1);

        // With two senders sharing the NIC, the later message needs roughly
        // twice the wire time.
        assert!(contended.time_s > 1.7 * solo.time_s);
    }

    #[test]
    fn empty_schedule_takes_zero_time() {
        let sb = ScheduleBuilder::new(1, 8, 8, 8, 0);
        let sch = sb.finish();
        let cost = CostModel::new(test_node(), 1);
        let res = run(&sch, JobLayout::new(1, 1), &cost);
        assert_eq!(res.time_s, 0.0);
        assert_eq!(res.messages, 0);
    }

    #[test]
    fn missing_sender_detected() {
        let b = 8;
        let mut sb = ScheduleBuilder::new(2, b, b, b, 0);
        sb.step(1, |s| s.recv(0, Region::work(0, b)));
        let sch = sb.finish();
        let err = Plan::new(&sch).unwrap_err();
        assert!(
            matches!(err, SchedError::UnmatchedRecv { from: 0, .. }),
            "{err:?}"
        );
        let cost = CostModel::new(test_node(), 1);
        assert!(run(&sch, JobLayout::new(1, 2), &cost).time_s.is_infinite());
    }

    #[test]
    fn wait_cycle_is_the_typed_deadlock_with_its_witness() {
        let sch = corpus::wait_cycle();
        match Plan::new(&sch).unwrap_err() {
            SchedError::Deadlock { cycle } => assert!(cycle.len() >= 4, "{cycle:?}"),
            other => panic!("expected a deadlock, got {other:?}"),
        }
        let cost = CostModel::new(test_node(), 1);
        assert!(run(&sch, JobLayout::new(2, 1), &cost).time_s.is_infinite());
    }

    #[test]
    fn another_world_size_and_zero_scale_do_not_panic() {
        let plan = Plan::new(&exchange(64)).unwrap();
        let cost = CostModel::new(test_node(), 2);
        let res = plan.run(JobLayout::new(2, 2), &cost, 1);
        assert!(res.time_s.is_infinite());
        assert_eq!(res.per_rank_end.len(), 2);
        // Zero-byte messages still pay their per-message costs.
        let empty = plan.run(JobLayout::new(1, 2), &cost, 0);
        assert!(
            empty.time_s > 0.0 && empty.time_s < plan.run(JobLayout::new(1, 2), &cost, 1).time_s
        );
        assert_eq!((empty.messages, empty.wire_bytes), (2, 0));
    }

    /// `s` with every length and offset multiplied by `k`.
    fn scaled(s: &CommSchedule, k: usize) -> CommSchedule {
        let mut out = s.clone();
        out.block *= k;
        out.input_len *= k;
        out.work_len *= k;
        out.aux_len *= k;
        for op in out.ranks.iter_mut().flatten().flat_map(|st| &mut st.ops) {
            let (a, b) = match op {
                Op::Send { region, .. } | Op::Recv { region, .. } => (region, None),
                Op::Copy { src, dst } | Op::Combine { src, dst } => (src, Some(dst)),
            };
            for r in std::iter::once(a).chain(b) {
                r.offset *= k;
                r.len *= k;
            }
        }
        out
    }

    #[test]
    fn one_plan_run_many_times_equals_fresh_one_shots() {
        // Every registered algorithm (the power-of-two-only ones at 16
        // ranks), one plan per schedule, run at several scales on two
        // layouts of its world: each run must equal, bit for bit, planning
        // and running the scaled schedule from scratch.
        let bits = |r: &SimResult| {
            let ends: Vec<u64> = r.per_rank_end.iter().map(|t| t.to_bits()).collect();
            (r.time_s.to_bits(), ends, r.wire_bytes, r.messages)
        };
        let mut seen = std::collections::BTreeSet::new();
        for (p, layouts) in [
            (12u32, [JobLayout::new(3, 4), JobLayout::new(12, 1)]),
            (16, [JobLayout::new(2, 8), JobLayout::new(4, 4)]),
        ] {
            for algo in Collective::ALL
                .into_iter()
                .flat_map(|c| Algorithm::applicable_for(c, p))
            {
                seen.insert(algo.to_string());
                let base = algo.schedule(p, 3).unwrap();
                let plan = Plan::new(&base).unwrap();
                for scale in [1usize, 2, 341, 21846] {
                    let fresh = scaled(&base, scale);
                    if algo.scale_invariant() {
                        assert_eq!(fresh, algo.schedule(p, 3 * scale).unwrap(), "{algo}");
                    }
                    for layout in layouts {
                        let cost = CostModel::new(test_node(), layout.ppn);
                        let got = plan.run(layout, &cost, scale);
                        assert!(got.time_s > 0.0 && got.time_s.is_finite());
                        assert_eq!(
                            bits(&got),
                            bits(&run(&fresh, layout, &cost)),
                            "{algo} p={p} scale={scale} {layout:?}"
                        );
                    }
                }
            }
        }
        let registered: usize = Collective::ALL.iter().map(|c| c.algo_count()).sum();
        assert_eq!(seen.len(), registered, "{seen:?}");
    }

    #[test]
    fn virtual_times_match_recorded_digests() {
        // FNV-1a 64 over every registered algorithm's runs (time, per-rank
        // ends, wire bytes, messages) at three scales of its block-4 plan,
        // one digest per layout, recorded before the executor kept one
        // in-flight step per rank: any change to how a run prices a
        // schedule moves a digest. The layouts are a non-power-of-two world
        // on three nodes, one node (intra-node only), one rank a node
        // (inter-node only) and a power-of-two world mixing both; the
        // largest scale sends rendezvous-sized messages; Scatter-Dest's
        // steps wait on three or more receives.
        const RECORDED: [(u32, u32, u64); 4] = [
            (3, 4, 0x2d52_650f_1141_6888),
            (1, 8, 0x4396_94b9_5b3b_e37d),
            (5, 1, 0x9f12_d1e5_4074_728a),
            (4, 4, 0x29bc_0ec3_7693_862d),
        ];
        let mut seen = std::collections::BTreeSet::new();
        let (mut rendezvous, mut wait_all) = (false, false);
        let mut got = Vec::new();
        for (nodes, ppn, _) in RECORDED {
            let layout = JobLayout::new(nodes, ppn);
            let p = layout.world_size();
            let cost = CostModel::new(test_node(), ppn);
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            let mut eat = |x: u64| {
                for b in x.to_le_bytes() {
                    h ^= u64::from(b);
                    h = h.wrapping_mul(0x0100_0000_01b3);
                }
            };
            for algo in Collective::ALL
                .into_iter()
                .flat_map(|c| Algorithm::applicable_for(c, p))
            {
                seen.insert(algo.to_string());
                let plan = Plan::new(&algo.schedule(p, 4).unwrap()).unwrap();
                let recvs = plan.msgs.recv_off.windows(2).map(|w| w[1] - w[0]);
                wait_all |= algo.name() == "scatter_dest" && recvs.max() >= Some(3);
                for scale in [1usize, 5, 8192] {
                    let longest = plan.send_len.iter().max().map_or(0, |l| l * scale);
                    rendezvous |= longest >= cost.rendezvous_threshold();
                    let r = plan.run(layout, &cost, scale);
                    eat(r.time_s.to_bits());
                    r.per_rank_end.iter().for_each(|t| eat(t.to_bits()));
                    eat(r.wire_bytes);
                    eat(r.messages);
                }
            }
            got.push((nodes, ppn, h));
        }
        let registered: usize = Collective::ALL.iter().map(|c| c.algo_count()).sum();
        assert_eq!(seen.len(), registered, "{seen:?}");
        assert!(rendezvous && wait_all);
        assert_eq!(got, RECORDED, "{got:x?}");
    }

    #[test]
    fn every_mutant_is_a_typed_error_or_runs() {
        // What the matcher rejects, `Plan::new` and `validate` reject with
        // the same error; what it accepts either plans and runs, or is the
        // deadlock only the plan looks for. Nothing panics.
        let cost = CostModel::new(test_node(), 1);
        let (mut rejected, mut deadlocked, mut ran) = (0, 0, 0);
        for base in corpus::mutation_bases() {
            for m in corpus::mutants(&base) {
                let layout = JobLayout::new(m.ranks.len() as u32, 1);
                let planned = Plan::new(&m);
                assert_eq!(
                    run(&m, layout, &cost).time_s.is_infinite(),
                    planned.is_err(),
                    "{m:?}"
                );
                if schedcheck::match_messages(&m).is_err() {
                    assert_eq!(planned.err(), m.validate().err(), "{m:?}");
                    rejected += 1;
                    continue;
                }
                match planned {
                    Ok(_) => ran += 1,
                    Err(SchedError::Deadlock { .. }) => {
                        assert_eq!(m.validate(), Ok(()), "{m:?}");
                        deadlocked += 1;
                    }
                    Err(other) => assert_eq!(m.validate(), Err(other), "{m:?}"),
                }
            }
        }
        assert!(
            rejected > 500 && deadlocked > 0 && ran > 0,
            "{rejected} {deadlocked} {ran}"
        );
    }
}
