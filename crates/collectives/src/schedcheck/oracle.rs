//! The matcher and the topological sort this module replaced, kept as
//! test oracles: the sort-and-gather `match_messages` and the standalone
//! `topo_order` exactly as they stood before the rewrite (ISSUE 13), plus
//! the corpus both generations are run on — the registry grid, seeded
//! random well-formed schedules and a mutant of every kind the
//! integration harnesses build — and the equivalence tests themselves:
//! identical matching, identical visit order, or the identical error
//! down to its payload. `schedcost`'s oracle walks the same corpus.

use super::super::{OpRef, Phase, SchedError, StepRef};
use super::{match_messages, topo_order, MsgKey};
use crate::algo::{Algorithm, AllgatherAlgo, AllreduceAlgo, AlltoallAlgo, BcastAlgo};
use crate::schedcheck::sweep_grid;
use crate::schedule::{Buf, CommSchedule, Op, Region, Step};
use std::collections::VecDeque;

/// One side of a matched message.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Endpoint {
    pub at: OpRef,
    pub region: Region,
}

/// Every message of the schedule, fully matched and sorted by mailbox
/// key: `(send, recv)` endpoint pairs.
#[derive(Debug)]
pub(crate) struct OldMessages {
    pub pairs: Vec<(Endpoint, Endpoint)>,
}

/// Index the elements of `v` in `key`-then-program order. Keys are
/// materialized next to the indices (sorting a gather is all cache
/// misses at millions of messages), and the index breaks ties, so equal
/// keys come out in posting order without relying on sort stability.
fn order_by<K: Ord + Copy>(len: usize, key: impl Fn(usize) -> K) -> Vec<u32> {
    let mut keyed: Vec<(K, u32)> = (0..len as u32).map(|i| (key(i as usize), i)).collect();
    keyed.sort_unstable();
    keyed.into_iter().map(|(_, i)| i).collect()
}

/// Earliest (program-order) *second* occurrence of any duplicated key,
/// given the key-sorted index array — the op the incremental map-insert
/// of the previous implementation would have tripped on.
fn second_occurrence<K: Eq>(order: &[u32], key: impl Fn(usize) -> K) -> Option<usize> {
    let mut best: Option<usize> = None;
    for w in order.windows(2) {
        if key(w[0] as usize) == key(w[1] as usize) {
            let second = w[1] as usize;
            best = Some(best.map_or(second, |b| b.min(second)));
        }
    }
    best
}

/// Match every send to its receive and enforce the FIFO tag discipline.
///
/// One program-order scan collects both sides; everything after is
/// index sorts and linear merges. (A map-keyed implementation spends
/// its whole budget on per-message tree inserts once alltoall-sized
/// schedules reach millions of messages.) Error selection is identical
/// to the incremental version: duplicates beat matching errors, the
/// send side is reported in key order before unmatched receives, and
/// FIFO violations come last.
pub(crate) fn old_match_messages(s: &CommSchedule) -> Result<OldMessages, SchedError> {
    let mut sends: Vec<(MsgKey, Endpoint)> = Vec::new();
    let mut recvs: Vec<(MsgKey, Endpoint)> = Vec::new();
    for (rank, prog) in s.ranks.iter().enumerate() {
        let rank = rank as u32;
        for (si, step) in prog.iter().enumerate() {
            for (oi, op) in step.ops.iter().enumerate() {
                let at = OpRef {
                    rank,
                    step: si,
                    op: oi,
                };
                match op {
                    Op::Send { to, tag, region } => sends.push((
                        (rank, *to, *tag),
                        Endpoint {
                            at,
                            region: *region,
                        },
                    )),
                    Op::Recv { from, tag, region } => recvs.push((
                        (*from, rank, *tag),
                        Endpoint {
                            at,
                            region: *region,
                        },
                    )),
                    _ => {}
                }
            }
        }
    }

    // Duplicate keys: report whichever side's duplicate op posts first
    // (element index is monotone in the rank-major program scan only
    // within one side, so compare across sides by OpRef).
    let key_s = order_by(sends.len(), |i| sends[i].0);
    let key_r = order_by(recvs.len(), |i| recvs[i].0);
    let s_dup = second_occurrence(&key_s, |i| sends[i].0);
    let r_dup = second_occurrence(&key_r, |i| recvs[i].0);
    let posted = |e: &Endpoint| (e.at.rank, e.at.step, e.at.op);
    let dup = match (s_dup, r_dup) {
        (Some(a), Some(b)) if posted(&sends[a].1) <= posted(&recvs[b].1) => Some(sends[a].0),
        (Some(_), Some(b)) => Some(recvs[b].0),
        (Some(a), None) => Some(sends[a].0),
        (None, Some(b)) => Some(recvs[b].0),
        (None, None) => None,
    };
    if let Some((src, dst, tag)) = dup {
        return Err(SchedError::DuplicateMessage { src, dst, tag });
    }

    // Merge in key order: every send must find its receive (keys are
    // unique now). Unmatched receives only count once the send side is
    // clean, so note the first and keep going.
    let mut pairs = Vec::with_capacity(sends.len());
    let mut unmatched_recv: Option<usize> = None;
    let mut j = 0usize;
    for &si in &key_s {
        let (skey, snd) = &sends[si as usize];
        while j < key_r.len() && recvs[key_r[j] as usize].0 < *skey {
            unmatched_recv.get_or_insert(key_r[j] as usize);
            j += 1;
        }
        if j >= key_r.len() || recvs[key_r[j] as usize].0 != *skey {
            return Err(SchedError::UnmatchedSend {
                at: snd.at,
                to: skey.1,
                tag: skey.2,
            });
        }
        let rcv = &recvs[key_r[j] as usize].1;
        if snd.region.len != rcv.region.len {
            return Err(SchedError::MessageSizeMismatch {
                src: skey.0,
                dst: skey.1,
                tag: skey.2,
                send_len: snd.region.len,
                recv_len: rcv.region.len,
            });
        }
        pairs.push((*snd, *rcv));
        j += 1;
    }
    if let Some(i) = unmatched_recv.or((j < key_r.len()).then(|| key_r[j] as usize)) {
        let (key, rcv) = &recvs[i];
        return Err(SchedError::UnmatchedRecv {
            at: rcv.at,
            from: key.0,
            tag: key.2,
        });
    }

    // FIFO: per directed pair the k-th send and the k-th receive (each
    // in its own rank's program order) must carry the same tag. All
    // messages matched above, so the pair groups align one to one when
    // both sides are walked in pair-then-program order.
    let pair_s = order_by(sends.len(), |i| (sends[i].0 .0, sends[i].0 .1));
    let pair_r = order_by(recvs.len(), |i| (recvs[i].0 .0, recvs[i].0 .1));
    let mut k = 0usize;
    let mut prev: Option<(u32, u32)> = None;
    for (&si, &ri) in pair_s.iter().zip(&pair_r) {
        let skey = sends[si as usize].0;
        let rtag = recvs[ri as usize].0 .2;
        let pair = (skey.0, skey.1);
        k = if prev == Some(pair) { k + 1 } else { 0 };
        prev = Some(pair);
        if skey.2 != rtag {
            return Err(SchedError::TagOrderViolation {
                src: pair.0,
                dst: pair.1,
                index: k,
                send_tag: skey.2,
                recv_tag: rtag,
            });
        }
    }
    Ok(OldMessages { pairs })
}

/// A topological order of the Post/Complete step graph, or the deadlock
/// cycle that prevents one.
pub(crate) fn old_topo_order(
    s: &CommSchedule,
    msgs: &OldMessages,
) -> Result<Vec<StepRef>, SchedError> {
    // Dense node ids: 2·(steps before rank r + step) + phase.
    let mut base = vec![0usize; s.ranks.len() + 1];
    let mut rank_step: Vec<(u32, usize)> = Vec::new();
    for (r, prog) in s.ranks.iter().enumerate() {
        base[r + 1] = base[r] + prog.len();
        for st in 0..prog.len() {
            rank_step.push((r as u32, st));
        }
    }
    let n = 2 * rank_step.len();
    let node = |rank: u32, step: usize, phase: Phase| -> usize {
        2 * (base[rank as usize] + step)
            + match phase {
                Phase::Post => 0,
                Phase::Complete => 1,
            }
    };
    let as_ref = |id: usize| -> StepRef {
        let (rank, step) = rank_step[id / 2];
        StepRef {
            rank,
            step,
            phase: if id.is_multiple_of(2) {
                Phase::Post
            } else {
                Phase::Complete
            },
        }
    };
    // Compressed adjacency (count, prefix-sum, fill): one growable Vec
    // per node means millions of allocations at alltoall scale.
    let for_each_edge = |f: &mut dyn FnMut(usize, usize)| {
        for (r, prog) in s.ranks.iter().enumerate() {
            let r = r as u32;
            for st in 0..prog.len() {
                f(node(r, st, Phase::Post), node(r, st, Phase::Complete));
                if st > 0 {
                    f(node(r, st - 1, Phase::Complete), node(r, st, Phase::Post));
                }
            }
        }
        for (snd, rcv) in &msgs.pairs {
            f(
                node(snd.at.rank, snd.at.step, Phase::Post),
                node(rcv.at.rank, rcv.at.step, Phase::Complete),
            );
        }
    };
    let mut cursor = vec![0u32; n + 1];
    for_each_edge(&mut |a, _| cursor[a + 1] += 1);
    for i in 0..n {
        cursor[i + 1] += cursor[i];
    }
    let off = cursor.clone();
    let mut adj = vec![0u32; off[n] as usize];
    let mut indeg = vec![0u32; n];
    for_each_edge(&mut |a, b| {
        adj[cursor[a] as usize] = b as u32;
        cursor[a] += 1;
        indeg[b] += 1;
    });
    let mut queue: VecDeque<usize> = (0..n).filter(|&id| indeg[id] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(id) = queue.pop_front() {
        order.push(as_ref(id));
        for &succ in &adj[off[id] as usize..off[id + 1] as usize] {
            indeg[succ as usize] -= 1;
            if indeg[succ as usize] == 0 {
                queue.push_back(succ as usize);
            }
        }
    }
    if order.len() == n {
        return Ok(order);
    }
    // Cycle witness: walk predecessors inside the remaining (indeg > 0)
    // subgraph until a node repeats.
    let mut rev: Vec<Vec<usize>> = vec![Vec::new(); n];
    for_each_edge(&mut |a, b| {
        if indeg[a] > 0 && indeg[b] > 0 {
            rev[b].push(a);
        }
    });
    let start = (0..n).find(|&id| indeg[id] > 0).unwrap_or(0);
    let mut pos = vec![usize::MAX; n];
    let mut path = vec![start];
    pos[start] = 0;
    let cycle_ids = loop {
        let cur = path[path.len() - 1];
        let Some(&pred) = rev[cur].first() else {
            // Every remaining node has a remaining predecessor; defensive
            // fallback so a broken invariant still reports *something*.
            break path.clone();
        };
        if pos[pred] != usize::MAX {
            let mut cyc = path[pos[pred]..].to_vec();
            cyc.reverse();
            break cyc;
        }
        pos[pred] = path.len();
        path.push(pred);
    };
    Err(SchedError::Deadlock {
        cycle: cycle_ids.into_iter().map(as_ref).collect(),
    })
}

/// The corpus both generations are run on. (Its own `cfg(test)` module
/// so the repo's lint, which reads files one at a time, sees test code.)
#[cfg(test)]
pub(crate) mod corpus {
    use super::*;

    /// Deterministic pseudo-random stream (64-bit LCG, high bits).
    pub(crate) struct Lcg(pub u64);

    impl Lcg {
        pub(crate) fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 33
        }

        pub(crate) fn below(&mut self, n: usize) -> usize {
            (self.next() % n.max(1) as u64) as usize
        }
    }

    /// Every registry schedule of the default schedcheck grid, plus a few
    /// larger worlds (non-powers of two included).
    pub(crate) fn registry_corpus() -> Vec<CommSchedule> {
        let mut cells = sweep_grid(16, &[16, 21]);
        for p in [24u32, 33, 64] {
            cells.extend(sweep_grid(p, &[3]).into_iter().filter(|c| c.1 == p));
        }
        cells
            .into_iter()
            .map(|(algo, p, size)| algo.schedule(p, size).unwrap())
            .collect()
    }

    /// A random well-formed schedule: `rounds` bulk-synchronous rounds in
    /// which every rank posts its round's sends and completes its round's
    /// receives in one step (so nothing can deadlock), with local copies
    /// sprinkled in. Tags follow one of three disciplines per schedule:
    /// the builder's 0, 1, 2, …; strictly increasing with gaps; or distinct
    /// but *not* monotone — legal, and the case that sends the new matcher
    /// through its exact duplicate check. Regions stay in bounds so the
    /// schedule also passes `structural`.
    pub(crate) fn random_schedule(seed: u64) -> CommSchedule {
        let mut rng = Lcg(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xabcd);
        let world = 2 + rng.below(9);
        let rounds = 1 + rng.below(6);
        let discipline = rng.below(3);
        let buf = 64usize;
        let mut ranks: Vec<Vec<Step>> = vec![Vec::new(); world];
        // Per directed pair: the tags handed out so far.
        let mut issued: Vec<Vec<u32>> = vec![Vec::new(); world * world];
        for _ in 0..rounds {
            let mut steps: Vec<Vec<Op>> = vec![Vec::new(); world];
            let mut recvs: Vec<Vec<Op>> = vec![Vec::new(); world];
            for _ in 0..rng.below(3 * world) {
                let src = rng.below(world);
                let dst = (src + 1 + rng.below(world - 1)) % world;
                let len = 1 + rng.below(8);
                let pair = &mut issued[src * world + dst];
                let tag = match discipline {
                    0 => pair.len() as u32,
                    1 => pair.last().map_or(0, |t| t + 1) + rng.below(4) as u32,
                    _ => loop {
                        let t = rng.below(64) as u32;
                        if !pair.contains(&t) {
                            break t;
                        }
                    },
                };
                pair.push(tag);
                steps[src].push(Op::Send {
                    to: dst as u32,
                    tag,
                    region: Region::new(Buf::Input, rng.below(buf - len), len),
                });
                recvs[dst].push(Op::Recv {
                    from: src as u32,
                    tag,
                    region: Region::new(Buf::Work, rng.below(buf - len), len),
                });
            }
            for (r, (mut ops, rcv)) in steps.into_iter().zip(recvs).enumerate() {
                if rng.below(3) == 0 {
                    let len = 1 + rng.below(8);
                    let copy = Op::Copy {
                        src: Region::new(Buf::Input, rng.below(buf - len), len),
                        dst: Region::new(Buf::Aux, rng.below(buf - len), len),
                    };
                    ops.insert(0, copy);
                }
                ops.extend(rcv);
                if !ops.is_empty() {
                    ranks[r].push(Step { ops });
                }
            }
        }
        CommSchedule {
            world: world as u32,
            block: 1,
            input_len: buf,
            work_len: buf,
            aux_len: buf,
            work_initialized_from_input: false,
            ranks,
        }
    }

    /// The two-rank wait cycle both mutation harnesses build by hand.
    pub(crate) fn wait_cycle() -> CommSchedule {
        let b = 8usize;
        let mk = |peer: u32| {
            let recv = Op::Recv {
                from: peer,
                tag: 0,
                region: Region::work(0, b),
            };
            let send = Op::Send {
                to: peer,
                tag: 0,
                region: Region::input(0, b),
            };
            vec![Step { ops: vec![recv] }, Step { ops: vec![send] }]
        };
        CommSchedule {
            world: 2,
            block: b,
            input_len: b,
            work_len: b,
            aux_len: 0,
            work_initialized_from_input: false,
            ranks: vec![mk(1), mk(0)],
        }
    }

    /// Coordinates of every send and receive, program order.
    fn message_ops(s: &CommSchedule) -> Vec<(usize, usize, usize)> {
        let mut out = Vec::new();
        for (r, prog) in s.ranks.iter().enumerate() {
            for (si, step) in prog.iter().enumerate() {
                for (oi, op) in step.ops.iter().enumerate() {
                    if matches!(op, Op::Send { .. } | Op::Recv { .. }) {
                        out.push((r, si, oi));
                    }
                }
            }
        }
        out
    }

    fn peer_tag_len(op: &mut Op) -> (&mut u32, &mut u32, &mut usize) {
        match op {
            Op::Send { to, tag, region } => (to, tag, &mut region.len),
            Op::Recv { from, tag, region } => (from, tag, &mut region.len),
            _ => unreachable!("message_ops only lists sends and receives"),
        }
    }

    /// Every single-defect corruption of `base` this corpus knows: for each
    /// send and receive — dropped (both harnesses), duplicated, retagged
    /// (to the next tag, to 0 as in `duplicated_tag_is_a_duplicate_message`,
    /// to `u32::MAX`), tags swapped with the rank's next message
    /// (`swapped_tags_are_a_fifo_violation`), re-peered (next rank, the rank
    /// itself as in `self_send_is_a_bad_peer`, the world size and
    /// `u32::MAX` — peers no rank has), shrunk by a byte
    /// (`shrunk_recv_region_is_a_size_mismatch`) or to nothing, and moved a
    /// step earlier or later in its rank (wait cycles, same-step receives
    /// as in `overlapping_recvs_in_one_step_are_a_hazard`) — and, per rank,
    /// the program emptied, plus one trailing rank with no steps at all
    /// (with and without `world` following, the latter being
    /// `truncated_ranks_are_a_world_mismatch` in reverse).
    pub(crate) fn mutants(base: &CommSchedule) -> Vec<CommSchedule> {
        let mut out = Vec::new();
        let coords = message_ops(base);
        for (i, &(r, si, oi)) in coords.iter().enumerate() {
            let mut edit = |f: &mut dyn FnMut(&mut CommSchedule)| {
                let mut m = base.clone();
                f(&mut m);
                out.push(m);
            };
            edit(&mut |m| {
                m.ranks[r][si].ops.remove(oi);
            });
            edit(&mut |m| {
                let op = m.ranks[r][si].ops[oi].clone();
                m.ranks[r][si].ops.push(op);
            });
            for tag in [None, Some(0), Some(u32::MAX)] {
                edit(&mut |m| {
                    let t = peer_tag_len(&mut m.ranks[r][si].ops[oi]).1;
                    *t = tag.unwrap_or(t.wrapping_add(1));
                });
            }
            if let Some(&(r2, s2, o2)) = coords.get(i + 1).filter(|c| c.0 == r) {
                edit(&mut |m| {
                    let a = *peer_tag_len(&mut m.ranks[r][si].ops[oi]).1;
                    let b = std::mem::replace(peer_tag_len(&mut m.ranks[r2][s2].ops[o2]).1, a);
                    *peer_tag_len(&mut m.ranks[r][si].ops[oi]).1 = b;
                });
            }
            for peer in [None, Some(r as u32), Some(base.world), Some(u32::MAX)] {
                edit(&mut |m| {
                    let p = peer_tag_len(&mut m.ranks[r][si].ops[oi]).0;
                    *p = peer.unwrap_or((*p + 1) % base.world);
                });
            }
            for shrink_to_zero in [false, true] {
                edit(&mut |m| {
                    let len = peer_tag_len(&mut m.ranks[r][si].ops[oi]).2;
                    *len = if shrink_to_zero { 0 } else { *len - 1 };
                });
            }
            for earlier in [true, false] {
                let to = if earlier {
                    si.checked_sub(1)
                } else {
                    Some(si + 1)
                };
                if let Some(to) = to.filter(|&to| to < base.ranks[r].len()) {
                    edit(&mut |m| {
                        let op = m.ranks[r][si].ops.remove(oi);
                        m.ranks[r][to].ops.push(op);
                    });
                }
            }
        }
        for r in 0..base.ranks.len() {
            let mut m = base.clone();
            m.ranks[r].clear();
            out.push(m);
        }
        for follow in [true, false] {
            let mut m = base.clone();
            m.ranks.push(Vec::new());
            m.world += follow as u32;
            out.push(m);
        }
        out
    }

    /// The schedules the mutants are derived from: the two rings the
    /// integration harnesses corrupt, a fan-out, a log-round and a tree
    /// algorithm, and two random schedules (one with non-monotone tags).
    pub(crate) fn mutation_bases() -> Vec<CommSchedule> {
        let mut bases = [
            Algorithm::Allgather(AllgatherAlgo::Ring).schedule(4, 8),
            Algorithm::Allreduce(AllreduceAlgo::RingReduceScatter).schedule(4, 8),
            Algorithm::Alltoall(AlltoallAlgo::ScatterDest).schedule(5, 3),
            Algorithm::Alltoall(AlltoallAlgo::Bruck).schedule(6, 2),
            Algorithm::Bcast(BcastAlgo::Binomial).schedule(7, 16),
        ]
        .map(|s| s.unwrap())
        .to_vec();
        bases.push(wait_cycle());
        bases.extend(
            (0..64)
                .map(random_schedule)
                .filter(|s| s.world <= 5)
                .take(4),
        );
        bases
    }

    /// The whole corpus, well-formed and corrupted.
    pub(crate) fn all() -> Vec<CommSchedule> {
        let mut all = registry_corpus();
        all.extend((0..200).map(random_schedule));
        for base in mutation_bases() {
            all.extend(mutants(&base));
            all.push(base);
        }
        all
    }
}

#[cfg(test)]
mod tests {
    use super::corpus::*;
    use super::*;

    /// The old pair list as the new representation states it: per step, the
    /// Complete nodes its sends feed (ascending), and per receive in
    /// program order the Post node that feeds it.
    fn as_edges(s: &CommSchedule, old: &OldMessages) -> (Vec<Vec<u32>>, Vec<u32>) {
        let mut base = vec![0usize];
        for prog in &s.ranks {
            base.push(base[base.len() - 1] + prog.len());
        }
        let step_of = |at: &OpRef| base[at.rank as usize] + at.step;
        let mut fan_out = vec![Vec::new(); base[s.ranks.len()]];
        let mut feeds = std::collections::BTreeMap::new();
        for (snd, rcv) in &old.pairs {
            fan_out[step_of(&snd.at)].push(2 * step_of(&rcv.at) as u32 + 1);
            feeds.insert(rcv.at, 2 * step_of(&snd.at) as u32);
        }
        fan_out.iter_mut().for_each(|f| f.sort_unstable());
        (fan_out, feeds.into_values().collect())
    }

    #[test]
    fn corpus_exercises_every_matching_error_and_both_verdicts() {
        let mut seen = std::collections::BTreeSet::new();
        for s in all() {
            seen.insert(match old_match_messages(&s) {
                Ok(msgs) => match old_topo_order(&s, &msgs) {
                    Ok(_) => "ok",
                    Err(_) => "deadlock",
                },
                Err(SchedError::DuplicateMessage { .. }) => "duplicate",
                Err(SchedError::UnmatchedSend { .. }) => "unmatched send",
                Err(SchedError::UnmatchedRecv { .. }) => "unmatched recv",
                Err(SchedError::MessageSizeMismatch { .. }) => "size mismatch",
                Err(SchedError::TagOrderViolation { .. }) => "fifo",
                Err(other) => panic!("unexpected matcher error {other:?}"),
            });
        }
        assert_eq!(seen.len(), 7, "{seen:?}");
    }

    #[test]
    fn matcher_and_order_agree_with_the_code_they_replaced() {
        let corpus = all();
        assert!(corpus.len() > 2000, "{}", corpus.len());
        for s in &corpus {
            let old = old_match_messages(s);
            let new = match_messages(s);
            let (old, new) = match (old, new) {
                (Ok(old), Ok(new)) => (old, new),
                (old, new) => {
                    assert_eq!(old.err(), new.err(), "{s:?}");
                    continue;
                }
            };
            let (fan_out, feeds) = as_edges(s, &old);
            for (g, want) in fan_out.iter().enumerate() {
                let got = &new.succ[new.send_off[g] as usize..new.send_off[g + 1] as usize];
                assert_eq!(got, &want[..], "step {g} of {s:?}");
            }
            assert_eq!(new.pred, feeds, "{s:?}");
            // Per send in program order: the receive it meets is the one
            // posted for it (same pair, tag and size), at the step named.
            let ops = |want_send: bool| {
                let ranks = s.ranks.iter().enumerate();
                ranks.flat_map(move |(rank, prog)| {
                    let ops = prog.iter().flat_map(|step| &step.ops);
                    ops.filter_map(move |op| match op {
                        Op::Send { to, tag, region } if want_send => {
                            Some((rank as u32, *to, *tag, region.len))
                        }
                        Op::Recv { from, tag, region } if !want_send => {
                            Some((*from, rank as u32, *tag, region.len))
                        }
                        _ => None,
                    })
                })
            };
            let recvs: Vec<_> = ops(false).collect();
            assert_eq!(new.meets.len(), ops(true).count());
            for (send, &(recv, step)) in ops(true).zip(&new.meets) {
                assert_eq!(send, recvs[recv as usize], "{s:?}");
                let of_step = new.recv_off[step as usize]..new.recv_off[step as usize + 1];
                assert!(of_step.contains(&recv), "{s:?}");
            }
            // Same visit order, or the same cycle.
            assert_eq!(old_topo_order(s, &old), topo_order(s, &new), "{s:?}");
        }
    }
}
