//! Message matching and the global step-dependency graph.
//!
//! Matching is by exact `(src, dst, tag)` triple — the interpreter's
//! mailbox key — with two extra static obligations the byte-moving
//! executors only discover dynamically: every send needs exactly one receive of the same
//! size, and per directed pair the k-th posted send must match the k-th
//! posted receive (MPI non-overtaking / FIFO discipline, which the
//! [`crate::schedule::ScheduleBuilder`] guarantees by construction).
//!
//! Deadlock-freedom is a graph property: split every step into a **Post**
//! node (copies + non-blocking sends) and a **Complete** node (the
//! wait-all on its receives). Edges are program order within a rank plus
//! one cross-rank edge per message from the sender's Post to the
//! receiver's Complete. A topological order exists iff no set of ranks
//! can wait on each other forever; the order also drives the abstract
//! interpretation, and a cycle is reported as a deadlock witness.
//!
//! Both halves are built for schedules of 10⁵–10⁶ messages, where the
//! cost is memory latency: the matcher works on 24-byte records it moves
//! once (a counting sort of the receives by source) and then only reads
//! in order, and the edges it hands on are `u32` arrays laid out in
//! program order, so [`Messages::sweep`] needs no adjacency build at all —
//! and the virtual-time executor ([`crate::exec::sim::Plan`]) prices a
//! schedule by walking the same arrays instead of pairing messages again.

use super::{OpRef, Phase, SchedError, StepRef};
use crate::schedule::{CommSchedule, Op};

/// Mailbox key: `(source rank, destination rank, tag)`.
pub(crate) type MsgKey = (u32, u32, u32);

/// One posted send or receive as the matcher sees it (24 bytes).
#[derive(Debug, Clone, Copy, Default)]
struct Rec {
    len: u64,
    /// The other rank: the destination of a send, the source of a
    /// receive — until the receives are bucketed by source, when the
    /// bucket says the source and this holds the receiving rank.
    peer: u32,
    tag: u32,
    /// Global step index (steps before the rank + step).
    step: u32,
    /// Position among the receives in program order (unused for sends).
    idx: u32,
}

/// The step graph of a fully matched schedule. Node ids are
/// `2·(steps before the rank + step) + phase` (`u32`: 2³¹ steps do not fit
/// in memory first); a message is one edge from the sender's Post to the
/// receiver's Complete, stored from both ends in program order, so a
/// step's out-edges (its sends) and in-edges (its receives) are contiguous.
#[derive(Debug, Default)]
pub(crate) struct Messages {
    /// First global step of each rank, plus the total (`world + 1`).
    pub(crate) base: Vec<u32>,
    /// Rank of each global step.
    pub(crate) rank_of: Vec<u32>,
    /// Where each global step's sends start in `succ` and `meets` / its
    /// receives in `pred`, plus the totals.
    pub(crate) send_off: Vec<u32>,
    pub(crate) recv_off: Vec<u32>,
    /// Per send: the Complete node that waits on it — within a step in
    /// ascending node order, not op order, so [`Messages::sweep`]'s order
    /// does not depend on how an algorithm happens to list its sends.
    succ: Vec<u32>,
    /// Per send, in op order: the receive it meets (its index among the
    /// receives in program order) and that receive's global step.
    pub(crate) meets: Vec<(u32, u32)>,
    /// Per receive, in op order: the Post node that feeds it.
    pub(crate) pred: Vec<u32>,
}

/// Match every send to its receive and enforce the FIFO tag discipline.
///
/// One program-order scan writes a record per send and per receive. The
/// receives are bucketed by source rank (a stable counting sort: a bucket
/// lists its source's receives by destination, then program order) and
/// each rank's sends walked in program order against its bucket, one
/// cursor per destination: the k-th send of a pair meets the k-th receive.
/// Equal tags and lengths at every meeting, nothing left over and tags
/// climbing within each pair are together "keys unique, every key matched
/// with equal sizes, FIFO respected"; anything else goes to [`diagnose`],
/// which alone decides which error is reported.
pub(crate) fn match_messages(s: &CommSchedule) -> Result<Messages, SchedError> {
    let refuse = || {
        Err(diagnose(s).unwrap_or(SchedError::Internal {
            what: "matcher refused a schedule the diagnosis accepts",
        }))
    };
    let world = s.ranks.len();
    let mut m = Messages::default();
    // Room for every op on either side: untouched capacity is free, growth
    // by doubling touches (and page-faults) twice the records.
    let ops = s.ranks.iter().flatten().map(|step| step.ops.len()).sum();
    let mut sends = Vec::<Rec>::with_capacity(ops);
    let mut recvs = Vec::<Rec>::with_capacity(ops);
    // Receives per source, then (prefix-summed) where its bucket fills.
    let mut fill = vec![0usize; world];
    for (rank, prog) in s.ranks.iter().enumerate() {
        m.base.push(m.rank_of.len() as u32);
        for step in prog {
            let g = m.rank_of.len() as u32;
            m.rank_of.push(rank as u32);
            m.send_off.push(sends.len() as u32);
            m.recv_off.push(recvs.len() as u32);
            for op in &step.ops {
                let (list, peer, tag, region) = match op {
                    Op::Send { to, tag, region } => (&mut sends, *to, *tag, region),
                    Op::Recv { from, tag, region } => match fill.get_mut(*from as usize) {
                        Some(n) => {
                            *n += 1;
                            (&mut recvs, *from, *tag, region)
                        }
                        None => return refuse(),
                    },
                    _ => continue,
                };
                list.push(Rec {
                    len: region.len as u64,
                    peer,
                    tag,
                    step: g,
                    idx: list.len() as u32,
                });
            }
        }
    }
    m.base.push(m.rank_of.len() as u32);
    m.send_off.push(sends.len() as u32);
    m.recv_off.push(recvs.len() as u32);
    // A rank's records are those of its steps: `base` indexes the offsets.
    let of_rank = |off: &[u32], rank: usize| off[m.base[rank] as usize] as usize;

    let mut at = 0;
    for n in &mut fill {
        at += std::mem::replace(n, at);
    }
    let mut inbox = vec![Rec::default(); recvs.len()];
    for dst in 0..world {
        for r in &recvs[of_rank(&m.recv_off, dst)..of_rank(&m.recv_off, dst + 1)] {
            let slot = &mut fill[r.peer as usize];
            inbox[*slot] = Rec {
                peer: dst as u32,
                ..*r
            };
            *slot += 1;
        }
    }

    let (mut succ, mut pred) = (vec![0; sends.len()], vec![0; recvs.len()]);
    let mut meets = vec![(0, 0); sends.len()];
    // Per destination: the next unmatched receive of the current bucket
    // and the end of that destination's run (both 0 outside a bucket).
    let (mut next, mut end) = (vec![0usize; world], vec![0usize; world]);
    let mut unordered_tags = false;
    let mut lo = 0;
    for src in 0..world {
        // `fill[src]` is now one past the source's bucket.
        let bucket = &inbox[lo..fill[src]];
        lo = fill[src];
        for (k, r) in bucket.iter().enumerate() {
            if k == 0 || bucket[k - 1].peer != r.peer {
                next[r.peer as usize] = k;
            }
            end[r.peer as usize] = k + 1;
        }
        for i in of_rank(&m.send_off, src)..of_rank(&m.send_off, src + 1) {
            let snd = &sends[i];
            let k = match next.get_mut(snd.peer as usize) {
                Some(k) if *k < end[snd.peer as usize] => std::mem::replace(k, *k + 1),
                _ => return refuse(),
            };
            let (rcv, before) = (&bucket[k], &bucket[k.saturating_sub(1)]);
            if (rcv.tag, rcv.len) != (snd.tag, snd.len) {
                return refuse();
            }
            unordered_tags |= k > 0 && before.peer == rcv.peer && before.tag >= rcv.tag;
            succ[i] = 2 * rcv.step + 1;
            meets[i] = (rcv.idx, rcv.step);
            pred[rcv.idx as usize] = 2 * snd.step;
        }
        for r in bucket {
            let d = r.peer as usize;
            if std::mem::take(&mut next[d]) != std::mem::take(&mut end[d]) {
                return refuse();
            }
        }
    }
    // Tags that do not climb within a pair may repeat; only then is the
    // exact duplicate check worth its sorts.
    if unordered_tags {
        if let Some(err) = diagnose(s) {
            return Err(err);
        }
    }
    for w in m.send_off.windows(2) {
        succ[w[0] as usize..w[1] as usize].sort_unstable();
    }
    Ok(Messages {
        succ,
        meets,
        pred,
        ..m
    })
}

/// Which error a mismatched schedule reports — the slow, exact half of
/// the matcher, run only once [`match_messages`] has found something wrong
/// (or tags it cannot vouch for). Duplicates beat matching errors (the
/// earliest-posted second occurrence on either side), the send side is
/// reported in key order before unmatched receives, FIFO violations last.
fn diagnose(s: &CommSchedule) -> Option<SchedError> {
    let (mut sends, mut recvs) = (Vec::new(), Vec::new());
    for (rank, prog) in s.ranks.iter().enumerate() {
        let rank = rank as u32;
        for (step, st) in prog.iter().enumerate() {
            for (op, o) in st.ops.iter().enumerate() {
                let at = OpRef { rank, step, op };
                match o {
                    Op::Send { to, tag, region } => sends.push(((rank, *to, *tag), at, region.len)),
                    Op::Recv { from, tag, region } => {
                        recvs.push(((*from, rank, *tag), at, region.len))
                    }
                    _ => {}
                }
            }
        }
    }
    sends.sort_unstable();
    recvs.sort_unstable();
    let second_posting = |side: &[(MsgKey, OpRef, usize)]| {
        let repeats = side.windows(2).filter(|w| w[0].0 == w[1].0);
        repeats.map(|w| (w[1].1, w[1].0)).min()
    };
    let dup = [second_posting(&sends), second_posting(&recvs)];
    if let Some((_, (src, dst, tag))) = dup.into_iter().flatten().min() {
        return Some(SchedError::DuplicateMessage { src, dst, tag });
    }
    // Keys are unique now. Every send must find its receive, of its size;
    // an unmatched receive only counts once the send side is clean.
    let find = |side: &[(MsgKey, OpRef, usize)], key| side.binary_search_by_key(&key, |m| m.0);
    for &((src, dst, tag), at, send_len) in &sends {
        match find(&recvs, (src, dst, tag)).map(|j| recvs[j].2) {
            Ok(recv_len) if recv_len == send_len => {}
            Ok(recv_len) => {
                return Some(SchedError::MessageSizeMismatch {
                    src,
                    dst,
                    tag,
                    send_len,
                    recv_len,
                })
            }
            Err(_) => return Some(SchedError::UnmatchedSend { at, to: dst, tag }),
        }
    }
    if let Some(&((from, _, tag), at, _)) = recvs.iter().find(|r| find(&sends, r.0).is_err()) {
        return Some(SchedError::UnmatchedRecv { at, from, tag });
    }
    // FIFO: walked in pair-then-program order the two sides align one to
    // one (everything matched), and the k-th tags of a pair must agree.
    let by_posting = |m: &(MsgKey, OpRef, usize)| (m.0 .0, m.0 .1, m.1);
    sends.sort_unstable_by_key(by_posting);
    recvs.sort_unstable_by_key(by_posting);
    let mut index = 0;
    for (i, (snd, rcv)) in sends.iter().zip(&recvs).enumerate() {
        let ((src, dst, send_tag), recv_tag) = (snd.0, rcv.0 .2);
        let same_pair = i > 0 && (sends[i - 1].0 .0, sends[i - 1].0 .1) == (src, dst);
        index = if same_pair { index + 1 } else { 0 };
        if send_tag != recv_tag {
            return Some(SchedError::TagOrderViolation {
                src,
                dst,
                index,
                send_tag,
                recv_tag,
            });
        }
    }
    None
}

impl Messages {
    /// Number of steps over all ranks (half the node count).
    pub(crate) fn steps(&self) -> usize {
        self.rank_of.len()
    }

    fn step_ref(&self, id: usize) -> StepRef {
        let rank = self.rank_of[id / 2];
        StepRef {
            rank,
            step: id / 2 - self.base[rank as usize] as usize,
            phase: [Phase::Post, Phase::Complete][id % 2],
        }
    }

    /// Visit every node of the Post/Complete graph in topological order
    /// (Kahn's algorithm, first-in first-out: a wavefront across ranks),
    /// handing `visit` the node, its id and the Post nodes of the messages
    /// it completes (none for a Post; the program-order predecessor is
    /// `id − 1` unless the node opens its rank's program). A client computes
    /// per node here, in one pass, against state it keeps in visit order.
    /// A stalled sweep is a deadlock; only then is the cycle looked for.
    pub(crate) fn sweep(
        &self,
        s: &CommSchedule,
        mut visit: impl FnMut(StepRef, usize, &[u32]),
    ) -> Result<(), SchedError> {
        let n = 2 * self.steps();
        // A Post waits on the Complete before it, a Complete on its own
        // Post and on every message it receives.
        let mut indeg = vec![0u32; n];
        for g in 0..self.steps() {
            indeg[2 * g] = (g as u32 > self.base[self.rank_of[g] as usize]) as u32;
            indeg[2 * g + 1] = 1 + self.recv_off[g + 1] - self.recv_off[g];
        }
        let mut queue: Vec<u32> = Vec::with_capacity(n);
        queue.extend(
            self.base
                .windows(2)
                .filter(|w| w[0] < w[1])
                .map(|w| 2 * w[0]),
        );
        let mut head = 0;
        while let Some(&id) = queue.get(head) {
            head += 1;
            let (id, g) = (id as usize, id as usize / 2);
            let at = self.step_ref(id);
            let mut release = |succ: u32| {
                indeg[succ as usize] -= 1;
                if indeg[succ as usize] == 0 {
                    queue.push(succ);
                }
            };
            if at.phase == Phase::Post {
                visit(at, id, &[]);
                release(id as u32 + 1);
                let fan_out = self.send_off[g] as usize..self.send_off[g + 1] as usize;
                self.succ[fan_out].iter().copied().for_each(release);
            } else {
                let fan_in = self.recv_off[g] as usize..self.recv_off[g + 1] as usize;
                visit(at, id, &self.pred[fan_in]);
                if (g as u32 + 1) < self.base[at.rank as usize + 1] {
                    release(id as u32 + 1);
                }
            }
        }
        if queue.len() == n {
            return Ok(());
        }
        Err(self.deadlock(s, &indeg))
    }

    /// The cycle behind a stalled sweep: walk unvisited (`indeg > 0`)
    /// predecessors until a node repeats — the program-order one first,
    /// then the message with the smallest `(source, tag)`.
    fn deadlock(&self, s: &CommSchedule, indeg: &[u32]) -> SchedError {
        let stuck = |id: usize| indeg[id] > 0;
        let stuck_pred = |id: usize| -> Option<usize> {
            let at = self.step_ref(id);
            if at.phase == Phase::Post {
                return (at.step > 0 && stuck(id - 1)).then(|| id - 1);
            }
            if stuck(id - 1) {
                return Some(id - 1);
            }
            let recvs = s.ranks[at.rank as usize][at.step].recvs();
            let feeds = &self.pred[self.recv_off[id / 2] as usize..];
            recvs
                .zip(feeds)
                .filter(|(_, &p)| stuck(p as usize))
                .min_by_key(|((from, tag, _), _)| (**from, **tag))
                .map(|(_, &p)| p as usize)
        };
        let start = (0..indeg.len()).find(|&id| stuck(id)).unwrap_or(0);
        let mut pos = vec![usize::MAX; indeg.len()];
        let mut path = vec![start];
        pos[start] = 0;
        let cycle = loop {
            let Some(pred) = stuck_pred(path[path.len() - 1]) else {
                // Every unvisited node has an unvisited predecessor;
                // defensive fallback so a broken invariant still reports
                // *something*.
                break path;
            };
            if pos[pred] != usize::MAX {
                let mut cycle = path.split_off(pos[pred]);
                cycle.reverse();
                break cycle;
            }
            pos[pred] = path.len();
            path.push(pred);
        };
        SchedError::Deadlock {
            cycle: cycle.into_iter().map(|id| self.step_ref(id)).collect(),
        }
    }
}

/// A topological order of the Post/Complete step graph, or the deadlock
/// cycle that prevents one.
pub(crate) fn topo_order(s: &CommSchedule, msgs: &Messages) -> Result<Vec<StepRef>, SchedError> {
    let mut order = Vec::with_capacity(2 * msgs.steps());
    msgs.sweep(s, |at, _, _| order.push(at))?;
    Ok(order)
}

#[cfg(test)]
#[path = "oracle.rs"] // the pre-rewrite matcher and sort, the test corpus, the equivalence tests
pub(crate) mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{Buf, CommSchedule, Op, Region, Step};

    #[test]
    fn wait_cycle_is_reported_with_witness() {
        // Two ranks, each receiving before it sends.
        let s = oracle::corpus::wait_cycle();
        let msgs = match_messages(&s).unwrap();
        let err = topo_order(&s, &msgs).unwrap_err();
        match err {
            SchedError::Deadlock { cycle } => {
                assert!(cycle.len() >= 4, "cycle {cycle:?}");
                assert!(cycle.iter().any(|n| n.rank == 0));
                assert!(cycle.iter().any(|n| n.rank == 1));
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn swapped_tags_violate_fifo() {
        let b = 4usize;
        let send = |tag: u32| Op::Send {
            to: 1,
            tag,
            region: Region::new(Buf::Input, 0, b),
        };
        let recv = |tag: u32, off: usize| Op::Recv {
            from: 0,
            tag,
            region: Region::new(Buf::Work, off, b),
        };
        let s = CommSchedule {
            world: 2,
            block: b,
            input_len: b,
            work_len: 2 * b,
            aux_len: 0,
            work_initialized_from_input: false,
            ranks: vec![
                vec![Step {
                    ops: vec![send(1), send(0)],
                }],
                vec![Step {
                    ops: vec![recv(0, 0), recv(1, b)],
                }],
            ],
        };
        let err = match_messages(&s).unwrap_err();
        assert!(
            matches!(err, SchedError::TagOrderViolation { index: 0, .. }),
            "{err:?}"
        );
    }
}
