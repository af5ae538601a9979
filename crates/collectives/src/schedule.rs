//! The communication-schedule IR.
//!
//! Every collective algorithm in this crate is expressed as a
//! [`CommSchedule`]: for each rank, an ordered list of [`Step`]s, each
//! containing local copies, sends, and receives. The same schedule is then
//! read by three executors and two static analyses:
//!
//! * the sequential interpreter ([`crate::exec::interp`]) — moves real bytes,
//!   used to prove algorithm correctness;
//! * the threaded executor ([`crate::exec::threaded`]) — one OS thread per
//!   rank over crossbeam channels, real parallel execution;
//! * the virtual-time executor ([`crate::exec::sim`]) — charges each
//!   operation against a [`pml_simnet::CostModel`] to produce the modelled
//!   runtime the ML dataset is built from;
//! * [`crate::schedcheck`] (dataflow proof) and [`crate::schedcost`] (cost
//!   polynomial), which share one send/receive matcher with the
//!   virtual-time executor and with [`CommSchedule::validate`].
//!
//! ## Step semantics
//!
//! Within a step, operations execute as one MPI "phase":
//! 1. all [`Op::Copy`] operations run first, in order (packing);
//! 2. all [`Op::Send`] operations are posted (non-blocking);
//! 3. all [`Op::Recv`] operations complete (wait-all).
//!
//! A copy that consumes received data therefore belongs in the *next* step.
//! Sends never wait on receives, so the only way to hang is a cycle of
//! ranks each completing a receive before the step that posts the matching
//! send: [`CommSchedule::validate`] checks the matching, and the wait graph
//! is checked where it is walked ([`crate::exec::sim::Plan::new`],
//! [`crate::schedcheck::check_schedule`]).
//!
//! ## Tag discipline
//!
//! Message matching is per directed pair, FIFO: the k-th send from rank `i`
//! to rank `j` matches the k-th receive at `j` from `i` (MPI non-overtaking
//! semantics). The [`ScheduleBuilder`] assigns sequence tags automatically.

use crate::schedcheck::{self, SchedError};
use serde::{Deserialize, Serialize};

/// Which per-rank buffer a region refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Buf {
    /// The caller's read-only send buffer.
    Input,
    /// The output buffer (the collective's result ends here).
    Work,
    /// Algorithm-private scratch space.
    Aux,
}

/// A byte range inside one of a rank's buffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Region {
    pub buf: Buf,
    pub offset: usize,
    pub len: usize,
}

impl Region {
    pub fn new(buf: Buf, offset: usize, len: usize) -> Self {
        Region { buf, offset, len }
    }

    pub fn input(offset: usize, len: usize) -> Self {
        Region::new(Buf::Input, offset, len)
    }

    pub fn work(offset: usize, len: usize) -> Self {
        Region::new(Buf::Work, offset, len)
    }

    pub fn aux(offset: usize, len: usize) -> Self {
        Region::new(Buf::Aux, offset, len)
    }

    /// Exclusive end of the region. Saturates on `offset + len` overflow —
    /// such a region can never fit a real buffer, and [`CommSchedule::validate`]
    /// rejects it explicitly rather than letting the sum wrap.
    pub fn end(&self) -> usize {
        self.offset.saturating_add(self.len)
    }

    pub fn overlaps(&self, other: &Region) -> bool {
        self.buf == other.buf && self.offset < other.end() && other.offset < self.end()
    }
}

/// One operation executed by one rank.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Op {
    /// Post a message to `to`. Non-blocking for eager-sized payloads.
    Send { to: u32, tag: u32, region: Region },
    /// Complete a message from `from` into `region`.
    Recv { from: u32, tag: u32, region: Region },
    /// Local memory copy (pack/unpack/rotate). `src.len == dst.len`.
    Copy { src: Region, dst: Region },
    /// Local elementwise reduction: `dst[i] ⊕= src[i]` (the executors use
    /// wrapping byte addition — commutative and associative, so any valid
    /// reduction order yields identical bytes). `src.len == dst.len`.
    Combine { src: Region, dst: Region },
}

/// One phase of a rank's program: copies, then posted sends, then a wait-all
/// on the receives.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Step {
    pub ops: Vec<Op>,
}

impl Step {
    pub fn sends(&self) -> impl Iterator<Item = (&u32, &u32, &Region)> {
        self.ops.iter().filter_map(|op| match op {
            Op::Send { to, tag, region } => Some((to, tag, region)),
            _ => None,
        })
    }

    pub fn recvs(&self) -> impl Iterator<Item = (&u32, &u32, &Region)> {
        self.ops.iter().filter_map(|op| match op {
            Op::Recv { from, tag, region } => Some((from, tag, region)),
            _ => None,
        })
    }

    pub fn copies(&self) -> impl Iterator<Item = (&Region, &Region)> {
        self.ops.iter().filter_map(|op| match op {
            Op::Copy { src, dst } => Some((src, dst)),
            _ => None,
        })
    }

    pub fn combines(&self) -> impl Iterator<Item = (&Region, &Region)> {
        self.ops.iter().filter_map(|op| match op {
            Op::Combine { src, dst } => Some((src, dst)),
            _ => None,
        })
    }
}

/// A full collective schedule for `world` ranks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CommSchedule {
    pub world: u32,
    /// The collective's unit block size in bytes.
    pub block: usize,
    pub input_len: usize,
    pub work_len: usize,
    pub aux_len: usize,
    /// When true, executors initialize `Work` with a copy of `Input` at time
    /// zero and zero cost — the MPI_IN_PLACE convention, where the user's
    /// data already lives in the receive buffer.
    pub work_initialized_from_input: bool,
    /// `ranks[r]` is rank r's program.
    pub ranks: Vec<Vec<Step>>,
}

impl CommSchedule {
    /// Total bytes a given rank sends over all steps.
    pub fn bytes_sent_by(&self, rank: u32) -> usize {
        self.ranks[rank as usize]
            .iter()
            .flat_map(|s| s.sends().map(|(_, _, r)| r.len))
            .sum()
    }

    /// Total messages a given rank sends.
    pub fn messages_sent_by(&self, rank: u32) -> usize {
        self.ranks[rank as usize]
            .iter()
            .map(|s| s.sends().count())
            .sum()
    }

    /// Total bytes moved by local copies (including reductions) at a rank.
    pub fn bytes_copied_by(&self, rank: u32) -> usize {
        self.ranks[rank as usize]
            .iter()
            .flat_map(|s| s.copies().chain(s.combines()).map(|(src, _)| src.len))
            .sum()
    }

    /// Maximum number of steps over all ranks.
    pub fn max_steps(&self) -> usize {
        self.ranks.iter().map(|p| p.len()).max().unwrap_or(0)
    }

    /// Every per-op rule (region bounds, copy lengths and overlap, peers,
    /// the read-only Input) and every send matched to exactly one receive
    /// of its size in per-pair FIFO order: what [`crate::schedcheck`] and
    /// the executors take for granted, with schedcheck's typed errors.
    /// Wait cycles are not looked for — [`crate::exec::sim::Plan::new`] and
    /// [`crate::schedcheck::check_schedule`] do that.
    pub fn validate(&self) -> Result<(), SchedError> {
        schedcheck::structural(self)?;
        schedcheck::match_messages(self).map(drop)
    }
}

/// How many peers a [`PeerSeq`] lists before it turns to a dense row.
const FEW_PEERS: usize = 8;

/// FIFO sequence counters from one rank toward its peers. Rings and trees
/// stay in the short list (a world-sized row per rank would cost more than
/// their schedule at ~2k ranks); a rank that fans out moves to a dense row.
/// Peers outside the world — [`CommSchedule::validate`] rejects them later
/// — stay listed: a bad peer costs a scan, not an out-of-bounds index.
#[derive(Debug, Clone, Default)]
struct PeerSeq {
    few: Vec<(u32, u32)>,
    dense: Vec<u32>,
}

impl PeerSeq {
    /// The next tag toward `peer` (post-increment).
    fn next(&mut self, peer: u32, world: u32) -> u32 {
        if self.dense.is_empty() && self.few.len() >= FEW_PEERS && peer < world {
            self.dense = vec![0; world as usize];
            let dense = &mut self.dense;
            self.few
                .retain(|&(p, seq)| dense.get_mut(p as usize).map(|slot| *slot = seq).is_none());
        }
        let seq = match self.dense.get_mut(peer as usize) {
            Some(seq) => seq,
            None => {
                let listed = self.few.iter().position(|&(p, _)| p == peer);
                let at = listed.unwrap_or_else(|| {
                    self.few.push((peer, 0));
                    self.few.len() - 1
                });
                &mut self.few[at].1
            }
        };
        *seq += 1;
        *seq - 1
    }
}

/// Incremental builder that assigns FIFO message tags automatically.
#[derive(Debug)]
pub struct ScheduleBuilder {
    schedule: CommSchedule,
    /// `send_seq[r]` counts r's sends per destination, `recv_seq[r]` its
    /// receives per source.
    send_seq: Vec<PeerSeq>,
    recv_seq: Vec<PeerSeq>,
}

impl ScheduleBuilder {
    pub fn new(
        world: u32,
        block: usize,
        input_len: usize,
        work_len: usize,
        aux_len: usize,
    ) -> Self {
        ScheduleBuilder {
            schedule: CommSchedule {
                world,
                block,
                input_len,
                work_len,
                aux_len,
                work_initialized_from_input: false,
                ranks: vec![Vec::new(); world as usize],
            },
            send_seq: vec![PeerSeq::default(); world as usize],
            recv_seq: vec![PeerSeq::default(); world as usize],
        }
    }

    /// Mark the schedule as operating in place (Work pre-seeded from Input).
    pub fn work_initialized_from_input(&mut self) {
        self.schedule.work_initialized_from_input = true;
    }

    /// Append one step to `rank`'s program, described by closure calls on a
    /// [`StepBuilder`]. Empty steps are dropped.
    pub fn step(&mut self, rank: u32, f: impl FnOnce(&mut StepBuilder<'_>)) {
        // Collectives are symmetric: size the op list like the previous
        // rank's step at this position instead of growing it.
        let ranks = &self.schedule.ranks;
        let at = ranks.get(rank as usize).map_or(0, Vec::len);
        let like = ranks
            .get((rank as usize).wrapping_sub(1))
            .and_then(|p| p.get(at));
        let mut sb = StepBuilder {
            rank,
            ops: Vec::with_capacity(like.map_or(0, |step| step.ops.len())),
            builder: self,
        };
        f(&mut sb);
        let ops = std::mem::take(&mut sb.ops);
        if !ops.is_empty() {
            self.schedule.ranks[rank as usize].push(Step { ops });
        }
    }

    pub fn finish(self) -> CommSchedule {
        self.schedule
    }
}

/// Builds one step; obtained through [`ScheduleBuilder::step`].
#[derive(Debug)]
pub struct StepBuilder<'a> {
    rank: u32,
    ops: Vec<Op>,
    builder: &'a mut ScheduleBuilder,
}

impl StepBuilder<'_> {
    pub fn copy(&mut self, src: Region, dst: Region) {
        if src.len == 0 {
            return;
        }
        self.ops.push(Op::Copy { src, dst });
    }

    pub fn combine(&mut self, src: Region, dst: Region) {
        if src.len == 0 {
            return;
        }
        self.ops.push(Op::Combine { src, dst });
    }

    pub fn send(&mut self, to: u32, region: Region) {
        if region.len == 0 {
            return;
        }
        let world = self.builder.schedule.world;
        let tag = self.builder.send_seq[self.rank as usize].next(to, world);
        self.ops.push(Op::Send { to, tag, region });
    }

    pub fn recv(&mut self, from: u32, region: Region) {
        if region.len == 0 {
            return;
        }
        let world = self.builder.schedule.world;
        let tag = self.builder.recv_seq[self.rank as usize].next(from, world);
        self.ops.push(Op::Recv { from, tag, region });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn two_rank_exchange() -> CommSchedule {
        let b = 8;
        let mut sb = ScheduleBuilder::new(2, b, b, 2 * b, 0);
        for r in 0..2u32 {
            let peer = 1 - r;
            sb.step(r, |s| {
                s.copy(Region::input(0, b), Region::work(r as usize * b, b));
                s.send(peer, Region::input(0, b));
                s.recv(peer, Region::work(peer as usize * b, b));
            });
        }
        sb.finish()
    }

    #[test]
    fn valid_exchange_passes() {
        let sch = two_rank_exchange();
        sch.validate().unwrap();
        assert_eq!(sch.bytes_sent_by(0), 8);
        assert_eq!(sch.messages_sent_by(0), 1);
        assert_eq!(sch.bytes_copied_by(1), 8);
        assert_eq!(sch.max_steps(), 1);
    }

    #[test]
    fn tags_are_fifo_per_pair() {
        let b = 4;
        let mut sb = ScheduleBuilder::new(2, b, b, 2 * b, 0);
        sb.step(0, |s| {
            s.send(1, Region::input(0, b));
            s.send(1, Region::input(0, b));
        });
        sb.step(1, |s| {
            s.recv(0, Region::work(0, b));
            s.recv(0, Region::work(b, b));
        });
        let sch = sb.finish();
        let tags: Vec<u32> = sch.ranks[0][0].sends().map(|(_, t, _)| *t).collect();
        assert_eq!(tags, vec![0, 1]);
        sch.validate().unwrap();
    }

    #[test]
    fn tags_count_per_pair_across_the_dense_switch_and_outside_the_world() {
        // The reference is the pair of hashed maps the builder used to
        // keep. Rank 0 fans out past FEW_PEERS (short list → dense row)
        // with peers revisited before and after the switch; peers no rank
        // has (the world size, u32::MAX) must count like any other and
        // never index out of bounds.
        let world = 12u32;
        let mut sb = ScheduleBuilder::new(world, 4, 4, 4, 0);
        let mut state = 7u64;
        for _ in 0..3000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let pick = (state >> 33) as u32;
            let rank = if pick.is_multiple_of(3) {
                0
            } else {
                pick % world
            };
            let peer = match (pick >> 8) % 10 {
                0 => world,
                1 => u32::MAX,
                _ => (pick >> 12) % world,
            };
            sb.step(rank, |s| match (pick >> 20) % 2 {
                0 => s.send(peer, Region::input(0, 4)),
                _ => s.recv(peer, Region::work(0, 4)),
            });
        }
        let sch = sb.finish();
        let mut sends: HashMap<(u32, u32), u32> = HashMap::new();
        let mut recvs: HashMap<(u32, u32), u32> = HashMap::new();
        let mut checked = 0;
        for (rank, prog) in sch.ranks.iter().enumerate() {
            for op in prog.iter().flat_map(|step| &step.ops) {
                let (seq, tag) = match op {
                    Op::Send { to, tag, .. } => (sends.entry((rank as u32, *to)).or_insert(0), tag),
                    Op::Recv { from, tag, .. } => {
                        (recvs.entry((*from, rank as u32)).or_insert(0), tag)
                    }
                    other => panic!("unexpected {other:?}"),
                };
                assert_eq!(tag, seq, "rank {rank} {op:?}");
                *seq += 1;
                checked += 1;
            }
        }
        assert_eq!(checked, 3000);
        assert!(sends.keys().filter(|k| k.0 == 0).count() > FEW_PEERS);
    }

    /// The error `validate` reports, checked against the expected variant.
    macro_rules! assert_rejects {
        ($schedule:expr, $variant:pat) => {
            let err = $schedule.validate().unwrap_err();
            assert!(matches!(err, $variant), "{err:?}");
        };
    }

    #[test]
    fn unmatched_send_fails() {
        let b = 4;
        let mut sb = ScheduleBuilder::new(2, b, b, 2 * b, 0);
        sb.step(0, |s| s.send(1, Region::input(0, b)));
        assert_rejects!(sb.finish(), SchedError::UnmatchedSend { to: 1, tag: 0, .. });
    }

    #[test]
    fn size_mismatch_fails() {
        let b = 4;
        let mut sb = ScheduleBuilder::new(2, b, b, 2 * b, 0);
        sb.step(0, |s| s.send(1, Region::input(0, b)));
        sb.step(1, |s| s.recv(0, Region::work(0, 2)));
        assert_rejects!(
            sb.finish(),
            SchedError::MessageSizeMismatch {
                send_len: 4,
                recv_len: 2,
                ..
            }
        );
    }

    #[test]
    fn out_of_bounds_region_fails() {
        let b = 4;
        let mut sb = ScheduleBuilder::new(2, b, b, b, 0);
        sb.step(0, |s| s.send(1, Region::input(0, b)));
        sb.step(1, |s| s.recv(0, Region::work(b, b))); // past end of work
        assert_rejects!(
            sb.finish(),
            SchedError::RegionOutOfBounds {
                buf: Buf::Work,
                buf_len: 4,
                ..
            }
        );
    }

    #[test]
    fn overflowing_region_fails_instead_of_wrapping() {
        // offset + len wraps usize; a naive `offset + len > buf_len` bound
        // check would accept this region (the wrapped end is tiny).
        const OVERFLOWING: usize = usize::MAX - 1;
        let b = 4;
        let mut sch = two_rank_exchange();
        sch.ranks[0][0].ops[0] = Op::Copy {
            src: Region::input(0, b),
            dst: Region::new(Buf::Work, OVERFLOWING, b),
        };
        assert_rejects!(
            sch,
            SchedError::RegionOutOfBounds {
                offset: OVERFLOWING,
                ..
            }
        );
        assert_eq!(Region::new(Buf::Work, OVERFLOWING, b).end(), usize::MAX);
    }

    #[test]
    fn self_send_fails() {
        let b = 4;
        let mut sb = ScheduleBuilder::new(2, b, b, b, 0);
        sb.step(0, |s| s.send(0, Region::input(0, b)));
        assert_rejects!(sb.finish(), SchedError::BadPeer { peer: 0, .. });
    }

    #[test]
    fn overlapping_copy_fails() {
        let b = 8;
        let mut sb = ScheduleBuilder::new(1, b, b, 2 * b, 0);
        sb.step(0, |s| s.copy(Region::work(0, b), Region::work(4, b)));
        assert_rejects!(sb.finish(), SchedError::OverlappingCopy { .. });
    }

    #[test]
    fn recv_into_input_fails() {
        let b = 4;
        let mut sb = ScheduleBuilder::new(2, b, b, b, 0);
        sb.step(0, |s| s.send(1, Region::input(0, b)));
        sb.step(1, |s| s.recv(0, Region::input(0, b)));
        assert_rejects!(sb.finish(), SchedError::ReadOnlyInputWrite { .. });
    }

    #[test]
    fn zero_length_ops_are_dropped() {
        let mut sb = ScheduleBuilder::new(2, 4, 4, 4, 0);
        sb.step(0, |s| {
            s.send(1, Region::input(0, 0));
            s.copy(Region::input(0, 0), Region::work(0, 0));
        });
        let sch = sb.finish();
        assert!(sch.ranks[0].is_empty());
        sch.validate().unwrap();
    }

    #[test]
    fn schedule_serde_roundtrip() {
        let sch = two_rank_exchange();
        let json = serde_json::to_string(&sch).unwrap();
        let back: CommSchedule = serde_json::from_str(&json).unwrap();
        assert_eq!(sch, back);
    }
}
