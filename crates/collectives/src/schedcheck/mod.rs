//! # schedcheck — static dataflow verification of the schedule IR
//!
//! Proves a [`CommSchedule`] implements its collective **without
//! executing it**: each rank's buffers are modelled as byte-granular
//! provenance multisets ([`AbsByte`]) and the steps are abstractly
//! interpreted in phase order (copies → posted sends → wait-all
//! receives), in a topological order of the global Post/Complete step
//! graph. Five classes of defect are rejected with a typed
//! [`SchedError`]:
//!
//! 1. **Uninitialized reads** — a `Send`/`Copy`/`Combine` source (or a
//!    `Combine` destination) containing a byte nothing ever wrote;
//! 2. **Structural hazards** — out-of-bounds or overflowing regions, bad
//!    peers, length mismatches, writes to the read-only Input, and two
//!    receives of one step racing on overlapping bytes;
//! 3. **Mismatched messages and deadlock** — a send without exactly one
//!    receive of its size, tags out of FIFO order within a directed pair
//!    (both also [`CommSchedule::validate`]'s verdicts: it runs this
//!    module's matcher), or a cycle in the cross-rank wait graph (reported
//!    with a witness);
//! 4. **Dead operations** — sends/copies/reductions none of whose bytes
//!    reach any rank's final Work buffer;
//! 5. **Postcondition mismatch** — the final abstract Work state differs
//!    from the collective's declarative [`Spec`] (for allreduce the
//!    multiset equality proves every rank's contribution is reduced
//!    exactly once).
//!
//! It answers from the IR alone, without moving a byte — the admission
//! gate a schedule synthesizer would run before simulating a candidate,
//! and the proof for every named algorithm the registry ships
//! (`pml-mpi verify --schedules` sweeps the full grid in CI). Its tests
//! hold it to the crate's test-only byte oracle (`verify` over the
//! interpreter): on the standard grid and on mutated schedules, a static
//! pass implies an oracle pass.

mod analyze;
mod domain;
mod graph;
mod liveness;
mod spec;

pub use domain::{AbsByte, RankAbs, SourceByte};
pub use spec::Spec;

// The static cost analyzer (`crate::schedcost`) and the virtual-time
// executor (`crate::exec::sim`) read the same matched messages and sweep
// the same Post/Complete dependency graph.
#[cfg(test)]
pub(crate) use graph::oracle;
pub(crate) use graph::{match_messages, Messages};

use crate::algo::{Algorithm, Collective};
use crate::schedule::{Buf, CommSchedule, Op, Region};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Version string every on-disk schedule document must carry.
pub const SCHED_DOC_VERSION: &str = "pml-sched/v1";

/// Versioned on-disk schedule document: what `pml-mpi verify --schedules
/// FILE` checks, and the interchange format a schedule synthesizer emits
/// for gating. The claim (`collective` + `size`) travels with the
/// schedule so verification needs no out-of-band context.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduleDoc {
    pub v: String,
    pub collective: Collective,
    pub size: usize,
    pub schedule: CommSchedule,
}

impl ScheduleDoc {
    /// Wrap a schedule with its claim under the current version.
    pub fn new(collective: Collective, size: usize, schedule: CommSchedule) -> Self {
        ScheduleDoc {
            v: SCHED_DOC_VERSION.to_string(),
            collective,
            size,
            schedule,
        }
    }

    /// Check the version tag and statically verify the schedule against
    /// the claimed collective.
    pub fn check(&self) -> Result<(), SchedError> {
        if self.v != SCHED_DOC_VERSION {
            return Err(SchedError::BadDocVersion {
                got: self.v.clone(),
            });
        }
        check_schedule(
            &self.schedule,
            &Spec::for_collective(self.collective, self.size),
        )
    }
}

/// Location of one operation inside a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct OpRef {
    pub rank: u32,
    pub step: usize,
    pub op: usize,
}

impl fmt::Display for OpRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rank {} step {} op {}", self.rank, self.step, self.op)
    }
}

/// Which half of a step a node of the global step graph stands for:
/// posting its copies and sends, or completing its receives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Post,
    Complete,
}

/// One node of the step graph; a deadlock is reported as a cycle of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepRef {
    pub rank: u32,
    pub step: usize,
    pub phase: Phase,
}

impl fmt::Display for StepRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let phase = match self.phase {
            Phase::Post => "post",
            Phase::Complete => "complete",
        };
        write!(f, "rank {} step {} ({phase})", self.rank, self.step)
    }
}

/// Every way a schedule can fail static verification.
#[derive(Debug, Clone, PartialEq)]
pub enum SchedError {
    /// `world` disagrees with the number of rank programs.
    WorldMismatch { world: u32, programs: usize },
    /// A send/recv peer is out of range or the rank itself.
    BadPeer { at: OpRef, peer: u32 },
    /// A region exceeds its buffer (including `offset + len` overflow).
    RegionOutOfBounds {
        at: OpRef,
        buf: Buf,
        offset: usize,
        len: usize,
        buf_len: usize,
    },
    /// A copy/reduction whose source and destination lengths differ.
    CopyLengthMismatch {
        at: OpRef,
        src_len: usize,
        dst_len: usize,
    },
    /// A copy/reduction whose source and destination overlap in the same
    /// buffer (undefined under memcpy semantics).
    OverlappingCopy { at: OpRef },
    /// A copy or receive writing the read-only Input buffer.
    ReadOnlyInputWrite { at: OpRef },
    /// Two sends (or two receives) with the same `(src, dst, tag)`.
    DuplicateMessage { src: u32, dst: u32, tag: u32 },
    /// A send no receive ever matches.
    UnmatchedSend { at: OpRef, to: u32, tag: u32 },
    /// A receive no send ever matches.
    UnmatchedRecv { at: OpRef, from: u32, tag: u32 },
    /// Matched send and receive regions of different size.
    MessageSizeMismatch {
        src: u32,
        dst: u32,
        tag: u32,
        send_len: usize,
        recv_len: usize,
    },
    /// The k-th send and k-th receive of a directed pair (each in program
    /// order) carry different tags — an MPI non-overtaking violation.
    TagOrderViolation {
        src: u32,
        dst: u32,
        index: usize,
        send_tag: u32,
        recv_tag: u32,
    },
    /// The cross-rank wait graph has a cycle; no execution can finish.
    Deadlock { cycle: Vec<StepRef> },
    /// Two receives of one step write overlapping bytes — their
    /// completion order is unspecified, so the content would be racy.
    RecvOverlap {
        rank: u32,
        step: usize,
        first: usize,
        second: usize,
    },
    /// An operation reads a byte nothing ever wrote.
    UninitRead { at: OpRef, buf: Buf, offset: usize },
    /// An operation none of whose bytes reach any rank's final output.
    DeadOp { at: OpRef },
    /// The algorithm is not defined at this world size.
    UnsupportedWorld { world: u32 },
    /// A schedule document carries an unknown version tag.
    BadDocVersion { got: String },
    /// Buffer geometry disagrees with the collective's spec.
    SpecShapeMismatch {
        field: &'static str,
        expected: usize,
        got: usize,
    },
    /// A final Work byte holds the wrong provenance.
    PostconditionMismatch {
        rank: u32,
        offset: usize,
        expected: String,
        got: String,
    },
    /// An analyzer invariant broke — never expected on any input.
    Internal { what: &'static str },
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedError::WorldMismatch { world, programs } => {
                write!(
                    f,
                    "world is {world} but schedule has {programs} rank programs"
                )
            }
            SchedError::BadPeer { at, peer } => write!(f, "{at}: bad peer {peer}"),
            SchedError::RegionOutOfBounds {
                at,
                buf,
                offset,
                len,
                buf_len,
            } => write!(
                f,
                "{at}: region {buf:?}+{offset} len {len} exceeds buffer length {buf_len}"
            ),
            SchedError::CopyLengthMismatch {
                at,
                src_len,
                dst_len,
            } => write!(f, "{at}: copy length mismatch {src_len} vs {dst_len}"),
            SchedError::OverlappingCopy { at } => {
                write!(f, "{at}: overlapping same-buffer copy")
            }
            SchedError::ReadOnlyInputWrite { at } => {
                write!(f, "{at}: writes the read-only input")
            }
            SchedError::DuplicateMessage { src, dst, tag } => {
                write!(f, "duplicate message ({src} -> {dst}, tag {tag})")
            }
            SchedError::UnmatchedSend { at, to, tag } => {
                write!(f, "{at}: send to {to} tag {tag} is never received")
            }
            SchedError::UnmatchedRecv { at, from, tag } => {
                write!(f, "{at}: recv from {from} tag {tag} is never sent")
            }
            SchedError::MessageSizeMismatch {
                src,
                dst,
                tag,
                send_len,
                recv_len,
            } => write!(
                f,
                "message ({src} -> {dst}, tag {tag}): send {send_len} bytes but recv {recv_len}"
            ),
            SchedError::TagOrderViolation {
                src,
                dst,
                index,
                send_tag,
                recv_tag,
            } => write!(
                f,
                "pair ({src} -> {dst}) message {index}: send tag {send_tag} but recv tag \
                 {recv_tag} (FIFO order violated)"
            ),
            SchedError::Deadlock { cycle } => {
                let parts: Vec<String> = cycle.iter().map(|n| n.to_string()).collect();
                write!(f, "deadlock: {}", parts.join(" -> "))
            }
            SchedError::RecvOverlap {
                rank,
                step,
                first,
                second,
            } => write!(
                f,
                "rank {rank} step {step}: recvs at ops {first} and {second} write overlapping \
                 bytes"
            ),
            SchedError::UninitRead { at, buf, offset } => {
                write!(f, "{at}: reads uninitialized {buf:?} byte {offset}")
            }
            SchedError::DeadOp { at } => write!(
                f,
                "{at}: dead operation — no byte it moves reaches any rank's final output"
            ),
            SchedError::UnsupportedWorld { world } => {
                write!(f, "algorithm not defined at world size {world}")
            }
            SchedError::BadDocVersion { got } => {
                write!(
                    f,
                    "unsupported schedule document version {got:?} (want {SCHED_DOC_VERSION:?})"
                )
            }
            SchedError::SpecShapeMismatch {
                field,
                expected,
                got,
            } => write!(f, "spec shape: {field} should be {expected}, got {got}"),
            SchedError::PostconditionMismatch {
                rank,
                offset,
                expected,
                got,
            } => write!(
                f,
                "postcondition: rank {rank} work byte {offset} holds [{got}], spec requires \
                 [{expected}]"
            ),
            SchedError::Internal { what } => write!(f, "internal analyzer error: {what}"),
        }
    }
}

impl std::error::Error for SchedError {}

/// Per-op structural checks — the first half of
/// [`CommSchedule::validate`] — with `offset + len` overflow rejected
/// explicitly.
pub(crate) fn structural(s: &CommSchedule) -> Result<(), SchedError> {
    if s.ranks.len() != s.world as usize {
        return Err(SchedError::WorldMismatch {
            world: s.world,
            programs: s.ranks.len(),
        });
    }
    let buf_len = |b: Buf| match b {
        Buf::Input => s.input_len,
        Buf::Work => s.work_len,
        Buf::Aux => s.aux_len,
    };
    let check_region = |r: &Region, at: OpRef| -> Result<(), SchedError> {
        let oob = match r.offset.checked_add(r.len) {
            Some(end) => end > buf_len(r.buf),
            None => true,
        };
        if oob {
            return Err(SchedError::RegionOutOfBounds {
                at,
                buf: r.buf,
                offset: r.offset,
                len: r.len,
                buf_len: buf_len(r.buf),
            });
        }
        Ok(())
    };
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
                    Op::Send { to, region, .. } => {
                        if *to >= s.world || *to == rank {
                            return Err(SchedError::BadPeer { at, peer: *to });
                        }
                        check_region(region, at)?;
                    }
                    Op::Recv { from, region, .. } => {
                        if *from >= s.world || *from == rank {
                            return Err(SchedError::BadPeer { at, peer: *from });
                        }
                        check_region(region, at)?;
                        if region.buf == Buf::Input {
                            return Err(SchedError::ReadOnlyInputWrite { at });
                        }
                    }
                    Op::Copy { src, dst } | Op::Combine { src, dst } => {
                        check_region(src, at)?;
                        check_region(dst, at)?;
                        if src.len != dst.len {
                            return Err(SchedError::CopyLengthMismatch {
                                at,
                                src_len: src.len,
                                dst_len: dst.len,
                            });
                        }
                        if src.overlaps(dst) {
                            return Err(SchedError::OverlappingCopy { at });
                        }
                        if dst.buf == Buf::Input {
                            return Err(SchedError::ReadOnlyInputWrite { at });
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

/// Statically verify `schedule` against `spec`. `Ok(())` is a proof (up
/// to the analyzer's own correctness) that every execution the step
/// semantics allow terminates and leaves every rank's Work buffer exactly
/// as the collective's specification demands.
pub fn check_schedule(schedule: &CommSchedule, spec: &Spec) -> Result<(), SchedError> {
    structural(schedule)?;
    spec.check_shape(schedule)?;
    let msgs = graph::match_messages(schedule)?;
    analyze::check_recv_overlap(schedule)?;
    let order = graph::topo_order(schedule, &msgs)?;
    let finals = analyze::interpret(schedule, &order)?;
    spec.check_post(schedule, &finals)?;
    if let Some(at) = liveness::first_dead_op(schedule, &order) {
        return Err(SchedError::DeadOp { at });
    }
    Ok(())
}

/// Generate `algo`'s schedule at (`p`, `size`) and statically verify it
/// against its collective's spec.
pub fn check_algorithm(algo: Algorithm, p: u32, size: usize) -> Result<(), SchedError> {
    if !algo.supports(p) {
        return Err(SchedError::UnsupportedWorld { world: p });
    }
    let schedule = algo.schedule(p, size)?;
    check_schedule(&schedule, &Spec::for_collective(algo.collective(), size))
}

/// Every (algorithm, world, size) cell of the standard verification
/// grid: all registered algorithms of every collective, world ∈
/// `2..=max_world` (non-powers-of-two included; algorithm/world pairs
/// the registry marks unsupported are skipped), at each of `sizes`
/// (block bytes for allgather/alltoall, message bytes for
/// bcast/allreduce).
pub fn sweep_grid(max_world: u32, sizes: &[usize]) -> Vec<(Algorithm, u32, usize)> {
    let mut out = Vec::new();
    for c in Collective::ALL {
        for p in 2..=max_world {
            for algo in Algorithm::applicable_for(c, p) {
                for &size in sizes {
                    out.push((algo, p, size));
                }
            }
        }
    }
    out
}

/// A grid sweep's outcome: how many cells of each algorithm passed, keyed
/// by algorithm (not by name, which collectives share), and each cell that
/// failed with why, in sweep order.
#[derive(Debug)]
pub struct GridTally<E> {
    pub passed: BTreeMap<Algorithm, usize>,
    pub failed: Vec<((Algorithm, u32, usize), E)>,
}

impl<E> GridTally<E> {
    /// Run `check` on every [`sweep_grid`] cell.
    pub fn sweep(
        max_world: u32,
        sizes: &[usize],
        mut check: impl FnMut(Algorithm, u32, usize) -> Result<(), E>,
    ) -> Self {
        let (mut passed, mut failed) = (BTreeMap::new(), Vec::new());
        for (algo, p, size) in sweep_grid(max_world, sizes) {
            match check(algo, p, size) {
                Ok(()) => *passed.entry(algo).or_default() += 1,
                Err(e) => failed.push(((algo, p, size), e)),
            }
        }
        GridTally { passed, failed }
    }

    /// The cells swept.
    pub fn cells(&self) -> usize {
        self.passed.values().sum::<usize>() + self.failed.len()
    }
}

/// Statically verify every cell of the standard grid (`pml-mpi verify
/// --schedules` with no files).
pub fn check_grid(max_world: u32, sizes: &[usize]) -> GridTally<SchedError> {
    GridTally::sweep(max_world, sizes, check_algorithm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::{AllgatherAlgo, AlltoallAlgo};
    use crate::schedule::ScheduleBuilder;
    use crate::verify::{
        check_allgather, check_allreduce, check_alltoall, check_bcast, VerifyError,
    };

    /// The canonical two-rank allgather exchange from schedule.rs's tests.
    fn two_rank_allgather(b: usize) -> CommSchedule {
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
    fn two_rank_exchange_proves_allgather() {
        let sch = two_rank_allgather(8);
        check_schedule(&sch, &Spec::Allgather { block: 8 }).unwrap();
    }

    #[test]
    fn swapped_slots_are_a_postcondition_mismatch() {
        // Rank 1 places its own block where rank 0's belongs (and vice
        // versa): shape and dataflow are fine, provenance is not.
        let b = 8usize;
        let mut sch = two_rank_allgather(b);
        sch.ranks[1][0].ops[0] = Op::Copy {
            src: Region::input(0, b),
            dst: Region::work(0, b),
        };
        sch.ranks[1][0].ops[2] = Op::Recv {
            from: 0,
            tag: 0,
            region: Region::work(b, b),
        };
        let err = check_schedule(&sch, &Spec::Allgather { block: b }).unwrap_err();
        assert!(
            matches!(
                err,
                SchedError::PostconditionMismatch {
                    rank: 1,
                    offset: 0,
                    ..
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn wrong_collective_is_a_shape_mismatch() {
        let sch = two_rank_allgather(8);
        let err = check_schedule(&sch, &Spec::Bcast { msg: 8 }).unwrap_err();
        assert!(
            matches!(
                err,
                SchedError::SpecShapeMismatch {
                    field: "work_len",
                    ..
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn overflowing_region_is_out_of_bounds_not_a_wrap() {
        let b = 8usize;
        let mut sch = two_rank_allgather(b);
        sch.ranks[0][0].ops[0] = Op::Copy {
            src: Region::input(0, b),
            dst: Region::new(Buf::Work, usize::MAX - 2, b),
        };
        let err = check_schedule(&sch, &Spec::Allgather { block: b }).unwrap_err();
        assert!(
            matches!(err, SchedError::RegionOutOfBounds { .. }),
            "{err:?}"
        );
    }

    #[test]
    fn grid_covers_non_powers_of_two() {
        let grid = sweep_grid(16, &[16, 21]);
        assert!(grid.iter().any(|(_, p, _)| *p == 7));
        assert!(grid.iter().any(|(_, p, _)| *p == 12));
        // Power-of-two-only algorithms never appear at odd worlds.
        assert!(grid
            .iter()
            .all(|(a, p, _)| a.supports(*p) && *p >= 2 && *p <= 16));
    }

    #[test]
    fn tally_counts_each_algorithm_of_each_collective_apart() {
        let (max_world, sizes) = (16, [16, 21]);
        let tally = GridTally::<()>::sweep(max_world, &sizes, |_, _, _| Ok(()));
        let grid = sweep_grid(max_world, &sizes);
        assert_eq!(tally.passed.len(), 15);
        for (&algo, &n) in &tally.passed {
            let own = grid.iter().filter(|(a, _, _)| *a == algo).count();
            assert_eq!(n, own, "{algo}");
        }
        // Bruck is both an allgather and an alltoall algorithm: 15 worlds x
        // 2 sizes each, never the 60 one shared name would merge them into.
        assert_eq!(
            tally.passed[&Algorithm::Allgather(AllgatherAlgo::Bruck)],
            30
        );
        assert_eq!(tally.passed[&Algorithm::Alltoall(AlltoallAlgo::Bruck)], 30);
        assert_eq!(tally.cells(), grid.len());
    }

    #[test]
    fn errors_render() {
        let at = OpRef {
            rank: 1,
            step: 2,
            op: 0,
        };
        let msgs = [
            SchedError::BadPeer { at, peer: 9 }.to_string(),
            SchedError::DeadOp { at }.to_string(),
            SchedError::UninitRead {
                at,
                buf: Buf::Aux,
                offset: 3,
            }
            .to_string(),
        ];
        for m in &msgs {
            assert!(m.contains("rank 1 step 2"), "{m}");
        }
    }

    /// The byte oracle's verdict on `sch` as an implementation of `c`.
    fn oracle(sch: &CommSchedule, c: Collective, size: usize) -> Result<(), VerifyError> {
        match c {
            Collective::Allgather => check_allgather(sch, size),
            Collective::Alltoall => check_alltoall(sch, size),
            Collective::Bcast => check_bcast(sch, size),
            Collective::Allreduce => check_allreduce(sch, size),
        }
    }

    #[test]
    fn every_registered_algorithm_passes_both_verifiers() {
        let grid = sweep_grid(12, &[16, 21]);
        assert!(grid.len() > 100, "grid unexpectedly small: {}", grid.len());
        for (algo, p, size) in grid {
            let st = check_algorithm(algo, p, size);
            assert!(st.is_ok(), "static {algo:?} p={p} size={size}: {st:?}");
            let sch = algo.schedule(p, size).unwrap();
            let dy = oracle(&sch, algo.collective(), size);
            assert!(dy.is_ok(), "oracle {algo:?} p={p} size={size}: {dy:?}");
        }
    }

    /// Generic schedule mutations applicable to any algorithm's output.
    /// Each returns false if the schedule has no site for the mutation.
    fn drop_last_recv(sch: &mut CommSchedule) -> bool {
        for prog in sch.ranks.iter_mut().rev() {
            for step in prog.iter_mut().rev() {
                if let Some(i) = step
                    .ops
                    .iter()
                    .rposition(|op| matches!(op, Op::Recv { .. }))
                {
                    step.ops.remove(i);
                    return true;
                }
            }
        }
        false
    }

    /// The first op (in rank, step, op order) for which `mutate` reports a
    /// change.
    fn mutate_first(sch: &mut CommSchedule, mutate: impl Fn(&mut Op) -> bool) -> bool {
        sch.ranks
            .iter_mut()
            .flat_map(|prog| prog.iter_mut())
            .flat_map(|step| step.ops.iter_mut())
            .any(mutate)
    }

    fn shrink_first_recv(sch: &mut CommSchedule) -> bool {
        mutate_first(sch, |op| match op {
            Op::Recv { region, .. } if region.len > 1 => {
                region.len -= 1;
                true
            }
            _ => false,
        })
    }

    fn retarget_first_combine(sch: &mut CommSchedule) -> bool {
        let work_len = sch.work_len;
        mutate_first(sch, |op| match op {
            Op::Combine { dst, .. } if dst.len > 0 && dst.len < work_len => {
                dst.offset = (dst.offset + dst.len) % work_len;
                true
            }
            _ => false,
        })
    }

    fn zero_first_send_tag(sch: &mut CommSchedule) -> bool {
        mutate_first(sch, |op| match op {
            Op::Send { tag, .. } if *tag != 0 => {
                *tag = 0;
                true
            }
            _ => false,
        })
    }

    #[test]
    fn static_pass_implies_oracle_pass_on_mutants() {
        type Mutation = (&'static str, fn(&mut CommSchedule) -> bool);
        let mutations: [Mutation; 4] = [
            ("drop_last_recv", drop_last_recv),
            ("shrink_first_recv", shrink_first_recv),
            ("retarget_first_combine", retarget_first_combine),
            ("zero_first_send_tag", zero_first_send_tag),
        ];
        let mut applied = 0usize;
        let mut caught_static = 0usize;
        for (algo, p, size) in sweep_grid(8, &[16]) {
            let spec = Spec::for_collective(algo.collective(), size);
            for (name, mutate) in &mutations {
                let mut sch = algo.schedule(p, size).unwrap();
                if !mutate(&mut sch) {
                    continue;
                }
                applied += 1;
                if check_schedule(&sch, &spec).is_err() {
                    caught_static += 1;
                    continue;
                }
                // Soundness direction: schedcheck accepted the mutant, so
                // the execution must be indistinguishable from correct.
                let dy = oracle(&sch, algo.collective(), size);
                assert!(
                    dy.is_ok(),
                    "{name} on {algo:?} p={p} size={size}: static passed but oracle failed: {dy:?}"
                );
            }
        }
        assert!(applied > 50, "too few mutants applied: {applied}");
        // Dropping a receive always strands its send; at minimum those must
        // all be caught statically, so the static catch rate can't be tiny.
        assert!(
            caught_static * 4 >= applied,
            "static analyzer caught only {caught_static}/{applied} mutants"
        );
    }
}
