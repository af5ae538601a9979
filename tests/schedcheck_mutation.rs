//! Mutation harness for schedcheck: corrupt known-good schedules one
//! defect at a time and check that static verification reports the exact
//! [`SchedError`] variant for each corruption class — and that no
//! corruption panics the analyzer. The bases are real generated schedules
//! (ring allgather, ring allreduce), so the mutations also pin down which
//! check fires first when a corruption could trip several.

use pml_mpi::collectives::schedcheck::{check_schedule, SchedError, Spec};
use pml_mpi::collectives::schedule::{Buf, CommSchedule, Op, Region};
use pml_mpi::collectives::{Algorithm, AllgatherAlgo, AllreduceAlgo};

const P: u32 = 4;
const B: usize = 8;

fn ring_allgather() -> (CommSchedule, Spec) {
    (
        Algorithm::Allgather(AllgatherAlgo::Ring)
            .schedule(P, B)
            .unwrap(),
        Spec::Allgather { block: B },
    )
}

fn ring_allreduce() -> (CommSchedule, Spec) {
    (
        Algorithm::Allreduce(AllreduceAlgo::RingReduceScatter)
            .schedule(P, B)
            .unwrap(),
        Spec::Allreduce { msg: B },
    )
}

/// Locate the first op matching `pred` and return its (rank, step, op)
/// coordinates.
fn find_op(s: &CommSchedule, pred: impl Fn(&Op) -> bool) -> (usize, usize, usize) {
    for (r, prog) in s.ranks.iter().enumerate() {
        for (si, step) in prog.iter().enumerate() {
            for (oi, op) in step.ops.iter().enumerate() {
                if pred(op) {
                    return (r, si, oi);
                }
            }
        }
    }
    panic!("no op matched the predicate");
}

/// (step, op) coordinates of every send posted by `rank`, program order.
fn send_coords(s: &CommSchedule, rank: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for (si, step) in s.ranks[rank].iter().enumerate() {
        for (oi, op) in step.ops.iter().enumerate() {
            if matches!(op, Op::Send { .. }) {
                out.push((si, oi));
            }
        }
    }
    out
}

/// Read rank 0's send tag at `(step, op)`, optionally overwriting it.
fn send_tag(s: &mut CommSchedule, (si, oi): (usize, usize), set: Option<u32>) -> u32 {
    match &mut s.ranks[0][si].ops[oi] {
        Op::Send { tag, .. } => {
            let old = *tag;
            if let Some(v) = set {
                *tag = v;
            }
            old
        }
        other => panic!("expected a send, got {other:?}"),
    }
}

#[test]
fn bases_pass() {
    let (sch, spec) = ring_allgather();
    check_schedule(&sch, &spec).unwrap();
    let (sch, spec) = ring_allreduce();
    check_schedule(&sch, &spec).unwrap();
}

#[test]
fn dropped_recv_is_an_unmatched_send() {
    let (mut sch, spec) = ring_allgather();
    let (r, si, oi) = find_op(&sch, |op| matches!(op, Op::Recv { .. }));
    sch.ranks[r][si].ops.remove(oi);
    let err = check_schedule(&sch, &spec).unwrap_err();
    assert!(matches!(err, SchedError::UnmatchedSend { .. }), "{err:?}");
}

#[test]
fn dropped_send_is_an_unmatched_recv() {
    let (mut sch, spec) = ring_allgather();
    let (r, si, oi) = find_op(&sch, |op| matches!(op, Op::Send { .. }));
    sch.ranks[r][si].ops.remove(oi);
    let err = check_schedule(&sch, &spec).unwrap_err();
    assert!(matches!(err, SchedError::UnmatchedRecv { .. }), "{err:?}");
}

#[test]
fn swapped_tags_are_a_fifo_violation() {
    // Swap the tags of rank 0's first two sends (ring: both go to the same
    // neighbor, so the receiver's FIFO order no longer matches).
    let (mut sch, spec) = ring_allgather();
    let sends = send_coords(&sch, 0);
    assert!(sends.len() >= 2, "ring rank 0 posts at least two sends");
    let t0 = send_tag(&mut sch, sends[0], None);
    let t1 = send_tag(&mut sch, sends[1], Some(t0));
    send_tag(&mut sch, sends[0], Some(t1));
    let err = check_schedule(&sch, &spec).unwrap_err();
    assert!(
        matches!(err, SchedError::TagOrderViolation { index: 0, .. }),
        "{err:?}"
    );
}

#[test]
fn shrunk_recv_region_is_a_size_mismatch() {
    let (mut sch, spec) = ring_allgather();
    let (r, si, oi) = find_op(&sch, |op| matches!(op, Op::Recv { .. }));
    if let Op::Recv { region, .. } = &mut sch.ranks[r][si].ops[oi] {
        region.len -= 1;
    }
    let err = check_schedule(&sch, &spec).unwrap_err();
    assert!(
        matches!(err, SchedError::MessageSizeMismatch { .. }),
        "{err:?}"
    );
}

#[test]
fn retargeted_combine_is_a_postcondition_mismatch() {
    // Shift one reduction to the wrong chunk: the victim chunk is missing
    // a contribution and the target chunk reduces one twice. Structurally
    // and dataflow-wise the schedule stays healthy — only the provenance
    // multisets disagree with the allreduce spec.
    let (mut sch, spec) = ring_allreduce();
    let (r, si, oi) = find_op(&sch, |op| matches!(op, Op::Combine { .. }));
    if let Op::Combine { dst, .. } = &mut sch.ranks[r][si].ops[oi] {
        dst.offset = (dst.offset + dst.len) % sch.work_len;
    }
    let err = check_schedule(&sch, &spec).unwrap_err();
    assert!(
        matches!(err, SchedError::PostconditionMismatch { .. }),
        "{err:?}"
    );
}

#[test]
fn read_of_never_written_bytes_is_an_uninit_read() {
    // Prepend a copy whose source no rank has written yet. The ring fills
    // work block 1 of rank 0 only via a later receive.
    let (mut sch, spec) = ring_allgather();
    sch.ranks[0][0].ops.insert(
        0,
        Op::Copy {
            src: Region::work(B, B),
            dst: Region::work(2 * B, B),
        },
    );
    let err = check_schedule(&sch, &spec).unwrap_err();
    assert!(
        matches!(
            err,
            SchedError::UninitRead {
                buf: Buf::Work,
                offset: B,
                ..
            }
        ),
        "{err:?}"
    );
}

#[test]
fn overlapping_recvs_in_one_step_are_a_hazard() {
    // Two same-step receives writing overlapping bytes: completion order
    // is unspecified, so the overlap bytes would be racy.
    let (mut sch, spec) = ring_allgather();
    // Rank 0 receives from rank 3 in steps 1..=3 (ring predecessor). Move
    // the second recv into the first recv's step and shift its region to
    // straddle the first's.
    let mut recvs = Vec::new();
    for (si, step) in sch.ranks[0].iter().enumerate() {
        for (oi, op) in step.ops.iter().enumerate() {
            if matches!(op, Op::Recv { .. }) {
                recvs.push((si, oi));
            }
        }
    }
    assert!(recvs.len() >= 2);
    let (s2, o2) = recvs[1];
    let mut moved = sch.ranks[0][s2].ops.remove(o2);
    let (s1, o1) = recvs[0];
    let first_region = match &sch.ranks[0][s1].ops[o1] {
        Op::Recv { region, .. } => *region,
        _ => unreachable!(),
    };
    if let Op::Recv { region, .. } = &mut moved {
        // Same destination bytes as the first recv: a full overlap.
        *region = first_region;
    }
    sch.ranks[0][s1].ops.push(moved);
    let err = check_schedule(&sch, &spec).unwrap_err();
    assert!(
        matches!(err, SchedError::RecvOverlap { rank: 0, .. }),
        "{err:?}"
    );
}

#[test]
fn wait_cycle_is_a_deadlock() {
    // Hand-built two-rank exchange where each rank waits before sending.
    let b = 8usize;
    let mk = |peer: u32| {
        vec![
            pml_mpi::collectives::Step {
                ops: vec![Op::Recv {
                    from: peer,
                    tag: 0,
                    region: Region::work(0, b),
                }],
            },
            pml_mpi::collectives::Step {
                ops: vec![Op::Send {
                    to: peer,
                    tag: 0,
                    region: Region::input(0, b),
                }],
            },
        ]
    };
    let sch = CommSchedule {
        world: 2,
        block: b,
        input_len: b,
        work_len: b,
        aux_len: 0,
        work_initialized_from_input: false,
        ranks: vec![mk(1), mk(0)],
    };
    let err = check_schedule(&sch, &Spec::Bcast { msg: b }).unwrap_err();
    match err {
        SchedError::Deadlock { cycle } => assert!(cycle.len() >= 4, "{cycle:?}"),
        other => panic!("expected deadlock, got {other:?}"),
    }
}

#[test]
fn self_send_is_a_bad_peer() {
    let (mut sch, spec) = ring_allgather();
    let (r, si, oi) = find_op(&sch, |op| matches!(op, Op::Send { .. }));
    if let Op::Send { to, .. } = &mut sch.ranks[r][si].ops[oi] {
        *to = r as u32;
    }
    let err = check_schedule(&sch, &spec).unwrap_err();
    assert!(matches!(err, SchedError::BadPeer { .. }), "{err:?}");
}

#[test]
fn overflowing_region_is_out_of_bounds() {
    let (mut sch, spec) = ring_allgather();
    let (r, si, oi) = find_op(&sch, |op| matches!(op, Op::Copy { .. }));
    if let Op::Copy { dst, .. } = &mut sch.ranks[r][si].ops[oi] {
        dst.offset = usize::MAX - 2;
    }
    let err = check_schedule(&sch, &spec).unwrap_err();
    assert!(
        matches!(err, SchedError::RegionOutOfBounds { .. }),
        "{err:?}"
    );
}

#[test]
fn useless_copy_is_a_dead_op() {
    // A copy into Aux that nothing reads contributes no byte to any final
    // Work buffer.
    let (mut sch, spec) = ring_allgather();
    sch.aux_len = B;
    let last = sch.ranks[0].len() - 1;
    sch.ranks[0][last].ops.push(Op::Copy {
        src: Region::work(0, B),
        dst: Region::aux(0, B),
    });
    let err = check_schedule(&sch, &spec).unwrap_err();
    match err {
        SchedError::DeadOp { at } => {
            assert_eq!((at.rank, at.step), (0, last), "{at}");
        }
        other => panic!("expected dead op, got {other:?}"),
    }
}

#[test]
fn truncated_ranks_are_a_world_mismatch() {
    let (mut sch, spec) = ring_allgather();
    sch.ranks.pop();
    let err = check_schedule(&sch, &spec).unwrap_err();
    assert!(matches!(err, SchedError::WorldMismatch { .. }), "{err:?}");
}

#[test]
fn grown_work_buffer_is_a_shape_mismatch() {
    let (mut sch, spec) = ring_allgather();
    sch.work_len += 1;
    let err = check_schedule(&sch, &spec).unwrap_err();
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
fn duplicated_tag_is_a_duplicate_message() {
    // Give rank 0's second send to its ring successor the same tag as the
    // first: two messages now share a mailbox key.
    let (mut sch, spec) = ring_allgather();
    let sends = send_coords(&sch, 0);
    assert!(sends.len() >= 2);
    send_tag(&mut sch, sends[1], Some(0));
    let err = check_schedule(&sch, &spec).unwrap_err();
    assert!(
        matches!(err, SchedError::DuplicateMessage { .. }),
        "{err:?}"
    );
}
